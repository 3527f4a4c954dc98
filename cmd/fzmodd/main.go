// Command fzmodd is the FZModules compression daemon: a multi-tenant
// HTTP service where every request executes over one warm shared
// platform. The admission controller treats -workers as a global
// parallelism budget (requests lease slices of it, excess requests queue
// and shed), every data-plane request is parsed, leased, executed and
// answered the same way on its handler's goroutine, and /metrics exports
// the daemon's flat counters.
//
// Endpoints:
//
//	POST   /v1/compress?dims=XxYxZ&eb=1e-4[&mode=rel|abs][&preset=..][&workers=N][&chunk=E]
//	POST   /v1/decompress[?workers=N]
//	POST   /v1/probe
//	PUT    /v1/objects/<name>
//	GET    /v1/objects/<name>
//	DELETE /v1/objects/<name>
//	GET    /v1/objects/<name>/region?sel=i0:i1,j0:j1,k0:k1[&workers=N]
//	POST   /v1/admin/budget?workers=N
//	GET    /metrics
//	GET    /healthz
//	GET    /readyz
//
// SIGTERM/SIGINT drains gracefully: new requests are refused with 503 +
// Retry-After while in-flight requests complete (bounded by
// -drain-timeout). POST /v1/admin/budget?workers=N resizes the worker
// budget without dropping queued requests.
//
// Example:
//
//	fzmodd -listen :8092 -workers 8 &
//	curl -s --data-binary @field.f32 'localhost:8092/v1/compress?dims=256x256x256&eb=1e-4' -o field.fzm
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fzmod/internal/device"
	"fzmod/internal/serve"
)

// options is the parsed command line.
type options struct {
	listen    string
	drainWait time.Duration
	cfg       serve.Config
}

// flagSet declares every fzmodd flag over o — the one place they are
// defined, so a test can walk the set against the README's flag list.
func flagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("fzmodd", flag.ContinueOnError)
	fs.StringVar(&o.listen, "listen", ":8092", "address to serve on")
	fs.IntVar(&o.cfg.Workers, "workers", 0, "global worker budget (0 = platform width)")
	fs.StringVar(&o.cfg.Preset, "preset", "default", "default pipeline preset: default, speed, quality")
	fs.IntVar(&o.cfg.DefaultLease, "lease", 1, "workers leased per request when the request names none")
	fs.IntVar(&o.cfg.MaxQueue, "max-queue", 64, "queued requests before shedding with 429 (-1 = none)")
	fs.DurationVar(&o.cfg.MaxWait, "max-wait", 2*time.Second, "longest a request may queue before 429 (-1s = forever)")
	fs.Int64Var(&o.cfg.CacheBytes, "cache-mb", 256, "region slab-cache budget in MiB")
	fs.DurationVar(&o.cfg.RequestTimeout, "timeout", 0, "per-request execution timeout (0 = none)")
	fs.Int64Var(&o.cfg.MaxBodyBytes, "max-body-mb", 1024, "request body cap in MiB")
	fs.DurationVar(&o.drainWait, "drain-timeout", 10*time.Second, "longest a graceful shutdown waits for in-flight requests")
	return fs
}

// parseArgs parses the command line into options; the error (already
// reported on stderr by the flag package) is a usage error.
func parseArgs(args []string, stderr io.Writer) (*options, error) {
	var o options
	fs := flagSet(&o)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.cfg.CacheBytes <<= 20
	o.cfg.MaxBodyBytes <<= 20
	return &o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}

	// One warm platform for the daemon's lifetime: its BufPool and stats
	// are shared by every request. (Kernel tier comes from auto-detection
	// or the FZMOD_KERNELS environment variable, as everywhere else.)
	p := device.NewH100Platform()
	srv := serve.New(p, o.cfg)
	hs := &http.Server{Addr: o.listen, Handler: srv.Handler()}

	// SIGTERM/SIGINT drains: stop accepting (readyz flips, new requests
	// get 503 + Retry-After), wait out in-flight requests up to
	// -drain-timeout, then close the listener.
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-done
		log.Printf("fzmodd: draining (%d in flight, up to %v)", srv.InFlight(), o.drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), o.drainWait)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("fzmodd: %v", err)
		}
		hs.Shutdown(ctx)
	}()

	log.Printf("fzmodd: serving on %s (budget %d workers, kernels %s)",
		o.listen, srv.Admission().Budget(), p.KernelImpl())
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log.Printf("fzmodd: shutdown complete")
}
