package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fzmod/internal/core"
	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
)

// stageBytes sizes the pooled staging buffer for float32<->byte I/O.
const stageBytes = 256 << 10

// Config sizes the daemon. The zero value of every field selects a
// sensible default (a negative value, where noted, selects "none").
type Config struct {
	// Preset is the pipeline compress requests use when they name none:
	// "default", "speed" or "quality". Default "default".
	Preset string
	// Workers is the global parallelism budget the admission controller
	// leases from — the daemon-wide analogue of Opts.Workers. Default:
	// the platform's worker width.
	Workers int
	// DefaultLease is the workers a request leases when it names none.
	// Default 1: under load, cross-request parallelism beats per-request
	// width.
	DefaultLease int
	// MaxQueue bounds the requests waiting for a lease; beyond it
	// requests shed with 429. Default 64; negative sheds at once when the
	// budget is exhausted.
	MaxQueue int
	// MaxWait bounds how long a request may queue before shedding with
	// 429. Default 2s; negative waits forever.
	MaxWait time.Duration
	// CacheBytes budgets the shared decoded-slab cache serving region
	// reads. Default 256 MiB.
	CacheBytes int64
	// RequestTimeout caps each request's execution (compression observes
	// it at every task dispatch boundary). Default: none.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies. Default 1 GiB.
	MaxBodyBytes int64
}

// withDefaults resolves the zero values against the platform.
func (c Config) withDefaults(p *device.Platform) Config {
	if c.Preset == "" {
		c.Preset = "default"
	}
	if c.Workers <= 0 {
		c.Workers = p.Workers(device.Accel)
	}
	if c.DefaultLease <= 0 {
		c.DefaultLease = 1
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 64
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	switch {
	case c.MaxWait == 0:
		c.MaxWait = 2 * time.Second
	case c.MaxWait < 0:
		c.MaxWait = 0
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 30
	}
	return c
}

// Server is the multi-tenant compression service: every request executes
// over one shared warm Platform (and its BufPool), leases its parallelism
// from one admission controller, and region reads share one SlabCache.
type Server struct {
	cfg   Config
	p     *device.Platform
	adm   *Admission
	cache *core.SlabCache
	met   metrics
	mux   *http.ServeMux

	// Drain lifecycle: once draining flips, data-plane requests are
	// refused with 503 + Retry-After while control endpoints (/healthz,
	// /readyz, /metrics, /v1/admin/*) stay up; inflight tracks data-plane
	// requests still executing so Drain can wait them out.
	draining  atomic.Bool
	inflight  sync.WaitGroup
	inflightN atomic.Int64

	objMu   sync.RWMutex
	objects map[string]object
}

// object is a stored container and the region reader opened over it once,
// at PUT.
type object struct {
	blob []byte
	reg  *core.Region
}

// New builds a server over the platform. The platform's pools stay warm
// across requests — that sharing is the point of the daemon.
func New(p *device.Platform, cfg Config) *Server {
	cfg = cfg.withDefaults(p)
	s := &Server{
		cfg:     cfg,
		p:       p,
		adm:     NewAdmission(cfg.Workers, cfg.MaxQueue, cfg.MaxWait),
		cache:   core.NewSlabCache(cfg.CacheBytes),
		objects: make(map[string]object),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compress", s.handleCompress)
	mux.HandleFunc("/v1/decompress", s.handleDecompress)
	mux.HandleFunc("/v1/probe", s.handleProbe)
	mux.HandleFunc("/v1/objects/", s.handleObjects)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/v1/admin/budget", s.handleAdminBudget)
	s.mux = mux
	return s
}

// Handler returns the daemon's HTTP surface: the route mux behind the
// drain gate, which refuses data-plane work on a draining server and
// tracks in-flight requests for Drain to wait on.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serveHTTP) }

// controlPath reports whether p is a control endpoint that must stay
// reachable while draining — health, readiness, metrics and admin.
func controlPath(p string) bool {
	return p == "/healthz" || p == "/readyz" || p == "/metrics" ||
		strings.HasPrefix(p, "/v1/admin/")
}

// serveHTTP is the drain gate in front of the mux.
func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if controlPath(r.URL.Path) {
		s.mux.ServeHTTP(w, r)
		return
	}
	if s.draining.Load() {
		s.met.errShed.Add(1)
		w.Header().Set("Retry-After", retryAfterSecs)
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	s.inflight.Add(1)
	s.inflightN.Add(1)
	defer func() {
		s.inflightN.Add(-1)
		s.inflight.Done()
	}()
	s.mux.ServeHTTP(w, r)
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the data-plane requests currently executing.
func (s *Server) InFlight() int64 { return s.inflightN.Load() }

// Drain gracefully shuts the server down: stop accepting data-plane
// requests (503 + Retry-After; /readyz flips not-ready), then wait for
// every in-flight request to finish. The ctx deadline bounds the wait; on
// expiry Drain returns the ctx error with requests still in flight.
// Idempotent — later calls wait on the same shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain deadline with %d requests in flight: %w", s.InFlight(), ctx.Err())
	}
}

// Platform returns the shared execution platform (its Snapshot feeds
// load-test reports).
func (s *Server) Platform() *device.Platform { return s.p }

// Admission returns the admission controller (load tests read its
// counters).
func (s *Server) Admission() *Admission { return s.adm }

// retryAfterSecs is the Retry-After hint on every 429/503: long enough
// for a load balancer to rotate away, short enough that a retrying client
// rides out a transient overload.
const retryAfterSecs = "1"

// fail maps an execution error onto its status class: 400 for a bound the
// data makes unenforceable, 429 for admission shed, 503 for
// canceled/expired requests, 500 otherwise. The retryable
// classes (429, 503) carry Retry-After so well-behaved clients back off
// instead of hammering an overloaded or draining daemon.
func (s *Server) fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, preprocess.ErrBadBound):
		s.badRequest(w, "%v", err)
	case errors.Is(err, ErrOverloaded):
		s.met.errShed.Add(1)
		w.Header().Set("Retry-After", retryAfterSecs)
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.met.errCanceled.Add(1)
		w.Header().Set("Retry-After", retryAfterSecs)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		s.met.errInternal.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// badRequest rejects a malformed request with 400.
func (s *Server) badRequest(w http.ResponseWriter, format string, args ...any) {
	s.met.errBadRequest.Add(1)
	http.Error(w, fmt.Sprintf(format, args...), http.StatusBadRequest)
}

// parseBound parses eb + mode query params into an error bound.
func parseBound(ebStr, mode string) (preprocess.ErrorBound, error) {
	v, err := strconv.ParseFloat(ebStr, 64)
	if err != nil {
		return preprocess.ErrorBound{}, fmt.Errorf("eb %q: want a positive float", ebStr)
	}
	eb, err := preprocess.ParseBound(v, mode)
	if errors.Is(err, preprocess.ErrBadBound) {
		return preprocess.ErrorBound{}, fmt.Errorf("eb %q: %w", ebStr, err)
	}
	return eb, err
}

// parseWorkers resolves the request's lease size (its Opts.Workers).
func (s *Server) parseWorkers(q string) (int, error) {
	if q == "" {
		return s.cfg.DefaultLease, nil
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("workers %q: want a positive integer", q)
	}
	return v, nil
}

// readBody reads the request body up to the configured cap.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	s.met.bytesIn.Add(int64(len(body)))
	return body, nil
}

// run is the one way a data-plane request executes. The handler has
// parsed and validated everything it can refuse with a 400; run leases
// workers from the admission controller (queueing, or shedding, under the
// request's deadline), calls fn at the leased width, hands the lease back
// even if fn panics, and stamps the two timing headers every data-plane
// reply carries: X-Fzmod-Queue-Ns, the time spent inside Acquire, and
// X-Fzmod-Execute-Ns, the time inside fn. It reports whether fn succeeded;
// when it did not, the error response is already written.
func (s *Server) run(w http.ResponseWriter, r *http.Request, workers int, fn func(ctx context.Context, width int) error) bool {
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	queued := time.Now()
	lease, err := s.adm.Acquire(ctx, workers)
	if err != nil {
		s.fail(w, err)
		return false
	}
	started := time.Now()
	err = func() error {
		defer lease.Release()
		return fn(ctx, lease.Workers())
	}()
	h := w.Header()
	h.Set("X-Fzmod-Queue-Ns", strconv.FormatInt(started.Sub(queued).Nanoseconds(), 10))
	h.Set("X-Fzmod-Execute-Ns", strconv.FormatInt(time.Since(started).Nanoseconds(), 10))
	if err != nil {
		s.fail(w, err)
		return false
	}
	return true
}

// handleCompress serves POST /v1/compress: the body is the raw
// little-endian float32 field, geometry and bound ride in query
// parameters (dims=XxYxZ, eb=1e-4, mode=rel|abs, preset=..., workers=N,
// chunk=ELEMS), and the response body is the container — the bytes the
// preset's library call returns for the same input, at every payload size.
func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.met.reqCompress.Add(1)
	q := r.URL.Query()
	dims, err := grid.ParseDims(q.Get("dims"))
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	eb, err := parseBound(q.Get("eb"), q.Get("mode"))
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	preset := q.Get("preset")
	if preset == "" {
		preset = s.cfg.Preset
	}
	pl, err := core.PresetByName(preset)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	workers, err := s.parseWorkers(q.Get("workers"))
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	chunkElems := 0 // the library's automatic rule
	if c := q.Get("chunk"); c != "" {
		chunkElems, err = strconv.Atoi(c)
		if err != nil || chunkElems < 1 {
			s.badRequest(w, "chunk %q: want a positive element count", c)
			return
		}
	}
	if _, err := core.ChunkPlanes(dims, chunkElems); err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	rawBytes := dims.N() * 4
	if int64(rawBytes) > s.cfg.MaxBodyBytes {
		s.badRequest(w, "dims %v: %d raw bytes exceed the %d-byte body cap", dims, rawBytes, s.cfg.MaxBodyBytes)
		return
	}

	// The field stages through a pooled slab: request churn rides the
	// platform's warm BufPool, not the garbage collector.
	bp := s.p.ScratchPool()
	valsSlab := bp.GetF32(dims.N(), false)
	defer bp.PutF32(valsSlab)
	stage := bp.GetBytes(stageBytes, false)
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	err = device.ReadF32(body, valsSlab.Data, stage.Data)
	bp.PutBytes(stage)
	if err != nil {
		s.badRequest(w, "reading %d float32 values for dims %v: %v", dims.N(), dims, err)
		return
	}
	if n, _ := body.Read(make([]byte, 1)); n != 0 {
		s.badRequest(w, "body longer than dims %v (%d raw bytes)", dims, rawBytes)
		return
	}
	s.met.bytesIn.Add(int64(rawBytes))

	var blob []byte
	if !s.run(w, r, workers, func(ctx context.Context, width int) (err error) {
		blob, _, err = pl.CompressChunkedReportCtx(ctx, s.p, valsSlab.Data, dims, eb,
			core.ChunkOpts{Workers: width, ChunkElems: chunkElems})
		return err
	}) {
		return
	}
	s.met.rawBytes.Add(int64(rawBytes))
	s.met.compressedBytes.Add(int64(len(blob)))
	s.met.bytesOut.Add(int64(len(blob)))
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Fzmod-Ratio", strconv.FormatFloat(ratio(int64(rawBytes), int64(len(blob))), 'g', 5, 64))
	w.Write(blob)
}

// handleDecompress serves POST /v1/decompress: the body is any FZModules
// container, the response the raw little-endian float32 field with its
// geometry in X-Fzmod-Dims.
func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.met.reqDecompress.Add(1)
	workers, err := s.parseWorkers(r.URL.Query().Get("workers"))
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	blob, err := s.readBody(w, r)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	// Parse the container index before spending a lease: junk is the
	// caller's fault, not the daemon's.
	if _, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob)); err != nil {
		s.badRequest(w, "not an FZModules container: %v", err)
		return
	}
	var (
		vals []float32
		dims grid.Dims
	)
	if !s.run(w, r, workers, func(ctx context.Context, width int) (err error) {
		vals, dims, _, err = core.DecompressReportWithOptsCtx(ctx, s.p, blob, core.DecompressOpts{Workers: width})
		return err
	}) {
		return
	}
	s.writeField(w, vals, dims)
}

// writeField streams a field as little-endian float32 bytes with its
// geometry in X-Fzmod-Dims.
func (s *Server) writeField(w http.ResponseWriter, vals []float32, dims grid.Dims) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Fzmod-Dims", fmt.Sprintf("%dx%dx%d", dims.X, dims.Y, dims.Z))
	h.Set("Content-Length", strconv.Itoa(len(vals)*4))
	bp := s.p.ScratchPool()
	stage := bp.GetBytes(stageBytes, false)
	defer bp.PutBytes(stage)
	if err := device.WriteF32(w, vals, stage.Data); err != nil {
		return // client went away mid-body; nothing to report
	}
	s.met.bytesOut.Add(int64(len(vals) * 4))
}

// probeResponse is the JSON shape of POST /v1/probe.
type probeResponse struct {
	Flavor        string  `json:"flavor"`
	Pipeline      string  `json:"pipeline"`
	Dims          [3]int  `json:"dims"`
	EB            float64 `json:"eb"`
	RelEB         float64 `json:"rel_eb,omitempty"`
	Planes        int     `json:"planes,omitempty"`
	Chunks        int     `json:"chunks"`
	PayloadBytes  int64   `json:"payload_bytes"`
	ArtifactBytes int64   `json:"artifact_bytes"`
}

// handleProbe serves POST /v1/probe: the body is a container (or its
// index-bearing prefix plus trailer — the whole artifact is simplest),
// the response its parsed identity without decoding any payload.
func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.met.reqProbe.Add(1)
	blob, err := s.readBody(w, r)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	ix, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob))
	if err != nil {
		s.badRequest(w, "not an FZModules container: %v", err)
		return
	}
	var payload int64
	for _, ref := range ix.Chunks {
		payload += int64(ref.Length)
	}
	resp := probeResponse{
		Flavor:        ix.Flavor,
		Pipeline:      ix.Header.Pipeline,
		Dims:          [3]int{ix.Header.Dims.X, ix.Header.Dims.Y, ix.Header.Dims.Z},
		EB:            ix.Header.EB,
		RelEB:         ix.Header.RelEB,
		Planes:        ix.Header.Planes,
		Chunks:        ix.NumChunks(),
		PayloadBytes:  payload,
		ArtifactBytes: ix.ArtifactSize,
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleObjects routes the in-memory object store:
//
//	PUT    /v1/objects/<name>         store a container
//	GET    /v1/objects/<name>         fetch it back
//	DELETE /v1/objects/<name>         drop it
//	GET    /v1/objects/<name>/region  random-access read (?sel=i0:i1,...)
//
// Region reads over stored objects share the server's SlabCache, so
// overlapping selections from any number of tenants decode each chunk
// once.
func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/objects/")
	if region := strings.TrimSuffix(name, "/region"); region != name {
		s.handleRegion(w, r, region)
		return
	}
	if name == "" || strings.Contains(name, "/") {
		s.badRequest(w, "object name %q: want /v1/objects/<name>", name)
		return
	}
	s.met.reqObjects.Add(1)
	switch r.Method {
	case http.MethodPut, http.MethodPost:
		blob, err := s.readBody(w, r)
		if err != nil {
			s.badRequest(w, "%v", err)
			return
		}
		reg, err := core.OpenRegion(s.p, fzio.NewBytesFetcher(blob), core.RegionOpts{Cache: s.cache})
		if err != nil {
			s.badRequest(w, "not an FZModules container: %v", err)
			return
		}
		s.objMu.Lock()
		s.objects[name] = object{blob: blob, reg: reg}
		s.objMu.Unlock()
		w.WriteHeader(http.StatusCreated)
	case http.MethodGet:
		s.objMu.RLock()
		obj, ok := s.objects[name]
		s.objMu.RUnlock()
		if !ok {
			http.Error(w, fmt.Sprintf("no object %q", name), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(obj.blob)
		s.met.bytesOut.Add(int64(len(obj.blob)))
	case http.MethodDelete:
		s.objMu.Lock()
		delete(s.objects, name)
		s.objMu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "PUT, GET or DELETE", http.StatusMethodNotAllowed)
	}
}

// handleRegion serves GET /v1/objects/<name>/region?sel=i0:i1,j0:j1,k0:k1:
// the selected subvolume of a stored container, decoding only the chunks
// the selection intersects, with cache/decode accounting in the response
// headers.
func (s *Server) handleRegion(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.met.reqRegion.Add(1)
	s.objMu.RLock()
	obj, ok := s.objects[name]
	s.objMu.RUnlock()
	if !ok {
		http.Error(w, fmt.Sprintf("no object %q", name), http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	workers, err := s.parseWorkers(q.Get("workers"))
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	// Refuse a bad selection before spending a lease: a request that can
	// only ever be a 400 must not queue behind real work.
	sel, err := core.ParseRegionSel(q.Get("sel"), obj.reg.Dims())
	if err == nil {
		err = sel.Validate(obj.reg.Dims())
	}
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	var (
		vals []float32
		rep  *core.ExecReport
	)
	if !s.run(w, r, workers, func(ctx context.Context, width int) (err error) {
		vals, rep, err = obj.reg.WithWorkers(width).ReadReportCtx(ctx, sel)
		return err
	}) {
		return
	}
	h := w.Header()
	if rep != nil && rep.Region != nil {
		h.Set("X-Fzmod-Region-Chunks", strconv.Itoa(rep.Region.Chunks))
		h.Set("X-Fzmod-Region-Decoded", strconv.Itoa(rep.Region.Decoded))
		h.Set("X-Fzmod-Region-Cache-Hits", strconv.Itoa(rep.Region.CacheHits))
		h.Set("X-Fzmod-Region-Dedup-Hits", strconv.Itoa(rep.Region.DedupHits))
		h.Set("X-Fzmod-Region-Proof-Verified", strconv.FormatInt(rep.Region.ProofVerified, 10))
		s.met.proofVerified.Add(rep.Region.ProofVerified)
	}
	s.writeField(w, vals, sel.Dims())
}

// handleMetrics serves GET /metrics in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.writeMetrics(w)
}

// handleHealthz reports liveness: 200 as long as the process serves HTTP,
// draining or not — a draining daemon is alive, just not ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "ok\n")
}

// handleReadyz reports readiness for new work: 503 once draining so load
// balancers rotate the instance out while in-flight requests complete.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSecs)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ready\n")
}

// handleAdminBudget serves POST /v1/admin/budget?workers=N: hot-reload
// the admission controller's worker budget without dropping queued
// requests (growth grants queued waiters immediately; shrink takes
// effect as leases release). GET returns the current budget.
func (s *Server) handleAdminBudget(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		// fallthrough to the response below
	case http.MethodPost:
		n, err := strconv.Atoi(r.URL.Query().Get("workers"))
		if err != nil || n < 1 {
			s.badRequest(w, "workers %q: want a positive integer", r.URL.Query().Get("workers"))
			return
		}
		s.adm.Resize(n)
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"budget": s.adm.Budget(),
		"in_use": s.adm.InUse(),
		"queued": s.adm.QueueDepth(),
	})
}
