// Command fzbench reproduces the paper's evaluation (§4): Table 3,
// Figures 1–4, and the design-choice ablations.
//
// Usage:
//
//	fzbench [-exp table3|fig1|fig2|fig3|fig4|stf|hist|secondary|fusion|place|all] [-large]
//
// Small-scale workloads are the default so a full sweep finishes quickly;
// -large switches to the harness default dimensions (scaled from the
// paper's Table 2). docs/REPRODUCTION.md holds one checked-in run, names
// the paper table, figure or section each experiment mirrors, and says
// which numbers carry over from the simulated platform.
//
// fzbench is the paper reproduction only. The repo's own engineering
// performance — throughput, allocations, latency, per-layer times — is
// measured by `bash benchmark/run.sh`, and the standard `go test -bench`
// rows (with -cpuprofile and friends) are the route to a profile.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fzmod/internal/bench"
	"fzmod/internal/device"
)

// runFunc is the shape of a harness entry point.
type runFunc = func(w io.Writer, p *device.Platform, sc bench.Scale) error

// experiment is one -exp name, the Table 1 node it models, and the harness
// entry point behind it.
type experiment struct {
	name     string
	platform func() *device.Platform
	run      runFunc
}

// table adapts the table/figure writers, which return their measurements
// rather than an error, to runFunc.
func table(fn func(io.Writer, *device.Platform, bench.Scale) []bench.Result) runFunc {
	return func(w io.Writer, p *device.Platform, sc bench.Scale) error {
		fn(w, p, sc)
		return nil
	}
}

// experiments lists what -exp accepts, in the order -exp all runs them.
var experiments = []experiment{
	{"table3", device.NewH100Platform, table(bench.Table3)},
	{"fig1", device.NewH100Platform, table(bench.Fig1)},
	{"fig2", device.NewH100Platform, table(bench.Speedup)},
	{"fig3", device.NewV100Platform, table(bench.Speedup)},
	{"fig4", device.NewH100Platform, table(bench.Fig4)},
	{"stf", device.NewH100Platform, bench.STFAblation},
	{"hist", device.NewH100Platform, bench.HistAblation},
	{"secondary", device.NewH100Platform, bench.SecondaryAblation},
	{"fusion", device.NewH100Platform, bench.FusionAblation},
	{"place", device.NewH100Platform, bench.PlaceAblation},
}

func expNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fzbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: "+expNames()+", all")
	large := fs.Bool("large", false, "use full-scale workloads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc := bench.Small
	if *large {
		sc = bench.Full
	}
	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		fmt.Fprintf(stdout, "\n===== %s =====\n", e.name)
		p := e.platform()
		err := e.run(stdout, p, sc)
		p.Close()
		if err != nil {
			fmt.Fprintf(stderr, "fzbench: %s: %v\n", e.name, err)
			return 1
		}
	}
	if !ran {
		fmt.Fprintf(stderr, "fzbench: unknown experiment %q\n", *exp)
		fs.Usage()
		return 2
	}
	return 0
}
