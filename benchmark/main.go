// Command benchmark is the repository's reference benchmark: five workloads,
// end-to-end metrics measured with tracing off, and per-layer metrics from a
// separate traced run. BENCHMARK.json at the repository root names it; see
// README.md beside this file for what each workload and metric means.
//
//	benchmark --workload nyx-default --seed 42 --seconds 15 --trace 0
//	benchmark -all [-seed 42] [-seconds 15] [-out benchmark/out]
//	benchmark -repeat 2
//	benchmark -compare benchmark/out/run1 benchmark/out/run2
//
// The first form is one run of one workload; its last stdout line is the
// JSON result. The product receives only inputs generated from the seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"fzmod/internal/kernels/dispatch"
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...) }

// env is a set-up workload.
type env interface {
	// endToEnd runs the timed phases with tracing off and returns every
	// end-to-end metric except setup_s, plus ops attempted and failed.
	endToEnd(lim limits) (metrics, int, int)
	// traced runs the traced phases and returns the per-layer metrics.
	traced(lim limits, tr *tracer, quick bool) (metrics, int, int)
	close()
}

func setup(w *workload, seed int64, quick bool, wrap func(http.Handler) http.Handler) (env, error) {
	if w.field == nil {
		return setupServe(seed, quick, wrap)
	}
	return setupField(w.field, seed, quick)
}

// result is one run of one workload.
type result struct {
	Workload  string  `json:"workload"`
	Trace     bool    `json:"trace"`
	Seed      int64   `json:"seed"`
	Meta      runMeta `json:"meta"`
	Attempted int     `json:"ops_attempted"`
	Failed    int     `json:"ops_failed"`
	Metrics   metrics `json:"metrics"`
}

// runMeta describes the machine and build a result came from. Results from
// different kernel tiers are not comparable and -compare refuses them.
type runMeta struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	KernelTier string `json:"kernel_tier"`
	Commit     string `json:"commit"`
	Note       string `json:"note"`
}

func collectMeta() runMeta {
	m := runMeta{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		KernelTier: dispatch.Active(),
		Note:       "fields are 6-16 MiB against a 4 MiB per-core L2; the last-level cache is shared with other tenants of the host, so GB/s figures are sandbox figures"}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return m
}

// gitCommit names the checkout's commit for a results file; "unknown" outside
// a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runOpts are the knobs of one run beyond the driver's four.
type runOpts struct {
	quick   bool                            // tests: tiny dims, fixed op counts
	wrap    func(http.Handler) http.Handler // tests: fault in front of the daemon
	prepare func(env)                       // tests: hook on the set-up env
	tracer  *tracer                         // receives the spans of a traced run
}

// runWorkload sets the workload up (several times for an end-to-end run, so
// setup_s is a median), runs it for lim, and returns the result.
func runWorkload(w *workload, seed int64, lim limits, trace bool, o runOpts) (*result, error) {
	res := &result{Workload: w.name, Trace: trace, Seed: seed, Meta: collectMeta()}
	repeats := setupRepeats
	if trace || o.quick {
		repeats = 1
	}
	var e env
	var setups samples
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
		}
		t := time.Now()
		var err error
		if e, err = setup(w, seed, o.quick, o.wrap); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer e.close()
	if o.prepare != nil {
		o.prepare(e)
	}
	if trace {
		tr := o.tracer
		if tr == nil {
			tr = newTracer()
		}
		res.Metrics, res.Attempted, res.Failed = e.traced(lim, tr, o.quick)
		for _, name := range perLayerNames {
			if _, ok := res.Metrics[name]; !ok {
				res.Metrics.set(name, 0, perLayerUnit(name)) // a layer this workload does not use
			}
		}
		return res, nil
	}
	res.Metrics, res.Attempted, res.Failed = e.endToEnd(lim)
	res.Metrics["setup_s"] = metric{Value: setups.median(), Unit: "s", N: len(setups), P25: setups.quantile(0.25), P75: setups.quantile(0.75)}
	return res, nil
}

// print writes every metric as "name value unit", then — as the last line —
// the JSON object the driver reads.
func (r *result) print() error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%v tier=%s ops_attempted=%d ops_failed=%d\n", r.Workload, r.Seed, r.Trace, r.Meta.KernelTier, r.Attempted, r.Failed)
	short := map[string]map[string]any{}
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%s %.6g %s\n", name, m.Value, m.Unit)
		short[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": short})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := r.Workload + ".json"
	if r.Trace {
		name = r.Workload + ".layers.json"
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	all      bool
	repeat   int
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 42, "seed of the generated inputs and request schedules")
	flag.IntVar(&o.seconds, "seconds", 15, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	flag.StringVar(&o.out, "out", "", "directory for <workload>.json, <workload>.layers.json and <workload>.trace.json")
	flag.BoolVar(&o.all, "all", false, "run every workload, end-to-end then traced, each in a fresh process, into -out (default benchmark/out)")
	flag.IntVar(&o.repeat, "repeat", 0, "run -all this many times into <out>/run<i> and compare the first two")
	flag.BoolVar(&o.compare, "compare", false, "compare the two result directories given as arguments")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare needs two result directories")
		}
		return compareDirs(args[0], args[1])
	}
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if o.all || o.repeat > 0 {
		if o.out == "" {
			o.out = filepath.Join("benchmark", "out")
		}
		if o.repeat == 0 {
			return runAll(o.seed, o.seconds, o.out)
		}
		for i := 1; i <= o.repeat; i++ {
			if err := runAll(o.seed, o.seconds, filepath.Join(o.out, fmt.Sprintf("run%d", i))); err != nil {
				return err
			}
		}
		if o.repeat < 2 {
			return nil
		}
		return compareDirs(filepath.Join(o.out, "run1"), filepath.Join(o.out, "run2"))
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	lim := limits{budget: time.Duration(o.seconds) * time.Second, minOps: 3}
	ro := runOpts{}
	if o.trace != 0 {
		lim.minOps = tracedMinOps
		ro.tracer = newTracer()
	}
	res, err := runWorkload(w, o.seed, lim, o.trace != 0, ro)
	if err != nil {
		return err
	}
	if o.out != "" {
		res.Meta.Commit = gitCommit()
		if err := res.write(o.out); err != nil {
			return err
		}
		if ro.tracer != nil {
			if err := ro.tracer.write(filepath.Join(o.out, w.name+".trace.json")); err != nil {
				return err
			}
		}
	}
	if err := res.print(); err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed their output checks", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// runAll re-executes this binary once per workload and mode, so every run
// starts with clean pools and a clean resident-set high-water mark.
func runAll(seed int64, seconds int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, w.name+" trace="+trace+": "+err.Error())
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed: %s", len(failed), strings.Join(failed, "; "))
	}
	return nil
}
