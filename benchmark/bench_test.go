package main

import (
	"math"
	"net/http"
	"regexp"
	"sort"
	"sync/atomic"
	"testing"
)

// quickLim runs every phase for exactly two ops at the quick dims.
var quickLim = limits{minOps: 2, maxOps: 2}

func quickRun(t *testing.T, name string, trace bool, o runOpts) *result {
	t.Helper()
	o.quick = true
	res, err := runWorkload(findWorkload(name), 7, quickLim, trace, o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	return res
}

// specNames reads the metric names BENCHMARK.json lists under key.
func specNames(t *testing.T, key string) []string {
	t.Helper()
	var spec map[string]any
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range spec[key].([]any) {
		names = append(names, m.(map[string]any)["name"].(string))
	}
	sort.Strings(names)
	return names
}

// Every workload must report exactly the metrics BENCHMARK.json lists — the
// end-to-end ones untraced, the per-layer ones traced — with no failed op;
// on the three presets a clean traced run is also the staged replay's
// byte-identity check passing.
func TestWorkloadsReportTheListedMetrics(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, trace := range []bool{false, true} {
		want := specNames(t, []string{"end_to_end", "per_layer"}[i])
		for _, w := range spec.Workloads {
			res := quickRun(t, w.Name, trace, runOpts{})
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed", w.Name, trace, res.Failed, res.Attempted)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
					t.Errorf("%s: bad metric name %q or unit %q", w.Name, name, m.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!trace && m.Value == 0) {
					t.Errorf("%s: %s = %v", w.Name, name, m.Value)
				}
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("%s trace=%v: %d metrics %v, BENCHMARK.json lists %d", w.Name, trace, len(got), got, len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Errorf("%s trace=%v: metric %q, BENCHMARK.json has %q", w.Name, trace, got[j], want[j])
				}
			}
		}
	}
}

func TestFailuresAreCounted(t *testing.T) {
	// One wrong low-order bit: the CRC check fails, the bound still holds.
	wrong := func(e env) {
		e.(*fieldEnv).fault = func(phase string, i int, out []float32) {
			if phase == "decompress" && i == 0 {
				out[0] = math.Float32frombits(math.Float32bits(out[0]) ^ 1)
			}
		}
	}
	if res := quickRun(t, "nyx-default", false, runOpts{prepare: wrong}); res.Failed != 1 {
		t.Errorf("wrong-byte result: %d ops failed, want 1", res.Failed)
	}
	// A gross error in the phase's last output fails its CRC and its bound.
	gross := func(e env) {
		e.(*fieldEnv).fault = func(phase string, i int, out []float32) {
			if phase == "decompress" && i == quickLim.maxOps-1 {
				out[0] = math.MaxFloat32
			}
		}
	}
	if res := quickRun(t, "nyx-default", false, runOpts{prepare: gross}); res.Failed != 2 {
		t.Errorf("bound violation: %d ops failed, want 2 (CRC and bound)", res.Failed)
	}
	// One region read off by more than the bound.
	region := func(e env) {
		e.(*fieldEnv).fault = func(phase string, i int, out []float32) {
			if phase == "region" && i == 1 {
				out[len(out)/2] = math.MaxFloat32
			}
		}
	}
	if res := quickRun(t, "hacc-default", false, runOpts{prepare: region}); res.Failed != 1 {
		t.Errorf("region violation: %d ops failed, want 1", res.Failed)
	}
	// One shed request once set-up is over.
	var armed atomic.Bool
	shed := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if armed.CompareAndSwap(true, false) {
				http.Error(w, "overloaded", http.StatusTooManyRequests)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	if res := quickRun(t, "serve-mix", false, runOpts{wrap: shed, prepare: func(env) { armed.Store(true) }}); res.Failed != 1 {
		t.Errorf("HTTP 429: %d ops failed, want 1", res.Failed)
	}
}

func TestSameSeedSameCounts(t *testing.T) {
	for _, c := range []struct {
		trace bool
		names []string
	}{{false, []string{"compression_ratio", "psnr_db"}}, {true, []string{"fzio.fetch_bytes", "stf.tasks"}}} {
		a, b := quickRun(t, "nyx-default", c.trace, runOpts{}), quickRun(t, "nyx-default", c.trace, runOpts{})
		for _, name := range c.names {
			if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value == 0 {
				t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}
