package core

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/metrics"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

// TestExecReportShape checks the evidence the unified executor surfaces:
// per-chunk sub-graphs joined by the layout barrier with scatter-serialize
// tails, a critical path of one chunk chain through layout and serialize,
// and live buffer-pool counters. No edge joins two chunks' sub-graphs, on
// either side: that is the branch-level concurrency of §3.3.1.
func TestExecReportShape(t *testing.T) {
	data, dims := chunkField()
	opts := ChunkOpts{ChunkElems: dims.PlaneElems() * 8, Workers: 4}
	blob, report, err := NewDefault().CompressChunkedReport(tp, data, dims, preprocess.RelBound(1e-4), opts)
	if err != nil {
		t.Fatal(err)
	}
	nChunks := dims.SlowExtent() / 8
	if want := 3*nChunks + 1; report.Tasks != want {
		t.Errorf("report.Tasks = %d, want %d (3 per chunk + layout)", report.Tasks, want)
	}
	if report.CriticalPath != 4 {
		t.Errorf("critical path = %d, want 4 (predict→encode→layout→serialize)", report.CriticalPath)
	}
	for _, task := range []string{"c0.predict", "c0.encode", "c0.serialize", "layout"} {
		if !strings.Contains(report.DOT, task) {
			t.Errorf("DAG missing task %q:\n%s", task, report.DOT)
		}
	}
	if report.Pool.Gets == 0 {
		t.Error("report carries no buffer-pool traffic")
	}
	if e := crossChunkEdges("  t0 [label=\"c0.a@host\"];\n  t1 [label=\"c1.b@host\"];\n  t0 -> t1;\n"); len(e) != 1 {
		t.Fatalf("crossChunkEdges misses a cross-chunk edge: %v", e)
	}
	if e := crossChunkEdges(report.DOT); len(e) != 0 {
		t.Errorf("compress DAG joins chunks directly: %v\n%s", e, report.DOT)
	}
	_, _, decReport, err := DecompressReport(tp, blob)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * nChunks; decReport.Tasks != want {
		t.Errorf("decompress report.Tasks = %d, want %d (3 per chunk)", decReport.Tasks, want)
	}
	if decReport.CriticalPath != 3 {
		t.Errorf("decompress critical path = %d, want 3 (fetch→decode→reconstruct)", decReport.CriticalPath)
	}
	if e := crossChunkEdges(decReport.DOT); len(e) != 0 {
		t.Errorf("decompress DAG joins chunks directly: %v\n%s", e, decReport.DOT)
	}

	// Secondary-encoded chunks stage their bytes ahead of the same layout →
	// scatter tail: stage and secondary, two more tasks per chunk.
	_, secReport, err := NewDefault().WithSecondary(LZSecondary{}).
		CompressChunkedReport(tp, data, dims, preprocess.RelBound(1e-4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := 5*nChunks + 1; secReport.Tasks != want {
		t.Errorf("secondary report.Tasks = %d, want %d (5 per chunk + layout)", secReport.Tasks, want)
	}
}

var (
	dotNode = regexp.MustCompile(`(?m)^\s*(t\d+) \[label="(c\d+)\.`)
	dotEdge = regexp.MustCompile(`(?m)^\s*(t\d+) -> (t\d+);`)
)

// crossChunkEdges lists the edges of a DOT export whose two tasks belong to
// different chunks' sub-graphs (task names "c<i>.<stage>"); edges through
// unprefixed join tasks such as layout do not count.
func crossChunkEdges(dot string) []string {
	chunk := map[string]string{}
	for _, m := range dotNode.FindAllStringSubmatch(dot, -1) {
		chunk[m[1]] = m[2]
	}
	var out []string
	for _, m := range dotEdge.FindAllStringSubmatch(dot, -1) {
		from, to := chunk[m[1]], chunk[m[2]]
		if from != "" && to != "" && from != to {
			out = append(out, m[1]+"->"+m[2])
		}
	}
	return out
}

// TestConcurrentCompressSharedPlatform stresses concurrent Compress /
// Decompress calls sharing one Platform — and therefore one scratch pool
// and one set of persistent grid workers. Run under -race in CI.
func TestConcurrentCompressSharedPlatform(t *testing.T) {
	data, dims := chunkField()
	eb := preprocess.RelBound(1e-3)
	absEB, _, err := preprocess.Resolve(tp, device.Accel, data, eb)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewDefault().CompressChunked(tp, data, dims, eb, ChunkOpts{ChunkElems: dims.PlaneElems() * 5})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				pl := Presets()[g%len(Presets())]
				opts := ChunkOpts{ChunkElems: dims.PlaneElems() * 5, Workers: 1 + g%4}
				blob, err := pl.CompressChunked(tp, data, dims, eb, opts)
				if err != nil {
					errs[g] = err
					return
				}
				dec, _, err := Decompress(tp, blob)
				if err != nil {
					errs[g] = err
					return
				}
				if i := metrics.VerifyBound(data, dec, absEB); i != -1 {
					errs[g] = fmt.Errorf("bound violated at %d", i)
					return
				}
			}
			// Determinism under contention: the default preset's bytes
			// must match the quiet-run reference.
			blob, err := NewDefault().CompressChunked(tp, data, dims, eb, ChunkOpts{ChunkElems: dims.PlaneElems() * 5})
			if err != nil {
				errs[g] = err
				return
			}
			if string(blob) != string(want) {
				errs[g] = errNondeterministic
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

var errNondeterministic = errors.New("concurrent chunked compression is nondeterministic")

// TestSteadyStateChunkedAllocs pins the per-operation allocation count of
// steady-state chunked compression. PR 1's stream-pool executor spent
// ~10.6k allocs on this workload shape per op (scaled); the pooled
// STF-lowered engine must stay far below it. The bound has ~2x headroom
// over the measured steady state so scheduler jitter cannot flake the
// test, while still catching any return of per-chunk scratch allocation.
func TestSteadyStateChunkedAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	if device.RaceEnabled {
		t.Skip("sync.Pool drops puts nondeterministically under the race detector")
	}
	dims := grid.D3(64, 64, 64)
	data := sdrbench.GenNYX(dims, 7)
	pl := NewDefault()
	eb := preprocess.RelBound(1e-4)
	opts := ChunkOpts{ChunkElems: dims.N() / 8, Workers: 4}
	compress := func() {
		if _, err := pl.CompressChunked(tp, data, dims, eb, opts); err != nil {
			t.Fatal(err)
		}
	}
	compress() // warm the pool and the grid workers
	allocs := testing.AllocsPerRun(5, compress)
	// Steady state measures ~1.1k allocs for 8 chunks — graph declaration,
	// per-chunk codec tables and container segments; the data-sized scratch
	// is all pooled (PR 1 spent >10k on the same shape at 256³). 1500 is
	// the regression tripwire with headroom for scheduler jitter.
	if allocs > 1500 {
		t.Errorf("steady-state chunked compress = %.0f allocs/op, want <= 1500", allocs)
	}
}
