package stf

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fzmod/internal/device"
)

// The tests declare tokens for the dependencies and let task bodies touch
// captured slices, the way the product graph moves its payloads.

func newCtx() *Ctx { return NewCtx(device.NewTestPlatform(), 0) }

func TestSingleTaskRuns(t *testing.T) {
	ctx := newCtx()
	d := []float32{1, 2, 3}
	tok := NewToken(ctx, "d")
	ctx.Task("double").ReadsWrites(tok).On(device.Accel).Do(func(ti *TaskInstance) error {
		for i := range d {
			d[i] *= 2
		}
		return nil
	})
	if err := ctx.Finalize(); err != nil {
		t.Fatal(err)
	}
	want := []float32{2, 4, 6}
	for i, v := range d {
		if v != want[i] {
			t.Errorf("d[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestRAWDependency(t *testing.T) {
	ctx := newCtx()
	var a, b int32
	aTok, bTok := NewToken(ctx, "a"), NewToken(ctx, "b")
	ctx.Task("produce").Writes(aTok).On(device.Accel).Do(func(ti *TaskInstance) error {
		time.Sleep(5 * time.Millisecond) // force consumer to actually wait
		a = 41
		return nil
	})
	ctx.Task("consume").Reads(aTok).Writes(bTok).On(device.Host).Do(func(ti *TaskInstance) error {
		b = a + 1
		return nil
	})
	if err := ctx.Finalize(); err != nil {
		t.Fatal(err)
	}
	if b != 42 {
		t.Errorf("b = %d, want 42 (RAW dependency violated)", b)
	}
}

func TestWARDependency(t *testing.T) {
	// A reader admitted before a writer must complete before the write.
	ctx := newCtx()
	var d atomic.Int32
	d.Store(7)
	tok := NewToken(ctx, "d")
	var observed int32
	ctx.Task("reader").Reads(tok).On(device.Host).Do(func(ti *TaskInstance) error {
		time.Sleep(10 * time.Millisecond)
		observed = d.Load()
		return nil
	})
	ctx.Task("writer").Writes(tok).On(device.Host).Do(func(ti *TaskInstance) error {
		d.Store(99)
		return nil
	})
	if err := ctx.Finalize(); err != nil {
		t.Fatal(err)
	}
	if observed != 7 {
		t.Errorf("reader observed %d, want 7 (WAR dependency violated)", observed)
	}
	if d.Load() != 99 {
		t.Errorf("final value %d, want 99", d.Load())
	}
}

func TestWAWOrdering(t *testing.T) {
	ctx := newCtx()
	var d int32
	tok := NewToken(ctx, "d")
	for i := int32(1); i <= 20; i++ {
		i := i
		ctx.Task(fmt.Sprintf("w%d", i)).Writes(tok).On(device.Accel).Do(func(ti *TaskInstance) error {
			d = i
			return nil
		})
	}
	if err := ctx.Finalize(); err != nil {
		t.Fatal(err)
	}
	if d != 20 {
		t.Errorf("final = %d, want 20 (WAW order violated)", d)
	}
}

func TestIndependentTasksOverlap(t *testing.T) {
	ctx := newCtx()
	a, b := NewToken(ctx, "a"), NewToken(ctx, "b")
	var inA, inB atomic.Bool
	var sawOverlap atomic.Bool
	spin := func(self, other *atomic.Bool) {
		self.Store(true)
		deadline := time.Now().Add(500 * time.Millisecond)
		for time.Now().Before(deadline) {
			if other.Load() {
				sawOverlap.Store(true)
				break
			}
			time.Sleep(time.Millisecond)
		}
		self.Store(false)
	}
	ctx.Task("A").Writes(a).On(device.Accel).Do(func(ti *TaskInstance) error {
		spin(&inA, &inB)
		return nil
	})
	ctx.Task("B").Writes(b).On(device.Host).Do(func(ti *TaskInstance) error {
		spin(&inB, &inA)
		return nil
	})
	if err := ctx.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !sawOverlap.Load() {
		t.Error("independent tasks did not overlap")
	}
	if !Overlapped(ctx.Trace()) {
		t.Error("trace does not show overlap")
	}
}

func TestErrorPropagationSkipsDownstream(t *testing.T) {
	ctx := newCtx()
	tok := NewToken(ctx, "d")
	boom := errors.New("boom")
	ctx.Task("fail").Writes(tok).Do(func(ti *TaskInstance) error { return boom })
	ran := false
	ctx.Task("after").Reads(tok).Do(func(ti *TaskInstance) error {
		ran = true
		return nil
	})
	err := ctx.Finalize()
	if !errors.Is(err, boom) {
		t.Errorf("Finalize error = %v, want boom", err)
	}
	if ran {
		t.Error("downstream task ran despite failed dependency")
	}
}

func TestPanicInTaskBecomesError(t *testing.T) {
	ctx := newCtx()
	tok := NewToken(ctx, "d")
	ctx.Task("panics").Writes(tok).Do(func(ti *TaskInstance) error {
		panic("kaboom")
	})
	err := ctx.Finalize()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("Finalize error = %v, want panic captured", err)
	}
}

func TestDOTExport(t *testing.T) {
	ctx := newCtx()
	a := NewToken(ctx, "a")
	ctx.Task("w").Writes(a).On(device.Accel).Do(func(ti *TaskInstance) error { return nil })
	ctx.Task("r").Reads(a).Do(func(ti *TaskInstance) error { return nil })
	if err := ctx.Finalize(); err != nil {
		t.Fatal(err)
	}
	dot := ctx.DOT()
	for _, want := range []string{"digraph stf", "t0 -> t1", "w@accel", "r@host"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestCriticalPath(t *testing.T) {
	ctx := newCtx()
	a, b := NewToken(ctx, "a"), NewToken(ctx, "b")
	nop := func(ti *TaskInstance) error { return nil }
	ctx.Task("w1").Writes(a).Do(nop)
	ctx.Task("w2").ReadsWrites(a).Do(nop)
	ctx.Task("w3").ReadsWrites(a).Do(nop)
	ctx.Task("indep").Writes(b).Do(nop)
	if err := ctx.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := ctx.CriticalPath(); got != 3 {
		t.Errorf("critical path = %d, want 3", got)
	}
}

func TestAccessModeString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || ReadWrite.String() != "rw" {
		t.Error("AccessMode.String mismatch")
	}
	if AccessMode(7).String() != "mode(7)" {
		t.Error("unknown mode formatting")
	}
}

// TestRandomDAGMatchesSequential builds random task programs over several
// tokens, each guarding one captured slice, and checks the parallel engine
// computes exactly what a sequential interpretation of the same program
// computes. This is the core correctness property of dependency inference.
func TestRandomDAGMatchesSequential(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		const nData = 4
		const nTasks = 25

		// Sequential reference state, and the state the graph mutates.
		ref := make([][]int32, nData)
		data := make([][]int32, nData)
		for i := range ref {
			ref[i] = make([]int32, 8)
			data[i] = make([]int32, 8)
		}

		ctx := newCtx()
		toks := make([]*Token, nData)
		for i := range toks {
			toks[i] = NewToken(ctx, fmt.Sprintf("d%d", i))
		}

		for k := 0; k < nTasks; k++ {
			src := rng.Intn(nData)
			dst := rng.Intn(nData)
			mul := int32(rng.Intn(5) + 1)
			place := device.Place(rng.Intn(2))
			// Reference: dst[j] = src[j]*mul + j
			for j := range ref[dst] {
				ref[dst][j] = ref[src][j]*mul + int32(j)
			}
			// Parallel program. Note src may equal dst; declare RW then.
			sv, dv := data[src], data[dst]
			tb := ctx.Task(fmt.Sprintf("t%d", k)).On(place)
			if src == dst {
				tb = tb.ReadsWrites(toks[dst])
			} else {
				tb = tb.Reads(toks[src]).ReadsWrites(toks[dst])
			}
			tb.Do(func(ti *TaskInstance) error {
				tmp := make([]int32, len(sv))
				copy(tmp, sv)
				for j := range dv {
					dv[j] = tmp[j]*mul + int32(j)
				}
				return nil
			})
		}
		if err := ctx.Finalize(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ctx.Release()
		for i := range data {
			for j, want := range ref[i] {
				if got := data[i][j]; got != want {
					t.Fatalf("trial %d: d%d[%d] = %d, want %d", trial, i, j, got, want)
				}
			}
		}
	}
}

func TestFinalizeWithNoTasks(t *testing.T) {
	ctx := newCtx()
	if err := ctx.Finalize(); err != nil {
		t.Errorf("empty Finalize = %v", err)
	}
}

// TestTokenCarriesDependency checks that tokens order tasks.
func TestTokenCarriesDependency(t *testing.T) {
	ctx := newCtx()
	tok := NewToken(ctx, "tok")
	order := make(chan int, 2)
	ctx.Task("producer").Writes(tok).Do(func(ti *TaskInstance) error {
		order <- 1
		return nil
	})
	ctx.Task("consumer").Reads(tok).Do(func(ti *TaskInstance) error {
		order <- 2
		return nil
	})
	if err := ctx.Finalize(); err != nil {
		t.Fatal(err)
	}
	if first := <-order; first != 1 {
		t.Error("consumer ran before producer")
	}
}

// TestBoundedConcurrency checks the pool width actually caps in-flight
// task bodies per place.
func TestBoundedConcurrency(t *testing.T) {
	ctx := NewCtx(device.NewTestPlatform(), 2)
	var cur, peak atomic.Int32
	for i := 0; i < 12; i++ {
		tok := NewToken(ctx, "d")
		ctx.Task("t").Writes(tok).On(device.Accel).Do(func(ti *TaskInstance) error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	if err := ctx.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 2 {
		t.Errorf("observed %d concurrent bodies, pool width is 2", got)
	}
	ctx.Release()
}
