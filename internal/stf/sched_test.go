package stf

import (
	"fmt"
	"testing"
	"time"

	"fzmod/internal/device"
)

// skewedResults runs the pathological skew graph — one huge task plus many
// tiny ones, all independent — over a pool of the given width and returns
// the per-task results and the execution trace. Costs are wall-clock
// (sleeps), so even a single-core host interleaves the workers and the
// busy-ness assertion is deterministic.
func skewedResults(t *testing.T, p *device.Platform, workers, nTiny int) ([]uint64, []TaskTrace) {
	t.Helper()
	ctx := NewCtx(p, workers)
	results := make([]uint64, nTiny+1)
	declare := func(i, iters int, pause time.Duration) {
		tok := NewToken(ctx, fmt.Sprintf("tok%d", i))
		ctx.Task(fmt.Sprintf("task%d", i)).On(device.Host).Writes(tok).
			Do(func(ti *TaskInstance) error {
				h := uint64(14695981039346656037)
				for k := 0; k < iters; k++ {
					h ^= uint64(i + k)
					h *= 1099511628211
				}
				time.Sleep(pause)
				results[i] = h
				return nil
			})
	}
	// Task 0 is the pathological chunk: ~20x the tiny tasks' span.
	declare(0, 1<<16, 20*time.Millisecond)
	for i := 1; i <= nTiny; i++ {
		declare(i, 1<<10, time.Millisecond)
	}
	if err := ctx.Finalize(); err != nil {
		t.Fatal(err)
	}
	trace := ctx.Trace()
	ctx.Release()
	return results, trace
}

// TestWorkStealingSkewedCosts is the scheduler stress test (run under
// -race in CI): a pathologically skewed graph must keep every worker of
// the pool busy — the huge task pins one worker while the rest drain and
// steal the tiny tasks — and the results must match the serial (one
// worker) executor bit for bit.
func TestWorkStealingSkewedCosts(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	const workers = 4
	const nTiny = 63

	parallel, trace := skewedResults(t, p, workers, nTiny)
	if len(trace) != nTiny+1 {
		t.Fatalf("trace has %d tasks, want %d", len(trace), nTiny+1)
	}
	perWorker := map[int]int{}
	for _, tr := range trace {
		if tr.Err != nil {
			t.Fatalf("task %s failed: %v", tr.Name, tr.Err)
		}
		perWorker[tr.Worker]++
	}
	if len(perWorker) != workers {
		t.Errorf("only %d of %d workers executed tasks: %v", len(perWorker), workers, perWorker)
	}
	// No worker may have sat the run out while the huge task convoyed the
	// rest: the huge task's worker handles ~1 task, the others split the
	// tiny ones.
	for id, n := range perWorker {
		if n == 0 {
			t.Errorf("worker %d executed nothing", id)
		}
	}

	serial, _ := skewedResults(t, p, 1, nTiny)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("result %d: parallel %x != serial %x", i, parallel[i], serial[i])
		}
	}
}

// TestSkewStressManyRounds hammers the scheduler with repeated skewed
// graphs on one context-per-round to surface lost-wakeup or shutdown races
// under -race.
func TestSkewStressManyRounds(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	for round := 0; round < 8; round++ {
		ctx := NewCtx(p, 3)
		total := 0
		sink := make([]int, 24)
		for i := range sink {
			i := i
			tok := NewToken(ctx, fmt.Sprintf("r%d", i))
			ctx.Task(fmt.Sprintf("r%d", i)).On(device.Host).Writes(tok).
				Do(func(ti *TaskInstance) error {
					sink[i] = i + 1
					return nil
				})
		}
		if err := ctx.Finalize(); err != nil {
			t.Fatal(err)
		}
		ctx.Release()
		for _, v := range sink {
			total += v
		}
		if want := len(sink) * (len(sink) + 1) / 2; total != want {
			t.Fatalf("round %d: sum %d, want %d", round, total, want)
		}
	}
}

// TestTaskInstanceShard checks that task bodies receive a usable private
// pool shard and that slabs cycled through it are accounted exactly like
// direct pool traffic (gets and puts balance after Release drains the
// worker shards).
func TestTaskInstanceShard(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	before := p.ScratchPool().Stats()
	ctx := NewCtx(p, 2)
	for i := 0; i < 8; i++ {
		tok := NewToken(ctx, fmt.Sprintf("s%d", i))
		ctx.Task(fmt.Sprintf("s%d", i)).On(device.Host).Writes(tok).
			Do(func(ti *TaskInstance) error {
				sh := ti.Shard()
				if sh == nil {
					return fmt.Errorf("nil shard")
				}
				a := sh.GetU16(4096, true)
				b := sh.GetBytes(1<<14, false)
				a.Data[0] = 7
				b.Data[0] = 7
				sh.PutBytes(b)
				sh.PutU16(a)
				return nil
			})
	}
	if err := ctx.Finalize(); err != nil {
		t.Fatal(err)
	}
	ctx.Release()
	after := p.ScratchPool().Stats()
	gets := after.Gets - before.Gets
	puts := after.Puts - before.Puts
	if gets != puts {
		t.Errorf("shard traffic unbalanced: %d gets, %d puts", gets, puts)
	}
	if gets < 16 {
		t.Errorf("expected at least 16 checkouts, saw %d", gets)
	}
}
