package stf

import (
	"errors"
	"testing"

	"fzmod/internal/device"
)

// TestCtxReset drives one context through several windowed batches, the
// usage pattern of the streaming compressor: declare a batch of tasks,
// Reset, declare the next batch over fresh tokens.
func TestCtxReset(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	ctx := NewCtx(p, 2)
	total := 0
	for batch := 0; batch < 4; batch++ {
		sum := 0
		in := []uint32{1, 2, 3, 4}
		out := make([]uint32, len(in))
		outTok := NewToken(ctx, "out")
		ctx.Task("double").Writes(outTok).On(device.Accel).
			Do(func(ti *TaskInstance) error {
				for i, v := range in {
					out[i] = 2 * v
				}
				return nil
			})
		ctx.Task("sum").Reads(outTok).On(device.Host).
			Do(func(ti *TaskInstance) error {
				for _, v := range out {
					sum += int(v)
				}
				return nil
			})
		if err := ctx.Reset(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if sum != 20 {
			t.Fatalf("batch %d: sum = %d, want 20", batch, sum)
		}
		total += sum
	}
	if total != 80 {
		t.Fatalf("total = %d, want 80", total)
	}
}

// TestCtxResetErrorIsolation: a failing batch reports its error through
// Reset and does not poison the batches that follow.
func TestCtxResetErrorIsolation(t *testing.T) {
	p := device.NewTestPlatform()
	defer p.Close()
	ctx := NewCtx(p, 0)
	boom := errors.New("boom")
	tok := NewToken(ctx, "t")
	ctx.Task("fail").Writes(tok).Do(func(ti *TaskInstance) error { return boom })
	ctx.Task("skipped").Reads(tok).Do(func(ti *TaskInstance) error { return nil })
	if err := ctx.Reset(); !errors.Is(err, boom) {
		t.Fatalf("Reset = %v, want %v", err, boom)
	}
	ran := false
	ctx.Task("ok").Do(func(ti *TaskInstance) error { ran = true; return nil })
	if err := ctx.Reset(); err != nil {
		t.Fatalf("post-failure batch: %v", err)
	}
	if !ran {
		t.Fatal("task after failed batch did not run")
	}
}
