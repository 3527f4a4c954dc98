package device

import (
	"sync/atomic"
	"testing"
)

func TestPoolShardCachesAndRecycles(t *testing.T) {
	var bp BufPool
	sh := bp.NewShard()

	a := sh.GetU16(2000, true)
	for i := range a.Data {
		if a.Data[i] != 0 {
			t.Fatal("zeroed slab is dirty")
		}
	}
	a.Data[0] = 42
	sh.PutU16(a)

	// Same class: must come from the shard cache (a pool hit), resized.
	b := sh.GetU16(1500, false)
	if &b.Data[0] != &a.Data[0] {
		t.Error("shard did not recycle the cached slab")
	}
	if len(b.Data) != 1500 {
		t.Errorf("len = %d, want 1500", len(b.Data))
	}
	sh.PutU16(b)

	// Zeroing on shard hits must clear reused contents (1200 shares the
	// 2^11 size class with the cached slab).
	c := sh.GetU16(1200, true)
	if &c.Data[0] != &a.Data[0] {
		t.Error("same-class request missed the shard cache")
	}
	for _, v := range c.Data {
		if v != 0 {
			t.Fatal("shard hit returned dirty data with zeroed=true")
		}
	}
	sh.PutU16(c)

	st := bp.Stats()
	if st.Gets != st.Puts {
		t.Errorf("gets %d != puts %d", st.Gets, st.Puts)
	}
	if st.Gets != 3 {
		t.Errorf("gets = %d, want 3", st.Gets)
	}
	if st.Hits != 2 {
		t.Errorf("hits = %d, want 2 (two shard hits)", st.Hits)
	}

	// Drain returns cached slabs to the shared pool without re-counting.
	sh.Drain()
	st = bp.Stats()
	if st.Gets != st.Puts {
		t.Errorf("after drain: gets %d != puts %d", st.Gets, st.Puts)
	}
	if !RaceEnabled {
		// The drained slab is now visible to direct pool checkouts (the
		// race detector's sync.Pool drops puts on purpose, so only assert
		// this in normal builds).
		d := bp.GetU16(2048, false)
		if &d.Data[0] != &a.Data[0] {
			t.Error("drained slab not in the shared pool")
		}
		bp.PutU16(d)
	}
}

func TestPoolShardOverflowsToSharedPool(t *testing.T) {
	var bp BufPool
	sh := bp.NewShard()
	slabs := make([]*Slab[byte], shardCap+3)
	for i := range slabs {
		slabs[i] = sh.GetBytes(4096, false)
	}
	for _, s := range slabs {
		sh.PutBytes(s)
	}
	st := bp.Stats()
	if st.Gets != int64(len(slabs)) || st.Puts != int64(len(slabs)) {
		t.Errorf("gets/puts = %d/%d, want %d/%d", st.Gets, st.Puts, len(slabs), len(slabs))
	}
	sh.Drain()
	if st := bp.Stats(); st.Gets != st.Puts {
		t.Errorf("after drain: gets %d != puts %d", st.Gets, st.Puts)
	}
}

func TestWithWorkersViewSharesState(t *testing.T) {
	p := NewTestPlatform()
	defer p.Close()
	v := p.WithWorkers(1)
	if v.Workers(Accel) != 1 || v.Workers(Host) != 1 {
		t.Fatalf("view widths = %d/%d, want 1/1", v.Workers(Accel), v.Workers(Host))
	}
	// Wider budgets clamp at the parent's width.
	wide := p.WithWorkers(64)
	if wide.Workers(Accel) != p.Workers(Accel) {
		t.Errorf("wide view accel width %d, want %d", wide.Workers(Accel), p.Workers(Accel))
	}
	if p.WithWorkers(0) != p {
		t.Error("WithWorkers(0) should return the receiver")
	}

	// Counters and scratch pool are shared.
	if v.ScratchPool() != p.ScratchPool() {
		t.Error("view has a different scratch pool")
	}
	if v.Stats() != p.Stats() {
		t.Error("view has different stats")
	}
	v.LaunchGrid(Accel, 10_000, func(lo, hi int) {})
	if p.Stats().KernelLaunch.Load() == 0 {
		t.Error("view launch not charged to the shared stats")
	}
}

func TestWithWorkersOneRunsInline(t *testing.T) {
	p := NewTestPlatform()
	defer p.Close()
	v := p.WithWorkers(1)
	var calls atomic.Int32
	v.LaunchGrid(Host, 1<<16, func(lo, hi int) {
		calls.Add(1)
		if lo != 0 || hi != 1<<16 {
			t.Errorf("width-1 view split the range: [%d,%d)", lo, hi)
		}
	})
	if calls.Load() != 1 {
		t.Errorf("width-1 view made %d kernel calls, want 1", calls.Load())
	}
	// The parent keeps its own decomposition.
	var parentCalls atomic.Int32
	p.LaunchGrid(Accel, 1<<16, func(lo, hi int) { parentCalls.Add(1) })
	if parentCalls.Load() != int32(p.Workers(Accel)) {
		t.Errorf("parent made %d calls, want %d", parentCalls.Load(), p.Workers(Accel))
	}
}
