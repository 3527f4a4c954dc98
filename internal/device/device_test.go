package device

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPlaceString(t *testing.T) {
	if Host.String() != "host" {
		t.Errorf("Host.String() = %q, want host", Host.String())
	}
	if Accel.String() != "accel" {
		t.Errorf("Accel.String() = %q, want accel", Accel.String())
	}
	if Place(9).String() != "place(9)" {
		t.Errorf("Place(9).String() = %q", Place(9).String())
	}
}

func TestLaunchGridCoversRangeExactlyOnce(t *testing.T) {
	p := NewTestPlatform()
	for _, n := range []int{0, 1, 7, 1023, 1024, 1025, 10_000, 123_457} {
		seen := make([]int32, n)
		p.LaunchGrid(Accel, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times, want 1", n, i, c)
			}
		}
	}
}

func TestLaunchGridHostPlace(t *testing.T) {
	p := NewTestPlatform()
	var sum atomic.Int64
	p.LaunchGrid(Host, 50_000, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += int64(i)
		}
		sum.Add(local)
	})
	want := int64(50_000) * 49_999 / 2
	if sum.Load() != want {
		t.Errorf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestLaunchCounters(t *testing.T) {
	p := NewTestPlatform()
	p.LaunchGrid(Accel, 10, func(lo, hi int) {})
	p.LaunchGrid(Accel, 10, func(lo, hi int) {})
	p.LaunchGrid(Host, 10, func(lo, hi int) {})
	if got := p.Stats().KernelLaunch.Load(); got != 2 {
		t.Errorf("kernel launches = %d, want 2", got)
	}
	if got := p.Stats().HostLaunch.Load(); got != 1 {
		t.Errorf("host launches = %d, want 1", got)
	}
	p.ResetStats()
	if got := p.Stats().KernelLaunch.Load(); got != 0 {
		t.Errorf("after reset kernel launches = %d, want 0", got)
	}
}

func TestSliceConversionsRoundtrip(t *testing.T) {
	f := func(vals []float32) bool {
		got := BytesF32(F32Bytes(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			// Compare bit patterns so NaNs roundtrip too.
			if F32Bytes(vals[i : i+1])[0] != F32Bytes(got[i : i+1])[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(vals []uint16) bool {
		got := BytesU16(U16Bytes(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	h := func(vals []uint32) bool {
		got := BytesU32(U32Bytes(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error(err)
	}
}

func TestPlatformConstructors(t *testing.T) {
	h := NewH100Platform()
	v := NewV100Platform()
	if h.LinkBandwidth <= v.LinkBandwidth {
		t.Error("H100 link bandwidth should exceed V100 (Table 1)")
	}
	if h.Name == "" || v.Name == "" {
		t.Error("platforms should be named")
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
