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
