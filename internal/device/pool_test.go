package device

import (
	"sync"
	"testing"
)

func TestBufPoolRecyclesSlabs(t *testing.T) {
	var bp BufPool
	s1 := bp.GetU32(1500, false)
	if len(s1.Data) != 1500 || cap(s1.Data) != 2048 {
		t.Fatalf("slab len/cap = %d/%d, want 1500/2048", len(s1.Data), cap(s1.Data))
	}
	s1.Data[0] = 42
	bp.PutU32(s1)
	s2 := bp.GetU32(1200, false)
	if cap(s2.Data) != 2048 {
		t.Errorf("reused slab cap = %d, want 2048", cap(s2.Data))
	}
	if s2.Data[0] != 42 {
		t.Error("dirty get did not reuse the slab storage")
	}
	bp.PutU32(s2)
	s3 := bp.GetU32(2000, true)
	if s3.Data[0] != 0 {
		t.Error("zeroed get returned dirty contents")
	}
	st := bp.Stats()
	if st.Gets != 3 || st.Hits != 2 || st.Puts != 2 {
		t.Errorf("stats = %+v, want gets 3 / hits 2 / puts 2", st)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Errorf("hit rate = %v, want 2/3", got)
	}
}

func TestBufPoolTinyAndHugeRequests(t *testing.T) {
	var bp BufPool
	tiny := bp.GetF32(3, true)
	if len(tiny.Data) != 3 || cap(tiny.Data) != 1<<poolMinClass {
		t.Errorf("tiny slab len/cap = %d/%d", len(tiny.Data), cap(tiny.Data))
	}
	bp.PutF32(tiny)
	zero := bp.GetBytes(0, false)
	if len(zero.Data) != 0 {
		t.Errorf("zero-length slab has len %d", len(zero.Data))
	}
	bp.PutBytes(zero)
	huge := bp.GetBytes(1<<poolMaxClass+1, false)
	if huge.class != -1 {
		t.Error("oversized request should be unpooled")
	}
	bp.PutBytes(huge) // must be a no-op, not a panic
}

func TestBufPoolSteadyStateAllocFree(t *testing.T) {
	var bp BufPool
	bp.PutI32(bp.GetI32(4096, false)) // warm the class
	allocs := testing.AllocsPerRun(100, func() {
		s := bp.GetI32(4096, false)
		bp.PutI32(s)
	})
	if allocs > 0 {
		t.Errorf("steady-state get/put cycle allocates %.1f objects", allocs)
	}
}

// TestBufPoolRetention pins the pool's footprint contract: a class list
// holds exactly the slabs returned to it, which is the peak number checked
// out at once, and a repeat of the same work is served entirely from it.
func TestBufPoolRetention(t *testing.T) {
	const k, m, n = 4, 3, 3000
	var bp BufPool
	round := func() {
		var held, done sync.WaitGroup
		held.Add(k)
		done.Add(k)
		for g := 0; g < k; g++ {
			go func() {
				defer done.Done()
				slabs := make([]*Slab[uint32], m)
				for i := range slabs {
					slabs[i] = bp.GetU32(n, false)
				}
				held.Done()
				held.Wait() // all k·m slabs are out at once
				for _, s := range slabs {
					bp.PutU32(s)
				}
			}()
		}
		done.Wait()
	}
	retained := func() int {
		bp.mu.Lock()
		defer bp.mu.Unlock()
		return len(bp.u32[classFor(n)])
	}

	round()
	if got := retained(); got != k*m {
		t.Fatalf("after the first round the class holds %d slabs, want %d", got, k*m)
	}
	before := bp.Stats()
	round()
	after := bp.Stats()
	gets, hits := after.Gets-before.Gets, after.Hits-before.Hits
	if gets != k*m || hits != gets {
		t.Errorf("second round: %d gets, %d hits; want %d of each", gets, hits, k*m)
	}
	if got := retained(); got != k*m {
		t.Errorf("after the second round the class holds %d slabs, want %d", got, k*m)
	}
}

// TestPoolStatsCoherent samples Stats while several goroutines cycle
// slabs: every snapshot must be one consistent moment, in which a hit
// consumes an earlier put and a put returns an earlier get.
func TestPoolStatsCoherent(t *testing.T) {
	var bp BufPool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				bp.PutU16(bp.GetU16(2048, false))
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 200_000; i++ {
		if s := bp.Stats(); s.Hits > s.Puts || s.Puts > s.Gets {
			t.Fatalf("snapshot %d is incoherent: %+v", i, s)
		}
	}
}

func TestPlatformCloseStopsWorkersAndLaunchesInline(t *testing.T) {
	p := NewTestPlatform()
	sum := make([]int32, 8192)
	p.LaunchGrid(Accel, len(sum), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum[i]++
		}
	})
	p.Close()
	p.Close() // idempotent
	// Launches after Close must still complete (inline execution).
	p.LaunchGrid(Accel, len(sum), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum[i]++
		}
	})
	for i, v := range sum {
		if v != 2 {
			t.Fatalf("index %d ran %d times, want 2", i, v)
		}
	}
	// A platform that never launched has no workers to stop.
	NewTestPlatform().Close()
}

func TestLaunchBlocksCoversRange(t *testing.T) {
	p := NewTestPlatform()
	seen := make([]int32, 37)
	p.LaunchBlocks(Accel, len(seen), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
	if p.Stats().KernelLaunch.Load() != 1 {
		t.Errorf("LaunchBlocks should count one kernel launch")
	}
}
