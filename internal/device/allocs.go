package device

import (
	"runtime"
	"runtime/debug"
)

// MeasureAllocs returns the steady-state heap allocation delta (count,
// bytes) of one fn run — the shared probe behind the tests that pin
// allocation bounds. The GC is disabled for the measurement: a collection landing mid-run empties the scratch-slab
// sync.Pools, and the slab refills then masquerade as steady-state
// allocation — the historical chunked-w4 27 MB/op outlier (vs ~18.6 MB for
// w1/w2/w8) was exactly this measurement artifact, not a pool-return miss
// (gets and puts balance on every worker path). fn runs once un-measured to
// re-warm the pools after the initial forced collection, then once measured.
// Scheduling still varies the op's concurrent slab footprint at higher
// worker counts (a run whose stages happen to overlap more checks out more
// slabs than the warm-up left pooled), so the minimum over a few measured
// runs is reported: it is the reproducible steady-state cost.
func MeasureAllocs(fn func()) (allocs, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	fn() // re-warm: the collection above emptied one pool generation
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		a, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if i == 0 || a < allocs {
			allocs = a
		}
		if i == 0 || b < bytes {
			bytes = b
		}
	}
	return allocs, bytes
}
