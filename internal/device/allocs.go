package device

import (
	"runtime"
	"runtime/debug"
)

// MeasureAllocs returns the steady-state heap allocation delta (count,
// bytes) of one fn run — the shared probe behind the tests that pin
// allocation bounds. The GC is disabled for the measurement: BufPool's free
// lists survive a collection, but huffman's buildPool of codebook scratch
// (the last pool on the codec path that a collection empties) does not,
// and its refill would masquerade as steady-state allocation. fn runs once
// un-measured to re-warm after the initial forced collection, then once
// per measured run. Scheduling still varies the op's concurrent slab
// footprint at higher worker counts (a run whose stages happen to overlap
// more checks out more slabs than the warm-up left pooled), so the minimum
// over a few measured runs is reported: it is the reproducible
// steady-state cost.
func MeasureAllocs(fn func()) (allocs, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	fn() // re-warm: the collection above emptied buildPool
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
