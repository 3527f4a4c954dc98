package device

import (
	"math/bits"
	"sync"
)

// BufPool is a size-classed scratch-slab pool, the reproduction of the
// pooled device-buffer allocator a GPU compressor keeps so per-chunk kernels
// never hit cudaMalloc on the hot path. Slabs are grouped into power-of-two
// size classes per element kind, each class a LIFO free list; one mutex
// guards every list and the traffic counters, so a Stats snapshot is one
// consistent moment.
//
// A slab is allocated only when its class list is empty, and a list only
// ever holds slabs that were returned to it, so each class retains at most
// its peak number of concurrent checkouts: the pool's footprint is the
// high-water mark of the work it serves, with no cap to tune. The lists are
// never emptied behind the caller's back (a garbage collection leaves them
// intact), so whether a get hits depends on the code, not on scheduling.
//
// A checked-out slab travels inside a *Slab box; returning the box recycles
// both the storage and the box itself, so steady-state Get/Put cycles
// perform zero heap allocations. The zero value is ready to use; every
// Platform carries one (see Platform.ScratchPool) so concurrent compressions
// sharing a platform also share its warm slabs.
type BufPool struct {
	mu               sync.Mutex
	bytes            freeLists[byte]
	u16              freeLists[uint16]
	u32              freeLists[uint32]
	i32              freeLists[int32]
	i64              freeLists[int64]
	f32              freeLists[float32]
	gets, hits, puts int64
}

// PoolStats is a point-in-time snapshot of pool traffic.
type PoolStats struct {
	// Gets counts slab checkouts; Hits counts the subset served from the
	// pool rather than a fresh allocation; Puts counts returns.
	Gets, Hits, Puts int64
}

// Misses returns the checkouts that had to allocate.
func (s PoolStats) Misses() int64 { return s.Gets - s.Hits }

// HitRate returns Hits/Gets in [0, 1] (0 when the pool is untouched).
func (s PoolStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Stats snapshots the cumulative pool counters.
func (bp *BufPool) Stats() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return PoolStats{Gets: bp.gets, Hits: bp.hits, Puts: bp.puts}
}

const (
	// poolMinClass floors the class index: slabs smaller than 2^poolMinClass
	// elements round up to it, so tiny requests still recycle.
	poolMinClass = 10
	// poolMaxClass caps pooled slabs at 2^poolMaxClass elements; larger
	// requests fall through to plain allocation (class -1, never recycled).
	poolMaxClass = 30
)

// freeLists holds one element kind's returned slabs, one list per class.
type freeLists[T any] [poolMaxClass + 1][]*Slab[T]

// Slab is one checked-out pool slab: Data has the requested length and a
// power-of-two capacity. Keep the box and hand it back with the matching
// Put method when the data's lifetime ends; a Slab must not be used after.
type Slab[T any] struct {
	Data  []T
	class int8
}

// classFor maps a length to its size class (ceil log2, floored).
func classFor(n int) int {
	if n <= 1 {
		return poolMinClass
	}
	c := bits.Len(uint(n - 1))
	if c < poolMinClass {
		c = poolMinClass
	}
	return c
}

func getSlab[T any](bp *BufPool, fl *freeLists[T], n int, zeroed bool) *Slab[T] {
	c := classFor(n)
	bp.mu.Lock()
	bp.gets++
	if n > 1<<poolMaxClass {
		bp.mu.Unlock()
		return &Slab[T]{Data: make([]T, n), class: -1}
	}
	if k := len(fl[c]); k > 0 {
		s := fl[c][k-1]
		fl[c][k-1] = nil
		fl[c] = fl[c][:k-1]
		bp.hits++
		bp.mu.Unlock()
		s.Data = s.Data[:n]
		if zeroed {
			clear(s.Data)
		}
		return s
	}
	bp.mu.Unlock()
	// Fresh slabs arrive zeroed from the allocator.
	return &Slab[T]{Data: make([]T, n, 1<<c), class: int8(c)}
}

func putSlab[T any](bp *BufPool, fl *freeLists[T], s *Slab[T]) {
	if s == nil || s.class < 0 {
		return
	}
	bp.mu.Lock()
	bp.puts++
	fl[s.class] = append(fl[s.class], s)
	bp.mu.Unlock()
}

// GetBytes checks out a byte slab of length n; zeroed selects cleared
// contents (reused slabs are otherwise dirty).
func (bp *BufPool) GetBytes(n int, zeroed bool) *Slab[byte] {
	return getSlab[byte](bp, &bp.bytes, n, zeroed)
}

// PutBytes returns a byte slab.
func (bp *BufPool) PutBytes(s *Slab[byte]) { putSlab(bp, &bp.bytes, s) }

// GetU16 checks out a uint16 slab of length n.
func (bp *BufPool) GetU16(n int, zeroed bool) *Slab[uint16] {
	return getSlab[uint16](bp, &bp.u16, n, zeroed)
}

// PutU16 returns a uint16 slab.
func (bp *BufPool) PutU16(s *Slab[uint16]) { putSlab(bp, &bp.u16, s) }

// GetU32 checks out a uint32 slab of length n.
func (bp *BufPool) GetU32(n int, zeroed bool) *Slab[uint32] {
	return getSlab[uint32](bp, &bp.u32, n, zeroed)
}

// PutU32 returns a uint32 slab.
func (bp *BufPool) PutU32(s *Slab[uint32]) { putSlab(bp, &bp.u32, s) }

// GetI32 checks out an int32 slab of length n.
func (bp *BufPool) GetI32(n int, zeroed bool) *Slab[int32] {
	return getSlab[int32](bp, &bp.i32, n, zeroed)
}

// PutI32 returns an int32 slab.
func (bp *BufPool) PutI32(s *Slab[int32]) { putSlab(bp, &bp.i32, s) }

// GetI64 checks out an int64 slab of length n.
func (bp *BufPool) GetI64(n int, zeroed bool) *Slab[int64] {
	return getSlab[int64](bp, &bp.i64, n, zeroed)
}

// PutI64 returns an int64 slab.
func (bp *BufPool) PutI64(s *Slab[int64]) { putSlab(bp, &bp.i64, s) }

// GetF32 checks out a float32 slab of length n.
func (bp *BufPool) GetF32(n int, zeroed bool) *Slab[float32] {
	return getSlab[float32](bp, &bp.f32, n, zeroed)
}

// PutF32 returns a float32 slab.
func (bp *BufPool) PutF32(s *Slab[float32]) { putSlab(bp, &bp.f32, s) }
