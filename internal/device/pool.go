package device

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// BufPool is a size-classed scratch-slab pool, the reproduction of the
// pooled device-buffer allocator a GPU compressor keeps so per-chunk kernels
// never hit cudaMalloc on the hot path. Slabs are grouped into power-of-two
// size classes per element kind, each class backed by a sync.Pool arena.
//
// A checked-out slab travels inside a *Slab box; returning the box recycles
// both the storage and the box itself, so steady-state Get/Put cycles
// perform zero heap allocations. The zero value is ready to use; every
// Platform carries one (see Platform.ScratchPool) so concurrent compressions
// sharing a platform also share its warm slabs.
type BufPool struct {
	bytes, u16, u32, i32, i64, f32 classPools

	gets stripedCounter
	hits stripedCounter
	puts stripedCounter
}

// counterStripes is the stripe count of the pool's traffic counters. The
// slab storage itself is already P-local (sync.Pool keeps per-P free
// lists), so under concurrent get/put the only shared-write hot spots are
// these counters; striping them by size class and padding each cell to a
// cache line keeps concurrent workers — which typically touch different
// classes at any instant — off each other's lines.
const counterStripes = 8

// stripedCounter is a cache-line padded, striped event counter.
type stripedCounter struct {
	cells [counterStripes]struct {
		v atomic.Int64
		_ [56]byte
	}
}

func (c *stripedCounter) add(stripe int) {
	c.cells[stripe&(counterStripes-1)].v.Add(1)
}

func (c *stripedCounter) load() int64 {
	var total int64
	for i := range c.cells {
		total += c.cells[i].v.Load()
	}
	return total
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
	return PoolStats{Gets: bp.gets.load(), Hits: bp.hits.load(), Puts: bp.puts.load()}
}

const (
	// poolMinClass floors the class index: slabs smaller than 2^poolMinClass
	// elements round up to it, so tiny requests still recycle.
	poolMinClass = 10
	// poolMaxClass caps pooled slabs at 2^poolMaxClass elements; larger
	// requests fall through to plain allocation (class -1, never recycled).
	poolMaxClass = 30
)

type classPools [poolMaxClass + 1]sync.Pool

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

func getSlab[T any](bp *BufPool, cp *classPools, n int, zeroed bool) *Slab[T] {
	c := classFor(n)
	bp.gets.add(c)
	if n > 1<<poolMaxClass {
		return &Slab[T]{Data: make([]T, n), class: -1}
	}
	if v := cp[c].Get(); v != nil {
		bp.hits.add(c)
		s := v.(*Slab[T])
		s.Data = s.Data[:n]
		if zeroed {
			clear(s.Data)
		}
		return s
	}
	// Fresh slabs arrive zeroed from the allocator.
	return &Slab[T]{Data: make([]T, n, 1<<c), class: int8(c)}
}

func putSlab[T any](bp *BufPool, cp *classPools, s *Slab[T]) {
	if s == nil || s.class < 0 {
		return
	}
	bp.puts.add(int(s.class))
	cp[s.class].Put(s)
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
