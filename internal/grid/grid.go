// Package grid provides the small shared geometry vocabulary for the
// compression modules: dataset dimensions and index arithmetic for 1-D,
// 2-D and 3-D fields stored in x-fastest (C row-major, reversed) order.
package grid

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Dims describes a field of X*Y*Z float values with x varying fastest:
// index = x + X*(y + Y*z). 2-D fields use Z=1, 1-D fields Y=Z=1.
type Dims struct {
	X, Y, Z int
}

// D1 returns 1-D dims of length n.
func D1(n int) Dims { return Dims{n, 1, 1} }

// D2 returns 2-D dims (x fastest).
func D2(x, y int) Dims { return Dims{x, y, 1} }

// D3 returns 3-D dims (x fastest).
func D3(x, y, z int) Dims { return Dims{x, y, z} }

// N returns the total element count.
func (d Dims) N() int { return d.X * d.Y * d.Z }

// The geometry hard limits of the container formats (docs/FORMAT.md §1.1).
const (
	// MaxElems bounds a field's element count X·Y·Z (16 Gi elements = 64 GiB
	// of float32) and, with it, every plane count: nothing sized by geometry
	// can overflow int arithmetic or drive an absurd allocation.
	MaxElems = 1 << 34
	// MaxChunks bounds the slabs a field may be cut into, and so every
	// chunk table.
	MaxChunks = 1 << 20
)

// ErrLimit marks geometry beyond a hard limit; test for it with errors.Is.
var ErrLimit = errors.New("beyond the format's hard limit")

// Geometry is the part of a container's shape the hard limits bound:
// the field's extents, a plane count (nominal per chunk, or of one chunk)
// and a chunk count. Values are uint64 so that what a parser has just read
// is judged before any conversion to int.
type Geometry struct {
	X, Y, Z, Planes, Chunks uint64
}

// Geometry returns d's extents as the Geometry to check, plane and chunk
// counts left for the caller to add. A negative extent becomes a value far
// beyond every limit.
func (d Dims) Geometry() Geometry {
	return Geometry{X: uint64(d.X), Y: uint64(d.Y), Z: uint64(d.Z)}
}

// CheckLimits is the one definition of the §1.1 geometry limits, binding
// on writers (before a task is declared or a byte sliced) exactly as on
// readers (before anything is allocated): X·Y·Z ≤ MaxElems with the product
// computed without overflow, Planes ≤ MaxElems, Chunks ≤ MaxChunks. It
// judges magnitude only — a zero field passes, and is the caller's to
// refuse where the grammar wants a positive value.
func (g Geometry) CheckLimits() error {
	n := uint64(1)
	for _, v := range [3]uint64{g.X, g.Y, g.Z} {
		if v > MaxElems || (v > 0 && n > MaxElems/v) {
			return fmt.Errorf("field of %dx%dx%d elements exceeds %d: %w", g.X, g.Y, g.Z, uint64(MaxElems), ErrLimit)
		}
		n *= max(v, 1)
	}
	if g.Planes > MaxElems {
		return fmt.Errorf("plane count %d exceeds %d: %w", g.Planes, uint64(MaxElems), ErrLimit)
	}
	if g.Chunks > MaxChunks {
		return fmt.Errorf("chunk count %d exceeds %d: %w", g.Chunks, MaxChunks, ErrLimit)
	}
	return nil
}

// Rank returns 1, 2 or 3 according to the trailing singleton dimensions.
func (d Dims) Rank() int {
	switch {
	case d.Z > 1:
		return 3
	case d.Y > 1:
		return 2
	default:
		return 1
	}
}

// Idx maps (x, y, z) to the linear index.
func (d Dims) Idx(x, y, z int) int { return x + d.X*(y+d.Y*z) }

// Coords inverts Idx.
func (d Dims) Coords(i int) (x, y, z int) {
	x = i % d.X
	i /= d.X
	y = i % d.Y
	z = i / d.Y
	return
}

// Valid reports whether all extents are positive.
func (d Dims) Valid() bool { return d.X > 0 && d.Y > 0 && d.Z > 0 }

// PlaneElems returns the element count of one plane orthogonal to the
// slowest-varying dimension: X*Y for 3-D fields, X for 2-D, 1 for 1-D.
// Because storage is x-fastest, such planes are contiguous in memory.
func (d Dims) PlaneElems() int {
	switch d.Rank() {
	case 3:
		return d.X * d.Y
	case 2:
		return d.X
	default:
		return 1
	}
}

// SlowExtent returns the extent of the slowest-varying dimension (Z for
// 3-D, Y for 2-D, X for 1-D).
func (d Dims) SlowExtent() int {
	switch d.Rank() {
	case 3:
		return d.Z
	case 2:
		return d.Y
	default:
		return d.X
	}
}

// Slab is one contiguous block of a field partitioned along its
// slowest-varying dimension. Because storage is x-fastest, a slab covers
// the linear element range [Lo, Lo+Dims.N()) of the parent field. Planes
// records the slab's extent along the parent's slowest dimension
// explicitly: a short slab can drop rank (one z-plane of a 3-D field is a
// 2-D field), which silently changes what Dims.SlowExtent would report.
type Slab struct {
	Dims   Dims // slab geometry (full extent in the fast dimensions)
	Lo     int  // linear element offset of the slab start in the parent
	Planes int  // extent along the parent's slowest dimension
}

// Elems returns the slab's element count.
func (s Slab) Elems() int { return s.Dims.N() }

// Bytes returns the slab's size in bytes as float32 storage, the amount a
// streaming executor reads per chunk.
func (s Slab) Bytes() int { return 4 * s.Dims.N() }

// WithSlowExtent returns d with the slowest-varying dimension replaced,
// the geometry of a slab of n planes cut from a d-shaped field.
func (d Dims) WithSlowExtent(n int) Dims {
	switch d.Rank() {
	case 3:
		return Dims{d.X, d.Y, n}
	case 2:
		return Dims{d.X, n, 1}
	default:
		return Dims{n, 1, 1}
	}
}

// SplitSlabs partitions d into contiguous slabs of at most planes planes
// along the slowest-varying dimension. planes <= 0 or planes >=
// SlowExtent() yields a single slab covering the whole field.
func SplitSlabs(d Dims, planes int) []Slab {
	total := d.SlowExtent()
	if planes <= 0 || planes >= total {
		return []Slab{{Dims: d, Lo: 0, Planes: total}}
	}
	plane := d.PlaneElems()
	out := make([]Slab, 0, (total+planes-1)/planes)
	for lo := 0; lo < total; lo += planes {
		k := planes
		if lo+k > total {
			k = total - lo
		}
		out = append(out, Slab{Dims: d.WithSlowExtent(k), Lo: lo * plane, Planes: k})
	}
	return out
}

// String renders "XxYxZ" with trailing singletons omitted.
func (d Dims) String() string {
	switch d.Rank() {
	case 3:
		return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z)
	case 2:
		return fmt.Sprintf("%dx%d", d.X, d.Y)
	default:
		return fmt.Sprintf("%d", d.X)
	}
}

// ParseDims parses String's "XxYxZ" form: one to three positive extents, x
// fastest, omitted trailing extents being 1. The separator is x or X and
// blanks around an extent are ignored. Extents whose product exceeds
// MaxElems (or overflows) are refused with an error wrapping ErrLimit, so a
// parsed Dims' N() is always the true element count.
func ParseDims(s string) (Dims, error) {
	if s == "" {
		return Dims{}, fmt.Errorf("missing dims")
	}
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) > 3 {
		return Dims{}, fmt.Errorf("dims %q: want XxYxZ with at most 3 axes", s)
	}
	ext := [3]int{1, 1, 1}
	for i, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return Dims{}, fmt.Errorf("dims %q: bad extent %q", s, part)
		}
		ext[i] = v
	}
	d := Dims{X: ext[0], Y: ext[1], Z: ext[2]}
	if err := d.Geometry().CheckLimits(); err != nil {
		return Dims{}, fmt.Errorf("dims %q: %w", s, err)
	}
	return d, nil
}
