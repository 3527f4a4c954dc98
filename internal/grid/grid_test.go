package grid

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestConstructors(t *testing.T) {
	if d := D1(7); d != (Dims{7, 1, 1}) {
		t.Errorf("D1: %+v", d)
	}
	if d := D2(3, 4); d != (Dims{3, 4, 1}) {
		t.Errorf("D2: %+v", d)
	}
	if d := D3(2, 3, 4); d != (Dims{2, 3, 4}) {
		t.Errorf("D3: %+v", d)
	}
}

func TestN(t *testing.T) {
	if D3(2, 3, 4).N() != 24 {
		t.Error("N mismatch")
	}
}

func TestRank(t *testing.T) {
	cases := []struct {
		d    Dims
		want int
	}{
		{D1(5), 1}, {D2(5, 2), 2}, {D3(5, 2, 2), 3},
		{Dims{5, 1, 1}, 1}, {Dims{1, 1, 1}, 1},
		// A z-extent forces rank 3 even with singleton y.
		{Dims{4, 1, 3}, 3},
	}
	for _, c := range cases {
		if got := c.d.Rank(); got != c.want {
			t.Errorf("Rank(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestIdxCoordsInverse(t *testing.T) {
	d := D3(5, 7, 3)
	for z := 0; z < d.Z; z++ {
		for y := 0; y < d.Y; y++ {
			for x := 0; x < d.X; x++ {
				i := d.Idx(x, y, z)
				gx, gy, gz := d.Coords(i)
				if gx != x || gy != y || gz != z {
					t.Fatalf("Coords(Idx(%d,%d,%d)) = (%d,%d,%d)", x, y, z, gx, gy, gz)
				}
			}
		}
	}
}

func TestIdxXFastest(t *testing.T) {
	d := D3(4, 3, 2)
	if d.Idx(1, 0, 0) != 1 {
		t.Error("x must be the fastest dimension")
	}
	if d.Idx(0, 1, 0) != 4 {
		t.Error("y stride must be X")
	}
	if d.Idx(0, 0, 1) != 12 {
		t.Error("z stride must be X*Y")
	}
}

func TestValid(t *testing.T) {
	if !D3(1, 1, 1).Valid() {
		t.Error("1x1x1 should be valid")
	}
	for _, d := range []Dims{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 1, 1}} {
		if d.Valid() {
			t.Errorf("%v should be invalid", d)
		}
	}
}

func TestString(t *testing.T) {
	cases := map[string]Dims{
		"5":     D1(5),
		"5x4":   D2(5, 4),
		"5x4x3": D3(5, 4, 3),
		"9x1x3": {9, 1, 3},
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", d, got, want)
		}
	}
}

func TestPropertyIdxBijective(t *testing.T) {
	f := func(x, y, z uint8) bool {
		d := Dims{int(x%16) + 1, int(y%16) + 1, int(z%16) + 1}
		seen := make(map[int]bool, d.N())
		for zz := 0; zz < d.Z; zz++ {
			for yy := 0; yy < d.Y; yy++ {
				for xx := 0; xx < d.X; xx++ {
					i := d.Idx(xx, yy, zz)
					if i < 0 || i >= d.N() || seen[i] {
						return false
					}
					seen[i] = true
				}
			}
		}
		return len(seen) == d.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParseDims(t *testing.T) {
	for _, d := range []Dims{D1(7), D2(4, 3), D3(16, 16, 12)} {
		if got, err := ParseDims(d.String()); err != nil || got != d {
			t.Errorf("ParseDims(%q) = %v, %v", d.String(), got, err)
		}
	}
	if got, err := ParseDims(" 8 X 2 "); err != nil || got != D2(8, 2) {
		t.Errorf("blanks and an upper-case separator: %v, %v", got, err)
	}
	for _, bad := range []string{"", "axb", "4x0", "-3", "1x2x3x4", "4x"} {
		if _, err := ParseDims(bad); err == nil {
			t.Errorf("ParseDims(%q) accepted", bad)
		}
	}
}

// TestParseDimsHardLimit: an extent product that overflows int or exceeds
// MaxElems is refused, so Dims.N() of a parsed value is always the true
// element count — 4611686018427387920x4 used to parse to a Dims whose N()
// is 64.
func TestParseDimsHardLimit(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"4294967296x4294967296x1", false}, // product wraps to 0
		{"4611686018427387920x4x1", false}, // product wraps to 64
		{"2097152x2097152x2097152", false}, // 2^63: wraps negative
		{"9223372036854775807", false},     // one extent beyond the limit
		{"17179869184", true},              // 2^34 exactly
		{"131072x131072", true},            // 2^34 as a product
		{"17179869185", false},             // 2^34 + 1
		{"131072x131072x2", false},         // 2^35
		{"4294967296x4x1", true},           // 2^34 from a 2^32 extent
	} {
		d, err := ParseDims(tc.in)
		switch {
		case tc.ok && (err != nil || uint64(d.N()) > MaxElems):
			t.Errorf("ParseDims(%q) = %v, %v; want accepted", tc.in, d, err)
		case !tc.ok && err == nil:
			t.Errorf("ParseDims(%q) = %v (N = %d), want refused", tc.in, d, d.N())
		case !tc.ok && !errors.Is(err, ErrLimit):
			t.Errorf("ParseDims(%q): error %v does not wrap ErrLimit", tc.in, err)
		}
	}
}

func TestGeometryCheckLimits(t *testing.T) {
	for _, tc := range []struct {
		g  Geometry
		ok bool
	}{
		{Geometry{}, true}, // zero is the caller's to refuse
		{Geometry{X: MaxElems, Y: 1, Z: 1, Planes: MaxElems, Chunks: MaxChunks}, true},
		{Geometry{X: 1 << 32, Y: 1 << 32, Z: 1}, false},
		{Geometry{X: 1 << 63, Y: 2, Z: 1}, false},
		{Geometry{X: MaxElems, Y: 0, Z: 2}, false}, // a zero extent hides nothing
		{Geometry{Planes: MaxElems + 1}, false},
		{Geometry{Planes: 1 << 63}, false},
		{Geometry{Chunks: MaxChunks + 1}, false},
	} {
		err := tc.g.CheckLimits()
		if tc.ok != (err == nil) || (err != nil && !errors.Is(err, ErrLimit)) {
			t.Errorf("%+v.CheckLimits() = %v, want ok=%v (wrapping ErrLimit)", tc.g, err, tc.ok)
		}
	}
}
