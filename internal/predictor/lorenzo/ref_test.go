package lorenzo

import (
	"fmt"
	"math"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/kernels/dispatch"
)

// refEncode is the encoder EncodeInto replaced, kept as the oracle the
// one-pass row kernel must match: pre-quantize each row into a
// field-sized int32 lattice and emit its codes from the stored lattice
// with the direct stencil (q[i]-q[i-1]-q[i-nx]+q[i-nx-1] and the 3-D
// analogue), the x-1, y-1 and z-1 terms vanishing on the field's edges.
// It runs serially in plain Go and shares nothing with the kernels; a
// value outside the lattice guard, NaN and ±Inf included, is an error.
func refEncode(data []float32, dims grid.Dims, eb float64, radius int) (*Quantized, error) {
	if radius <= 0 {
		radius = DefaultRadius
	}
	n := dims.N()
	r := refRows{
		data: data, lattice: make([]int32, n), codes: make([]uint16, n),
		r32: int32(radius), ebx2r: 1.0 / (2 * eb),
	}
	nx, ny, nxy := dims.X, dims.Y, dims.X*dims.Y
	ok := true
	for z := 0; z < dims.Z && ok; z++ {
		for y := 0; y < ny && ok; y++ {
			base := z*nxy + y*nx
			switch {
			case z == 0 && y == 0:
				ok = r.row1(base, nx)
			case z == 0:
				ok = r.row2(base, nx, base-nx)
			case y == 0:
				// The y-1 terms vanish: the 2-D stencil against the
				// plane behind's first row.
				ok = r.row2(base, nx, base-nxy)
			default:
				ok = r.row3(base, nx, base-nx, base-nxy, base-nxy-nx)
			}
		}
	}
	if !ok {
		return nil, fmt.Errorf("reference: lattice overflow")
	}
	return &Quantized{Codes: r.codes, OutVal: r.outVal, Radius: radius}, nil
}

type refRows struct {
	data    []float32
	lattice []int32
	codes   []uint16
	outVal  []int32
	r32     int32
	ebx2r   float64
}

// quant pre-quantizes element i onto the lattice.
func (r *refRows) quant(i int) bool {
	t := math.Round(float64(r.data[i]) * r.ebx2r)
	if !(t <= maxLattice && t >= -maxLattice) {
		return false
	}
	r.lattice[i] = int32(t)
	return true
}

// emit codes residual d at element i.
func (r *refRows) emit(i int, d int32) {
	if d > -r.r32 && d < r.r32 {
		r.codes[i] = uint16(d + r.r32)
	} else {
		r.codes[i] = 0
		r.outVal = append(r.outVal, d)
	}
}

// row1 codes a row with no row above: d = q[x] - q[x-1].
func (r *refRows) row1(base, nx int) bool {
	q := r.lattice
	for x := 0; x < nx; x++ {
		i := base + x
		if !r.quant(i) {
			return false
		}
		d := q[i]
		if x > 0 {
			d -= q[i-1]
		}
		r.emit(i, d)
	}
	return true
}

// row2 codes a row against the row starting at up:
// d = q[x] - q[x-1] - up[x] + up[x-1].
func (r *refRows) row2(base, nx, up int) bool {
	q := r.lattice
	for x := 0; x < nx; x++ {
		i := base + x
		if !r.quant(i) {
			return false
		}
		d := q[i] - q[up+x]
		if x > 0 {
			d += -q[i-1] + q[up+x-1]
		}
		r.emit(i, d)
	}
	return true
}

// row3 codes an interior 3-D row against the row above (up), the same
// row in the plane behind (back) and the row above that (backUp).
func (r *refRows) row3(base, nx, up, back, backUp int) bool {
	q := r.lattice
	for x := 0; x < nx; x++ {
		i := base + x
		if !r.quant(i) {
			return false
		}
		d := q[i] - q[up+x] - q[back+x] + q[backUp+x]
		if x > 0 {
			d += -q[i-1] + q[up+x-1] + q[back+x-1] - q[backUp+x-1]
		}
		r.emit(i, d)
	}
	return true
}

// FuzzLorenzoEncode turns fuzzer bytes into a small rank 1–3 field and a
// bound, and requires EncodeInto under every kernel tier, at one worker
// and at four, to agree with refEncode: the same codes and outlier values,
// or an error exactly where refEncode fails, with every pooled slab back.
//
// The first five bytes pick the shape, the bound and how the rest become
// values: as raw float32 bits (NaN, ±Inf, huge magnitudes and denormals
// included), or as a random walk of signed byte steps, which codes in
// range with the occasional escape.
func FuzzLorenzoEncode(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 6 {
			return
		}
		hdr, body := raw[:5], raw[5:]
		dims := grid.D3(1+int(hdr[1]%40), 1, 1)
		switch hdr[0] % 3 {
		case 1:
			dims.Y = 1 + int(hdr[2]%12)
		case 2:
			dims.Y, dims.Z = 1+int(hdr[2]%8), 1+int(hdr[3]%8)
		}
		eb := math.Ldexp(1, 6-int(hdr[4]%48)) // 64 down to 2^-41
		data := make([]float32, dims.N())
		if hdr[0]>>2&3 == 0 {
			for i := range data {
				var w uint32
				for k := 0; k < 4; k++ {
					w |= uint32(body[(4*i+k)%len(body)]) << (8 * k)
				}
				data[i] = math.Float32frombits(w)
			}
		} else {
			step := math.Ldexp(1, -int(hdr[3]%16))
			acc := 0.0
			for i := range data {
				acc += float64(int8(body[i%len(body)])) * step
				data[i] = float32(acc)
			}
		}

		want, werr := refEncode(data, dims, eb, 0)
		defer func() {
			if err := dispatch.Use("auto"); err != nil {
				t.Fatalf("restoring auto tier: %v", err)
			}
		}()
		for _, tier := range dispatch.Tiers() {
			if err := dispatch.Use(tier); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				got, err := EncodeInto(tp.WithWorkers(workers), device.Accel, data, dims, eb, 0, nil)
				if st := tp.ScratchPool().Stats(); st.Gets != st.Puts {
					t.Fatalf("%s w%d %v: %d pool gets, %d puts", tier, workers, dims, st.Gets, st.Puts)
				}
				if (err == nil) != (werr == nil) {
					t.Fatalf("%s w%d %v eb %g: error %v, reference %v", tier, workers, dims, eb, err, werr)
				}
				if err != nil {
					continue
				}
				for i := range want.Codes {
					if got.Codes[i] != want.Codes[i] {
						t.Fatalf("%s w%d %v eb %g: codes[%d] = %d, want %d", tier, workers, dims, eb, i, got.Codes[i], want.Codes[i])
					}
				}
				if len(got.OutVal) != len(want.OutVal) {
					t.Fatalf("%s w%d %v eb %g: %d outlier values, want %d", tier, workers, dims, eb, len(got.OutVal), len(want.OutVal))
				}
				for i := range want.OutVal {
					if got.OutVal[i] != want.OutVal[i] {
						t.Fatalf("%s w%d %v eb %g: OutVal[%d] = %d, want %d", tier, workers, dims, eb, i, got.OutVal[i], want.OutVal[i])
					}
				}
			}
		}
	})
}
