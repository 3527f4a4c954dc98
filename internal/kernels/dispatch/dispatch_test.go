package dispatch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forEachTier runs f once under every tier this build supports, always
// restoring auto-detection afterwards. Under the purego tag (or on other
// GOARCHes) only the reference tier exists and the sweep degenerates to a
// self-check, which is exactly the contract: purego IS the specification.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	tiers := []string{PureGo}
	if b := bestName(); b != PureGo {
		tiers = append(tiers, b)
	}
	defer func() {
		if err := Use("auto"); err != nil {
			t.Fatalf("restoring auto tier: %v", err)
		}
	}()
	for _, tier := range tiers {
		if err := Use(tier); err != nil {
			t.Fatalf("Use(%q): %v", tier, err)
		}
		t.Run(tier, f)
	}
}

// offsetF32 returns an n-element slice whose backing array starts off
// elements into a larger allocation, exercising unaligned vector heads.
func offsetF32(n, off int) []float32 { return make([]float32, n+off)[off : off+n] }
func offsetI32(n, off int) []int32   { return make([]int32, n+off)[off : off+n] }
func offsetU16(n, off int) []uint16  { return make([]uint16, n+off)[off : off+n] }
func offsetU32(n, off int) []uint32  { return make([]uint32, n+off)[off : off+n] }

func TestQuantizeF32Equivalence(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		specials := []float32{
			float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
			0.5, -0.5, 1.5, -2.5, 0, float32(math.Copysign(0, -1)),
		}
		for n := 0; n <= 200; n++ {
			for off := 0; off < 4; off++ {
				data := offsetF32(n, off)
				for i := range data {
					data[i] = float32(rng.NormFloat64() * 100)
				}
				// A second pass re-runs with specials (NaN/Inf/halves)
				// scattered in, which must flip the result to false in
				// both implementations at any position.
				for pass := 0; pass < 2; pass++ {
					if pass == 1 && n > 0 {
						for k := 0; k < 1+n/16; k++ {
							data[rng.Intn(n)] = specials[rng.Intn(len(specials))]
						}
					}
					scale := []float64{1, 0.1, 1e6 / 3}[rng.Intn(3)]
					lim := []float64{1 << 29, 40}[rng.Intn(2)]
					got := offsetI32(n, off)
					want := make([]int32, n)
					okGot := QuantizeF32(data, got, scale, lim)
					okWant := quantizeF32PureGo(data, want, scale, lim)
					if okGot != okWant {
						t.Fatalf("n=%d off=%d pass=%d scale=%g lim=%g: ok=%v want %v",
							n, off, pass, scale, lim, okGot, okWant)
					}
					if !okGot {
						continue // q contents unspecified on failure
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("n=%d off=%d i=%d v=%x: q=%d want %d",
								n, off, i, math.Float32bits(data[i]), got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// TestQuantizeF32Rounding pins the exact math.Round cases where the naive
// trunc(t+0.5) vectorization diverges: halves round away from zero and the
// largest float64 below 0.5 rounds to zero.
func TestQuantizeF32Rounding(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		data := make([]float32, 16)
		for i := range data {
			data[i] = float32(i) + 0.5
		}
		data[8], data[9], data[10], data[11] = -0.5, -1.5, -2.5, -3.5
		q := make([]int32, 16)
		if !QuantizeF32(data, q, 1, 1<<29) {
			t.Fatal("halves flagged out of range")
		}
		for i, v := range data {
			if want := int32(math.Round(float64(v))); q[i] != want {
				t.Fatalf("round(%v) = %d, want %d", v, q[i], want)
			}
		}
		// 0.4999999999999999 * 1.0 < 0.5 exactly in float64: must round to
		// 0, not 1. (The float32 0.49999997 scaled by 1 exercises the same
		// sub-half branch on the f32->f64 widened value.)
		sub := make([]float32, 8)
		for i := range sub {
			sub[i] = 0.49999997
		}
		if !QuantizeF32(sub, q[:8], 1, 1<<29) {
			t.Fatal("sub-half flagged out of range")
		}
		for i := 0; i < 8; i++ {
			if q[i] != 0 {
				t.Fatalf("round(0.49999997) = %d, want 0", q[i])
			}
		}
	})
}

func TestDiffCodesEquivalence(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		radii := []int32{1, 2, 255, 512, 32768, 40000}
		for n := 0; n <= 200; n += 1 {
			for off := 0; off < 4; off++ {
				mk := func() []int32 {
					s := offsetI32(n+1, off)
					for i := range s {
						// Mix small steps (in-range codes) with huge jumps
						// (escapes, including int32-wrapping differences).
						if rng.Intn(8) == 0 {
							s[i] = int32(rng.Uint32())
						} else {
							s[i] = int32(rng.Intn(1024) - 512)
						}
					}
					return s
				}
				q, up, back, backUp := mk(), mk(), mk(), mk()
				r32 := radii[rng.Intn(len(radii))]
				got := offsetU16(n, off)
				want := make([]uint16, n)

				DiffCodes1(q, got, r32)
				diffCodes1PureGo(q, want, r32)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("diff1 n=%d off=%d r=%d i=%d: %d want %d", n, off, r32, i, got[i], want[i])
					}
				}
				DiffCodes2(q, up, got, r32)
				diffCodes2PureGo(q, up, want, r32)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("diff2 n=%d off=%d r=%d i=%d: %d want %d", n, off, r32, i, got[i], want[i])
					}
				}
				DiffCodes3(q, up, back, backUp, got, r32)
				diffCodes3PureGo(q, up, back, backUp, want, r32)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("diff3 n=%d off=%d r=%d i=%d: %d want %d", n, off, r32, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// checkLorenzoRow runs LorenzoRow and its pure-Go twin on copies of the
// same accumulators (the installed tier's at element offset off, so vector
// heads start unaligned) and requires the same carry, counts, output bits
// and accumulator contents. A nil above or behind stays absent.
func checkLorenzoRow(t *testing.T, codes []uint16, vals []int32, r32 int32, scale float64, acc int32, above, behind []int32, off int) {
	t.Helper()
	n := len(codes)
	clone := func(s []int32, off int) []int32 {
		if s == nil {
			return nil
		}
		c := offsetI32(len(s), off)
		copy(c, s)
		return c
	}
	gotAbove, gotBehind := clone(above, off), clone(behind, off)
	wantAbove, wantBehind := clone(above, 0), clone(behind, 0)
	gotOut, wantOut := offsetF32(n, off), make([]float32, n)
	gotAcc, gotDone, gotUsed := LorenzoRow(codes, vals, r32, scale, acc, gotAbove, gotBehind, gotOut)
	wantAcc, wantDone, wantUsed := lorenzoRowPureGo(codes, vals, r32, scale, acc, wantAbove, wantBehind, wantOut)
	if gotAcc != wantAcc || gotDone != wantDone || gotUsed != wantUsed {
		t.Fatalf("lorenzoRow n=%d vals=%d off=%d r=%d above=%v behind=%v: (acc %d, done %d, used %d) want (%d, %d, %d)",
			n, len(vals), off, r32, above != nil, behind != nil, gotAcc, gotDone, gotUsed, wantAcc, wantDone, wantUsed)
	}
	for i := range wantOut {
		if math.Float32bits(gotOut[i]) != math.Float32bits(wantOut[i]) {
			t.Fatalf("lorenzoRow n=%d off=%d out[%d] = %x want %x",
				n, off, i, math.Float32bits(gotOut[i]), math.Float32bits(wantOut[i]))
		}
	}
	for i := range wantAbove {
		if gotAbove[i] != wantAbove[i] {
			t.Fatalf("lorenzoRow n=%d off=%d above[%d] = %d want %d", n, off, i, gotAbove[i], wantAbove[i])
		}
	}
	for i := range wantBehind {
		if gotBehind[i] != wantBehind[i] {
			t.Fatalf("lorenzoRow n=%d off=%d behind[%d] = %d want %d", n, off, i, gotBehind[i], wantBehind[i])
		}
	}
}

// TestLorenzoRowEquivalence covers every accumulator shape on odd lengths
// and alignments, with escapes from none to every code, outlier values
// that run out early, just in time or never, sums that wrap int32, and
// scales from a tight bound to one whose products round in f32.
func TestLorenzoRowEquivalence(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		radii := []int32{0, 1, 512, 32768, 40000, math.MaxInt32}
		scales := []float64{2e-4, 1, 0.1, 3.0000001e-7, 1e30}
		// escape probability per code: none, rare, dense, every code
		densities := []int{0, 1000, 3, 1}
		for n := 0; n <= 200; n++ {
			for off := 0; off < 4; off++ {
				codes := offsetU16(n, off)
				every := densities[rng.Intn(len(densities))]
				escapes := 0
				for i := range codes {
					codes[i] = uint16(1 + rng.Intn(1023))
					if every > 0 && rng.Intn(every) == 0 {
						codes[i] = 0
					}
				}
				if n > 0 && rng.Intn(4) == 0 {
					codes[n-1] = 0 // an escape in the tail or the last group
				}
				for _, c := range codes {
					if c == 0 {
						escapes++
					}
				}
				mk := func(n int) []int32 {
					s := make([]int32, n)
					for i := range s {
						if rng.Intn(4) == 0 {
							s[i] = int32(rng.Uint32()) // sums that wrap
						} else {
							s[i] = int32(rng.Intn(1<<20) - 1<<19)
						}
					}
					return s
				}
				acc := int32(rng.Intn(2000) - 1000)
				if rng.Intn(4) == 0 {
					acc = math.MaxInt32 - int32(rng.Intn(100))
				}
				r32 := radii[rng.Intn(len(radii))]
				scale := scales[rng.Intn(len(scales))]
				for _, nv := range []int{escapes, escapes + 3, rng.Intn(escapes + 1)} {
					vals := mk(nv)
					checkLorenzoRow(t, codes, vals, r32, scale, acc, nil, nil, off)
					checkLorenzoRow(t, codes, vals, r32, scale, acc, mk(n), nil, off)
					checkLorenzoRow(t, codes, vals, r32, scale, acc, nil, mk(n), off)
					checkLorenzoRow(t, codes, vals, r32, scale, acc, mk(n), mk(n), off)
				}
			}
		}
	})
}

func TestMinMaxF32Equivalence(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for n := 1; n <= 200; n++ {
			for off := 0; off < 4; off++ {
				data := offsetF32(n, off)
				for i := range data {
					data[i] = float32(rng.NormFloat64())
				}
				if n > 2 && rng.Intn(2) == 0 {
					data[1+rng.Intn(n-1)] = float32(math.NaN())
				}
				gmn, gmx := MinMaxF32(data)
				wmn, wmx := minMaxF32PureGo(data)
				// Compare as values: ±0 sign is unspecified, NaN==NaN via
				// bit check.
				eq := func(a, b float32) bool {
					return a == b || (math.IsNaN(float64(a)) && math.IsNaN(float64(b)))
				}
				if !eq(gmn, wmn) || !eq(gmx, wmx) {
					t.Fatalf("n=%d off=%d: (%v,%v) want (%v,%v)", n, off, gmn, gmx, wmn, wmx)
				}
			}
		}
		// NaN in the seed position sticks, by contract, in every tier.
		nan := float32(math.NaN())
		data := []float32{nan, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
			16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}
		mn, mx := MinMaxF32(data)
		if !math.IsNaN(float64(mn)) || !math.IsNaN(float64(mx)) {
			t.Fatalf("NaN seed: got (%v, %v), want NaN accumulators", mn, mx)
		}
	})
}

func TestHistEquivalence(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for _, bins := range []int{2, 17, 256, 1024, 65536} {
			lengths := []int{0, 1, 7, 8, 15, 16, 17, 31, 33, 100, 200}
			if bins == 65536 {
				lengths = []int{100} // keep the big-table case cheap
			}
			for _, n := range lengths {
				for off := 0; off < 4; off++ {
					codes := offsetU16(n, off)
					for i := range codes {
						codes[i] = uint16(rng.Intn(bins))
					}
					oob := n > 0 && bins < 65536 && rng.Intn(2) == 0
					if oob {
						codes[rng.Intn(n)] = uint16(bins) // one past the end
					}
					got := offsetU32(4*bins, off)
					want := make([]uint32, 4*bins)
					okGot := HistAccum(got, codes, bins)
					okWant := histAccumPureGo(want, codes, bins)
					if okGot != okWant {
						t.Fatalf("bins=%d n=%d off=%d oob=%v: ok=%v want %v", bins, n, off, oob, okGot, okWant)
					}
					if !okGot {
						continue // table contents unspecified on failure
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("bins=%d n=%d off=%d tab[%d]=%d want %d", bins, n, off, i, got[i], want[i])
						}
					}
					// Merge equivalence on the freshly built tables, with a
					// non-zero destination to cover the += semantics.
					outGot := offsetU32(bins, off)
					outWant := make([]uint32, bins)
					for i := 0; i < bins; i++ {
						outGot[i] = uint32(i)
						outWant[i] = uint32(i)
					}
					HistMerge(outGot, got)
					histMergePureGo(outWant, want)
					for i := range outWant {
						if outGot[i] != outWant[i] {
							t.Fatalf("merge bins=%d n=%d out[%d]=%d want %d", bins, n, i, outGot[i], outWant[i])
						}
					}
				}
			}
		}
	})
}

func TestNextZeroEquivalence(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for n := 0; n <= 200; n++ {
			for off := 0; off < 4; off++ {
				codes := offsetU16(n, off)
				for i := range codes {
					codes[i] = uint16(1 + rng.Intn(1000))
				}
				// Three shapes: no zero, one zero at a random position, and
				// a zero in every 16-group (early exits).
				for pass := 0; pass < 3 && pass <= n; pass++ {
					switch pass {
					case 1:
						codes[rng.Intn(n)] = 0
					case 2:
						for i := 0; i < n; i += 16 {
							codes[i+rng.Intn(min(16, n-i))] = 0
						}
					}
					got := NextZero(codes)
					want := nextZeroPureGo(codes)
					if got != want {
						t.Fatalf("n=%d off=%d pass=%d: %d want %d", n, off, pass, got, want)
					}
				}
			}
		}
	})
}

func TestSumLengthsEquivalence(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		table := offsetU32(300, 1)
		for i := range table {
			table[i] = uint32(1 + rng.Intn(32))
		}
		table[17] = 0 // a hole: symbol with no code
		for n := 0; n <= 200; n++ {
			for off := 0; off < 4; off++ {
				codes := offsetU16(n, off)
				for i := range codes {
					codes[i] = uint16(rng.Intn(299))
					if codes[i] == 17 {
						codes[i] = 18
					}
				}
				for pass := 0; pass < 3 && pass <= n; pass++ {
					switch pass {
					case 1:
						codes[rng.Intn(n)] = 17 // zero-length symbol
					case 2:
						codes[rng.Intn(n)] = 300 // out of table range
					}
					gotBits, gotOK := SumLengths(table, codes)
					wantBits, wantOK := sumLengthsPureGo(table, codes)
					if gotBits != wantBits || gotOK != wantOK {
						t.Fatalf("n=%d off=%d pass=%d: (%d,%v) want (%d,%v)",
							n, off, pass, gotBits, gotOK, wantBits, wantOK)
					}
				}
			}
		}
	})
}

// TestSumLengthsLargeSpan crosses the assembly wrapper's 1 Mi-code span
// boundary so the per-span lane accumulation and carry into the uint64
// total is exercised.
func TestSumLengthsLargeSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("large allocation")
	}
	forEachTier(t, func(t *testing.T) {
		table := []uint32{0, 7, 255}
		codes := make([]uint16, (1<<20)+12345)
		for i := range codes {
			codes[i] = uint16(1 + i%2)
		}
		got, okGot := SumLengths(table, codes)
		want, okWant := sumLengthsPureGo(table, codes)
		if got != want || okGot != okWant {
			t.Fatalf("(%d,%v) want (%d,%v)", got, okGot, want, okWant)
		}
	})
}

// emitTable draws n enc entries for EmitCodes with lengths in [lo, hi]
// (0 is an absent symbol) and codes below 2^len.
func emitTable(rng *rand.Rand, n, lo, hi int) []uint64 {
	enc := make([]uint64, n)
	for i := range enc {
		l := lo + rng.Intn(hi-lo+1)
		enc[i] = (rng.Uint64()&(1<<uint(l)-1))<<8 | uint64(l)
	}
	return enc
}

// bitStream appends the entries of codes to acc's nbits pending bits one
// bit at a time and returns the completed bytes and what stays pending:
// the specification EmitCodes' state is checked against.
func bitStream(enc []uint64, codes []uint16, acc uint64, nbits uint) ([]byte, uint64, uint) {
	var out []byte
	put := func(bit uint64) {
		acc |= bit << nbits
		if nbits++; nbits == 8 {
			out = append(out, byte(acc))
			acc, nbits = 0, 0
		}
	}
	for _, s := range codes {
		e := enc[s]
		for i := uint(0); i < uint(e&0xff); i++ {
			put(e >> (8 + i) & 1)
		}
	}
	return out, acc, nbits
}

// checkEmitCodes runs EmitCodes and its pure-Go twin on copies of one
// dirtied output of room bytes with a guard behind it, and requires the
// same returned state, the same written bytes, an untouched guard, a stop
// at a group of four, and bytes and state matching bitStream.
func checkEmitCodes(t *testing.T, enc []uint64, codes []uint16, room int, acc uint64, nbits uint) {
	t.Helper()
	const guard = 16
	type result struct {
		done, written int
		acc           uint64
		nbits         uint
		buf           []byte
	}
	run := func(f func([]uint64, []uint16, []byte, uint64, uint) (int, int, uint64, uint)) result {
		buf := bytes.Repeat([]byte{0xA5}, room+guard)
		d, w, a, nb := f(enc, codes, buf[:room:room], acc, nbits)
		return result{d, w, a, nb, buf}
	}
	got, want := run(EmitCodes), run(emitCodesPureGo)
	if got.done != want.done || got.written != want.written || got.acc != want.acc || got.nbits != want.nbits {
		t.Fatalf("n=%d room=%d: state (%d,%d,%#x,%d) want (%d,%d,%#x,%d)", len(codes), room,
			got.done, got.written, got.acc, got.nbits, want.done, want.written, want.acc, want.nbits)
	}
	if !bytes.Equal(got.buf[:got.written], want.buf[:want.written]) {
		t.Fatalf("n=%d room=%d: written bytes differ", len(codes), room)
	}
	for _, r := range []result{got, want} {
		for i, b := range r.buf[room:] {
			if b != 0xA5 {
				t.Fatalf("n=%d room=%d: store %d bytes past out", len(codes), room, i+1)
			}
		}
	}
	if want.done%4 != 0 {
		t.Fatalf("n=%d room=%d: stopped at %d, inside a group of four", len(codes), room, want.done)
	}
	stream, pacc, pbits := bitStream(enc, codes[:want.done], acc, nbits)
	if !bytes.Equal(want.buf[:want.written], stream) || want.acc != pacc || want.nbits != pbits {
		t.Fatalf("n=%d room=%d: %d bytes and (%#x,%d) pending, bit stream has %d and (%#x,%d)",
			len(codes), room, want.written, want.acc, want.nbits, len(stream), pacc, pbits)
	}
}

func TestEmitCodesEquivalence(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		// Short codes keep eight-code groups within 56 bits, long ones
		// push most past it, and the mixed tables hold absent symbols. The
		// full 65536-entry table has no code outside it; the one below
		// refuses only 65535.
		tables := [][]uint64{
			emitTable(rng, 300, 1, 3),
			emitTable(rng, 300, 0, 12),
			emitTable(rng, 1024, 0, 32),
			emitTable(rng, 40, 16, 32),
			emitTable(rng, 1<<16, 1, 9),
			emitTable(rng, 1<<16-1, 1, 9),
		}
		for _, enc := range tables {
			for n := 0; n <= 120; n++ {
				for off := 0; off < 2; off++ {
					codes := offsetU16(n, off)
					for i := range codes {
						codes[i] = uint16(rng.Intn(len(enc)))
					}
					nbits := uint(rng.Intn(8))
					acc := rng.Uint64() & (1<<nbits - 1)
					// Room to spare, a tight room from the codes' own size,
					// and any room up to 64 bytes.
					bits := int(nbits)
					for _, s := range codes {
						bits += int(enc[s] & 0xff)
					}
					for _, room := range []int{bits/8 + 64, bits / 8, rng.Intn(65)} {
						checkEmitCodes(t, enc, codes, room, acc, nbits)
					}
					if n > 0 {
						// A code outside the table ends the loop before
						// its group of four, in every tier.
						codes[rng.Intn(n)] = uint16(min(len(enc)+rng.Intn(3), 65535))
						checkEmitCodes(t, enc, codes, bits/8+64, acc, nbits)
					}
				}
			}
		}
	})
}

func TestUse(t *testing.T) {
	defer func() {
		if err := Use("auto"); err != nil {
			t.Fatalf("restoring auto tier: %v", err)
		}
	}()
	if err := Use("purego"); err != nil {
		t.Fatalf("Use(purego): %v", err)
	}
	if Active() != PureGo {
		t.Fatalf("Active() = %q after Use(purego)", Active())
	}
	if VectorRows() {
		t.Fatal("VectorRows() true under purego")
	}
	for k, impl := range PerKernel() {
		if impl != PureGo {
			t.Fatalf("PerKernel()[%q] = %q under purego", k, impl)
		}
	}
	if err := Use("bogus"); err == nil {
		t.Fatal("Use(bogus) succeeded")
	}
	if Active() != PureGo {
		t.Fatalf("failed Use changed the tier to %q", Active())
	}
	if err := Use("auto"); err != nil {
		t.Fatalf("Use(auto): %v", err)
	}
	if Active() != bestName() {
		t.Fatalf("Active() = %q, want best %q", Active(), bestName())
	}
	if Active() != PureGo && !VectorRows() {
		t.Fatalf("tier %q installed without vector rows", Active())
	}
}

// FuzzKernelEquivalence feeds arbitrary byte strings through every
// dispatched kernel and its pure-Go twin, asserting bit-identical results.
// The installed tier is whatever init detected, so on AVX2 hosts this
// fuzzes the assembly; under -tags purego it degenerates to a self-check.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0x7f, 0xc0, 0, 0, 0x3f, 0x80, 0, 0, 0xff, 0x80, 0, 0}) // NaN, 1, -Inf
	seed := make([]byte, 133)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	// Bitshuffle shapes: all-zero and all-ones planes over whole 64-value
	// groups plus an odd tail, and a tile and a bit with a partial last group.
	f.Add(make([]byte, 2*(64+3)))
	f.Add(bytes.Repeat([]byte{0xFF}, 2*(128+5)))
	tile := make([]byte, 2*(1024+9)+1)
	for i := range tile {
		tile[i] = byte(i*i>>3) & 0x1F
	}
	f.Add(tile)
	f.Fuzz(func(t *testing.T, raw []byte) {
		// float32 view for quantize/minmax; uint16 view for codes.
		fs := make([]float32, len(raw)/4)
		for i := range fs {
			fs[i] = math.Float32frombits(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 |
				uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
		}
		us := make([]uint16, len(raw)/2)
		for i := range us {
			us[i] = uint16(raw[2*i]) | uint16(raw[2*i+1])<<8
		}

		qGot := make([]int32, len(fs))
		qWant := make([]int32, len(fs))
		okGot := QuantizeF32(fs, qGot, 0.25, 1<<29)
		okWant := quantizeF32PureGo(fs, qWant, 0.25, 1<<29)
		if okGot != okWant {
			t.Fatalf("quantize ok=%v want %v", okGot, okWant)
		}
		if okGot {
			for i := range qWant {
				if qGot[i] != qWant[i] {
					t.Fatalf("quantize[%d] = %d want %d (bits %x)", i, qGot[i], qWant[i], math.Float32bits(fs[i]))
				}
			}
		}

		if len(fs) > 0 {
			gmn, gmx := MinMaxF32(fs)
			wmn, wmx := minMaxF32PureGo(fs)
			if math.Float32bits(gmn) != math.Float32bits(wmn) && gmn != wmn {
				t.Fatalf("min %v want %v", gmn, wmn)
			}
			if math.Float32bits(gmx) != math.Float32bits(wmx) && gmx != wmx {
				t.Fatalf("max %v want %v", gmx, wmx)
			}
		}

		if len(us) > 0 {
			q := make([]int32, len(us)+1)
			up := make([]int32, len(us)+1)
			for i := range q {
				q[i] = int32(uint32(raw[i%len(raw)])<<8) - 8000
				up[i] = int32(uint32(raw[(i*3+1)%len(raw)])) - 100
			}
			codes := us[:len(us)-1+1]
			gotC := make([]uint16, len(codes))
			wantC := make([]uint16, len(codes))
			DiffCodes1(q[:len(codes)+1], gotC, 512)
			diffCodes1PureGo(q[:len(codes)+1], wantC, 512)
			for i := range wantC {
				if gotC[i] != wantC[i] {
					t.Fatalf("diff1[%d] = %d want %d", i, gotC[i], wantC[i])
				}
			}
			DiffCodes3(q[:len(codes)+1], up[:len(codes)+1], q[:len(codes)+1], up[:len(codes)+1], gotC, 512)
			diffCodes3PureGo(q[:len(codes)+1], up[:len(codes)+1], q[:len(codes)+1], up[:len(codes)+1], wantC, 512)
			for i := range wantC {
				if gotC[i] != wantC[i] {
					t.Fatalf("diff3[%d] = %d want %d", i, gotC[i], wantC[i])
				}
			}
		}

		// LorenzoRow: the code view as codes (zeros are escapes), the
		// raw words as the carry, radius, scale, outlier values (as many
		// as the fuzzer's first byte says) and accumulators.
		if len(us) > 0 {
			word := func(i int) uint32 {
				if len(raw) < 4 {
					return uint32(raw[0]) * 0x01010101
				}
				i %= len(raw) - 3
				return uint32(raw[i]) | uint32(raw[i+1])<<8 | uint32(raw[i+2])<<16 | uint32(raw[i+3])<<24
			}
			acc := int32(word(1))
			r32 := int32(word(2) >> uint(raw[0]%32))
			scale := math.Abs(float64(math.Float32frombits(word(3)&0x7f7fffff))) + 1e-300
			above := make([]int32, len(us))
			behind := make([]int32, len(us))
			for i := range above {
				above[i] = int32(word(i*7 + 5))
				behind[i] = int32(word(i*5 + 3))
			}
			vals := make([]int32, int(raw[0])%(len(us)+1))
			for i := range vals {
				vals[i] = int32(word(i*3 + 1))
			}
			for _, shape := range [][2][]int32{{nil, nil}, {above, nil}, {above, behind}} {
				checkLorenzoRow(t, us, vals, r32, scale, acc, shape[0], shape[1], int(raw[0]%4))
			}
		}

		const bins = 256
		masked := make([]uint16, len(us))
		for i, c := range us {
			masked[i] = c & 0x1FF // half in range, half out
		}
		hGot := make([]uint32, 4*bins)
		hWant := make([]uint32, 4*bins)
		hOKGot := HistAccum(hGot, masked, bins)
		hOKWant := histAccumPureGo(hWant, masked, bins)
		if hOKGot != hOKWant {
			t.Fatalf("hist ok=%v want %v", hOKGot, hOKWant)
		}
		if hOKGot {
			for i := range hWant {
				if hGot[i] != hWant[i] {
					t.Fatalf("hist[%d] = %d want %d", i, hGot[i], hWant[i])
				}
			}
		}

		if got, want := NextZero(us), nextZeroPureGo(us); got != want {
			t.Fatalf("nextZero = %d want %d", got, want)
		}

		// Bitshuffle: the code view at both 2-byte alignments, raw and
		// recentred, into an odd-aligned destination; then the raw bytes
		// themselves read as planes, which no shuffle need have produced.
		var center uint16
		if len(us) > 0 && us[0]&1 != 0 {
			center = us[0]
		}
		for skip := 0; skip < 2 && skip <= len(us); skip++ {
			vals := us[skip:]
			n := len(vals)
			planes := 16 * planeStride(n)
			shGot, shWant := make([]byte, planes+1)[1:], make([]byte, planes)
			Bitshuffle16(shGot, vals, center)
			bitshuffle16PureGo(shWant, vals, center)
			if !bytes.Equal(shGot, shWant) {
				t.Fatalf("bitshuffle16 n=%d center=%d differs", n, center)
			}
			back := offsetU16(n, 1)
			Unbitshuffle16(back, shGot, center)
			for i := range vals {
				if back[i] != vals[i] {
					t.Fatalf("unbitshuffle16 n=%d center=%d [%d] = %d want %d", n, center, i, back[i], vals[i])
				}
			}
		}
		n16 := len(raw) / 16 * 8
		unGot, unWant := make([]uint16, n16), make([]uint16, n16)
		Unbitshuffle16(unGot, raw, center)
		unbitshuffle16PureGo(unWant, raw, center)
		for i := range unWant {
			if unGot[i] != unWant[i] {
				t.Fatalf("unbitshuffle16 of raw planes [%d] = %d want %d", i, unGot[i], unWant[i])
			}
		}

		ws := make([]uint32, len(raw)/4)
		for i := range ws {
			ws[i] = math.Float32bits(fs[i])
		}
		planes := 32 * planeStride(len(ws))
		sh32Got, sh32Want := make([]byte, planes+1)[1:], make([]byte, planes)
		Bitshuffle32(sh32Got, ws)
		bitshuffle32PureGo(sh32Want, ws)
		if !bytes.Equal(sh32Got, sh32Want) {
			t.Fatalf("bitshuffle32 n=%d differs", len(ws))
		}
		back32 := offsetU32(len(ws), 1)
		Unbitshuffle32(back32, sh32Got)
		for i := range ws {
			if back32[i] != ws[i] {
				t.Fatalf("unbitshuffle32 [%d] = %d want %d", i, back32[i], ws[i])
			}
		}

		table := make([]uint32, 512)
		for i := range table {
			table[i] = uint32(i % 33) // zeros at multiples of 33
		}
		gotBits, gotOK := SumLengths(table, masked)
		wantBits, wantOK := sumLengthsPureGo(table, masked)
		if gotBits != wantBits || gotOK != wantOK {
			t.Fatalf("sumLengths (%d,%v) want (%d,%v)", gotBits, gotOK, wantBits, wantOK)
		}

		// EmitCodes: a table of fuzzer-chosen (code, len <= 32) entries
		// as long as the first byte says, codes one past it included
		// (refused), and the pending bits and the output room from the
		// raw bytes.
		if len(raw) > 0 {
			enc := make([]uint64, 1+int(raw[0])%64)
			for i := range enc {
				w := uint64(raw[(4*i+1)%len(raw)]) | uint64(raw[(4*i+2)%len(raw)])<<8 |
					uint64(raw[(4*i+3)%len(raw)])<<16 | uint64(raw[(4*i+4)%len(raw)])<<24 |
					uint64(raw[(4*i+5)%len(raw)])<<32
				l := uint(w>>32) % 33
				enc[i] = (w&(1<<l-1))<<8 | uint64(l)
			}
			codes := make([]uint16, len(us))
			for i, c := range us {
				codes[i] = c % uint16(len(enc)+1)
			}
			nbits := uint(raw[len(raw)-1]) % 8
			acc := uint64(raw[len(raw)/2]) & (1<<nbits - 1)
			checkEmitCodes(t, enc, codes, int(raw[len(raw)/3])+4*len(codes), acc, nbits)
			checkEmitCodes(t, enc, codes, int(raw[len(raw)/3])%64, acc, nbits)
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Microbenchmarks report every tier this build supports so before/after
// numbers for the dispatch layer come from one run.

func benchTiers(b *testing.B, f func(b *testing.B)) {
	b.Helper()
	defer func() { _ = Use("auto") }()
	for _, tier := range Tiers() {
		if err := Use(tier); err != nil {
			b.Fatalf("Use(%q): %v", tier, err)
		}
		b.Run(tier, f)
	}
}

func BenchmarkQuantizeF32(b *testing.B) {
	data := make([]float32, 1<<16)
	rng := rand.New(rand.NewSource(7))
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	q := make([]int32, len(data))
	benchTiers(b, func(b *testing.B) {
		b.SetBytes(int64(4 * len(data)))
		for i := 0; i < b.N; i++ {
			QuantizeF32(data, q, 1e4, 1<<29)
		}
	})
}

func BenchmarkDiffCodes3(b *testing.B) {
	n := 1 << 16
	q := make([]int32, n+1)
	up := make([]int32, n+1)
	rng := rand.New(rand.NewSource(8))
	for i := range q {
		q[i] = int32(rng.Intn(100))
		up[i] = int32(rng.Intn(100))
	}
	codes := make([]uint16, n)
	benchTiers(b, func(b *testing.B) {
		b.SetBytes(int64(4 * n))
		for i := 0; i < b.N; i++ {
			DiffCodes3(q, up, q, up, codes, 512)
		}
	})
}

// BenchmarkLorenzoRow reconstructs one interior row of a 3-D field (both
// accumulators), with no escapes and with one code in eight an escape:
// bytes are codes in and floats out.
func BenchmarkLorenzoRow(b *testing.B) {
	const n = 1 << 12
	rng := rand.New(rand.NewSource(13))
	above := make([]int32, n)
	behind := make([]int32, n)
	out := make([]float32, n)
	vals := make([]int32, n)
	for _, every := range []int{0, 8} {
		codes := make([]uint16, n)
		for i := range codes {
			codes[i] = uint16(510 + rng.Intn(5))
			if every > 0 && rng.Intn(every) == 0 {
				codes[i] = 0
			}
		}
		name := "no-escapes"
		if every > 0 {
			name = fmt.Sprintf("escapes-1in%d", every)
		}
		b.Run(name, func(b *testing.B) {
			benchTiers(b, func(b *testing.B) {
				b.SetBytes(int64(6 * n))
				for i := 0; i < b.N; i++ {
					LorenzoRow(codes, vals, 512, 2e-4, 0, above, behind, out)
				}
			})
		})
	}
}

func BenchmarkMinMaxF32Kernel(b *testing.B) {
	data := make([]float32, 1<<16)
	rng := rand.New(rand.NewSource(9))
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	benchTiers(b, func(b *testing.B) {
		b.SetBytes(int64(4 * len(data)))
		for i := 0; i < b.N; i++ {
			MinMaxF32(data)
		}
	})
}

func BenchmarkHistAccum(b *testing.B) {
	const bins = 1024
	codes := make([]uint16, 1<<16)
	rng := rand.New(rand.NewSource(10))
	for i := range codes {
		codes[i] = uint16(rng.Intn(bins))
	}
	tabs := make([]uint32, 4*bins)
	benchTiers(b, func(b *testing.B) {
		b.SetBytes(int64(2 * len(codes)))
		for i := 0; i < b.N; i++ {
			HistAccum(tabs, codes, bins)
		}
	})
}

func BenchmarkNextZero(b *testing.B) {
	codes := make([]uint16, 1<<16)
	for i := range codes {
		codes[i] = 1
	}
	benchTiers(b, func(b *testing.B) {
		b.SetBytes(int64(2 * len(codes)))
		for i := 0; i < b.N; i++ {
			NextZero(codes)
		}
	})
}

func BenchmarkSumLengths(b *testing.B) {
	table := make([]uint32, 1024)
	for i := range table {
		table[i] = uint32(1 + i%24)
	}
	codes := make([]uint16, 1<<16)
	rng := rand.New(rand.NewSource(11))
	for i := range codes {
		codes[i] = uint16(rng.Intn(1024))
	}
	benchTiers(b, func(b *testing.B) {
		b.SetBytes(int64(2 * len(codes)))
		for i := 0; i < b.N; i++ {
			SumLengths(table, codes)
		}
	})
}

// BenchmarkEmitCodes emits 64 Ki codes of a NYX-like codebook (about 1.3
// bits per code, the centre symbol 1 bit), the shape the Huffman encoder
// runs the kernel on; bytes are codes in.
func BenchmarkEmitCodes(b *testing.B) {
	enc := make([]uint64, 1024)
	for i := range enc {
		enc[i] = uint64(i)&0x7fff<<8 | 15 // 15-bit codes for the rare symbols
	}
	enc[512] = 1                        // centre: 1 bit, code 0
	enc[511], enc[513] = 1<<8|3, 5<<8|3 // its neighbours: 3 bits
	rng := rand.New(rand.NewSource(15))
	codes := make([]uint16, 1<<16)
	for i := range codes {
		switch r := rng.Intn(100); {
		case r < 85:
			codes[i] = 512
		case r < 99:
			codes[i] = uint16(511 + 2*rng.Intn(2))
		default:
			codes[i] = uint16(rng.Intn(1024))
		}
	}
	out := make([]byte, 4*len(codes))
	benchTiers(b, func(b *testing.B) {
		b.SetBytes(int64(2 * len(codes)))
		for i := 0; i < b.N; i++ {
			EmitCodes(enc, codes, out, 0, 0)
		}
	})
}
