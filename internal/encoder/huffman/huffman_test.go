package huffman

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/kernels/dispatch"
	"fzmod/internal/predictor/lorenzo"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

var tp = device.NewTestPlatform()

func histOf(codes []uint16, bins int) []uint32 {
	h := make([]uint32, bins)
	for _, c := range codes {
		h[c]++
	}
	return h
}

func genSkewed(n int, seed int64) []uint16 {
	rng := rand.New(rand.NewSource(seed))
	codes := make([]uint16, n)
	for i := range codes {
		r := rng.Float64()
		switch {
		case r < 0.7:
			codes[i] = 512
		case r < 0.85:
			codes[i] = uint16(510 + rng.Intn(5))
		default:
			codes[i] = uint16(rng.Intn(1024))
		}
	}
	return codes
}

func TestRoundtripSkewed(t *testing.T) {
	codes := genSkewed(200_000, 1)
	blob, err := Compress(tp, device.Host, codes, histOf(codes, 1024))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(tp, device.Host, blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(codes) {
		t.Fatalf("len = %d, want %d", len(got), len(codes))
	}
	for i := range codes {
		if got[i] != codes[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, got[i], codes[i])
		}
	}
	if len(blob) >= 2*len(codes) {
		t.Errorf("no compression achieved: %d bytes for %d codes", len(blob), len(codes))
	}
}

func TestCompressionBeatsRawOnSkewedData(t *testing.T) {
	codes := genSkewed(100_000, 2)
	blob, err := Compress(tp, device.Host, codes, histOf(codes, 1024))
	if err != nil {
		t.Fatal(err)
	}
	// 70% of symbols are one value → entropy ≪ 16 bits/sym; expect ≥ 2.5x.
	if ratio := float64(2*len(codes)) / float64(len(blob)); ratio < 2.5 {
		t.Errorf("ratio = %.2f, want ≥ 2.5", ratio)
	}
}

func TestRoundtripUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	codes := make([]uint16, 70_000)
	for i := range codes {
		codes[i] = uint16(rng.Intn(256))
	}
	blob, err := Compress(tp, device.Host, codes, histOf(codes, 256))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(tp, device.Host, blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range codes {
		if got[i] != codes[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestRoundtripTinyInputs(t *testing.T) {
	for _, codes := range [][]uint16{
		{},
		{0},
		{5},
		{1, 1, 1, 1},
		{0, 1},
	} {
		bins := 8
		h := histOf(codes, bins)
		if len(codes) == 0 {
			h[0] = 1 // codec needs at least one symbol
		}
		blob, err := Compress(tp, device.Host, codes, h)
		if err != nil {
			t.Fatalf("%v: %v", codes, err)
		}
		got, err := Decompress(tp, device.Host, blob)
		if err != nil {
			t.Fatalf("%v: %v", codes, err)
		}
		if len(got) != len(codes) {
			t.Fatalf("%v: len %d", codes, len(got))
		}
		for i := range codes {
			if got[i] != codes[i] {
				t.Fatalf("%v: mismatch at %d", codes, i)
			}
		}
	}
}

func TestSingleSymbolAlphabet(t *testing.T) {
	codes := make([]uint16, 10_000)
	for i := range codes {
		codes[i] = 7
	}
	blob, err := Compress(tp, device.Host, codes, histOf(codes, 16))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(tp, device.Host, blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range codes {
		if got[i] != 7 {
			t.Fatalf("mismatch at %d", i)
		}
	}
	// 1 bit/symbol + headers.
	if len(blob) > len(codes)/8+200 {
		t.Errorf("single-symbol stream too large: %d bytes", len(blob))
	}
}

func TestMissingSymbolReported(t *testing.T) {
	codes := []uint16{1, 2, 3}
	h := []uint32{0, 5, 5, 0} // symbol 3 missing from histogram
	if _, err := Compress(tp, device.Host, codes, h); err == nil {
		t.Error("symbol absent from histogram must be an error")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("empty alphabet should fail")
	}
	if _, err := Build(make([]uint32, 4)); err == nil {
		t.Error("all-zero histogram should fail")
	}
	if _, err := Build(make([]uint32, 1<<17)); err == nil {
		t.Error("oversized alphabet should fail")
	}
}

func TestTableRoundtrip(t *testing.T) {
	codes := genSkewed(50_000, 4)
	c, err := Build(histOf(codes, 1024))
	if err != nil {
		t.Fatal(err)
	}
	tbl := c.SerializeTable()
	c2, n, err := ParseTable(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(tbl) {
		t.Errorf("ParseTable consumed %d of %d bytes", n, len(tbl))
	}
	if c2.Alphabet() != c.Alphabet() {
		t.Fatal("alphabet mismatch")
	}
	for s := 0; s < c.Alphabet(); s++ {
		if c.CodeLen(uint16(s)) != c2.CodeLen(uint16(s)) {
			t.Fatalf("length mismatch at symbol %d", s)
		}
	}
}

func TestParseTableCorrupt(t *testing.T) {
	for _, blob := range [][]byte{
		nil,
		{0},
		{255, 255, 255, 255, 255, 255, 255, 255, 255, 255}, // huge varint
		{4, 10, 3}, // run overflow: claims 10 symbols of alphabet 4
		{2, 1, 99}, // code length 99 > max
		{8, 2, 3},  // truncated: only 2 of 8 lengths
	} {
		if _, _, err := ParseTable(blob); err == nil {
			t.Errorf("ParseTable(%v) should fail", blob)
		}
	}
}

func TestDecodeCorruptStream(t *testing.T) {
	codes := genSkewed(1000, 5)
	blob, err := Compress(tp, device.Host, codes, histOf(codes, 1024))
	if err != nil {
		t.Fatal(err)
	}
	// Truncate payload.
	if _, err := Decompress(tp, device.Host, blob[:len(blob)/2]); err == nil {
		t.Error("truncated stream should fail or be detected")
	}
}

func TestExpectedBitsMatchesActual(t *testing.T) {
	codes := genSkewed(80_000, 6)
	h := histOf(codes, 1024)
	c, err := Build(h)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := c.Encode(tp, device.Host, codes)
	if err != nil {
		t.Fatal(err)
	}
	wantBits := c.ExpectedBits(h)
	// Payload has per-chunk byte alignment + headers; allow that slack.
	nChunks := (len(codes) + chunkSize - 1) / chunkSize
	maxOverhead := uint64(nChunks*8+32) * 8
	gotBits := uint64(len(payload)) * 8
	if gotBits < wantBits || gotBits > wantBits+maxOverhead {
		t.Errorf("payload bits = %d, expected ~%d", gotBits, wantBits)
	}
}

func TestDeepTreeLengthLimiting(t *testing.T) {
	// Fibonacci-like frequencies force maximal depth; the rebuild loop
	// must cap lengths at maxCodeLen.
	h := make([]uint32, 64)
	a, b := uint32(1), uint32(1)
	for i := range h {
		h[i] = a
		a, b = b, a+b
		if a > 1<<30 {
			a, b = 1, 1
		}
	}
	c, err := Build(h)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 64; s++ {
		if c.CodeLen(uint16(s)) > maxCodeLen {
			t.Fatalf("symbol %d has length %d > %d", s, c.CodeLen(uint16(s)), maxCodeLen)
		}
	}
	// And it still roundtrips.
	rng := rand.New(rand.NewSource(7))
	codes := make([]uint16, 5000)
	for i := range codes {
		codes[i] = uint16(rng.Intn(64))
	}
	blob, err := Compress(tp, device.Host, codes, histOf(codes, 64))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(tp, device.Host, blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range codes {
		if got[i] != codes[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestPropertyRoundtrip(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		codes := make([]uint16, len(raw))
		for i, b := range raw {
			codes[i] = uint16(b) // alphabet 256
		}
		blob, err := Compress(tp, device.Host, codes, histOf(codes, 256))
		if err != nil {
			return false
		}
		got, err := Decompress(tp, device.Host, blob)
		if err != nil || len(got) != len(codes) {
			return false
		}
		for i := range codes {
			if got[i] != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMultiChunkBoundary(t *testing.T) {
	// Exactly at, below and above the chunk boundary.
	for _, n := range []int{chunkSize - 1, chunkSize, chunkSize + 1, 2*chunkSize + 17} {
		codes := genSkewed(n, int64(n))
		blob, err := Compress(tp, device.Host, codes, histOf(codes, 1024))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decompress(tp, device.Host, blob)
		if err != nil {
			t.Fatal(err)
		}
		for i := range codes {
			if got[i] != codes[i] {
				t.Fatalf("n=%d mismatch at %d", n, i)
			}
		}
	}
}

// genDeepCodes returns a histogram whose Fibonacci-like frequencies force
// canonical code lengths past tableBits, plus a symbol stream that uses
// every symbol — including the rare deep ones — so decoding must exercise
// the canonical slow path of the reservoir decoder.
func genDeepCodes(t *testing.T, nSyms, n int, seed int64) ([]uint16, []uint32) {
	t.Helper()
	h := make([]uint32, nSyms)
	a, b := uint32(1), uint32(1)
	for i := range h {
		h[i] = a
		if a < 1<<28 {
			a, b = b, a+b
		}
	}
	c, err := Build(h)
	if err != nil {
		t.Fatal(err)
	}
	if c.maxLen <= tableBits {
		t.Fatalf("deep histogram built maxLen %d, need > %d to hit the slow path", c.maxLen, tableBits)
	}
	rng := rand.New(rand.NewSource(seed))
	codes := make([]uint16, n)
	for i := range codes {
		if rng.Intn(16) == 0 {
			codes[i] = uint16(rng.Intn(nSyms)) // uniform: hits deep codes
		} else {
			codes[i] = uint16(nSyms - 1 - rng.Intn(4)) // frequent short codes
		}
	}
	return codes, h
}

func TestSlowPathDeepCodesRoundtrip(t *testing.T) {
	// Crosses a chunk boundary so the reservoir decoder also runs its
	// scalar tail on a mid-stream chunk end.
	codes, h := genDeepCodes(t, 24, chunkSize+4097, 11)
	blob, err := Compress(tp, device.Host, codes, h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(tp, device.Host, blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(codes) {
		t.Fatalf("len = %d, want %d", len(got), len(codes))
	}
	for i := range codes {
		if got[i] != codes[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, got[i], codes[i])
		}
	}
}

func TestDecodeCorruptChunkEndsMidRefill(t *testing.T) {
	codes, h := genDeepCodes(t, 24, 4096, 13)
	c, err := Build(h)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := c.Encode(tp, device.Host, codes)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the intact container framing down to the raw chunk bits.
	total, k := binary.Uvarint(payload)
	pos := k
	nChunks, k := binary.Uvarint(payload[pos:])
	pos += k
	if total != uint64(len(codes)) || nChunks != 1 {
		t.Fatalf("unexpected framing: total=%d chunks=%d", total, nChunks)
	}
	_, k = binary.Uvarint(payload[pos:]) // chunk size
	pos += k
	chunk := payload[pos:]
	// Rebuild a consistent stream whose single chunk is cut to a handful
	// of bytes: the reservoir decoder exhausts the stream inside its
	// byte-wise tail refill and must report corruption, never invent
	// symbols or read past the buffer.
	for _, keep := range []int{1, 3, 5, 7} {
		if keep >= len(chunk) {
			t.Fatalf("chunk only %d bytes", len(chunk))
		}
		trunc := binary.AppendUvarint(nil, total)
		trunc = binary.AppendUvarint(trunc, 1)
		trunc = binary.AppendUvarint(trunc, uint64(keep))
		trunc = append(trunc, chunk[:keep]...)
		if _, err := c.Decode(tp, device.Host, trunc, nil); err == nil {
			t.Errorf("keep=%d: truncated chunk must fail to decode", keep)
		}
	}
}

func TestEncodeErrorReturnsAllSlabs(t *testing.T) {
	// A symbol without a code in a late chunk fails Encode after earlier
	// chunks already checked out slabs; every slab must come back.
	p := device.NewTestPlatform()
	codes := make([]uint16, 3*chunkSize)
	codes[len(codes)-1] = 9 // histogram below misses it
	h := histOf(codes[:len(codes)-1], 16)
	c, err := Build(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Encode(p, device.Host, codes); err == nil {
		t.Fatal("uncoded symbol must fail Encode")
	}
	if st := p.ScratchPool().Stats(); st.Gets != st.Puts {
		t.Errorf("encode error path leaked pool slabs: %d gets, %d puts", st.Gets, st.Puts)
	}
}

func benchCodes(n int) ([]uint16, []uint32) {
	rng := rand.New(rand.NewSource(42))
	codes := make([]uint16, n)
	for i := range codes {
		r := rng.Float64()
		switch {
		case r < 0.8:
			codes[i] = 512
		case r < 0.95:
			codes[i] = uint16(508 + rng.Intn(9))
		default:
			codes[i] = uint16(rng.Intn(1024))
		}
	}
	return codes, histOf(codes, 1024)
}

// benchKernelTiers runs f once per kernel implementation tier this build
// supports, so one run reports the encode kernels (dispatch.SumLengths,
// dispatch.EmitCodes) and the four-lane decode kernel (dispatch.DecodeQuad)
// under both the vector tier and the purego fallback.
func benchKernelTiers(b *testing.B, f func(b *testing.B)) {
	b.Helper()
	defer func() { _ = dispatch.Use("auto") }()
	for _, tier := range dispatch.Tiers() {
		if err := dispatch.Use(tier); err != nil {
			b.Fatalf("Use(%q): %v", tier, err)
		}
		b.Run(tier, f)
	}
}

// BenchmarkHuffmanEncode encodes 2 Mi codes at Workers=1 under every
// kernel tier and reports ns/code and the stream's bits/code. "centre80"
// is 80 % one symbol; "nyx" (about 1.4 bits/code, maxLen 17) and "hacc"
// (about 7 bits/code, maxLen 16) are shaped like the two Default
// workloads' codes, whose codebooks stop at 15–19 bits. These emit by
// shape, as Encode does.
//
// "shape/b=…" sweeps the Laplace scale of genLaplace (3 % uniform tail),
// as BenchmarkHuffmanDecode does, and times both emitters on each stream,
// "kernel" (dispatch.EmitCodes: eight codes per flush on AVX2) and
// "scalar" (its pure-Go twin, four per flush): the bits/code at which the
// kernel stops winning backs the fourLaneBits rule. "nyx-lorenzo" and
// "hacc-lorenzo" time both on the Lorenzo codes of NYX and HACC fields at
// relative bound 1e-4.
func BenchmarkHuffmanEncode(b *testing.B) {
	centre, _ := benchCodes(1 << 21)
	p := tp.WithWorkers(1)
	run := func(b *testing.B, codes []uint16, loop emitLoop) {
		h := histOf(codes, 1024)
		c, err := Build(h)
		if err != nil {
			b.Fatal(err)
		}
		benchKernelTiers(b, func(b *testing.B) {
			b.SetBytes(int64(2 * len(codes)))
			for i := 0; i < b.N; i++ {
				if _, err := c.encode(p, device.Host, codes, nil, loop); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(codes)), "ns/code")
			b.ReportMetric(float64(c.ExpectedBits(h))/float64(len(codes)), "bits/code")
		})
	}
	for _, bc := range []struct {
		name  string
		codes []uint16
	}{
		{"centre80", centre},
		{"nyx", genLaplace(1<<21, 0.35, 0.0008, 1)},
		{"hacc", genLaplace(1<<21, 20, 0.03, 1)},
	} {
		b.Run(bc.name, func(b *testing.B) { run(b, bc.codes, emitByShape) })
	}
	// Each stream below is made inside its b.Run, so a filtered run
	// builds only the streams it times.
	both := func(gen func(b *testing.B) []uint16) func(b *testing.B) {
		return func(b *testing.B) {
			codes := gen(b)
			b.Run("kernel", func(b *testing.B) { run(b, codes, emitKernel) })
			b.Run("scalar", func(b *testing.B) { run(b, codes, emitScalar) })
		}
	}
	for _, scale := range []float64{0.35, 1, 2, 4, 8, 20} {
		scale := scale
		b.Run(fmt.Sprintf("shape/b=%g", scale), both(func(*testing.B) []uint16 { return genLaplace(1<<21, scale, 0.03, 1) }))
	}
	b.Run("nyx-lorenzo", both(func(b *testing.B) []uint16 { return nyxLorenzoCodes(b) }))
	b.Run("hacc-lorenzo", both(func(b *testing.B) []uint16 { return haccLorenzoCodes(b, 1<<21) }))
}

// BenchmarkHuffmanBuild builds a codebook from NYX- and HACC-shaped
// histograms over a 1024-symbol alphabet, and reports the bytes a warm
// Build allocates (the Codec's own arrays; the tree scratch is pooled).
func BenchmarkHuffmanBuild(b *testing.B) {
	for _, bc := range []struct {
		name string
		hist []uint32
	}{
		{"nyx", histOf(genLaplace(1<<21, 0.35, 0.0008, 1), 1024)},
		{"hacc", histOf(genLaplace(1<<21, 20, 0.03, 1), 1024)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(bc.hist); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// genLaplace draws n codes around the centre 512 of a 1024-symbol
// alphabet: a two-sided geometric residual of scale b, with a tail share
// of codes drawn uniformly from the whole alphabet (the outlier-like codes
// that get long Huffman codes).
func genLaplace(n int, b, tail float64, seed int64) []uint16 {
	rng := rand.New(rand.NewSource(seed))
	codes := make([]uint16, n)
	for i := range codes {
		if rng.Float64() < tail {
			codes[i] = uint16(rng.Intn(1024))
			continue
		}
		v := math.Round(rng.ExpFloat64() * b)
		if rng.Intn(2) == 0 {
			v = -v
		}
		codes[i] = uint16(min(max(512+v, 0), 1023))
	}
	return codes
}

// BenchmarkHuffmanDecode decodes 2 Mi codes at Workers=1 and reports
// ns/code and the stream's bits/code. "centre80" is 80 % one symbol; the
// field-shaped streams match the two Default workloads' code statistics:
// "nyx" about 1.4 bits/code, all codes within the fast table, and "hacc"
// about 7 bits/code with about 3 % of codes longer than tableBits. These
// decode by shape, as Decode does.
//
// "shape/b=…" sweeps the Laplace scale of genLaplace (3 % uniform tail)
// from NYX-like to HACC-like streams and times both loops on each, "pair"
// (decodePair over the multi-symbol table) and "quad" (decodeQuad over the
// single-symbol table, under every kernel tier: "quad/purego" and
// "quad/avx2"): the bits/code at which quad starts to win backs
// fourLaneBits. "hacc-lorenzo" times both on the Lorenzo codes of a HACC
// field at relative bound 1e-4, whose 12 % escape code the synthetic
// streams lack.
func BenchmarkHuffmanDecode(b *testing.B) {
	p := tp.WithWorkers(1)
	run := func(b *testing.B, codes []uint16, loop decodeLoop) {
		h := histOf(codes, 1024)
		c, err := Build(h)
		if err != nil {
			b.Fatal(err)
		}
		payload, err := c.Encode(p, device.Host, codes)
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]uint16, len(codes))
		b.SetBytes(int64(2 * len(codes)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.decode(p, device.Host, payload, dst, loop); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(codes)), "ns/code")
		b.ReportMetric(float64(c.ExpectedBits(h))/float64(len(codes)), "bits/code")
	}
	// Each stream is made inside its b.Run, so a filtered run builds only
	// the streams it times.
	for _, bc := range []struct {
		name string
		gen  func() []uint16
	}{
		{"centre80", func() []uint16 { codes, _ := benchCodes(1 << 21); return codes }},
		{"nyx", func() []uint16 { return genLaplace(1<<21, 0.35, 0, 1) }},
		{"hacc", func() []uint16 { return genLaplace(1<<21, 20, 0.03, 1) }},
	} {
		b.Run(bc.name, func(b *testing.B) { run(b, bc.gen(), loopByShape) })
	}
	both := func(gen func(b *testing.B) []uint16) func(b *testing.B) {
		return func(b *testing.B) {
			codes := gen(b)
			b.Run("pair", func(b *testing.B) { run(b, codes, loopPair) })
			b.Run("quad", func(b *testing.B) { benchKernelTiers(b, func(b *testing.B) { run(b, codes, loopQuad) }) })
		}
	}
	for _, scale := range []float64{0.35, 1, 2, 4, 8, 20} {
		scale := scale
		b.Run(fmt.Sprintf("shape/b=%g", scale), both(func(*testing.B) []uint16 { return genLaplace(1<<21, scale, 0.03, 1) }))
	}
	b.Run("hacc-lorenzo", both(func(b *testing.B) []uint16 { return haccLorenzoCodes(b, 1<<21) }))
}

// haccLorenzoCodes returns the Lorenzo quantization codes of an n-value
// sdrbench HACC field at relative bound 1e-4, the hacc-default workload's
// codes.
func haccLorenzoCodes(tb testing.TB, n int) []uint16 {
	return lorenzoCodes(tb, sdrbench.GenHACC(n, 7), grid.D1(n))
}

// nyxLorenzoCodes returns the same for a 128³ sdrbench NYX field (2 Mi
// codes), the nyx-default workload's codes.
func nyxLorenzoCodes(tb testing.TB) []uint16 {
	dims := grid.D3(128, 128, 128)
	return lorenzoCodes(tb, sdrbench.GenNYX(dims, 7), dims)
}

func lorenzoCodes(tb testing.TB, data []float32, dims grid.Dims) []uint16 {
	tb.Helper()
	eb, _, err := preprocess.Resolve(tp, device.Host, data, preprocess.RelBound(1e-4))
	if err != nil {
		tb.Fatal(err)
	}
	q, err := lorenzo.Encode(tp, device.Host, data, dims, eb, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return q.Codes
}
