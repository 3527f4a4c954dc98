package huffman

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"fzmod/internal/device"
)

// refDecodeChunk is the single-chunk decoder that Decode ran before it
// paired chunks, kept unchanged apart from names as the oracle: one 64-bit
// reservoir, a copy loop per multi-table hit, and a bit-by-bit canonical
// walk for every code the tables do not resolve.
func (c *Codec) refDecodeChunk(data []byte, out []uint16) error {
	n := len(data)
	tb := c.maxLen
	if tb > tableBits {
		tb = tableBits
	}
	mask := uint64(1)<<uint(tb) - 1
	fast := c.fastTable()
	multi := c.multiTable()
	mmask := uint64(len(multi) - 1)
	var acc uint64
	var navail uint
	pos := 0
	for oi := 0; oi < len(out); {
		if navail < 32 {
			if pos+8 <= n {
				acc |= binary.LittleEndian.Uint64(data[pos:]) << navail
				adv := (63 - navail) >> 3
				pos += int(adv)
				navail += adv << 3
			} else {
				for navail <= 56 && pos < n {
					acc |= uint64(data[pos]) << navail
					pos++
					navail += 8
				}
			}
		}
		if me := &multi[acc&mmask]; me.n > 0 && uint(me.bits) <= navail && oi+int(me.n) <= len(out) {
			for k := 0; k < int(me.n); k++ {
				out[oi+k] = me.syms[k]
			}
			oi += int(me.n)
			acc >>= me.bits
			navail -= uint(me.bits)
			continue
		}
		if e := fast[acc&mask]; e.len > 0 && uint(e.len) <= navail {
			out[oi] = e.sym
			oi++
			acc >>= e.len
			navail -= uint(e.len)
			continue
		}
		var code uint32
		l := 0
		lMax := c.maxLen
		if uint(lMax) > navail {
			lMax = int(navail)
		}
		matched := false
		for l < lMax {
			code = code<<1 | uint32(acc>>uint(l))&1
			l++
			if l < c.minLen {
				continue
			}
			rel := int(code) - int(c.firstCode[l])
			if rel >= 0 && c.firstIdx[l]+rel < refFirstIdxEnd(c, l) {
				out[oi] = c.symByIdx[c.firstIdx[l]+rel]
				oi++
				acc >>= uint(l)
				navail -= uint(l)
				matched = true
				break
			}
		}
		if !matched {
			return fmt.Errorf("huffman: corrupt chunk at symbol %d", oi)
		}
	}
	return nil
}

func refFirstIdxEnd(c *Codec, l int) int {
	if l+1 <= c.maxLen {
		return c.firstIdx[l+1]
	}
	return len(c.symByIdx)
}

// splitStream parses Decode's framing under Decode's own header rules and
// returns the symbol count and each chunk's bytes.
func splitStream(c *Codec, data []byte) (uint64, [][]byte, error) {
	total, k := binary.Uvarint(data)
	if k <= 0 {
		return 0, nil, fmt.Errorf("truncated stream header")
	}
	pos := k
	nChunks, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return 0, nil, fmt.Errorf("truncated chunk count")
	}
	pos += k
	if rest := uint64(len(data) - pos); nChunks > rest || total > 8*rest/uint64(c.minLen) {
		return 0, nil, fmt.Errorf("header overclaims")
	}
	if nChunks != (total+chunkSize-1)/chunkSize {
		return 0, nil, fmt.Errorf("inconsistent chunk count")
	}
	sizes := make([]uint64, nChunks)
	for i := range sizes {
		sz, k := binary.Uvarint(data[pos:])
		if k <= 0 || sz > uint64(len(data)) {
			return 0, nil, fmt.Errorf("bad chunk size table")
		}
		pos += k
		sizes[i] = sz
	}
	chunks := make([][]byte, nChunks)
	for i, sz := range sizes {
		if sz > uint64(len(data)-pos) {
			return 0, nil, fmt.Errorf("stream shorter than chunk table claims")
		}
		chunks[i] = data[pos : pos+int(sz)]
		pos += int(sz)
	}
	return total, chunks, nil
}

// joinStream frames chunks the way Encode does.
func joinStream(total uint64, chunks [][]byte) []byte {
	out := binary.AppendUvarint(nil, total)
	out = binary.AppendUvarint(out, uint64(len(chunks)))
	for _, ch := range chunks {
		out = binary.AppendUvarint(out, uint64(len(ch)))
	}
	for _, ch := range chunks {
		out = append(out, ch...)
	}
	return out
}

// refDecode decodes a framed stream chunk by chunk with refDecodeChunk.
func refDecode(c *Codec, data []byte) ([]uint16, error) {
	total, chunks, err := splitStream(c, data)
	if err != nil {
		return nil, err
	}
	out := make([]uint16, total)
	for ci, ch := range chunks {
		start := ci * chunkSize
		if err := c.refDecodeChunk(ch, out[start:min(start+chunkSize, int(total))]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkAgainstRef decodes data with both of Decode's loops at Workers 1
// and 2 (which group the chunks differently) and with refDecode: each must
// succeed with the same codes exactly where the reference does.
func checkAgainstRef(t *testing.T, name string, c *Codec, data []byte) {
	t.Helper()
	want, werr := refDecode(c, data)
	for _, p := range []*device.Platform{tp.WithWorkers(2), tp.WithWorkers(1)} {
		for _, loop := range []decodeLoop{loopPair, loopQuad} {
			got, err := c.decode(p, device.Host, data, nil, loop)
			switch {
			case werr != nil && err == nil:
				t.Errorf("%s (workers %d, loop %d): reference fails (%v), Decode returned %d codes", name, p.Workers(device.Host), loop, werr, len(got))
			case werr == nil && err != nil:
				t.Errorf("%s (workers %d, loop %d): reference decodes, Decode fails: %v", name, p.Workers(device.Host), loop, err)
			case werr == nil:
				if len(got) != len(want) {
					t.Fatalf("%s: Decode returned %d codes, reference %d", name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s (workers %d, loop %d): code %d is %d, reference %d", name, p.Workers(device.Host), loop, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// chainLengths is the Kraft-complete codebook 1, 2, …, m−1, m, m: its
// longest codes are m bits.
func chainLengths(m int) []uint8 {
	lengths := make([]uint8, m+1)
	for i := range lengths {
		lengths[i] = uint8(min(i+1, m))
	}
	return lengths
}

// genForCodec draws n symbols: half follow the code's own 2^−len
// distribution, half are uniform over the coded symbols, so deep codes
// turn up often.
func genForCodec(c *Codec, n int, seed int64) []uint16 {
	var coded, weighted []uint16
	for s, l := range c.lengths {
		if l == 0 {
			continue
		}
		coded = append(coded, uint16(s))
		for k := 0; k < 1<<max(0, 8-int(l)); k++ {
			weighted = append(weighted, uint16(s))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	codes := make([]uint16, n)
	for i := range codes {
		if rng.Intn(2) == 0 {
			codes[i] = coded[rng.Intn(len(coded))]
		} else {
			codes[i] = weighted[rng.Intn(len(weighted))]
		}
	}
	return codes
}

func TestDecodeMatchesReference(t *testing.T) {
	type book struct {
		name string
		c    *Codec
	}
	var books []book
	for _, m := range []int{11, 13, 17, 32} {
		c, err := fromLengths(chainLengths(m))
		if err != nil {
			t.Fatal(err)
		}
		books = append(books, book{fmt.Sprintf("chain%d", m), c})
	}
	single := make([]uint32, 16)
	single[7] = 1
	for _, hb := range []struct {
		name string
		hist []uint32
	}{
		{"single", single},
		{"nyx", histOf(genLaplace(1<<18, 0.35, 0, 2), 1024)},
		{"hacc", histOf(genLaplace(1<<18, 20, 0.03, 2), 1024)},
	} {
		c, err := Build(hb.hist)
		if err != nil {
			t.Fatal(err)
		}
		books = append(books, book{hb.name, c})
	}
	// Kraft-incomplete: the codeword 11 is unassigned, so flipped bits can
	// produce a prefix no symbol owns.
	incomplete, err := fromLengths([]uint8{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	books = append(books, book{"incomplete", incomplete})

	// 1–5 chunks, full and short last chunks, and one stream too short for
	// the paired loop to run at all. Corruption runs on the streams of up
	// to three chunks, in the first and the last chunk: at one worker those
	// are lane A of a pair, lane B of a pair (two chunks) and the odd tail
	// chunk (one or three).
	sizes := []int{5, chunkSize, 2*chunkSize - 5000, 3*chunkSize - 1, 4 * chunkSize, 5*chunkSize - 60000}
	for bi, b := range books {
		for si, n := range sizes {
			codes := genForCodec(b.c, n, int64(100*bi+si))
			data, err := b.c.Encode(tp, device.Host, codes)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/n=%d", b.name, n)
			checkAgainstRef(t, name, b.c, data)
			if n > 3*chunkSize {
				continue
			}

			total, chunks, err := splitStream(b.c, data)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(bi*31 + si)))
			withChunk := func(ci int, ch []byte) []byte {
				cs := append([][]byte(nil), chunks...)
				cs[ci] = ch
				return joinStream(total, cs)
			}
			for _, ci := range []int{0, len(chunks) - 1}[:min(2, len(chunks))] {
				ch := chunks[ci]
				// Flipped bits: one, then a burst of eight.
				for _, flips := range []int{1, 8} {
					bad := append([]byte(nil), ch...)
					for f := 0; f < flips; f++ {
						bit := rng.Intn(8 * len(bad))
						bad[bit/8] ^= 1 << (bit % 8)
					}
					checkAgainstRef(t, fmt.Sprintf("%s/chunk%d/flip%d", name, ci, flips), b.c, withChunk(ci, bad))
				}
				// Truncated chunks: the lane runs dry mid-symbol, inside the
				// paired loop's reach (half) or only in the tail (the last
				// byte, or all but a few).
				for _, keep := range []int{len(ch) - 1, len(ch) / 2, 3} {
					if keep < 0 || keep >= len(ch) {
						continue
					}
					checkAgainstRef(t, fmt.Sprintf("%s/chunk%d/keep%d", name, ci, keep), b.c, withChunk(ci, ch[:keep]))
				}
			}
			// Every chunk replaced by random bytes of its own length.
			junk := make([][]byte, len(chunks))
			for ci, ch := range chunks {
				junk[ci] = make([]byte, len(ch))
				rng.Read(junk[ci])
			}
			checkAgainstRef(t, name+"/junk", b.c, joinStream(total, junk))
		}
	}
}

// streamBits is a framed stream's payload in bits per code, the measure
// Decode compares with fourLaneBits.
func streamBits(t testing.TB, c *Codec, data []byte) float64 {
	total, chunks, err := splitStream(c, data)
	if err != nil {
		t.Fatal(err)
	}
	var bytes int
	for _, ch := range chunks {
		bytes += len(ch)
	}
	return 8 * float64(bytes) / float64(total)
}

// holeyLengths is a hacc-shaped codebook with one of its shortest codes
// left unassigned: canonical assignment moves the hole to the top of the
// code space, a prefix about minLen bits long that no symbol owns, so a
// lane desynchronized by a flipped bit soon meets it mid-chunk, and a run
// of 0xff bytes meets it at once.
func holeyLengths(t testing.TB) []uint8 {
	c := mustBuild(t, histOf(genLaplace(1<<18, 20, 0.03, 2), 1024))
	lengths := append([]uint8(nil), c.lengths...)
	for s, l := range lengths {
		if int(l) == c.minLen {
			lengths[s] = 0
			break
		}
	}
	return lengths
}

// TestDecodeLanesMatchReference corrupts streams of 5–9 chunks, long
// enough for whole groups of four lanes and 1–3 leftover chunks at Workers
// 1 and 2, under a hacc-shaped stream above fourLaneBits, a nyx-shaped one
// below it and a holey book. Every chunk, so each of the four lanes and
// every leftover, takes bit flips and a truncation that runs the lane dry
// mid-symbol, inside the batch loop's reach (half the chunk) or in the
// finishing loops (all but the last byte, or all but three). Both loops
// must fail exactly where refDecodeChunk does, and otherwise return its
// codes.
func TestDecodeLanesMatchReference(t *testing.T) {
	holey := mustFromLengths(t, holeyLengths(t))
	for bi, b := range []struct {
		name  string
		gen   func(n int, seed int64) []uint16
		book  *Codec // nil: built from the stream's histogram
		above bool   // the stream's bits per code reach fourLaneBits
	}{
		{"hacc", func(n int, seed int64) []uint16 { return genLaplace(n, 20, 0.03, seed) }, nil, true},
		{"nyx", func(n int, seed int64) []uint16 { return genLaplace(n, 0.35, 0.0008, seed) }, nil, false},
		{"holey", func(n int, seed int64) []uint16 { return genForCodec(holey, n, seed) }, holey, true},
	} {
		for si, n := range []int{5*chunkSize - 777, 6*chunkSize - 1, 7 * chunkSize, 9*chunkSize - 60000} {
			codes := b.gen(n, int64(10*bi+si))
			c := b.book
			if c == nil {
				c = mustBuild(t, histOf(codes, 1024))
			}
			data, err := c.Encode(tp, device.Host, codes)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/n=%d", b.name, n)
			if bits := streamBits(t, c, data); (bits >= fourLaneBits) != b.above {
				t.Fatalf("%s: %.2f bits/code is on the wrong side of fourLaneBits", name, bits)
			}
			checkAgainstRef(t, name, c, data)

			total, chunks, err := splitStream(c, data)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(bi*31 + si)))
			withChunk := func(ci int, ch []byte) []byte {
				cs := append([][]byte(nil), chunks...)
				cs[ci] = ch
				return joinStream(total, cs)
			}
			for ci, ch := range chunks {
				flips := 1 + 7*(ci%2)
				bad := append([]byte(nil), ch...)
				for f := 0; f < flips; f++ {
					bit := rng.Intn(8 * len(bad))
					bad[bit/8] ^= 1 << (bit % 8)
				}
				checkAgainstRef(t, fmt.Sprintf("%s/chunk%d/flip%d", name, ci, flips), c, withChunk(ci, bad))
				keep := []int{len(ch) / 2, len(ch) - 1, 3}[(ci+si)%3]
				checkAgainstRef(t, fmt.Sprintf("%s/chunk%d/keep%d", name, ci, keep), c, withChunk(ci, ch[:keep]))
			}
		}
	}
}

// TestDecodeTablesOnFirstUse: a codec from Build carries no decode table
// until a decode needs one, then builds each once, race-free, when its
// first decodes run from several goroutines at once on streams of both
// shapes; a long-code stream alone never builds the multi-symbol table.
func TestDecodeTablesOnFirstUse(t *testing.T) {
	// Symbol 0 takes most of the mass and a 1-bit code; the rest take
	// 10–11 bits. A stream of symbol 0 decodes with the paired loop, one of
	// the rest with the four-lane loop.
	hist := make([]uint32, 1024)
	for s := range hist {
		hist[s] = 1
	}
	hist[0] = 1 << 20
	short := make([]uint16, 4*chunkSize)
	long := make([]uint16, 4*chunkSize)
	for i := range long {
		long[i] = uint16(1 + i%1023)
	}
	for _, both := range []bool{false, true} {
		c := mustBuild(t, hist)
		if c.fast != nil || c.multi != nil {
			t.Fatal("Build built decode tables")
		}
		streams := [][]uint16{long}
		if both {
			streams = append(streams, short)
		}
		var payloads [][]byte
		for _, codes := range streams {
			data, err := c.Encode(tp, device.Host, codes)
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, data)
		}
		if bits := streamBits(t, c, payloads[0]); bits < fourLaneBits {
			t.Fatalf("long-code stream at %.2f bits/code", bits)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				i := g % len(streams)
				got, err := c.Decode(tp, device.Host, payloads[i], nil)
				if err != nil {
					t.Error(err)
					return
				}
				for k, s := range streams[i] {
					if got[k] != s {
						t.Errorf("stream %d code %d is %d, want %d", i, k, got[k], s)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if c.fast == nil || (c.multi != nil) != both {
			t.Errorf("short-code stream decoded %v: fast table built %v, multi table built %v", both, c.fast != nil, c.multi != nil)
		}
	}
}

// hostileHeader frames a stream whose header claims total symbols in a
// consistent number of chunks, followed by a few bytes of size table.
func hostileHeader(total uint64) []byte {
	data := binary.AppendUvarint(nil, total)
	data = binary.AppendUvarint(data, (total+chunkSize-1)/chunkSize)
	for i := 0; i < 64; i++ {
		data = append(data, 1)
	}
	return data
}

func TestDecodeHostileHeader(t *testing.T) {
	codes := genSkewed(1000, 9)
	c, err := Build(histOf(codes, 1024))
	if err != nil {
		t.Fatal(err)
	}
	for _, total := range []uint64{1 << 60, 1 << 40} {
		data := hostileHeader(total)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.Decode(tp, device.Host, data, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("total=%d: hostile header decoded", total)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("total=%d: Decode allocated %d bytes before failing", total, alloc)
		}
	}
}

// decodeAllocSlack covers what Decode allocates whatever the input: a
// cold pool's smallest offset slab (2^10 int64) and the launch bookkeeping.
const decodeAllocSlack = 1 << 15

// checkDecodeInto decodes stream into a dst of length l (if l ≥ 0) that
// holds sentinels and sits in front of a sentinel guard. It must give
// Decode's codes when Decode succeeds with l codes, and otherwise an error
// with dst untouched; the guard is never written.
func checkDecodeInto(t *testing.T, c *Codec, stream []byte, l int) {
	t.Helper()
	if l < 0 {
		return
	}
	want, werr := c.Decode(tp, device.Host, stream, nil)
	buf := make([]uint16, l+chunkSize)
	for i := range buf {
		buf[i] = 0xFFFF
	}
	got, err := c.Decode(tp, device.Host, stream, buf[:l:l])
	if werr == nil && len(want) == l {
		if err != nil {
			t.Fatalf("%d codes into a dst of %d: %v", len(want), l, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("code %d is %d, nil-dst Decode gives %d", i, got[i], want[i])
			}
		}
	} else if err == nil {
		t.Fatalf("dst of %d accepted a stream nil-dst Decode gives %d codes, %v", l, len(want), werr)
	}
	from := l
	if err != nil && (werr == nil || uint64(l) != headerCount(stream)) {
		from = 0 // refused on the count: nothing may be decoded
	}
	for i := from; i < len(buf); i++ {
		if buf[i] != 0xFFFF {
			t.Fatalf("dst of %d: slot %d written (%d)", l, i, buf[i])
		}
	}
}

// headerCount is the code count a stream's header claims.
func headerCount(stream []byte) uint64 {
	n, _ := binary.Uvarint(stream)
	return n
}

// TestDecompressIntoCount: a destination one code shorter or longer than
// the stream holds is refused before anything is written, on one chunk and
// on several; the exact length decodes in place.
func TestDecompressIntoCount(t *testing.T) {
	for _, n := range []int{1, 600, chunkSize, 2*chunkSize + 5} {
		c, err := fromLengths(chainLengths(17))
		if err != nil {
			t.Fatal(err)
		}
		codes := genForCodec(c, n, int64(n))
		blob, err := Compress(tp, device.Host, codes, histOf(codes, c.Alphabet()))
		if err != nil {
			t.Fatal(err)
		}
		c2, k, err := ParseTable(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []int{n - 1, n, n + 1} {
			checkDecodeInto(t, c2, blob[k:], l)
			dst := make([]uint16, l)
			if _, err := DecompressInto(tp, device.Host, blob, dst); (err == nil) != (l == n) {
				t.Errorf("%d codes, dst of %d: err = %v", n, l, err)
			}
		}
	}
}

// FuzzHuffmanDecode parses the first input as a code-length table and
// decodes the second with it. Any input decodes or returns an error, never
// panics, allocates at most 16 bytes per stream byte (plus
// decodeAllocSlack), and agrees with the reference decoder. The stream
// bytes read as a code slice must round-trip through Compress, whose
// stream must equal the reference encoder's byte for byte.
func FuzzHuffmanDecode(f *testing.F) {
	// The two hostile headers are checked in under testdata. The seeds stay
	// single-chunk and small: the fuzzer minimizes every input that finds
	// new coverage, and a multi-chunk seed stalls it for minutes.
	for _, seed := range []struct {
		lengths []uint8
		n       int
	}{
		{chainLengths(17), 600},
		{chainLengths(32), 300},
		{[]uint8{0, 1}, 100},
	} {
		c, err := fromLengths(seed.lengths)
		if err != nil {
			f.Fatal(err)
		}
		data, err := c.Encode(tp, device.Host, genForCodec(c, seed.n, 1))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(c.SerializeTable(), data)
	}
	f.Fuzz(func(t *testing.T, table, stream []byte) {
		if c, _, err := ParseTable(table); err == nil {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := c.Decode(tp, device.Host, stream, nil)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(stream))+decodeAllocSlack {
				t.Fatalf("%d stream bytes: Decode allocated %d bytes", len(stream), alloc)
			}
			want, werr := refDecode(c, stream)
			if (err == nil) != (werr == nil) {
				t.Fatalf("Decode error %v, reference error %v", err, werr)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("code %d is %d, reference %d", i, got[i], want[i])
				}
			}
			// The destination entry point, with a length next to the
			// header's count drawn from the table bytes.
			total, _ := binary.Uvarint(stream)
			checkDecodeInto(t, c, stream, int(min(total, 8*uint64(len(stream))))+len(table)%3-1)
		}
		// Codes fold into the 1024-symbol alphabet of the default quantizer
		// radius; a 64 Ki alphabet costs a codebook build per exec that
		// dwarfs the decode under test.
		codes := make([]uint16, len(stream)/2)
		for i := range codes {
			codes[i] = binary.LittleEndian.Uint16(stream[2*i:]) % 1024
		}
		hist := histOf(codes, 1024)
		hist[0]++
		blob, err := Compress(tp, device.Host, codes, hist)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Build(hist)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(c.SerializeTable(), refEncode(c, codes)...); !bytes.Equal(blob, want) {
			t.Fatalf("%d codes: Compress gives %d bytes, reference %d, first difference at %d",
				len(codes), len(blob), len(want), firstDiff(blob, want))
		}
		got, err := Decompress(tp, device.Host, blob)
		if err != nil || len(got) != len(codes) {
			t.Fatalf("round trip of %d codes gave %d, %v", len(codes), len(got), err)
		}
		for i := range codes {
			if got[i] != codes[i] {
				t.Fatalf("code %d is %d, want %d", i, got[i], codes[i])
			}
		}
	})
}

// FuzzHuffmanQuad drives decodeQuad itself: four short streams, the
// fuzzer's bytes as they come, decode under one fixed book above
// fourLaneBits (holeyLengths, so a lane can meet an unassigned prefix as
// well as run dry), each lane wanting the code count its 10 bits of counts
// give. decodeQuad must fail exactly when refDecodeChunk fails on some
// lane, and otherwise write the reference's codes in every lane.
func FuzzHuffmanQuad(f *testing.F) {
	c := mustFromLengths(f, holeyLengths(f))
	c.fastTable()
	// Seeds: four encoded lanes, whole and with the third cut mid-code.
	var seed [4][]byte
	var counts uint64
	for i := range seed {
		n := 40 + 30*i
		seed[i] = refEncodeChunk(refRevCodes(c), c.lengths, genForCodec(c, n, int64(i)), make([]byte, 4*n+9))
		counts |= uint64(n) << (16 * i)
	}
	f.Add(seed[0], seed[1], seed[2], seed[3], counts)
	f.Add(seed[0], seed[1], seed[2][:len(seed[2])/2], seed[3], counts)
	f.Fuzz(func(t *testing.T, in0, in1, in2, in3 []byte, counts uint64) {
		var lanes [4]lane
		wantErr := false
		want := make([][]uint16, 4)
		for i, in := range [][]byte{in0, in1, in2, in3} {
			n := int(counts >> (16 * i) & 0x3ff)
			lanes[i] = lane{in: in, out: make([]uint16, n)}
			want[i] = make([]uint16, n)
			if c.refDecodeChunk(in, want[i]) != nil {
				wantErr = true
			}
		}
		err := c.decodeQuad(lanes[0], lanes[1], lanes[2], lanes[3])
		if (err != nil) != wantErr {
			t.Fatalf("decodeQuad error %v, reference fails: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		for i, l := range lanes {
			for k := range want[i] {
				if l.out[k] != want[i][k] {
					t.Fatalf("lane %d code %d is %d, reference %d", i, k, l.out[k], want[i][k])
				}
			}
		}
	})
}
