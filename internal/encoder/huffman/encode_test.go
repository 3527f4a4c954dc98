package huffman

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/kernels/dispatch"
)

// refRevCodes assigns canonical codes the way fromLengths did before it
// dropped the sort: symbols sorted by (length, symbol) take consecutive
// codes from firstCode. It returns each code reversed into stream order.
func refRevCodes(c *Codec) []uint32 {
	type ls struct {
		sym int
		l   uint8
	}
	var syms []ls
	for s, l := range c.lengths {
		if l > 0 {
			syms = append(syms, ls{s, l})
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].l != syms[j].l {
			return syms[i].l < syms[j].l
		}
		return syms[i].sym < syms[j].sym
	})
	revCodes := make([]uint32, len(c.lengths))
	perLen := make([]int, c.maxLen+1)
	for _, e := range syms {
		l := int(e.l)
		code := c.firstCode[l] + uint32(perLen[l])
		perLen[l]++
		revCodes[e.sym] = bits.Reverse32(code) >> (32 - uint(l))
	}
	return revCodes
}

// refEncodeChunk is the single-accumulator emitter that Encode ran before
// it grouped codes, kept as the oracle with its tables passed in rather
// than read from the Codec: one merge and one nbits >= 32 test per code.
// buf must hold the chunk's bytes plus 8 bytes of headroom; the filled
// prefix is returned.
func refEncodeChunk(revCodes []uint32, lengths []uint8, codes []uint16, buf []byte) []byte {
	var acc uint64
	var nbits uint
	pos := 0
	for _, s := range codes {
		acc |= uint64(revCodes[s]) << nbits
		nbits += uint(lengths[s])
		if nbits >= 32 {
			binary.LittleEndian.PutUint64(buf[pos:], acc)
			adv := nbits >> 3
			pos += int(adv)
			acc >>= adv << 3
			nbits &= 7
		}
	}
	for nbits > 0 {
		buf[pos] = byte(acc)
		pos++
		acc >>= 8
		if nbits >= 8 {
			nbits -= 8
		} else {
			nbits = 0
		}
	}
	return buf[:pos]
}

// refEncode frames a stream chunk by chunk with refEncodeChunk and the
// sort-built codebook; every symbol must be coded.
func refEncode(c *Codec, codes []uint16) []byte {
	revCodes := refRevCodes(c)
	var chunks [][]byte
	for start := 0; start < len(codes); start += chunkSize {
		chunk := codes[start:min(start+chunkSize, len(codes))]
		buf := make([]byte, 4*len(chunk)+9)
		chunks = append(chunks, refEncodeChunk(revCodes, c.lengths, chunk, buf))
	}
	return joinStream(uint64(len(codes)), chunks)
}

func mustFromLengths(t testing.TB, lengths []uint8) *Codec {
	t.Helper()
	c, err := fromLengths(lengths)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustBuild(t testing.TB, hist []uint32) *Codec {
	t.Helper()
	c, err := Build(hist)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// flatLengths is the complete codebook of 2^16 symbols of 16 bits each:
// every group of four codes is 64 bits, past the grouped merge's 56.
func flatLengths() []uint8 {
	lengths := make([]uint8, 1<<16)
	for i := range lengths {
		lengths[i] = 16
	}
	return lengths
}

// TestEncodeMatchesReference encodes every book under every kernel tier,
// by shape and with each emitter forced, against refEncode. "chain3" is a
// short-code book, whose chunks run dispatch.EmitCodes by shape;
// "chain32"'s streams put most eight-code groups past 56 bits, so the
// forced kernel runs the vector tier's code-by-code path.
func TestEncodeMatchesReference(t *testing.T) {
	type book struct {
		name string
		c    *Codec
	}
	var books []book
	for _, m := range []int{3, 11, 13, 17, 32} {
		books = append(books, book{fmt.Sprintf("chain%d", m), mustFromLengths(t, chainLengths(m))})
	}
	single := make([]uint32, 16)
	single[7] = 1
	books = append(books,
		book{"single", mustBuild(t, single)},
		book{"nyx", mustBuild(t, histOf(genLaplace(1<<18, 0.35, 0.0008, 2), 1024))},
		book{"hacc", mustBuild(t, histOf(genLaplace(1<<18, 20, 0.03, 2), 1024))},
		book{"flat16", mustFromLengths(t, flatLengths())},
	)
	// Short streams run only the byte-wise tail; 8k+1 to 8k+7 codes end
	// the eight-code groups with every remainder; the rest cover one to
	// five chunks with full and short last chunks.
	sizes := []int{1, 3, 5, 37}
	for r := 1; r < 8; r++ {
		sizes = append(sizes, 8*125+r)
	}
	sizes = append(sizes, chunkSize, chunkSize+3, 2*chunkSize-5000, 3*chunkSize-1, 4*chunkSize, 5*chunkSize-60000)
	loops := []struct {
		name string
		loop emitLoop
	}{{"by-shape", emitByShape}, {"kernel", emitKernel}, {"scalar", emitScalar}}
	streams := make([][][]uint16, len(books))
	wants := make([][][]byte, len(books))
	for bi, b := range books {
		for si, n := range sizes {
			codes := genForCodec(b.c, n, int64(100*bi+si))
			streams[bi] = append(streams[bi], codes)
			wants[bi] = append(wants[bi], refEncode(b.c, codes))
		}
	}
	platforms := []*device.Platform{tp.WithWorkers(1), tp.WithWorkers(2)}
	forEachTier(t, func(t *testing.T) {
		for bi, b := range books {
			for si, n := range sizes {
				codes, want := streams[bi][si], wants[bi][si]
				for _, p := range platforms {
					for _, l := range loops {
						if l.loop != emitByShape && p.Workers(device.Host) != 1 {
							continue
						}
						got, err := b.c.encode(p, device.Host, codes, nil, l.loop)
						if err != nil {
							t.Fatalf("%s/n=%d: %v", b.name, n, err)
						}
						if !bytes.Equal(got, want) {
							t.Errorf("%s/n=%d (workers %d, %s): Encode gives %d bytes, reference %d, first difference at %d",
								b.name, n, p.Workers(device.Host), l.name, len(got), len(want), firstDiff(got, want))
						}
					}
				}
			}
		}
	})
}

// forEachTier runs f once under every kernel tier this build supports,
// restoring auto-detection afterwards.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func() {
		if err := dispatch.Use("auto"); err != nil {
			t.Fatalf("restoring auto tier: %v", err)
		}
	}()
	for _, tier := range dispatch.Tiers() {
		if err := dispatch.Use(tier); err != nil {
			t.Fatalf("Use(%q): %v", tier, err)
		}
		t.Run(tier, f)
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestEncodeTakesNoPoolSlab(t *testing.T) {
	p := device.NewTestPlatform()
	codes := genLaplace(3*chunkSize+100, 20, 0.03, 4)
	c := mustBuild(t, histOf(codes, 1024))
	if _, err := c.Encode(p, device.Host, codes); err != nil {
		t.Fatal(err)
	}
	if st := p.ScratchPool().Stats(); st.Gets != 0 {
		t.Errorf("successful Encode took %d pool slabs, want none", st.Gets)
	}
}
