package fzio

import (
	"bytes"
	"io"
	"testing"

	"fzmod/internal/grid"
)

// Native go-fuzz targets for the container formats. CI runs each for a
// short smoke window (see .github/workflows/ci.yml); locally:
//
//	go test -run='^$' -fuzz='^FuzzChunkedContainer$' -fuzztime=30s ./internal/fzio
//	go test -run='^$' -fuzz='^FuzzStreamReader$'     -fuzztime=30s ./internal/fzio
//	go test -run='^$' -fuzz='^FuzzArtifactDoors$'    -fuzztime=30s ./internal/fzio
//
// The invariant in every case is totality: arbitrary bytes must produce
// either a decoded result or an error — never a panic, never an
// out-of-bounds access, never an allocation proportional to a declared
// (rather than actual) size.

func fuzzSeedChunked() []byte {
	blob, err := MarshalChunked(ChunkedHeader{
		Pipeline: "fzmod-default",
		Dims:     grid.D3(6, 5, 9),
		EB:       2.5e-4,
		RelEB:    1e-4,
		Planes:   3,
	}, [][]byte{[]byte("chunk-zero-payload"), []byte("chunk-one"), {}, {0xde, 0xad, 0xbe, 0xef}}, []int{3, 3, 2, 1})
	if err != nil {
		panic(err)
	}
	return blob
}

func fuzzSeedStream() []byte {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, ChunkedHeader{
		Pipeline: "fzmod-default",
		Dims:     grid.D3(5, 4, 9),
		EB:       1.5e-3,
		RelEB:    1e-4,
		Planes:   4,
	})
	if err != nil {
		panic(err)
	}
	for i, c := range [][]byte{[]byte("stream-chunk-zero"), []byte("c1"), {0xca, 0xfe}} {
		if err := sw.WriteChunk(c, []int{4, 3, 2}[i]); err != nil {
			panic(err)
		}
	}
	if err := sw.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzChunkedContainer exercises the random-access chunked (FZMC) parser:
// UnmarshalChunked plus a CRC verification pass over every chunk.
func FuzzChunkedContainer(f *testing.F) {
	seed := fuzzSeedChunked()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(ChunkedMagic))
	f.Add([]byte{})
	mut := append([]byte(nil), seed...)
	mut[len(mut)-3] ^= 0xA5
	f.Add(mut)
	f.Fuzz(func(t *testing.T, blob []byte) {
		c, err := UnmarshalChunked(blob)
		if err != nil {
			return
		}
		for i := 0; i < c.NumChunks(); i++ {
			_, _ = c.Chunk(i)
		}
	})
}

// FuzzStreamReader exercises the sequential stream (FZMS) parser: the
// prologue, every frame, and the trailer cross-check, against truncated
// and corrupt inputs.
func FuzzStreamReader(f *testing.F) {
	seed := fuzzSeedStream()
	f.Add(seed)
	f.Add(seed[:len(seed)/3])
	f.Add(seed[:len(seed)-5]) // cut into the trailer
	f.Add([]byte(StreamMagic))
	f.Add([]byte{})
	mut := append([]byte(nil), seed...)
	mut[len(mut)/2] ^= 0x5A
	f.Add(mut)
	f.Fuzz(func(t *testing.T, blob []byte) {
		sr, err := NewStreamReader(bytes.NewReader(blob))
		if err != nil {
			return
		}
		var buf []byte
		for {
			payload, planes, err := sr.Next(buf)
			if err == io.EOF {
				// A clean EOF certifies the trailer matched every frame;
				// the accounting must line up.
				if sr.NumChunks() < 0 || planes != 0 {
					t.Fatalf("EOF with planes %d", planes)
				}
				return
			}
			if err != nil {
				return
			}
			if planes <= 0 {
				t.Fatalf("accepted frame with %d planes", planes)
			}
			buf = payload
		}
	})
}

// FuzzArtifactDoors pushes the same bytes through every door into the
// package (see doors_test.go). None may panic, and any two that accept
// the artifact must have read the same header and the same chunks: one
// parser per production means there is no second opinion to diverge.
func FuzzArtifactDoors(f *testing.F) {
	mono := New(Header{Pipeline: "fzmod-default", Dims: grid.D3(6, 5, 9), EB: 2.5e-4, RelEB: 1e-4, Extra: 512})
	if err := mono.Add("codes", []byte("segment-zero")); err != nil {
		f.Fatal(err)
	}
	monoBlob, err := mono.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{fuzzSeedChunked(), fuzzSeedStream(), monoBlob} {
		f.Add(seed)
		f.Add(seed[:len(seed)-5])
	}
	// testdata/fuzz/FuzzArtifactDoors holds the segment-length crasher
	// (hugeSegmentFZMD) as a checked-in seed.
	f.Fuzz(func(t *testing.T, blob []byte) {
		var first *doorView
		firstName := ""
		for _, d := range doors {
			v, err := d.open(blob)
			if err != nil {
				continue
			}
			if first == nil {
				first, firstName = &v, d.name
			} else if diff := agree(*first, v); diff != "" {
				t.Fatalf("%s and %s both accept the artifact but disagree: %s", firstName, d.name, diff)
			}
		}
	})
}
