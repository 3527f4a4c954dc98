package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
)

// readDoor is one public read entry point reduced to "artifact bytes in,
// whole field out", with the container flavors it accepts (D = FZMD,
// C = FZMC, S = FZMS).
type readDoor struct {
	name    string
	flavors string
	read    func(blob []byte) ([]float32, error)
}

// readDoors lists every way a whole artifact can be decoded. All of them
// lower each chunk onto addDecompressTasks, which is what the parity test
// below holds them to.
func readDoors(t *testing.T) []readDoor {
	return []readDoor{
		{"Decompress", "DCS", func(blob []byte) ([]float32, error) {
			vals, _, _, err := DecompressReportWithOpts(tp, blob, Opts{})
			return vals, err
		}},
		{"Region.ReadReport", "DCS", func(blob []byte) ([]float32, error) {
			r, err := OpenRegion(tp, fzio.NewBytesFetcher(blob), RegionOpts{})
			if err != nil {
				return nil, err
			}
			vals, _, err := r.ReadReport(FullRegion(r.Dims()))
			return vals, err
		}},
		{"DecompressSalvageCtx", "DCS", func(blob []byte) ([]float32, error) {
			vals, mask, err := DecompressSalvageCtx(context.Background(), tp, fzio.NewBytesFetcher(blob), DecompressOpts{})
			if err == nil && mask.Any() {
				t.Errorf("salvage masked %d planes of an undamaged artifact", mask.DamagedPlanes())
			}
			return vals, err
		}},
		{"DecompressStreamCtx", "S", func(blob []byte) ([]float32, error) {
			var out bytes.Buffer
			if _, err := DecompressStreamCtx(context.Background(), tp, bytes.NewReader(blob), &out, StreamOpts{Window: 2}); err != nil {
				return nil, err
			}
			return device.BytesF32(out.Bytes()), nil
		}},
	}
}

// streamContainer frames chunk payloads as an FZMS artifact, sealing frame
// CRCs, leaf hashes and the trailer over whatever bytes it is given.
func streamContainer(t *testing.T, hdr fzio.ChunkedHeader, payloads [][]byte, planes []int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := fzio.NewStreamWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range payloads {
		if err := sw.WriteChunk(b, planes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadPathsParity holds the four read entry points to one behaviour.
// Every flavor × ±lz artifact decodes bit-identically through every door
// that accepts it, and a chunk payload no honest writer produces — a nested
// FZMC, a nested FZMS, a container of the wrong geometry — re-sealed under
// valid CRCs, leaf hashes and Merkle root so that it reaches the chunk
// decoder, is refused with an error naming the chunk, never a panic,
// whichever door it comes through. A tamper of chunk 1 that keeps its CRC32
// is refused by its leaf hash at every door but salvage, which masks
// exactly that chunk's planes, returns them zero-filled and every other
// value unchanged.
func TestReadPathsParity(t *testing.T) {
	data, dims := chunkField()
	absEB, _, err := preprocess.Resolve(tp, device.Accel, data, preprocess.RelBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	eb := preprocess.AbsBound(absEB)
	opts := ChunkOpts{ChunkElems: dims.PlaneElems() * 8}
	doors := readDoors(t)

	for _, pl := range []*Pipeline{NewDefault(), NewDefault().WithSecondary(LZSecondary{})} {
		fzmd, err := pl.Compress(tp, data, dims, eb)
		if err != nil {
			t.Fatal(err)
		}
		fzmc, _, err := pl.CompressChunkedReport(tp, data, dims, eb, opts)
		if err != nil {
			t.Fatal(err)
		}
		var sbuf bytes.Buffer
		if _, err := pl.CompressStreamCtx(context.Background(), tp, bytes.NewReader(device.F32Bytes(data)), dims, eb, &sbuf, opts); err != nil {
			t.Fatal(err)
		}
		artifacts := map[byte][]byte{'D': fzmd, 'C': fzmc, 'S': sbuf.Bytes()}

		for flavor, blob := range artifacts {
			var ref []float32
			var refDoor string
			for _, door := range doors {
				if !strings.ContainsRune(door.flavors, rune(flavor)) {
					continue
				}
				got, err := door.read(blob)
				if err != nil {
					t.Fatalf("%s %c via %s: %v", pl.Name(), flavor, door.name, err)
				}
				if ref == nil {
					ref, refDoor = got, door.name
					continue
				}
				if len(got) != len(ref) {
					t.Fatalf("%s %c: %s decoded %d values, %s %d", pl.Name(), flavor, door.name, len(got), refDoor, len(ref))
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s %c: %s and %s diverge at value %d", pl.Name(), flavor, door.name, refDoor, i)
					}
				}
			}
		}

		// Hostile payloads, swapped in for chunk 1 of the chunked artifact.
		cc, err := fzio.UnmarshalChunked(fzmc)
		if err != nil {
			t.Fatal(err)
		}
		planes := chunkPlanes(cc)
		slab := dims.WithSlowExtent(planes[1])
		turned := grid.D3(slab.Y, slab.X, slab.Z) // same element count, wrong shape
		wrongDims, err := pl.Compress(tp, data[:turned.N()], turned, eb)
		if err != nil {
			t.Fatal(err)
		}
		for _, hostile := range []struct {
			name, want string
			payload    []byte
		}{
			{"nested FZMC", "nested container", fzmc},
			{"nested FZMS", "nested container", sbuf.Bytes()},
			{"wrong dims", "dims", wrongDims},
		} {
			payloads := chunkPayloads(t, cc)
			payloads[1] = hostile.payload
			resealedC, err := fzio.MarshalChunked(cc.Header, payloads, planes)
			if err != nil {
				t.Fatal(err)
			}
			resealed := map[byte][]byte{'C': resealedC, 'S': streamContainer(t, cc.Header, payloads, planes)}
			for flavor, blob := range resealed {
				for _, door := range doors {
					if !strings.ContainsRune(door.flavors, rune(flavor)) {
						continue
					}
					_, err := door.read(blob)
					if err == nil {
						t.Errorf("%s %c via %s: %s chunk payload decoded", pl.Name(), flavor, door.name, hostile.name)
					} else if !strings.Contains(err.Error(), "chunk 1") || !strings.Contains(err.Error(), hostile.want) {
						t.Errorf("%s %c via %s: %s chunk payload: error %q does not name chunk 1 and %q",
							pl.Name(), flavor, door.name, hostile.name, err, hostile.want)
					}
				}
			}
		}

		lo, hi := planes[0], planes[0]+planes[1] // chunk 1's planes
		for flavor, blob := range map[byte][]byte{'C': fzmc, 'S': sbuf.Bytes()} {
			clean, err := doors[0].read(blob)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob))
			if err != nil {
				t.Fatal(err)
			}
			ref := ix.Chunks[1]
			tampered := bytes.Clone(blob)
			if !fzio.CorruptPreservingCRC32(tampered[ref.Offset:ref.Offset+ref.Length], 5) {
				t.Fatal("collision injector declined chunk 1")
			}
			for _, door := range doors {
				if !strings.ContainsRune(door.flavors, rune(flavor)) || door.name == "DecompressSalvageCtx" {
					continue
				}
				_, err := door.read(tampered)
				if !errors.Is(err, fzio.ErrProofMismatch) || !strings.Contains(err.Error(), "chunk 1") {
					t.Errorf("%s %c via %s: CRC-preserving tamper of chunk 1: got %v, want a hash mismatch naming chunk 1",
						pl.Name(), flavor, door.name, err)
				}
			}
			got, mask, err := DecompressSalvageCtx(context.Background(), tp, fzio.NewBytesFetcher(tampered), DecompressOpts{})
			if err != nil {
				t.Fatalf("%s %c: salvage of a CRC-preserving tamper: %v", pl.Name(), flavor, err)
			}
			for z, damaged := range mask.Planes {
				if damaged != (z >= lo && z < hi) {
					t.Fatalf("%s %c: salvage masks plane %d = %v, want only chunk 1's planes [%d,%d)", pl.Name(), flavor, z, damaged, lo, hi)
				}
			}
			plane := dims.PlaneElems()
			for i := range clean {
				masked := i >= lo*plane && i < hi*plane
				if !masked && got[i] != clean[i] {
					t.Fatalf("%s %c: salvage value %d differs from the clean decode", pl.Name(), flavor, i)
				}
				if masked && math.Float32bits(got[i]) != 0 {
					t.Fatalf("%s %c: salvage value %d of a masked plane is %v, want +0", pl.Name(), flavor, i, got[i])
				}
			}
		}
	}
}
