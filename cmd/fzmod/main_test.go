package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fzmod"
	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/sdrbench"
	"fzmod/internal/stf"
)

// writeField generates a small deterministic field and writes it as raw
// little-endian float32 to a temp file, returning path, dims and data.
func writeField(t *testing.T) (string, grid.Dims, []float32) {
	t.Helper()
	dims := grid.D3(16, 16, 12)
	data := sdrbench.GenNYX(dims, 5)
	path := filepath.Join(t.TempDir(), "field.f32")
	if err := os.WriteFile(path, device.F32Bytes(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, dims, data
}

// readF32File reads a raw float32 file back.
func readF32File(t *testing.T, path string) []float32 {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return device.BytesF32(blob)
}

// relAbs resolves a value-range-relative bound against data by hand (the
// CLI streaming path only accepts absolute bounds).
func relAbs(data []float32, rel float64) float64 {
	mn, mx := data[0], data[0]
	for _, v := range data {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return rel * float64(mx-mn)
}

func maxAbsDiff(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// TestCLIRoundtripFiles: compress → probe → decompress over temp files,
// the everyday CLI flow.
func TestCLIRoundtripFiles(t *testing.T) {
	in, dims, data := writeField(t)
	fz := filepath.Join(t.TempDir(), "field.fz")
	var out bytes.Buffer
	err := run(config{
		compress: true, in: in, out: fz,
		dims: "16x16x12", eb: 1e-3, mode: "rel",
		pipeline: "default", verify: true, verbose: true,
		stdout: &out,
	})
	if err != nil {
		t.Fatalf("compress: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "CR ") || !strings.Contains(out.String(), "verify: PSNR") {
		t.Errorf("compress output missing stats/verify: %q", out.String())
	}

	out.Reset()
	if err := run(config{probe: true, in: fz, stdout: &out}); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if !strings.Contains(out.String(), "fzmod-default") || !strings.Contains(out.String(), "16x16x12") {
		t.Errorf("probe output: %q", out.String())
	}

	back := filepath.Join(t.TempDir(), "back.f32")
	out.Reset()
	if err := run(config{decompress: true, in: fz, out: back, stdout: &out}); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	got := readF32File(t, back)
	if len(got) != dims.N() {
		t.Fatalf("decompressed %d values, want %d", len(got), dims.N())
	}
	// rel 1e-3 resolves against the NYX value range; the reconstruction
	// must respect the resolved absolute bound.
	if absEB, d := relAbs(data, 1e-3), maxAbsDiff(data, got); d > absEB {
		t.Errorf("bound %g violated: max abs diff %g", absEB, d)
	}
}

// TestCLIDecompressWorkers: -workers bounds the in-memory decompress of a
// multi-chunk container, as it does every other path; the -v report shows
// the graph's tasks (fetch, decode and reconstruct per chunk, plus the one
// alloc task) and the worker slots it used.
func TestCLIDecompressWorkers(t *testing.T) {
	in, _, _ := writeField(t)
	fz := filepath.Join(t.TempDir(), "field.fz")
	var out bytes.Buffer
	if err := run(config{
		compress: true, in: in, out: fz,
		dims: "16x16x12", eb: 1e-3, mode: "rel",
		pipeline: "default", chunk: 16 * 16 * 2,
		stdout: &out,
	}); err != nil {
		t.Fatalf("compress: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run(config{
		decompress: true, in: fz, out: filepath.Join(t.TempDir(), "back.f32"),
		workers: 1, verbose: true, stdout: &out,
	}); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !strings.Contains(out.String(), "decompress executor: 19 tasks") ||
		!strings.Contains(out.String(), "worker slots used 1\n") {
		t.Errorf("-workers 1 decompress of a 6-chunk container: %q", out.String())
	}
}

// TestCLIStreamRoundtripFiles: -stream compression to a file, stream
// probe, then decompression (flavor detected from the magic).
func TestCLIStreamRoundtripFiles(t *testing.T) {
	in, dims, data := writeField(t)
	absEB := relAbs(data, 1e-3)
	fzs := filepath.Join(t.TempDir(), "field.fzs")
	var out bytes.Buffer
	err := run(config{
		compress: true, stream: true, in: in, out: fzs,
		dims: "16x16x12", eb: absEB, mode: "abs",
		pipeline: "default", chunk: 16 * 16 * 3, window: 2,
		stdout: &out,
	})
	if err != nil {
		t.Fatalf("stream compress: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "(stream)") {
		t.Errorf("stream compress output: %q", out.String())
	}

	out.Reset()
	if err := run(config{probe: true, in: fzs, stdout: &out}); err != nil {
		t.Fatalf("stream probe: %v", err)
	}
	if !strings.Contains(out.String(), "(stream)") || !strings.Contains(out.String(), "trailer verified") {
		t.Errorf("stream probe output: %q", out.String())
	}

	back := filepath.Join(t.TempDir(), "back.f32")
	out.Reset()
	if err := run(config{decompress: true, in: fzs, out: back, window: 2, stdout: &out}); err != nil {
		t.Fatalf("stream decompress: %v", err)
	}
	got := readF32File(t, back)
	if len(got) != dims.N() {
		t.Fatalf("decompressed %d values, want %d", len(got), dims.N())
	}
	if d := maxAbsDiff(data, got); d > absEB {
		t.Errorf("abs bound %g violated: max diff %g", absEB, d)
	}
}

// TestCLIStreamPipe drives compression and decompression through an
// in-process pipe: compressor reads the field file and writes the stream
// to stdout; decompressor reads it from stdin and writes stdout — the
// shell-pipeline topology, no intermediate file.
func TestCLIStreamPipe(t *testing.T) {
	in, dims, data := writeField(t)
	absEB := relAbs(data, 1e-3)
	pr, pw := io.Pipe()
	compErr := make(chan error, 1)
	go func() {
		err := run(config{
			compress: true, stream: true, in: in, out: "-",
			dims: "16x16x12", eb: absEB, mode: "abs",
			pipeline: "default", chunk: 16 * 16 * 3, window: 2,
			stdout: pw,
		})
		pw.CloseWithError(err)
		compErr <- err
	}()

	var field bytes.Buffer
	err := run(config{
		decompress: true, in: "-", out: "-", window: 2,
		stdin: pr, stdout: &field,
	})
	if cerr := <-compErr; cerr != nil {
		t.Fatalf("pipe compress: %v", cerr)
	}
	if err != nil {
		t.Fatalf("pipe decompress: %v", err)
	}
	got := device.BytesF32(field.Bytes())
	if len(got) != dims.N() {
		t.Fatalf("piped roundtrip produced %d values, want %d", len(got), dims.N())
	}
	if d := maxAbsDiff(data, got); d > absEB {
		t.Errorf("abs bound %g violated through pipe: max diff %g", absEB, d)
	}
}

// TestCLIRegionRead: -d -region extracts a subvolume from a chunked
// container and the values match slicing the full decompression.
func TestCLIRegionRead(t *testing.T) {
	in, dims, _ := writeField(t)
	fz := filepath.Join(t.TempDir(), "field.fz")
	if err := run(config{
		compress: true, in: in, out: fz,
		dims: "16x16x12", eb: 1e-3, mode: "rel",
		pipeline: "default", chunk: 16 * 16 * 3, // 4 slab chunks
		stdout: io.Discard,
	}); err != nil {
		t.Fatalf("compress: %v", err)
	}

	full := filepath.Join(t.TempDir(), "full.f32")
	if err := run(config{decompress: true, in: fz, out: full, stdout: io.Discard}); err != nil {
		t.Fatalf("full decompress: %v", err)
	}
	want := readF32File(t, full)

	sub := filepath.Join(t.TempDir(), "sub.f32")
	var out bytes.Buffer
	if err := run(config{
		decompress: true, region: "2:10,4:12,7:9", in: fz, out: sub,
		verbose: true, stdout: &out,
	}); err != nil {
		t.Fatalf("region decompress: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "region 2:10,4:12,7:9") ||
		!strings.Contains(out.String(), "chunks decoded") {
		t.Errorf("region output: %q", out.String())
	}
	got := readF32File(t, sub)
	if len(got) != 8*8*2 {
		t.Fatalf("region produced %d values, want %d", len(got), 8*8*2)
	}
	i := 0
	for z := 7; z < 9; z++ {
		for y := 4; y < 12; y++ {
			for x := 2; x < 10; x++ {
				if got[i] != want[dims.Idx(x, y, z)] {
					t.Fatalf("region value (%d,%d,%d) = %g, full decompress has %g", x, y, z, got[i], want[dims.Idx(x, y, z)])
				}
				i++
			}
		}
	}

	// Trailing axes may be omitted: one range selects x-planes of the
	// whole y×z extent.
	if err := run(config{
		decompress: true, region: "0:4", in: fz, out: sub, stdout: io.Discard,
	}); err != nil {
		t.Fatalf("partial region syntax: %v", err)
	}
	if got := readF32File(t, sub); len(got) != 4*dims.Y*dims.Z {
		t.Errorf("x-only region produced %d values, want %d", len(got), 4*dims.Y*dims.Z)
	}
}

// TestCLIErrors: the CLI surfaces usage errors instead of panicking.
func TestCLIErrors(t *testing.T) {
	in, _, _ := writeField(t)
	cases := map[string]config{
		"no action":         {in: in},
		"no input":          {compress: true},
		"bad dims":          {compress: true, in: in, dims: "axb", eb: 1e-3, mode: "rel", pipeline: "default"},
		"bad mode":          {compress: true, in: in, dims: "16x16x12", eb: 1e-3, mode: "nope", pipeline: "default"},
		"bad pipeline":      {compress: true, in: in, dims: "16x16x12", eb: 1e-3, mode: "rel", pipeline: "nope"},
		"stream rel bound":  {compress: true, stream: true, in: in, dims: "16x16x12", eb: 1e-3, mode: "rel", pipeline: "default"},
		"stdin without -":   {compress: true, in: "-", dims: "16x16x12", eb: 1e-3, mode: "rel", pipeline: "default"},
		"missing file":      {decompress: true, in: filepath.Join(t.TempDir(), "absent.fz")},
		"region without -d": {compress: true, region: "0:4", in: in, dims: "16x16x12", eb: 1e-3, mode: "rel", pipeline: "default"},
		"region on stdin":   {decompress: true, region: "0:4", in: "-"},
		"region bad syntax": {decompress: true, region: "0-4", in: in},
		"region bad range":  {decompress: true, region: "whole", in: in},
		"not a container":   {decompress: true, in: in},
		"probe not a cont.": {probe: true, in: in},
	}
	// A regular-file input whose size disagrees with -dims must be
	// rejected up front, not silently truncated to the declared geometry.
	cases["stream size mismatch"] = config{
		compress: true, stream: true, in: in,
		dims: "32x32x32", eb: 1, mode: "abs", pipeline: "default",
	}
	for name, cfg := range cases {
		cfg.stdout = io.Discard
		if cfg.stdin == nil {
			cfg.stdin = strings.NewReader("")
		}
		if err := run(cfg); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// TestCLIOverLimitGeometry: -dims whose product wraps int (the 256-byte
// input "matches" a wrapped N() of 64) and a -chunk that cuts the field
// into more than 2^20 chunks are ordinary errors naming the limit — the
// first used to panic slicing the input, the second to write an artifact
// -d refuses — on the in-memory and the streaming path alike.
func TestCLIOverLimitGeometry(t *testing.T) {
	dir := t.TempDir()
	small := filepath.Join(dir, "small.f32")
	if err := os.WriteFile(small, make([]byte, 256), 0o644); err != nil {
		t.Fatal(err)
	}
	const n = 1<<20 + 8
	long := filepath.Join(dir, "long.f32")
	if err := os.WriteFile(long, make([]byte, 4*n), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]config{
		"-dims wraps":        {in: small, dims: "4611686018427387920x4x1"},
		"-dims wraps stream": {in: small, dims: "4611686018427387920x4x1", stream: true},
		"-chunk 1":           {in: long, dims: strconv.Itoa(n), chunk: 1},
		"-chunk 1 stream":    {in: long, dims: strconv.Itoa(n), chunk: 1, stream: true},
	} {
		cfg.compress, cfg.eb, cfg.mode, cfg.pipeline = true, 1e-2, "abs", "default"
		cfg.out = filepath.Join(dir, "out.fz")
		cfg.stdout, cfg.stdin = io.Discard, strings.NewReader("")
		err := run(cfg)
		if !errors.Is(err, grid.ErrLimit) {
			t.Errorf("%s: error %v, want one wrapping grid.ErrLimit", name, err)
		}
		if _, statErr := os.Stat(cfg.out); !os.IsNotExist(statErr) {
			t.Errorf("%s: an artifact was written", name)
		}
	}
}

// TestCLIFlagsKeepContainerBytes: flags outside the container's recipe
// never change its bytes. A field between DefaultChunkElems and
// AutoChunkElems elements is one chunk (FZMD) under -z, -z -v and every
// -workers; -v and -workers used to cut it into a chunked container.
func TestCLIFlagsKeepContainerBytes(t *testing.T) {
	dims := grid.D3(128, 128, 160)
	if n := dims.N(); n <= fzmod.DefaultChunkElems || n >= fzmod.AutoChunkElems {
		t.Fatalf("%v: %d elements, want one between the two chunking constants", dims, n)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "field.f32")
	if err := os.WriteFile(in, device.F32Bytes(sdrbench.GenNYX(dims, 5)), 0o644); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i, tc := range []struct {
		name    string
		verbose bool
		workers int
	}{
		{"-z", false, 0},
		{"-z -v", true, 0},
		{"-z -workers 1", false, 1},
		{"-z -workers 2", false, 2},
	} {
		fz := filepath.Join(dir, strconv.Itoa(i)+".fz")
		if err := run(config{
			compress: true, in: in, out: fz, dims: "128x128x160", eb: 1e-3, mode: "rel",
			pipeline: "default", verbose: tc.verbose, workers: tc.workers, stdout: io.Discard,
		}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := os.ReadFile(fz)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:4]) != fzio.Magic {
			t.Errorf("%s: wrote a %q container, want one chunk (FZMD)", tc.name, got[:4])
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from -z's %d", tc.name, len(got), len(want))
		}
	}
}

// TestCLINoPartialOutputOnFailure: a failed streaming run must not leave a
// truncated artifact on disk.
func TestCLINoPartialOutputOnFailure(t *testing.T) {
	in, _, data := writeField(t)
	// A relative bound is refused by the stream door itself, after -o was
	// created: the file must not survive.
	refused := filepath.Join(t.TempDir(), "rel.fzs")
	if err := run(config{
		compress: true, stream: true, in: in, out: refused,
		dims: "16x16x12", eb: 1e-3, mode: "rel", pipeline: "default", stdout: io.Discard,
	}); err == nil || !strings.Contains(err.Error(), "absolute error bound") {
		t.Errorf("-stream with a relative bound: error %v, want the stream door's refusal", err)
	}
	if _, err := os.Stat(refused); !os.IsNotExist(err) {
		t.Errorf("refused stream left its output behind: stat err %v", err)
	}
	absEB := relAbs(data, 1e-3)
	fzs := filepath.Join(t.TempDir(), "field.fzs")
	if err := run(config{
		compress: true, stream: true, in: in, out: fzs,
		dims: "16x16x12", eb: absEB, mode: "abs", pipeline: "default",
		chunk: 16 * 16 * 3, stdout: io.Discard,
	}); err != nil {
		t.Fatal(err)
	}
	// Truncate the stream and decompress: the run must fail AND the output
	// file must be gone.
	blob, err := os.ReadFile(fzs)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc.fzs")
	if err := os.WriteFile(trunc, blob[:len(blob)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	back := filepath.Join(t.TempDir(), "back.f32")
	if err := run(config{decompress: true, in: trunc, out: back, stdout: io.Discard}); err == nil {
		t.Fatal("truncated stream should fail")
	}
	if _, err := os.Stat(back); !os.IsNotExist(err) {
		t.Errorf("partial output left behind: stat err %v", err)
	}
}

// TestCLIHostileSegmentLength: an FZMD whose one segment declares 2^63
// bytes (negative once converted to int) must exit with an ordinary error
// from -verify, -probe and -d alike — it used to crash the first two.
func TestCLIHostileSegmentLength(t *testing.T) {
	c := fzio.New(fzio.Header{Pipeline: "p", Dims: grid.D1(4), EB: 0.5})
	if err := c.Add("s", nil); err != nil {
		t.Fatal(err)
	}
	blob, err := c.Marshal() // ends: "s" ‖ uvarint length 0 ‖ CRC32
	if err != nil {
		t.Fatal(err)
	}
	n := len(blob)
	hostile := binary.AppendUvarint(append([]byte(nil), blob[:n-5]...), 1<<63)
	hostile = append(hostile, blob[n-4:]...)
	in := filepath.Join(t.TempDir(), "hostile.fz")
	if err := os.WriteFile(in, hostile, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]config{
		"-verify": {verifyArtifact: true, in: in},
		"-probe":  {probe: true, in: in},
		"-d":      {decompress: true, in: in, out: filepath.Join(t.TempDir(), "back.f32")},
	} {
		cfg.stdout = io.Discard
		err := run(cfg)
		if err == nil {
			t.Errorf("%s: hostile artifact accepted", name)
		} else if errors.As(err, new(*stf.PanicError)) {
			t.Errorf("%s: reached a panic: %v", name, err)
		}
	}
}

// TestCLIVerifyAndSalvage: the integrity-audit flow end to end — a clean
// artifact verifies OK; one flipped payload byte makes -verify exit
// nonzero naming the damaged chunk; -salvage rebuilds a valid container
// from the survivors that round-trips through a normal decompress.
func TestCLIVerifyAndSalvage(t *testing.T) {
	in, dims, _ := writeField(t)
	fz := filepath.Join(t.TempDir(), "field.fzc")
	if err := run(config{
		compress: true, in: in, out: fz,
		dims: "16x16x12", eb: 1e-3, mode: "rel",
		pipeline: "default", chunk: 16 * 16 * 3, // 4 slab chunks
		stdout: io.Discard,
	}); err != nil {
		t.Fatalf("compress: %v", err)
	}

	var out bytes.Buffer
	if err := run(config{verifyArtifact: true, in: fz, stdout: &out}); err != nil {
		t.Fatalf("verify of a clean artifact: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "root verified") || !strings.Contains(out.String(), "OK (4/4 chunks intact)") {
		t.Errorf("clean verify output: %q", out.String())
	}

	// Flip one payload byte of chunk 2.
	blob, err := os.ReadFile(fz)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}
	blob[ix.Chunks[2].Offset+7] ^= 0x08
	damaged := filepath.Join(t.TempDir(), "damaged.fzc")
	if err := os.WriteFile(damaged, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	err = run(config{verifyArtifact: true, in: damaged, stdout: &out})
	if err == nil {
		t.Fatalf("verify of a damaged artifact succeeded:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "chunk 2") {
		t.Errorf("verify error does not name the damaged chunk: %v", err)
	}
	if !strings.Contains(out.String(), "chunk 2   corrupt") {
		t.Errorf("verify output: %q", out.String())
	}

	// Salvage: survivors rebuilt into a valid container that verifies and
	// decompresses normally.
	recovered := filepath.Join(t.TempDir(), "recovered.fzc")
	out.Reset()
	if err := run(config{salvage: true, in: damaged, out: recovered, stdout: &out}); err != nil {
		t.Fatalf("salvage: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "salvaged 3/4 chunks") || !strings.Contains(out.String(), "lost chunk 2") {
		t.Errorf("salvage output: %q", out.String())
	}
	out.Reset()
	if err := run(config{verifyArtifact: true, in: recovered, stdout: &out}); err != nil {
		t.Fatalf("verify of the salvaged artifact: %v\n%s", err, out.String())
	}
	back := filepath.Join(t.TempDir(), "back.f32")
	if err := run(config{decompress: true, in: recovered, out: back, stdout: io.Discard}); err != nil {
		t.Fatalf("decompressing the salvaged artifact: %v", err)
	}
	if got := readF32File(t, back); len(got) != 16*16*9 {
		t.Errorf("salvaged decode has %d values, want %d (9 surviving planes)", len(got), 16*16*9)
	}
	_ = dims
}

// A region read over a CRC-collision-tampered local file must refuse with
// the leaf-hash error, not a CRC or decode error; over a plainly flipped
// payload byte, with the CRC error. No flag turns either check on.
func TestCLIRegionProofs(t *testing.T) {
	in, _, _ := writeField(t)
	fz := filepath.Join(t.TempDir(), "field.fzc")
	if err := run(config{
		compress: true, in: in, out: fz,
		dims: "16x16x12", eb: 1e-3, mode: "rel",
		pipeline: "default", chunk: 16 * 16 * 3,
		stdout: io.Discard,
	}); err != nil {
		t.Fatalf("compress: %v", err)
	}
	blob, err := os.ReadFile(fz)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := fzio.FetchIndex(fzio.NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), blob...)
	flipped[ix.Chunks[2].Offset+7] ^= 0x08
	ref := ix.Chunks[1]
	if !fzio.CorruptPreservingCRC32(blob[ref.Offset:ref.Offset+ref.Length], 3) {
		t.Fatal("could not build a CRC-preserving tamper")
	}
	tampered := filepath.Join(t.TempDir(), "tampered.fzc")
	if err := os.WriteFile(tampered, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(t.TempDir(), "sub.f32")
	err = run(config{
		decompress: true, region: "0:16,0:16,0:12",
		in: tampered, out: sub, stdout: io.Discard,
	})
	if err == nil {
		t.Fatal("region read of a tampered store succeeded")
	}
	if !errors.Is(err, fzio.ErrProofMismatch) {
		t.Fatalf("got %v, want ErrProofMismatch", err)
	}
	damaged := filepath.Join(t.TempDir(), "damaged.fzc")
	if err := os.WriteFile(damaged, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(config{
		decompress: true, region: "0:16,0:16,0:12",
		in: damaged, out: sub, stdout: io.Discard,
	})
	if !errors.Is(err, fzio.ErrCRCMismatch) {
		t.Fatalf("region read of a flipped byte: got %v, want ErrCRCMismatch", err)
	}
}
