package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	"fzmod/internal/metrics"
	"fzmod/internal/preprocess"
)

// The golden corpus pins container bytes to files, not to another code
// path. testdata/golden/manifest.txt has one row per case the module table
// can produce — every predictor × encoder × ±secondary composition, over
// every checked-in input, in every container flavor, at an absolute and a
// relative bound — holding the SHA-256 of the container and of the field it
// decodes to. The fixtures beside it are whole artifacts earlier trees
// wrote, each with the field the writing tree decoded from it; every later
// tree must keep reading them. testdata/golden/README says how each file
// was made. Regenerating the manifest is a format event; the fixtures are
// never regenerated.

var update = flag.Bool("update", false, "rewrite testdata/golden/manifest.txt from this tree (fixtures are never rewritten)")

const (
	goldenDir = "testdata/golden"
	goldenRel = 1e-3 // the relative bound of every rel case
)

// goldenInputs are raw little-endian float32 files rather than generator
// calls: the generators' float arithmetic may fuse into FMA instructions on
// some architectures, which would move the inputs with GOARCH.
var goldenInputs = []struct {
	file string
	dims grid.Dims
	abs  float64 // the absolute bound of every abs case
}{
	{"hacc-4096.f32", grid.D1(4096), 0.5},
	{"cesm-64x64.f32", grid.D2(64, 64), 0.05},
	{"hurr-16x16x16.f32", grid.D3(16, 16, 16), 0.05},
}

// goldenFlavors are the three container flavors; FZMC and FZMS cut the
// field into four chunks.
var goldenFlavors = []string{"FZMD", "FZMC", "FZMS"}

func goldenWrite(flavor string, pl *Pipeline, data []float32, dims grid.Dims, eb preprocess.ErrorBound) ([]byte, error) {
	opts := Opts{ChunkElems: len(data) / 4}
	switch flavor {
	case "FZMD":
		return pl.CompressMonolithic(tp, data, dims, eb)
	case "FZMC":
		return pl.CompressChunked(tp, data, dims, eb, opts)
	}
	var buf bytes.Buffer
	_, err := pl.CompressStream(tp, bytes.NewReader(device.F32Bytes(data)), dims, eb, &buf, opts)
	return buf.Bytes(), err
}

// goldenPipelines composes every pipeline the module table can build.
func goldenPipelines() []*Pipeline {
	var out []*Pipeline
	for _, pr := range predictors {
		for _, enc := range encoders {
			pl := &Pipeline{PipelineName: pr.Name() + "/" + enc.Name(), Pred: pr, Enc: enc,
				PredPlace: device.Accel, EncPlace: device.Host}
			out = append(out, pl)
			for _, sec := range secondaries {
				out = append(out, pl.WithSecondary(sec))
			}
		}
	}
	return out
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenRows runs every case and returns its manifest row keyed by case id,
// "<pipeline> <input> <flavor> <bound>"; the row adds the container length
// and the two digests. Each decoded field must also hold its bound, and the
// stream writer must refuse a relative bound, which needs the whole field's
// value range.
func goldenRows(t *testing.T) map[string]string {
	rows := map[string]string{}
	for _, in := range goldenInputs {
		data := device.BytesF32(readGolden(t, in.file))
		if len(data) != in.dims.N() {
			t.Fatalf("%s holds %d values, want %d", in.file, len(data), in.dims.N())
		}
		relAbs, _, err := preprocess.Resolve(tp, device.Accel, data, preprocess.RelBound(goldenRel))
		if err != nil {
			t.Fatal(err)
		}
		bounds := []struct {
			name string
			eb   preprocess.ErrorBound
			abs  float64
		}{
			{"abs", preprocess.AbsBound(in.abs), in.abs},
			{"rel", preprocess.RelBound(goldenRel), relAbs},
		}
		for _, pl := range goldenPipelines() {
			for _, flavor := range goldenFlavors {
				for _, b := range bounds {
					id := strings.Join([]string{pl.Name(), in.file, flavor, b.name}, " ")
					blob, err := goldenWrite(flavor, pl, data, in.dims, b.eb)
					if flavor == "FZMS" && b.name == "rel" {
						if err == nil {
							t.Errorf("%s: stream writer accepted a relative bound", id)
						}
						continue
					}
					if err != nil {
						t.Errorf("%s: compress: %v", id, err)
						continue
					}
					vals, dims, err := Decompress(tp, blob)
					if err != nil {
						t.Errorf("%s: decompress: %v", id, err)
						continue
					}
					if dims != in.dims {
						t.Errorf("%s: decoded dims %v, want %v", id, dims, in.dims)
					}
					if i := metrics.VerifyBound(data, vals, b.abs); i != -1 {
						t.Errorf("%s: bound %g violated at %d", id, b.abs, i)
					}
					if _, dup := rows[id]; dup {
						t.Errorf("%s: two cases share an id (duplicate module name?)", id)
					}
					rows[id] = fmt.Sprintf("%s %d %x %x", id, len(blob), sha256.Sum256(blob), sha256.Sum256(device.F32Bytes(vals)))
				}
			}
		}
	}
	return rows
}

// TestGoldenManifest holds this tree's containers and decoded fields to the
// manifest in both directions: a case the module table produces that the
// manifest lacks fails, and so does a manifest row no case produces.
func TestGoldenManifest(t *testing.T) {
	got := goldenRows(t)
	path := filepath.Join(goldenDir, "manifest.txt")
	if *update {
		ids := make([]string, 0, len(got))
		for id := range got {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var buf bytes.Buffer
		buf.WriteString("# <pipeline> <input> <flavor> <bound> <container bytes> <sha256 container> <sha256 decoded float32 LE>\n")
		buf.WriteString("# Regenerating this file is a format event: go test ./internal/core -run Golden -update\n")
		for _, id := range ids {
			buf.WriteString(got[id] + "\n")
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 7 {
			t.Fatalf("%s: malformed row %q", path, sc.Text())
		}
		want[strings.Join(fields[:4], " ")] = strings.Join(fields, " ")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for id, row := range got {
		switch w, ok := want[id]; {
		case !ok:
			t.Errorf("%s: produced by the module table, missing from the manifest", id)
		case w != row:
			t.Errorf("%s: container or decoded field changed\n got %s\nwant %s", id, row, w)
		}
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("%s: in the manifest, not produced by the module table", id)
		}
	}
}

// goldenFixtures are whole artifacts, each with the field the tree that
// wrote it decoded and the container version that tree emitted. A case
// with forge set reads the artifact as forge rewrites it, and must still
// decode to the same field.
var goldenFixtures = []struct {
	artifact, field string
	version         uint16
	forge           func(t *testing.T, blob []byte) []byte
}{
	{"v1-default-hurr.fzmc", "v1-default-hurr.f32", 1, nil},
	{"v1-default-hurr.fzms", "v1-default-hurr.f32", 1, nil},
	{"v2-quality-cesm.fzmd", "v2-quality-cesm.f32", 1, nil},
	{"v2-default-lz-hurr.fzmc", "v2-default-lz-hurr.f32", 2, nil},
	{"v2-speed-hacc.fzms", "v2-speed-hacc.f32", 2, nil},
	{"v2-stf-default-hurr.fzmd", "v2-stf-default-hurr.f32", 1, nil},
	{"v2-stf-default-hurr.fzmd", "v2-stf-default-hurr.f32", 1, wrongOutIdx},
}

// TestGoldenFixtures reads every fixture through every read door that
// accepts its flavor; each door must reproduce the writer's field bit for
// bit.
func TestGoldenFixtures(t *testing.T) {
	doors := readDoors(t)
	for _, fx := range goldenFixtures {
		blob := readGolden(t, fx.artifact)
		want := readGolden(t, fx.field)
		if len(blob) < 6 || binary.LittleEndian.Uint16(blob[4:6]) != fx.version {
			t.Fatalf("%s is not a version-%d container", fx.artifact, fx.version)
		}
		name := fx.artifact
		if fx.forge != nil {
			blob = fx.forge(t, blob)
			name += " (forged)"
		}
		flavor := rune(blob[3]) // the last letter of FZMD, FZMC or FZMS
		for _, door := range doors {
			if !strings.ContainsRune(door.flavors, flavor) {
				continue
			}
			got, err := door.read(blob)
			if err != nil {
				t.Errorf("%s via %s: %v", name, door.name, err)
				continue
			}
			if !bytes.Equal(device.F32Bytes(got), want) {
				t.Errorf("%s via %s: decoded field differs from the one its writer decoded", name, door.name)
			}
		}
	}
}

// wrongOutIdx rewrites an FZMD container's pred.outidx segment — a
// redundant outlier index stream an earlier writer emitted — with wrong,
// in-range indices and re-seals it under valid CRCs. Decoders take outlier
// positions from the escape codes alone, so the field must not change.
func wrongOutIdx(t *testing.T, blob []byte) []byte {
	t.Helper()
	c, err := fzio.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Has(predPrefix + "outidx") {
		t.Fatal("container has no pred.outidx segment")
	}
	n := uint32(c.Header.Dims.N())
	forged := fzio.New(c.Header)
	for _, name := range c.Names() {
		seg, err := c.Segment(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == predPrefix+"outidx" {
			idx := device.BytesU32(seg)
			wrong := make([]uint32, len(idx))
			for i, v := range idx {
				wrong[i] = (v + 1) % n
			}
			seg = device.U32Bytes(wrong)
		}
		if err := forged.Add(name, seg); err != nil {
			t.Fatal(err)
		}
	}
	out, err := forged.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return out
}
