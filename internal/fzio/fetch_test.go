package fzio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fzmod/internal/grid"
)

// testChunkedBlob builds a small FZMC container with synthetic payloads:
// nChunks slabs tiling a dims.SlowExtent()-plane field.
func testChunkedBlob(t *testing.T, dims grid.Dims, nChunks int) ([]byte, ChunkedHeader, [][]byte) {
	t.Helper()
	h := ChunkedHeader{Pipeline: "test-pipe", Dims: dims, EB: 1e-3, Planes: (dims.SlowExtent() + nChunks - 1) / nChunks}
	chunks := make([][]byte, nChunks)
	planes := make([]int, nChunks)
	left := dims.SlowExtent()
	for i := range chunks {
		k := h.Planes
		if k > left {
			k = left
		}
		planes[i] = k
		left -= k
		chunks[i] = bytes.Repeat([]byte{byte(i + 1)}, 64+i*17)
	}
	blob, err := MarshalChunked(h, chunks, planes)
	if err != nil {
		t.Fatalf("MarshalChunked: %v", err)
	}
	return blob, h, chunks
}

// testStreamBlob builds the FZMS serialization of the same chunks.
func testStreamBlob(t *testing.T, h ChunkedHeader, chunks [][]byte, planesOf func(i int) int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, h)
	if err != nil {
		t.Fatalf("NewStreamWriter: %v", err)
	}
	for i, c := range chunks {
		if err := sw.WriteChunk(c, planesOf(i)); err != nil {
			t.Fatalf("WriteChunk(%d): %v", i, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestFetchersServeIdenticalRanges(t *testing.T) {
	blob := make([]byte, 10000)
	for i := range blob {
		blob[i] = byte(i * 31)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.fzmc")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	ff, err := NewFileFetcher(path)
	if err != nil {
		t.Fatalf("NewFileFetcher: %v", err)
	}
	defer ff.Close()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.ServeContent(w, r, "artifact.fzmc", modTime(t, path), bytes.NewReader(blob))
	}))
	defer srv.Close()

	fetchers := map[string]ChunkFetcher{
		"bytes":    NewBytesFetcher(blob),
		"readerAt": NewReaderAtFetcher(bytes.NewReader(blob), int64(len(blob))),
		"file":     ff,
		"http":     NewHTTPFetcher(srv.URL, srv.Client()),
	}
	windows := [][2]int64{{0, 1}, {0, 6}, {17, 333}, {9999, 1}, {0, 10000}, {5000, 5000}}
	for name, f := range fetchers {
		size, err := f.Size()
		if err != nil {
			t.Fatalf("%s: Size: %v", name, err)
		}
		if size != int64(len(blob)) {
			t.Fatalf("%s: Size = %d, want %d", name, size, len(blob))
		}
		for _, w := range windows {
			got, err := f.ReadRange(w[0], int(w[1]))
			if err != nil {
				t.Fatalf("%s: ReadRange(%d,%d): %v", name, w[0], w[1], err)
			}
			if !bytes.Equal(got, blob[w[0]:w[0]+w[1]]) {
				t.Fatalf("%s: ReadRange(%d,%d) returned wrong bytes", name, w[0], w[1])
			}
		}
		// Out-of-bounds and degenerate windows must error, not truncate.
		for _, w := range [][2]int64{{-1, 4}, {0, 0}, {0, -3}, {9999, 2}, {10000, 1}} {
			if _, err := f.ReadRange(w[0], int(w[1])); err == nil {
				t.Fatalf("%s: ReadRange(%d,%d) succeeded on bad window", name, w[0], w[1])
			}
		}
	}
}

func modTime(t *testing.T, path string) time.Time {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.ModTime()
}

// HTTPFetcher must cope with a server that ignores Range and replies 200
// with the full body.
func TestHTTPFetcherFullBodyFallback(t *testing.T) {
	blob := []byte("0123456789abcdef")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			w.Header().Set("Content-Length", fmt.Sprint(len(blob)))
			return
		}
		w.WriteHeader(http.StatusOK) // Range ignored on purpose.
		w.Write(blob)
	}))
	defer srv.Close()
	f := NewHTTPFetcher(srv.URL, srv.Client())
	if size, err := f.Size(); err != nil || size != int64(len(blob)) {
		t.Fatalf("Size = %d, %v", size, err)
	}
	got, err := f.ReadRange(10, 4)
	if err != nil {
		t.Fatalf("ReadRange: %v", err)
	}
	if string(got) != "abcd" {
		t.Fatalf("ReadRange = %q, want %q", got, "abcd")
	}
}

// A range response shorter than requested must error, never silently
// return fewer bytes.
func TestHTTPFetcherTruncatedResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100") // promises 100 bytes...
		w.WriteHeader(http.StatusPartialContent)
		w.Write(make([]byte, 10)) // ...delivers 10
	}))
	defer srv.Close()
	f := NewHTTPFetcher(srv.URL, srv.Client())
	_, err := f.ReadRange(0, 100)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncated-response error, got %v", err)
	}
}

func TestHTTPFetcherErrorStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusForbidden)
	}))
	defer srv.Close()
	f := NewHTTPFetcher(srv.URL, srv.Client())
	if _, err := f.ReadRange(0, 4); err == nil {
		t.Fatal("want error on 403 response")
	}
	if _, err := f.Size(); err == nil {
		t.Fatal("want error on HEAD of 403 response")
	}
}

func TestCountingFetcher(t *testing.T) {
	f := NewCountingFetcher(NewBytesFetcher(make([]byte, 100)))
	if _, err := f.ReadRange(0, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadRange(50, 10); err != nil {
		t.Fatal(err)
	}
	if f.Reads() != 2 || f.BytesRead() != 50 {
		t.Fatalf("counters = %d reads / %d bytes, want 2 / 50", f.Reads(), f.BytesRead())
	}
	f.Reset()
	if f.Reads() != 0 || f.BytesRead() != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestFetchIndexChunked(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 8}
	blob, h, chunks := testChunkedBlob(t, dims, 4)
	ix, err := FetchIndex(NewBytesFetcher(blob))
	if err != nil {
		t.Fatalf("FetchIndex: %v", err)
	}
	if ix.Flavor != FlavorChunked {
		t.Fatalf("Flavor = %q", ix.Flavor)
	}
	if ix.Header.Pipeline != h.Pipeline || ix.Header.Dims != h.Dims || ix.Header.EB != h.EB {
		t.Fatalf("header mismatch: %+v vs %+v", ix.Header, h)
	}
	if ix.NumChunks() != len(chunks) {
		t.Fatalf("NumChunks = %d, want %d", ix.NumChunks(), len(chunks))
	}
	if ix.ArtifactSize != int64(len(blob)) {
		t.Fatalf("ArtifactSize = %d, want %d", ix.ArtifactSize, len(blob))
	}
	// Absolute offsets must address the exact payload bytes.
	for i, want := range chunks {
		ref := ix.Chunks[i]
		got := blob[ref.Offset : ref.Offset+ref.Length]
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: index addresses wrong bytes", i)
		}
		if err := ix.VerifyChunk(i, got); err != nil {
			t.Fatalf("VerifyChunk(%d): %v", i, err)
		}
	}
}

func TestFetchIndexStream(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 8}
	_, h, chunks := testChunkedBlob(t, dims, 4)
	blob := testStreamBlob(t, h, chunks, func(i int) int { return 2 })
	ix, err := FetchIndex(NewBytesFetcher(blob))
	if err != nil {
		t.Fatalf("FetchIndex: %v", err)
	}
	if ix.Flavor != FlavorStream {
		t.Fatalf("Flavor = %q", ix.Flavor)
	}
	if ix.Header.Pipeline != h.Pipeline || ix.Header.Dims != h.Dims {
		t.Fatalf("header mismatch: %+v vs %+v", ix.Header, h)
	}
	for i, want := range chunks {
		ref := ix.Chunks[i]
		if ref.Planes != 2 {
			t.Fatalf("chunk %d: planes = %d, want 2", i, ref.Planes)
		}
		got := blob[ref.Offset : ref.Offset+ref.Length]
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: index addresses wrong bytes", i)
		}
		if err := ix.VerifyChunk(i, got); err != nil {
			t.Fatalf("VerifyChunk(%d): %v", i, err)
		}
	}
}

func TestFetchIndexMonolithic(t *testing.T) {
	c := New(Header{Pipeline: "test-pipe", Dims: grid.Dims{X: 4, Y: 4, Z: 4}, EB: 1e-3})
	if err := c.Add("quant", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	blob, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := FetchIndex(NewBytesFetcher(blob))
	if err != nil {
		t.Fatalf("FetchIndex: %v", err)
	}
	if ix.Flavor != FlavorMonolithic {
		t.Fatalf("Flavor = %q", ix.Flavor)
	}
	if ix.NumChunks() != 1 || ix.Chunks[0].Offset != 0 || ix.Chunks[0].Length != len(blob) {
		t.Fatalf("monolithic index = %+v, want one whole-artifact chunk", ix.Chunks)
	}
	if ix.Chunks[0].Planes != 4 {
		t.Fatalf("Planes = %d, want slow extent 4", ix.Chunks[0].Planes)
	}
	if err := ix.VerifyChunk(0, blob); err != nil {
		t.Fatalf("VerifyChunk: %v", err)
	}
}

// FetchIndex across flavors must agree on content keys: same artifact →
// same key, different layout → different key.
func TestContentKey(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 8}
	blob, h, chunks := testChunkedBlob(t, dims, 4)
	ix1, err := FetchIndex(NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := FetchIndex(NewBytesFetcher(append([]byte(nil), blob...)))
	if err != nil {
		t.Fatal(err)
	}
	if ix1.Key != ix2.Key {
		t.Fatal("identical artifacts produced different content keys")
	}
	stream := testStreamBlob(t, h, chunks, func(int) int { return 2 })
	ix3, err := FetchIndex(NewBytesFetcher(stream))
	if err != nil {
		t.Fatal(err)
	}
	if ix3.Key == ix1.Key {
		t.Fatal("FZMC and FZMS serializations share a content key")
	}
	chunks[0][0] ^= 0xFF
	blob2, err := MarshalChunked(h, chunks, []int{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	ix4, err := FetchIndex(NewBytesFetcher(blob2))
	if err != nil {
		t.Fatal(err)
	}
	if ix4.Key == ix1.Key {
		t.Fatal("different payloads produced the same content key")
	}
}

// The index of an FZMC container must come from a bounded prefix, and the
// FZMS one from prefix + tail — never the chunk payloads.
func TestFetchIndexReadsOnlyIndexBytes(t *testing.T) {
	dims := grid.Dims{X: 64, Y: 64, Z: 8}
	h := ChunkedHeader{Pipeline: "test-pipe", Dims: dims, EB: 1e-3, Planes: 2}
	chunks := make([][]byte, 4)
	for i := range chunks {
		chunks[i] = bytes.Repeat([]byte{byte(i)}, 1<<20) // 1 MiB each
	}
	blob, err := MarshalChunked(h, chunks, []int{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	cf := NewCountingFetcher(NewBytesFetcher(blob))
	if _, err := FetchIndex(cf); err != nil {
		t.Fatal(err)
	}
	if cf.BytesRead() > 64<<10 {
		t.Fatalf("FZMC index fetch read %d bytes of a %d-byte artifact", cf.BytesRead(), len(blob))
	}

	stream := testStreamBlob(t, h, chunks, func(int) int { return 2 })
	cf = NewCountingFetcher(NewBytesFetcher(stream))
	if _, err := FetchIndex(cf); err != nil {
		t.Fatal(err)
	}
	if cf.BytesRead() > 64<<10 {
		t.Fatalf("FZMS index fetch read %d bytes of a %d-byte artifact", cf.BytesRead(), len(stream))
	}
}

// A chunk table larger than the initial prefix must be parsed by growing
// the prefix, not fail.
func TestFetchIndexLargeTable(t *testing.T) {
	n := 2000 // ~2000 table entries ≫ 4 KiB initial prefix
	dims := grid.Dims{X: 2, Y: 2, Z: n}
	h := ChunkedHeader{Pipeline: "test-pipe", Dims: dims, EB: 1e-3, Planes: 1}
	chunks := make([][]byte, n)
	planes := make([]int, n)
	for i := range chunks {
		chunks[i] = []byte{byte(i), byte(i >> 8)}
		planes[i] = 1
	}
	blob, err := MarshalChunked(h, chunks, planes)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := FetchIndex(NewBytesFetcher(blob))
	if err != nil {
		t.Fatalf("FetchIndex: %v", err)
	}
	if ix.NumChunks() != n {
		t.Fatalf("NumChunks = %d, want %d", ix.NumChunks(), n)
	}
	last := ix.Chunks[n-1]
	if !bytes.Equal(blob[last.Offset:last.Offset+last.Length], chunks[n-1]) {
		t.Fatal("grown-prefix parse mis-addressed the last chunk")
	}
}

func TestFetchIndexCorruption(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 8}
	blob, h, chunks := testChunkedBlob(t, dims, 4)
	stream := testStreamBlob(t, h, chunks, func(int) int { return 2 })

	cases := []struct {
		name string
		blob []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOPE....")},
		{"chunked truncated mid-table", blob[:20]},
		{"chunked truncated payload", blob[:len(blob)-5]},
		{"stream missing tail", stream[:len(stream)-3]},
		{"stream truncated index", stream[:len(stream)-20]},
		{"stream prologue only", stream[:10]},
	}
	for _, tc := range cases {
		if _, err := FetchIndex(NewBytesFetcher(tc.blob)); err == nil {
			t.Errorf("%s: FetchIndex succeeded on corrupt input", tc.name)
		}
	}

	// Flip a bit inside the stream's index trailer: the trailer CRC check
	// must reject it.
	bad := append([]byte(nil), stream...)
	bad[len(bad)-20] ^= 0x01
	if _, err := FetchIndex(NewBytesFetcher(bad)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("trailer corruption: got %v, want CRC error", err)
	}

	// Corrupt the recorded trailer length so the backward walk lands in
	// the wrong place.
	bad = append([]byte(nil), stream...)
	binary.LittleEndian.PutUint64(bad[len(bad)-12:], 1<<40)
	if _, err := FetchIndex(NewBytesFetcher(bad)); err == nil {
		t.Error("absurd trailer length accepted")
	}
}

func TestVerifyChunkRejectsCorruption(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 8}
	blob, _, chunks := testChunkedBlob(t, dims, 4)
	ix, err := FetchIndex(NewBytesFetcher(blob))
	if err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), chunks[1]...)
	if err := ix.VerifyChunk(1, good); err != nil {
		t.Fatalf("VerifyChunk on good payload: %v", err)
	}
	good[3] ^= 0x40
	if err := ix.VerifyChunk(1, good); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("VerifyChunk on flipped payload: %v", err)
	}
	if err := ix.VerifyChunk(1, chunks[1][:len(chunks[1])-1]); err == nil {
		t.Fatal("VerifyChunk accepted short payload")
	}
	if err := ix.VerifyChunk(-1, nil); err == nil {
		t.Fatal("VerifyChunk accepted negative index")
	}
	if err := ix.VerifyChunk(99, nil); err == nil {
		t.Fatal("VerifyChunk accepted out-of-range index")
	}
}

// FetchIndex over HTTP: the realistic remote-dataset path, end to end.
func TestFetchIndexOverHTTP(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 8}
	blob, _, chunks := testChunkedBlob(t, dims, 4)
	var reqs int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs++
		http.ServeContent(w, r, "a.fzmc", modTime(t, os.Args[0]), bytes.NewReader(blob))
	}))
	defer srv.Close()
	f := NewHTTPFetcher(srv.URL, srv.Client())
	ix, err := FetchIndex(f)
	if err != nil {
		t.Fatalf("FetchIndex over HTTP: %v", err)
	}
	if ix.NumChunks() != len(chunks) {
		t.Fatalf("NumChunks = %d, want %d", ix.NumChunks(), len(chunks))
	}
	payload, err := f.ReadRange(int64(ix.Chunks[2].Offset), ix.Chunks[2].Length)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.VerifyChunk(2, payload); err != nil {
		t.Fatalf("VerifyChunk over HTTP: %v", err)
	}
}

// A fetcher whose ReadRange silently under-delivers must be caught by the
// consumer (FetchIndex validates sizes; VerifyChunk validates lengths).
type shortFetcher struct{ inner ChunkFetcher }

func (s shortFetcher) ReadRange(off int64, n int) ([]byte, error) {
	b, err := s.inner.ReadRange(off, n)
	if err != nil {
		return nil, err
	}
	return b[:len(b)/2], nil
}
func (s shortFetcher) Size() (int64, error) { return s.inner.Size() }

func TestFetchIndexShortReads(t *testing.T) {
	dims := grid.Dims{X: 8, Y: 8, Z: 8}
	blob, _, _ := testChunkedBlob(t, dims, 4)
	if _, err := FetchIndex(shortFetcher{NewBytesFetcher(blob)}); err == nil {
		t.Fatal("FetchIndex accepted a fetcher that under-delivers")
	}
}

var _ io.ReaderAt = (*bytes.Reader)(nil) // documents the ReaderAtFetcher pairing

// A server that rejects HEAD outright must still be sizable through the
// one-byte Range GET fallback.
func TestHTTPFetcherSizeHeadRejected(t *testing.T) {
	blob := make([]byte, 12345)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			http.Error(w, "HEAD not allowed", http.StatusMethodNotAllowed)
			return
		}
		if rng := r.Header.Get("Range"); rng != "bytes=0-0" {
			t.Errorf("fallback sent Range %q, want bytes=0-0", rng)
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes 0-0/%d", len(blob)))
		w.WriteHeader(http.StatusPartialContent)
		w.Write(blob[:1])
	}))
	defer srv.Close()
	f := NewHTTPFetcher(srv.URL, srv.Client())
	size, err := f.Size()
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	if size != int64(len(blob)) {
		t.Fatalf("Size = %d, want %d", size, len(blob))
	}
}

// A server that answers HEAD without Content-Length (chunked proxies do
// this) is sized through the same fallback; one that also ignores Range
// resolves through the 200 answer's Content-Length.
func TestHTTPFetcherSizeHeadNoLengthRangeIgnored(t *testing.T) {
	blob := make([]byte, 777)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			w.Header()["Content-Length"] = nil // suppress the implicit header
			w.(http.Flusher).Flush()           // forces chunked, no length
			return
		}
		w.WriteHeader(http.StatusOK) // Range ignored
		w.Write(blob)
	}))
	defer srv.Close()
	f := NewHTTPFetcher(srv.URL, srv.Client())
	size, err := f.Size()
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	if size != int64(len(blob)) {
		t.Fatalf("Size = %d, want %d", size, len(blob))
	}
}

// When both HEAD and the probe GET fail, the HEAD error (the more
// fundamental diagnosis) surfaces.
func TestHTTPFetcherSizeBothFail(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusForbidden)
	}))
	defer srv.Close()
	f := NewHTTPFetcher(srv.URL, srv.Client())
	_, err := f.Size()
	if err == nil || !strings.Contains(err.Error(), "HEAD") {
		t.Fatalf("want the HEAD error surfaced, got %v", err)
	}
}

func TestParseContentRangeTotal(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"bytes 0-0/12345", 12345, true},
		{"bytes 0-0/0", 0, true},
		{" bytes 5-9/100 ", 100, true},
		{"bytes 0-0/*", 0, false},
		{"items 0-0/10", 0, false},
		{"bytes 0-0", 0, false},
		{"", 0, false},
	}
	for _, tc := range cases {
		got, ok := parseContentRangeTotal(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseContentRangeTotal(%q) = %d,%v; want %d,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}
