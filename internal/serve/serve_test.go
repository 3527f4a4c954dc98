package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fzmod/internal/core"
	"fzmod/internal/device"
	"fzmod/internal/fzio"
	"fzmod/internal/grid"
	fzmetrics "fzmod/internal/metrics"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

// testServer builds a server over a small deterministic platform.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(device.NewTestPlatform(), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// testFieldBytes renders a synthetic field as the daemon's wire format.
func testFieldBytes(t *testing.T, dims grid.Dims) ([]float32, []byte) {
	t.Helper()
	vals := sdrbench.GenHURR(dims, 7)
	var buf bytes.Buffer
	if err := device.WriteF32(&buf, vals, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	return vals, buf.Bytes()
}

func doPost(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func doReq(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// decodeF32 parses a little-endian float32 response body.
func decodeF32(t *testing.T, blob []byte) []float32 {
	t.Helper()
	if len(blob)%4 != 0 {
		t.Fatalf("f32 body length %d not a multiple of 4", len(blob))
	}
	out := make([]float32, len(blob)/4)
	if err := device.ReadF32(bytes.NewReader(blob), out, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestServeCompressDecompressRoundtrip(t *testing.T) {
	_, ts := testServer(t, Config{})
	dims := grid.D3(16, 12, 10)
	vals, body := testFieldBytes(t, dims)

	resp, blob := doPost(t, ts.URL+"/v1/compress?dims=16x12x10&eb=1e-3", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d: %s", resp.StatusCode, blob)
	}
	if resp.Header.Get("X-Fzmod-Ratio") == "" {
		t.Fatal("compress response missing the ratio header")
	}
	requireTimingHeaders(t, resp)

	resp, raw := doPost(t, ts.URL+"/v1/decompress", blob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress status %d: %s", resp.StatusCode, raw)
	}
	requireTimingHeaders(t, resp)
	if got := resp.Header.Get("X-Fzmod-Dims"); got != "16x12x10" {
		t.Fatalf("X-Fzmod-Dims = %q, want 16x12x10", got)
	}
	dec := decodeF32(t, raw)
	if len(dec) != dims.N() {
		t.Fatalf("decompressed %d values, want %d", len(dec), dims.N())
	}
	if i := fzmetrics.VerifyBound(vals, dec, relResolved(t, vals, 1e-3)); i != -1 {
		t.Fatalf("bound violated at %d", i)
	}

	// A constant field under an absolute bound, cut into chunks, comes back
	// exactly.
	zero := make([]byte, 4*32*32*32)
	resp, blob = doPost(t, ts.URL+"/v1/compress?dims=32x32x32&eb=1e-3&mode=abs&chunk=8192", zero)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("zero-field compress status %d: %s", resp.StatusCode, blob)
	}
	requireTimingHeaders(t, resp)
	if resp, raw = doPost(t, ts.URL+"/v1/decompress", blob); resp.StatusCode != http.StatusOK || !bytes.Equal(raw, zero) {
		t.Fatalf("zero-field decompress: status %d, %d bytes; want the %d zero bytes sent", resp.StatusCode, len(raw), len(zero))
	}
}

// TestServeDecompressStreamArtifact: /v1/decompress takes an FZMS artifact
// like the other two flavors, and answers with the floats a full-region
// read of the same stored artifact returns.
func TestServeDecompressStreamArtifact(t *testing.T) {
	_, ts := testServer(t, Config{})
	dims := grid.D3(24, 20, 32)
	vals, body := testFieldBytes(t, dims)
	absEB := relResolved(t, vals, 1e-3)
	var fzms bytes.Buffer
	if _, err := core.NewDefault().CompressStreamCtx(context.Background(), device.NewTestPlatform(), bytes.NewReader(body), dims,
		preprocess.AbsBound(absEB), &fzms, core.StreamOpts{ChunkElems: 24 * 20 * 8}); err != nil {
		t.Fatal(err)
	}

	resp, raw := doPost(t, ts.URL+"/v1/decompress", fzms.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Fzmod-Dims"); got != "24x20x32" {
		t.Fatalf("X-Fzmod-Dims = %q, want 24x20x32", got)
	}
	if i := fzmetrics.VerifyBound(vals, decodeF32(t, raw), absEB); i != -1 {
		t.Fatalf("bound violated at %d", i)
	}

	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/v1/objects/stream", fzms.Bytes()); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status %d, want 201", resp.StatusCode)
	}
	resp, region := doReq(t, http.MethodGet, ts.URL+"/v1/objects/stream/region?sel=0:24,0:20,0:32", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("region status %d: %s", resp.StatusCode, region)
	}
	if !bytes.Equal(raw, region) {
		t.Fatal("decompress and a full-region read of the same FZMS artifact differ")
	}
}

// relResolved resolves a relative bound the way the pipeline does.
func relResolved(t *testing.T, vals []float32, rel float64) float64 {
	t.Helper()
	p := device.NewTestPlatform()
	abs, _, err := preprocess.Resolve(p, device.Host, vals, preprocess.RelBound(rel))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestServeCompressMatchesLibrary: the daemon adds nothing to the bytes. At
// every payload size — a 32³ body, one above the retired 256 KiB coalescing
// threshold, and one with an explicit chunk= — and for every preset, the
// response is the container the preset's library call returns for the same
// input, and it carries both timing headers.
func TestServeCompressMatchesLibrary(t *testing.T) {
	_, ts := testServer(t, Config{})
	p := device.NewTestPlatform()
	for _, tc := range []struct {
		dims  grid.Dims
		chunk int
	}{
		{grid.D3(32, 32, 32), 0},
		{grid.D3(48, 48, 32), 0}, // 288 KiB
		{grid.D3(24, 20, 32), 24 * 20 * 8},
	} {
		vals, body := testFieldBytes(t, tc.dims)
		for _, preset := range []string{"default", "speed", "quality"} {
			pl, err := core.PresetByName(preset)
			if err != nil {
				t.Fatal(err)
			}
			eb := preprocess.RelBound(1e-3)
			url := fmt.Sprintf("%s/v1/compress?dims=%v&eb=1e-3&preset=%s", ts.URL, tc.dims, preset)
			var want []byte
			if tc.chunk > 0 {
				url += fmt.Sprintf("&chunk=%d", tc.chunk)
				want, _, err = pl.CompressChunkedReport(p, vals, tc.dims, eb, core.ChunkOpts{ChunkElems: tc.chunk, Workers: 1})
			} else {
				want, err = pl.Compress(p.WithWorkers(1), vals, tc.dims, eb)
			}
			if err != nil {
				t.Fatal(err)
			}
			resp, got := doPost(t, url, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%v %s chunk=%d: status %d: %s", tc.dims, preset, tc.chunk, resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%v %s chunk=%d: response (%d bytes) differs from the library's container (%d bytes)",
					tc.dims, preset, tc.chunk, len(got), len(want))
			}
			requireTimingHeaders(t, resp)
		}
	}
}

// requireTimingHeaders: every data-plane reply carries the admission wait
// and the execution time.
func requireTimingHeaders(t *testing.T, resp *http.Response) {
	t.Helper()
	for _, h := range []string{"X-Fzmod-Queue-Ns", "X-Fzmod-Execute-Ns"} {
		if ns, err := strconv.ParseInt(resp.Header.Get(h), 10, 64); err != nil || ns < 0 {
			t.Errorf("%s %s: header %s = %q, want a nanosecond count", resp.Request.Method, resp.Request.URL.Path, h, resp.Header.Get(h))
		}
	}
	for h := range resp.Header {
		if h == "X-Fzmod-Flush-Ns" || h == "X-Fzmod-Batched" {
			t.Errorf("retired header %s still sent", h)
		}
	}
}

// TestServeSmallRequestFanIn: many small compresses against a small budget
// all ride the one request path — queued on their handler goroutines, never
// shed, never over budget — and the daemon owns no goroutine once drained.
func TestServeSmallRequestFanIn(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2, MaxQueue: 64, MaxWait: time.Minute})
	dims := grid.D3(16, 12, 10)
	_, body := testFieldBytes(t, dims)
	baseline := runtime.NumGoroutine()

	const clients, each = 16, 50
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	hc := &http.Client{Transport: tr}
	var (
		wg     sync.WaitGroup
		queued atomic.Int64
	)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for it := 0; it < each; it++ {
				resp, err := hc.Post(ts.URL+"/v1/compress?dims=16x12x10&eb=1e-3", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					errs[i] = err
					return
				}
				out, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs[i] = fmt.Errorf("client %d request %d: status %d: %s", i, it, resp.StatusCode, bytes.TrimSpace(out))
					return
				}
				if ns, _ := strconv.ParseInt(resp.Header.Get("X-Fzmod-Queue-Ns"), 10, 64); ns > 0 {
					queued.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if peak := s.adm.Peak(); peak > 2 {
		t.Errorf("peak %d workers leased against a budget of 2", peak)
	}
	if shed := s.adm.Shed(); shed != 0 {
		t.Errorf("%d requests shed", shed)
	}
	if got := s.adm.Granted(); got != clients*each {
		t.Errorf("%d leases granted for %d requests", got, clients*each)
	}
	if queued.Load() == 0 {
		t.Error("no reply reported a non-zero X-Fzmod-Queue-Ns")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	tr.CloseIdleConnections()
	waitFor(t, "goroutines back at baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestServeRefusesOverLimitGeometry: geometry beyond the format's hard
// limits is the client's error, refused before a byte is sliced or a lease
// taken — dims whose product wraps int used to panic the compressor (and,
// off the handler goroutine, end the process), chunk=1 on a 2^20+8-element
// field used to write an artifact no reader accepts.
func TestServeRefusesOverLimitGeometry(t *testing.T) {
	s, ts := testServer(t, Config{})
	big := make([]byte, 4*(1<<20+8)) // refused on its geometry, before the body is read
	for _, tc := range []struct {
		name, query string
		body        []byte
	}{
		{"dims product wraps to 64", "dims=4611686018427387920x4x1&eb=1e-3&mode=abs", make([]byte, 256)},
		{"dims product wraps to 0", "dims=4294967296x4294967296x1&eb=1e-3&mode=abs", nil},
		{"dims product 2^34+1 rows", "dims=17179869185x1x1&eb=1e-3&mode=abs", nil},
		{"more than 2^20 chunks", fmt.Sprintf("dims=%d&eb=1e-2&mode=abs&chunk=1", 1<<20+8), big},
	} {
		start := time.Now()
		resp, out := doPost(t, ts.URL+"/v1/compress?"+tc.query, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, bytes.TrimSpace(out))
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%s: refused only after %v", tc.name, d)
		}
		if resp, _ := doReq(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /healthz status %d afterwards", tc.name, resp.StatusCode)
		}
	}
	if g := s.adm.Granted(); g != 0 {
		t.Errorf("%d leases spent on requests that could only be refused", g)
	}
}

func TestServeProbe(t *testing.T) {
	_, ts := testServer(t, Config{})
	dims := grid.D3(24, 20, 32)
	_, body := testFieldBytes(t, dims)
	// Force a chunked container so the probe reports several chunks.
	resp, blob := doPost(t, ts.URL+fmt.Sprintf("/v1/compress?dims=24x20x32&eb=1e-3&chunk=%d", 24*20*8), body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d: %s", resp.StatusCode, blob)
	}
	resp, out := doPost(t, ts.URL+"/v1/probe", blob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe status %d: %s", resp.StatusCode, out)
	}
	var pr probeResponse
	if err := json.Unmarshal(out, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Dims != [3]int{24, 20, 32} {
		t.Fatalf("probe dims %v, want [24 20 32]", pr.Dims)
	}
	if pr.Chunks != 4 {
		t.Fatalf("probe chunks %d, want 4", pr.Chunks)
	}
	if pr.ArtifactBytes != int64(len(blob)) {
		t.Fatalf("probe artifact bytes %d, want %d", pr.ArtifactBytes, len(blob))
	}
}

func TestServeObjectsAndRegion(t *testing.T) {
	_, ts := testServer(t, Config{})
	dims := grid.D3(24, 20, 32)
	vals, body := testFieldBytes(t, dims)
	resp, blob := doPost(t, ts.URL+fmt.Sprintf("/v1/compress?dims=24x20x32&eb=1e-3&chunk=%d", 24*20*8), body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d: %s", resp.StatusCode, blob)
	}

	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/objects/field", blob)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status %d, want 201", resp.StatusCode)
	}
	resp, got := doReq(t, http.MethodGet, ts.URL+"/v1/objects/field", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, blob) {
		t.Fatalf("get returned status %d, %d bytes; want the stored container", resp.StatusCode, len(got))
	}

	// A region read crossing a chunk boundary must match the source field.
	resp, raw := doReq(t, http.MethodGet, ts.URL+"/v1/objects/field/region?sel=2:14,3:17,6:26", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("region status %d: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("X-Fzmod-Region-Chunks") == "" {
		t.Fatal("region response missing chunk accounting headers")
	}
	requireTimingHeaders(t, resp)
	dec := decodeF32(t, raw)
	if len(dec) != 12*14*20 {
		t.Fatalf("region returned %d values, want 12x14x20", len(dec))
	}
	absEB := relResolved(t, vals, 1e-3)
	i := 0
	for z := 6; z < 26; z++ {
		for y := 3; y < 17; y++ {
			for x := 2; x < 14; x++ {
				want := vals[(z*20+y)*24+x]
				diff := float64(dec[i]) - float64(want)
				if diff < -absEB || diff > absEB {
					t.Fatalf("region value (%d,%d,%d) = %g, want within %g of %g", x, y, z, dec[i], absEB, want)
				}
				i++
			}
		}
	}

	// Repeat read: served from the shared slab cache.
	doReq(t, http.MethodGet, ts.URL+"/v1/objects/field/region?sel=2:14,3:17,6:26", nil)
	resp, metricsOut := doReq(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if !strings.Contains(string(metricsOut), "fzmodd_slab_cache_hits_total") {
		t.Fatal("metrics missing slab cache counters")
	}

	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/objects/field", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d, want 204", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/v1/objects/field", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete status %d, want 404", resp.StatusCode)
	}
}

// TestServeRegionReusesStoredIndex: a PUT opens the object's index once,
// and region GETs read through that open Region instead of re-opening it.
func TestServeRegionReusesStoredIndex(t *testing.T) {
	s, ts := testServer(t, Config{})
	_, body := testFieldBytes(t, grid.D3(24, 20, 32))
	_, blob := doPost(t, ts.URL+fmt.Sprintf("/v1/compress?dims=24x20x32&eb=1e-3&chunk=%d", 24*20*8), body)
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/v1/objects/field", blob); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status %d, want 201", resp.StatusCode)
	}
	// Re-seat the stored object's reader on a counting fetcher: a GET that
	// reads through it shows exactly one read per decoded chunk; one that
	// re-opened the index would show none, or the index reads on top.
	cf := fzio.NewCountingFetcher(fzio.NewBytesFetcher(blob))
	reg, err := core.OpenRegion(s.p, cf, core.RegionOpts{Cache: s.cache})
	if err != nil {
		t.Fatal(err)
	}
	s.objMu.Lock()
	obj := s.objects["field"]
	if obj.reg == nil {
		t.Fatal("PUT stored no open region")
	}
	obj.reg = reg
	s.objects["field"] = obj
	s.objMu.Unlock()
	opened := cf.Reads()

	resp, raw := doReq(t, http.MethodGet, ts.URL+"/v1/objects/field/region?sel=0:24,0:20,4:20", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("region status %d: %s", resp.StatusCode, raw)
	}
	decoded, _ := strconv.Atoi(resp.Header.Get("X-Fzmod-Region-Decoded"))
	if decoded != 3 {
		t.Fatalf("region decoded %d chunks, want 3", decoded)
	}
	if got := cf.Reads() - opened; got != int64(decoded) {
		t.Errorf("region GET made %d reads through the stored region, want %d (one per decoded chunk)", got, decoded)
	}
}

func TestServeMalformedRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	dims := grid.D3(8, 8, 8)
	_, body := testFieldBytes(t, dims)
	cases := []struct {
		name   string
		method string
		url    string
		body   []byte
	}{
		{"missing dims", http.MethodPost, "/v1/compress?eb=1e-3", body},
		{"bad dims", http.MethodPost, "/v1/compress?dims=0x8x8&eb=1e-3", body},
		{"zero dims", http.MethodPost, "/v1/compress?dims=0x0x0&eb=1e-3", body},
		{"missing eb", http.MethodPost, "/v1/compress?dims=8x8x8", body},
		{"negative eb", http.MethodPost, "/v1/compress?dims=8x8x8&eb=-1", body},
		{"bad mode", http.MethodPost, "/v1/compress?dims=8x8x8&eb=1e-3&mode=wat", body},
		{"bad preset", http.MethodPost, "/v1/compress?dims=8x8x8&eb=1e-3&preset=wat", body},
		{"bad workers", http.MethodPost, "/v1/compress?dims=8x8x8&eb=1e-3&workers=0", body},
		{"short body", http.MethodPost, "/v1/compress?dims=8x8x8&eb=1e-3", body[:100]},
		{"long body", http.MethodPost, "/v1/compress?dims=8x8x8&eb=1e-3", append(body, 0)},
		{"junk decompress", http.MethodPost, "/v1/decompress", []byte("not a container")},
		{"junk probe", http.MethodPost, "/v1/probe", []byte("junk")},
		{"junk object", http.MethodPut, "/v1/objects/x", []byte("junk")},
		{"nested object name", http.MethodPut, "/v1/objects/a/b", body},
	}
	for _, tc := range cases {
		resp, out := doReq(t, tc.method, ts.URL+tc.url, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, bytes.TrimSpace(out))
		}
	}
	// Wrong methods are 405, missing objects 404.
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/compress?dims=8x8x8&eb=1e-3", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET compress: status %d, want 405", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/v1/objects/ghost/region?sel=0:1", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("region of missing object: status %d, want 404", resp.StatusCode)
	}
}

func TestServeRegionSelectionOutOfBounds(t *testing.T) {
	_, ts := testServer(t, Config{})
	dims := grid.D3(24, 20, 32)
	_, body := testFieldBytes(t, dims)
	_, blob := doPost(t, ts.URL+fmt.Sprintf("/v1/compress?dims=24x20x32&eb=1e-3&chunk=%d", 24*20*8), body)
	doReq(t, http.MethodPut, ts.URL+"/v1/objects/f", blob)
	for _, sel := range []string{"0:100", "5:2", "0:4,0:4,0:4,0:4", "a:b"} {
		resp, out := doReq(t, http.MethodGet, ts.URL+"/v1/objects/f/region?sel="+sel, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sel %q: status %d, want 400 (%s)", sel, resp.StatusCode, bytes.TrimSpace(out))
		}
	}
}

// TestServeRegionBadSelCostsNoLease: with the whole budget in use, a
// region request that can only ever be a 400 is refused at once — it used
// to queue for a lease first.
func TestServeRegionBadSelCostsNoLease(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, MaxQueue: 8, MaxWait: -1})
	dims := grid.D3(24, 20, 32)
	_, body := testFieldBytes(t, dims)
	_, blob := doPost(t, ts.URL+"/v1/compress?dims=24x20x32&eb=1e-3", body)
	doReq(t, http.MethodPut, ts.URL+"/v1/objects/f", blob)

	hold, err := s.adm.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()
	for _, sel := range []string{"9:3", "0:100", "a:b"} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/objects/f/region?sel="+sel, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatalf("sel %q: %v (queue depth %d: the request is waiting for a lease)", sel, err, s.adm.QueueDepth())
		}
		resp.Body.Close()
		cancel()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sel %q: status %d, want 400", sel, resp.StatusCode)
		}
		if d := s.adm.QueueDepth(); d != 0 {
			t.Errorf("sel %q: queue depth %d, want 0", sel, d)
		}
	}
	if g := s.adm.Granted(); g != 2 { // the compress above and the held lease
		t.Errorf("%d leases granted, want 2: a refused selection cost one", g)
	}
}

func TestServeShedsWith429(t *testing.T) {
	// Budget 1, no queue: a held lease sheds everyone else.
	s, ts := testServer(t, Config{Workers: 1, MaxQueue: -1})
	lease, err := s.adm.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	dims := grid.D3(8, 8, 8)
	_, body := testFieldBytes(t, dims)
	resp, out := doPost(t, ts.URL+"/v1/compress?dims=8x8x8&eb=1e-3", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, bytes.TrimSpace(out))
	}
	lease.Release()
	resp, out = doPost(t, ts.URL+"/v1/compress?dims=8x8x8&eb=1e-3", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after release (%s), want 200", resp.StatusCode, bytes.TrimSpace(out))
	}
	if s.adm.Shed() != 1 {
		t.Fatalf("shed %d, want 1", s.adm.Shed())
	}
}

// TestServeRequestTimeoutAbortsGraph: the ISSUE's cancellation
// acceptance — an in-flight request's deadline aborts its task graph
// mid-flight with 503, and the shared pool still balances (no slab leak,
// no stuck workers).
func TestServeRequestTimeoutAbortsGraph(t *testing.T) {
	s, ts := testServer(t, Config{RequestTimeout: time.Nanosecond})
	// A small body — the case that used to leave the handler goroutine —
	// and one above the retired coalescing threshold.
	for _, dims := range []grid.Dims{grid.D3(16, 12, 10), grid.D3(48, 48, 32)} {
		_, body := testFieldBytes(t, dims)
		resp, out := doPost(t, fmt.Sprintf("%s/v1/compress?dims=%v&eb=1e-3", ts.URL, dims), body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%v: status %d (%s), want 503", dims, resp.StatusCode, bytes.TrimSpace(out))
		}
	}
	// The canceled graph must return every pooled slab it checked out.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.p.ScratchPool().Stats()
		if st.Gets == st.Puts {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scratch pool unbalanced after canceled request: gets=%d puts=%d", st.Gets, st.Puts)
		}
		time.Sleep(time.Millisecond)
	}
	if s.adm.InUse() != 0 {
		t.Fatalf("in use %d after canceled request, want 0", s.adm.InUse())
	}
}

func TestServeMetricsExposition(t *testing.T) {
	_, ts := testServer(t, Config{})
	dims := grid.D3(8, 8, 8)
	_, body := testFieldBytes(t, dims)
	doPost(t, ts.URL+"/v1/compress?dims=8x8x8&eb=1e-3", body)
	resp, out := doReq(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(out)
	for _, want := range []string{
		`fzmodd_requests_total{endpoint="compress"} 1`,
		"fzmodd_admission_budget",
		"fzmodd_queue_depth 0",
		"fzmodd_pool_hit_rate",
		"fzmodd_kernel_tier{tier=",
		"fzmodd_compression_ratio",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text, "fzmodd_batch") {
		t.Error("metrics still export a fzmodd_batch* series")
	}
	// Every exposition line is `name[{labels}] value` or a comment — the
	// flat-text contract scrapers rely on.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed metrics line %q", line)
		}
	}
}

// TestServeConcurrentMixedLoad drives every endpoint from many clients at
// once over one shared platform — the -race multi-tenant smoke at the
// HTTP layer.
func TestServeConcurrentMixedLoad(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 4, MaxQueue: 128, MaxWait: 30 * time.Second})
	dims := grid.D3(24, 20, 32)
	_, body := testFieldBytes(t, dims)
	url := fmt.Sprintf("/v1/compress?dims=24x20x32&eb=1e-3&chunk=%d", 24*20*8)
	_, blob := doPost(t, ts.URL+url, body)
	doReq(t, http.MethodPut, ts.URL+"/v1/objects/shared", blob)

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				var resp *http.Response
				var err error
				switch (i + it) % 3 {
				case 0:
					resp, err = http.Post(ts.URL+url, "application/octet-stream", bytes.NewReader(body))
				case 1:
					resp, err = http.Post(ts.URL+"/v1/decompress", "application/octet-stream", bytes.NewReader(blob))
				case 2:
					resp, err = http.Get(ts.URL + "/v1/objects/shared/region?sel=0:12,0:10,0:16")
				}
				if err != nil {
					errs[i] = err
					return
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs[i] = fmt.Errorf("client %d iter %d: status %d: %s", i, it, resp.StatusCode, bytes.TrimSpace(got))
					return
				}
				if want := 4 * 12 * 10 * 16; (i+it)%3 == 2 && len(got) != want {
					errs[i] = fmt.Errorf("client %d iter %d: region read returned %d bytes, want %d", i, it, len(got), want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if shed := s.adm.Shed(); shed != 0 {
		t.Fatalf("%d requests shed under a %d-deep queue", shed, 128)
	}
	if peak, budget := s.adm.Peak(), s.adm.Budget(); peak > budget {
		t.Fatalf("peak %d exceeded budget %d", peak, budget)
	}
	// A handler returns its pooled request buffers in defers that run after
	// the response is on the wire; Close waits for every handler to return,
	// so the balance below is read after the last Put, not racing it.
	ts.Close()
	st := s.p.ScratchPool().Stats()
	if st.Gets != st.Puts {
		t.Fatalf("scratch pool unbalanced: gets=%d puts=%d", st.Gets, st.Puts)
	}
}
