package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fzmod/internal/device"
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
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
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
	if resp.Header.Get("X-Fzmod-Ratio") == "" || resp.Header.Get("X-Fzmod-Queue-Ns") == "" {
		t.Fatal("compress response missing ratio/timing headers")
	}

	resp, raw := doPost(t, ts.URL+"/v1/decompress", blob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompress status %d: %s", resp.StatusCode, raw)
	}
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

func TestServeCompressBatchedAndDirectAgree(t *testing.T) {
	// Threshold between the two payload sizes: the small field batches,
	// the same field compressed with batching disabled must byte-match.
	sBatched, tsBatched := testServer(t, Config{BatchThreshold: 1 << 20})
	_, tsDirect := testServer(t, Config{BatchThreshold: -1})
	dims := grid.D3(16, 12, 10)
	_, body := testFieldBytes(t, dims)
	url := "/v1/compress?dims=16x12x10&eb=1e-3"

	respB, blobB := doPost(t, tsBatched.URL+url, body)
	respD, blobD := doPost(t, tsDirect.URL+url, body)
	if respB.StatusCode != http.StatusOK || respD.StatusCode != http.StatusOK {
		t.Fatalf("status %d / %d", respB.StatusCode, respD.StatusCode)
	}
	if respB.Header.Get("X-Fzmod-Batched") != "true" {
		t.Fatal("small payload did not take the batched path")
	}
	if respD.Header.Get("X-Fzmod-Batched") != "false" {
		t.Fatal("batching-disabled server still batched")
	}
	if !bytes.Equal(blobB, blobD) {
		t.Fatal("batched and direct compression produced different containers")
	}
	if sBatched.batch.Items() == 0 {
		t.Fatal("batcher saw no items")
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
	dec := decodeF32(t, raw)
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

func TestServeShedsWith429(t *testing.T) {
	// Budget 1, no queue, batching off: a held lease sheds everyone else.
	s, ts := testServer(t, Config{Workers: 1, MaxQueue: -1, BatchThreshold: -1})
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
	s, ts := testServer(t, Config{RequestTimeout: time.Nanosecond, BatchThreshold: -1})
	dims := grid.D3(24, 20, 32)
	_, body := testFieldBytes(t, dims)
	resp, out := doPost(t, ts.URL+"/v1/compress?dims=24x20x32&eb=1e-3", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, bytes.TrimSpace(out))
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
		"fzmodd_batches_total{trigger=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
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
