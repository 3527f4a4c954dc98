package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"fzmod"
	"fzmod/internal/device"
	"fzmod/internal/grid"
	"fzmod/internal/preprocess"
	"fzmod/internal/sdrbench"
)

// serveEnv is a set-up serve-mix workload: an in-process fzmodd behind an
// httptest server, the two request payloads, one stored object, and the
// first iteration's responses every later one is checked against.
type serveEnv struct {
	d      *daemon
	ts     *httptest.Server
	client *http.Client
	seed   int64

	small     []float32
	smallBlob []byte // first small container

	large     []float32
	largeDims grid.Dims
	largeEB   float64   // absolute bound of the large field
	largeBlob []byte    // first large container; also the stored object
	ref       []float32 // first /v1/decompress response
	refCRC    uint32
}

const (
	serveRelEB  = 1e-4
	serveObject = "field"
)

// setupServe is one set-up cycle of serve-mix: generate both fields, start
// the daemon, produce the reference responses, store the object and warm
// every request class. wrap (tests only) may put a fault in front of the
// daemon.
func setupServe(seed int64, quick bool, wrap func(http.Handler) http.Handler) (*serveEnv, error) {
	e := &serveEnv{d: newDaemon(), seed: seed}
	e.small = sdrbench.Generate(sdrbench.NYX, serveSmallDims, seed)
	if quick {
		e.large, e.largeDims = generate(sdrbench.NYX, serveLargeDimsQuick, 1, seed+1)
	} else {
		e.large, e.largeDims = generate(sdrbench.NYX, serveLargeDims, serveLargeStack, seed+1)
	}
	h := e.d.handler()
	if wrap != nil {
		h = wrap(h)
	}
	e.ts = httptest.NewServer(h)
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}}

	var err error
	if e.largeEB, _, err = preprocess.Resolve(e.d.p, device.Accel, e.large, fzmod.Rel(serveRelEB)); err != nil {
		return nil, err
	}
	if e.smallBlob, _, _, err = e.post(e.compressURL(serveSmallDims, ""), f32bytes(e.small)); err != nil {
		return nil, fmt.Errorf("first small compress: %w", err)
	}
	if e.largeBlob, _, _, err = e.post(e.largeURL(), f32bytes(e.large)); err != nil {
		return nil, fmt.Errorf("first large compress: %w", err)
	}
	raw, _, _, err := e.post(e.ts.URL+"/v1/decompress", e.largeBlob)
	if err != nil {
		return nil, fmt.Errorf("first decompress: %w", err)
	}
	e.ref, e.refCRC = device.BytesF32(raw), crc32.ChecksumIEEE(raw)
	if len(e.ref) != len(e.large) || fzmod.VerifyBound(e.large, e.ref, e.largeEB) != -1 {
		return nil, errors.New("first decompress: bound violated")
	}
	if _, _, _, err := e.do(http.MethodPut, e.ts.URL+"/v1/objects/"+serveObject, e.largeBlob, http.StatusCreated); err != nil {
		return nil, fmt.Errorf("storing object: %w", err)
	}
	warm := client{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < warmupOps; i++ {
		for _, op := range []serveOp{e.smallOp, e.largeOp, e.regionOp, e.decompressOp(nil)} {
			if _, _, err := op(warm, i); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	e.ts.Close()
	if err := e.d.close(); err != nil {
		logf("daemon drain: %v", err)
	}
}

func (e *serveEnv) compressURL(d grid.Dims, extra string) string {
	return fmt.Sprintf("%s/v1/compress?dims=%dx%dx%d&eb=%g%s", e.ts.URL, d.X, d.Y, d.Z, serveRelEB, extra)
}

// largeURL leases the daemon's full default budget and chunks the field in 8.
func (e *serveEnv) largeURL() string {
	return e.compressURL(e.largeDims, fmt.Sprintf("&workers=%d&chunk=%d", serveClients, e.largeDims.N()/8))
}

// do sends one request and reads the whole reply; the duration covers both.
// Any status but want — 429 and 503 included — is an error.
func (e *serveEnv) do(method, url string, body []byte, want int) ([]byte, http.Header, time.Duration, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, err
	}
	t := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, nil, time.Since(t), err
	}
	out, err := io.ReadAll(resp.Body)
	d := time.Since(t)
	resp.Body.Close()
	if err != nil {
		return nil, nil, d, err
	}
	if resp.StatusCode != want {
		return nil, nil, d, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, resp.Header, d, nil
}

func (e *serveEnv) post(url string, body []byte) ([]byte, http.Header, time.Duration, error) {
	return e.do(http.MethodPost, url, body, http.StatusOK)
}

// The four request classes. Each op returns the client-side latency and the
// response headers (the daemon's own queue/flush/execute split rides there).

func (e *serveEnv) smallOp(client, int) (time.Duration, http.Header, error) {
	blob, h, d, err := e.post(e.compressURL(serveSmallDims, ""), f32bytes(e.small))
	if err == nil && !bytes.Equal(blob, e.smallBlob) {
		err = errors.New("small: container bytes differ from the first iteration's")
	}
	return d, h, err
}

func (e *serveEnv) largeOp(client, int) (time.Duration, http.Header, error) {
	blob, h, d, err := e.post(e.largeURL(), f32bytes(e.large))
	if err == nil && !bytes.Equal(blob, e.largeBlob) {
		err = errors.New("large: container bytes differ from the first iteration's")
	}
	return d, h, err
}

// regionOp reads half of one z-plane of the stored object at a seeded offset.
func (e *serveEnv) regionOp(c client, _ int) (time.Duration, http.Header, error) {
	sel := fzmod.FullRegion(e.largeDims)
	sel.X1 = e.largeDims.X / 2
	sel.Z0 = c.rng.Intn(e.largeDims.Z)
	sel.Z1 = sel.Z0 + 1
	raw, h, d, err := e.do(http.MethodGet, fmt.Sprintf("%s/v1/objects/%s/region?sel=%s", e.ts.URL, serveObject, sel), nil, http.StatusOK)
	if err != nil {
		return d, h, err
	}
	want := make([]float32, sel.Dims().N())
	copyWindow(want, sel, e.largeDims, e.ref, 0, e.largeDims.Z)
	if !bytes.Equal(raw, f32bytes(want)) {
		err = fmt.Errorf("region %v: differs from the full reconstruction's window", sel)
	}
	return d, h, err
}

// decompressOp returns the decompress op; it keeps each client's latest
// response in last (when non-nil) for the end-of-phase bound check.
func (e *serveEnv) decompressOp(last *[serveClients][]byte) serveOp {
	return func(c client, _ int) (time.Duration, http.Header, error) {
		raw, h, d, err := e.post(e.ts.URL+"/v1/decompress", e.largeBlob)
		if err != nil {
			return d, h, err
		}
		if last != nil {
			last[c.id] = raw
		}
		if crc32.ChecksumIEEE(raw) != e.refCRC {
			err = errors.New("decompress: response CRC differs from the first iteration's")
		}
		return d, h, err
	}
}

// classResult is one class phase: merged client latencies plus the daemon's
// per-request timing headers.
type classResult struct {
	phase
	starts             []time.Time
	queue, flush, exec samples // X-Fzmod-*-Ns, in ms
	bytes              int64   // raw field bytes the phase moved
}

// client is one closed-loop client of one class: its number and its seeded
// request schedule.
type client struct {
	id  int
	rng *rand.Rand
}

// serveOp sends one request of a class; see runClasses.
type serveOp func(c client, i int) (time.Duration, http.Header, error)

// serveClass is one request class of serve-mix: its share of every round,
// the raw field bytes one request moves, and its op.
type serveClass struct {
	name       string
	share      float64
	bytesPerOp int
	op         serveOp
}

// runClasses runs the classes in rounds (see inRounds). In a class's turn all
// serveClients closed-loop clients fire that class at once, each sending its
// next request when the last reply has been read; the turn ends when every
// client's slice is spent. A client keeps its schedule across rounds.
func (e *serveEnv) runClasses(lim limits, classes ...serveClass) []*classResult {
	results := make([]*classResult, len(classes))
	phases := make([]*phase, len(classes))
	shares := make([]float64, len(classes))
	clients := make([][serveClients]client, len(classes))
	for k, cl := range classes {
		results[k] = &classResult{}
		phases[k], shares[k] = &results[k].phase, cl.share
		for c := range clients[k] {
			clients[k][c] = client{c, rand.New(rand.NewSource(e.seed + int64(serveClients*k+c)))}
		}
	}
	var mu sync.Mutex
	inRounds(lim, phases, shares, func(k int, sl limits) {
		cl, res := classes[k], results[k]
		var wg sync.WaitGroup
		start := time.Now()
		for _, c := range clients[k] {
			wg.Add(1)
			go func(c client) {
				defer wg.Done()
				for i := 0; sl.more(i, start); i++ {
					at := time.Now()
					d, h, err := cl.op(c, i)
					mu.Lock()
					res.record(cl.name, d, err)
					if err == nil {
						res.starts = append(res.starts, at)
						res.bytes += int64(cl.bytesPerOp)
						res.queue = append(res.queue, headerMs(h, "X-Fzmod-Queue-Ns"))
						res.flush = append(res.flush, headerMs(h, "X-Fzmod-Flush-Ns"))
						res.exec = append(res.exec, headerMs(h, "X-Fzmod-Execute-Ns"))
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
	})
	return results
}

func headerMs(h http.Header, key string) float64 {
	ns, _ := strconv.ParseFloat(h.Get(key), 64) // absent on classes without the split → 0
	return ns / 1e6
}

// classes runs the four class phases interleaved and bound-checks the last
// decompress response of every client.
func (e *serveEnv) classes(lim limits) (small, large, region, dec *classResult) {
	var last [serveClients][]byte
	raw := 4 * e.largeDims.N()
	res := e.runClasses(lim,
		serveClass{"small", serveShares.small, 4 * serveSmallDims.N(), e.smallOp},
		serveClass{"large", serveShares.large, raw, e.largeOp},
		serveClass{"region", serveShares.region, 4 * (e.largeDims.X / 2) * e.largeDims.Y, e.regionOp},
		serveClass{"decompress", serveShares.decompress, raw, e.decompressOp(&last)})
	dec = res[3]
	for _, resp := range last {
		if resp != nil && fzmod.VerifyBound(e.large, device.BytesF32(resp), e.largeEB) != -1 {
			dec.failed++
			logf("decompress: last response violates bound %g", e.largeEB)
		}
	}
	return res[0], res[1], res[2], dec
}

// endToEnd runs the class phases with tracing off. The end-to-end names mean,
// on this workload: compress/decompress throughput of the large class as a
// client sees it, latency of the region and small classes, and ratio and PSNR
// of the large container.
func (e *serveEnv) endToEnd(lim limits) (metrics, int, int) {
	small, large, region, dec := e.classes(lim)
	// Peak RSS over a fixed request sequence with the collector off; see memoryPass.
	resume := pauseGC()
	m1, m2, m3, m4 := e.classes(limits{maxOps: memoryOps})
	rss := peakRSSMiB()
	resume()
	raw := 4 * e.largeDims.N()
	m := metrics{}
	m["compress_gbs"] = large.ms.timing("GB/s", gbs(raw))
	m["decompress_gbs"] = dec.ms.timing("GB/s", gbs(raw))
	m["region_p50_ms"] = region.ms.timing("ms", nil)
	m["small_p50_ms"] = small.ms.timing("ms", nil)
	m.set("compression_ratio", fzmod.CompressionRatio(raw, len(e.largeBlob)), "ratio")
	m.set("peak_rss_mib", rss, "MiB")
	attempted, failed := tally(&small.phase, &large.phase, &region.phase, &dec.phase, &m1.phase, &m2.phase, &m3.phase, &m4.phase)
	q, err := fzmod.Evaluate(e.d.p, e.large, e.ref)
	if err != nil {
		logf("psnr: %v", err)
		failed++
	}
	m.set("psnr_db", q.PSNR, "dB")
	return m, attempted, failed
}

// traced runs the same class phases and reports the serve.* and device.*
// layer metrics from the response headers, /metrics and the admission
// controller. The daemon's layers are only visible through what it reports,
// so each request becomes one client span with the daemon's queue, flush and
// execute durations laid out inside it as child spans.
func (e *serveEnv) traced(lim limits, tr *tracer, _ bool) (metrics, int, int) {
	s0 := e.d.stats()
	small, large, region, dec := e.classes(lim)
	s1 := e.d.stats()
	attempted, failed := tally(&small.phase, &large.phase, &region.phase, &dec.phase)

	for _, c := range []struct {
		name string
		res  *classResult
	}{{"small", small}, {"large", large}} {
		for i, total := range c.res.ms {
			tr.reported("serve."+c.name, c.res.starts[i], total, "serve",
				[]string{"batch_queue", "batch_flush", "execute"}, []float64{c.res.queue[i], c.res.flush[i], c.res.exec[i]})
		}
	}

	m := metrics{}
	m.set("serve.batch_queue_ms", small.queue.median(), "ms")
	m.set("serve.batch_flush_ms", small.flush.median(), "ms")
	m.set("serve.execute_ms", small.exec.median(), "ms")
	var overhead samples
	for i, total := range small.ms {
		overhead = append(overhead, total-small.queue[i]-small.flush[i]-small.exec[i])
	}
	m.set("serve.http_overhead_ms", overhead.median(), "ms")
	m.set("serve.small_p90_ms", small.ms.quantile(0.9), "ms")
	m.set("serve.large_p90_ms", large.ms.quantile(0.9), "ms")
	m.set("serve.region_p90_ms", region.ms.quantile(0.9), "ms")
	m["serve.decompress_p50_ms"] = dec.ms.timing("ms", nil)
	wall := small.wall + large.wall + region.wall + dec.wall
	m.set("serve.gbs", div(float64(small.bytes+large.bytes+region.bytes+dec.bytes)/1e9, wall.Seconds()), "GB/s")

	peak, shed := e.d.admission()
	m.set("serve.admission_peak", float64(peak), "count")
	m.set("serve.shed", float64(shed), "count")
	text, _, _, err := e.do(http.MethodGet, e.ts.URL+"/metrics", nil, http.StatusOK)
	attempted++
	if err != nil {
		failed++
		logf("/metrics: %v", err)
	}
	exp := parseExposition(string(text))
	bySize, byWait := exp[`fzmodd_batches_total{trigger="size"}`], exp[`fzmodd_batches_total{trigger="wait"}`]
	m.set("serve.batches_by_size", bySize, "count")
	m.set("serve.batches_by_wait", byWait, "count")
	m.set("serve.batch_fill", div(exp["fzmodd_batched_requests_total"], bySize+byWait), "count")
	m.set("serve.slab_cache_hit_rate", exp["fzmodd_slab_cache_hit_rate"], "ratio")

	ps := &productStats{ops: attempted - failed, launch: s1.KernelLaunches + s1.HostLaunches - s0.KernelLaunches - s0.HostLaunches,
		xfer: s1.BytesH2D + s1.BytesD2H - s0.BytesH2D - s0.BytesD2H}
	ps.pool.Gets, ps.pool.Hits = s1.Pool.Gets-s0.Pool.Gets, s1.Pool.Hits-s0.Pool.Hits
	ps.report(m)
	return m, attempted, failed
}

// parseExposition reads "name value" lines of the Prometheus text format.
func parseExposition(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out
}
