package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"fzmod/internal/grid"
)

// This file tests graceful degradation: live worker-budget resizing that
// never drops queued requests, drain-aware shutdown that completes
// in-flight work, and Retry-After on every shed/unavailable response.

func TestAdmissionResizeGrowGrantsQueued(t *testing.T) {
	a := NewAdmission(2, 8, 0)
	l1, _ := a.Acquire(context.Background(), 1)
	l2, _ := a.Acquire(context.Background(), 1)

	got := make(chan *Lease, 1)
	go func() {
		l, err := a.Acquire(context.Background(), 1)
		if err != nil {
			t.Errorf("queued acquire: %v", err)
		}
		got <- l
	}()
	waitFor(t, "waiter queued", func() bool { return a.QueueDepth() == 1 })

	// Growing the budget must grant the waiter with no lease released.
	a.Resize(4)
	select {
	case l := <-got:
		l.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("resize did not grant the queued waiter")
	}
	l1.Release()
	l2.Release()
	if a.Budget() != 4 || a.InUse() != 0 {
		t.Fatalf("budget=%d inUse=%d after resize+release, want 4/0", a.Budget(), a.InUse())
	}
}

func TestAdmissionResizeShrinkClampsQueued(t *testing.T) {
	a := NewAdmission(4, 8, 0)
	wide, _ := a.Acquire(context.Background(), 4)

	got := make(chan *Lease, 1)
	go func() {
		l, err := a.Acquire(context.Background(), 4) // wants the whole old budget
		if err != nil {
			t.Errorf("queued acquire: %v", err)
		}
		got <- l
	}()
	waitFor(t, "waiter queued", func() bool { return a.QueueDepth() == 1 })

	// Shrink below the waiter's ask: it must be clamped, not starved —
	// once the wide lease releases, it runs at the new budget's width.
	a.Resize(2)
	wide.Release()
	select {
	case l := <-got:
		if l.Workers() != 2 {
			t.Fatalf("post-shrink lease width = %d, want clamped to 2", l.Workers())
		}
		l.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("queued waiter starved by shrink")
	}
	if a.InUse() != 0 {
		t.Fatalf("inUse = %d after all releases", a.InUse())
	}
}

func TestServerDrainCompletesInFlight(t *testing.T) {
	// One worker, infinite queue patience: a held lease pins a request in
	// flight deterministically.
	s, ts := testServer(t, Config{Workers: 1, MaxQueue: 8, MaxWait: -1})
	dims := grid.D3(16, 12, 10)
	_, body := testFieldBytes(t, dims)

	hold, err := s.Admission().Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp *http.Response
		body []byte
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/compress?dims=16x12x10&eb=1e-3", "application/octet-stream", strings.NewReader(string(body)))
		var out []byte
		if err == nil {
			out, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		inflight <- result{resp, out, err}
	}()
	waitFor(t, "request in flight", func() bool { return s.InFlight() == 1 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, "draining flag", func() bool { return s.Draining() })

	// Mid-drain: data plane refuses with 503 + Retry-After, readiness
	// flips, liveness and metrics stay up.
	resp, _ := doPost(t, ts.URL+"/v1/compress?dims=16x12x10&eb=1e-3", body)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("mid-drain compress: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("mid-drain readyz: status %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-drain healthz: status %d, liveness must survive draining", resp.StatusCode)
	}
	resp, metricsBody := doReq(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(metricsBody), "fzmodd_draining 1") {
		t.Fatalf("mid-drain metrics: status %d, draining gauge missing", resp.StatusCode)
	}

	// The in-flight request must complete, not be dropped: hand it the
	// worker and both it and the drain finish.
	hold.Release()
	r := <-inflight
	if r.err != nil || r.resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request during drain: %v, status %v", r.err, r.resp)
	}
	if len(r.body) == 0 {
		t.Fatal("in-flight compress returned an empty container")
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if s.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", s.InFlight())
	}
}

func TestServerDrainDeadline(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, MaxQueue: 8, MaxWait: -1})
	dims := grid.D3(16, 12, 10)
	_, body := testFieldBytes(t, dims)

	hold, _ := s.Admission().Acquire(context.Background(), 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		doPost(t, ts.URL+"/v1/compress?dims=16x12x10&eb=1e-3", body)
	}()
	waitFor(t, "request in flight", func() bool { return s.InFlight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("Drain returned nil with a request still pinned in flight")
	}
	hold.Release() // let the request and the test server shut down cleanly
	<-done
}

func TestRetryAfterOnShed(t *testing.T) {
	// MaxQueue -1 sheds immediately once the budget is leased out.
	s, ts := testServer(t, Config{Workers: 1, MaxQueue: -1})
	dims := grid.D3(16, 12, 10)
	_, body := testFieldBytes(t, dims)

	hold, err := s.Admission().Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Release()
	resp, out := doPost(t, ts.URL+"/v1/compress?dims=16x12x10&eb=1e-3", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d (%s), want 429", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestAdminBudgetEndpoint(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})

	resp, out := doPost(t, ts.URL+"/v1/admin/budget?workers=5", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), `"budget":5`) {
		t.Fatalf("budget resize: status %d body %s", resp.StatusCode, out)
	}
	if s.Admission().Budget() != 5 {
		t.Fatalf("budget = %d after admin resize, want 5", s.Admission().Budget())
	}
	resp, out = doReq(t, http.MethodGet, ts.URL+"/v1/admin/budget", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), `"budget":5`) {
		t.Fatalf("budget read-back: status %d body %s", resp.StatusCode, out)
	}
	resp, _ = doPost(t, ts.URL+"/v1/admin/budget?workers=zero", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad workers value: status %d, want 400", resp.StatusCode)
	}
	resp, metricsBody := doReq(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(metricsBody), "fzmodd_admission_budget 5") {
		t.Fatal("resized budget not visible in /metrics")
	}
}

// waitFor polls cond up to 5s; the chaos and drain tests use it instead
// of bare sleeps so they stay fast when the condition is already true.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(fmt.Sprintf("timed out waiting for %s", what))
}
