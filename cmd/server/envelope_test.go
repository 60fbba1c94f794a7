package main

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dftsp"
	"repro/internal/telemetry"
)

// fetchMetrics grabs /metrics as a string.
func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	return string(body)
}

// TestWrongMethodsRejectedWithAllow is the satellite acceptance table:
// every legacy route answers a wrong-method request with 405 and an Allow
// header naming the supported method.
func TestWrongMethodsRejectedWithAllow(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/synthesize", "POST"},
		{http.MethodDelete, "/synthesize", "POST"},
		{http.MethodGet, "/estimate", "POST"},
		{http.MethodGet, "/batch", "POST"},
		{http.MethodPost, "/protocols", "GET"},
		{http.MethodPost, "/stats", "GET"},
		{http.MethodPost, "/metrics", "GET"},
		{http.MethodPost, "/healthz", "GET"},
		{http.MethodPost, "/readyz", "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, tc.allow) {
			t.Errorf("%s %s: Allow %q, want it to offer %s", tc.method, tc.path, allow, tc.allow)
		}
	}
}

// TestEnvelopeHeaders checks the per-request envelope headers: /stats and
// /metrics are no-store, /metrics speaks the exposition content type, an
// inbound X-Request-Id is echoed and an absent one is generated.
func TestEnvelopeHeaders(t *testing.T) {
	ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("/stats Cache-Control = %q, want no-store", cc)
	}
	gen := resp.Header.Get("X-Request-Id")
	if len(gen) != 16 {
		t.Errorf("generated X-Request-Id %q, want 16 hex chars", gen)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("X-Request-Id", "req-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("/metrics Cache-Control = %q, want no-store", cc)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want the 0.0.4 exposition type", ct)
	}
	if id := resp.Header.Get("X-Request-Id"); id != "req-42" {
		t.Errorf("X-Request-Id = %q, want the inbound id echoed", id)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the access logger writes from
// handler goroutines while the test polls the contents.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLogLine checks the structured access-log line: method, path,
// status, duration, request id, client and shed flag.
func TestAccessLogLine(t *testing.T) {
	var buf syncBuffer
	srv := newServer(dftsp.NewService(2), serverConfig{accessLog: log.New(&buf, "", 0)})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/protocols", nil)
	req.Header.Set("X-Request-Id", "log-test-1")
	req.Header.Set("X-Client-Id", "tester")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The log line is written after the response body; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	var line string
	for {
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.Contains(l, "id=log-test-1") {
				line = l
			}
		}
		if line != "" || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if line == "" {
		t.Fatalf("no access-log line for the request; log:\n%s", buf.String())
	}
	for _, want := range []string{
		"http method=GET", "path=/protocols", "status=200",
		"dur_ms=", "client=tester", "shed=-",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("access log line %q missing %q", line, want)
		}
	}
}

// TestMetricsExposesAllSubsystems boots a server with a store and a job
// store attached, does real work, and checks that /metrics carries the
// service-cache, latency, HTTP, jobs and store families in one valid
// exposition payload — and that /stats reads the very same numbers.
func TestMetricsExposesAllSubsystems(t *testing.T) {
	dir := t.TempDir()
	svc := dftsp.NewService(2)
	if err := svc.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	if err := svc.AttachJobs(dir, ""); err != nil {
		t.Fatal(err)
	}
	srv := newServer(svc, serverConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		svc.ShutdownJobs(context.Background())
	})

	if code, _ := postJSON(t, ts.URL+"/synthesize", `{"code":"Steane"}`); code != http.StatusOK {
		t.Fatalf("synthesize: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/estimate",
		`{"options":{"code":"Steane"},"estimate":{"rates":[1e-3],"mc_shots":64}}`); code != http.StatusOK {
		t.Fatalf("estimate: %d", code)
	}

	out := fetchMetrics(t, ts.URL)
	if err := telemetry.Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		"dftsp_service_cache_misses_total 1",
		"dftsp_service_store_writes_total 1",
		"dftsp_synthesize_seconds_count 1",
		"dftsp_estimate_seconds_count 1",
		`dftsp_service_shots_sampled_total{method=`,
		`dftsp_http_requests_total{endpoint="synthesize",code="200"} 1`,
		`dftsp_http_request_seconds_bucket{endpoint=`,
		"dftsp_jobs_running 0",
		"dftsp_jobs_queue_depth 0",
		`dftsp_store_writes_total{tier="rw"} 1`,
		"dftsp_go_goroutines",
		"dftsp_service_workers 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /stats reads the same registry: its counters must agree exactly.
	var stats map[string]any
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if got := stats["misses"].(float64); got != 1 {
		t.Errorf("stats misses = %v, want 1 (same registry as /metrics)", got)
	}
	if got := stats["store_writes"].(float64); got != 1 {
		t.Errorf("stats store_writes = %v, want 1", got)
	}
	if got := stats["shots_sampled"].(float64); got != 64 {
		t.Errorf("stats shots_sampled = %v, want 64", got)
	}
}

// TestRateLimitSheds429 checks the per-client token bucket at the HTTP
// layer: a client beyond its budget gets 429 with Retry-After, a distinct
// client is unaffected, and probes stay exempt.
func TestRateLimitSheds429(t *testing.T) {
	srv := newServer(dftsp.NewService(2), serverConfig{rateLimit: 0.5, rateBurst: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	do := func(client string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/protocols", nil)
		req.Header.Set("X-Client-Id", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := do("a"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d, want 200", resp.StatusCode)
	}
	resp := do("a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive whole second", resp.Header.Get("Retry-After"))
	}
	if resp := do("b"); resp.StatusCode != http.StatusOK {
		t.Errorf("distinct client: %d, want 200 (buckets must be per client)", resp.StatusCode)
	}
	// Probes and metrics scrapes bypass the limiter entirely.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		for i := 0; i < 3; i++ {
			r, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if r.StatusCode == http.StatusTooManyRequests {
				t.Fatalf("%s was rate limited; probes must be exempt", path)
			}
		}
	}
	if out := fetchMetrics(t, ts.URL); !strings.Contains(out,
		`dftsp_http_shed_total{endpoint="protocols",reason="ratelimit"} 1`) {
		t.Errorf("shed counter missing from /metrics:\n%s", out)
	}
}

// TestQueueBoundSheds429 checks the bounded admission queue end to end:
// with max-inflight 1 and no queue, a second concurrent request on the same
// endpoint is shed with 429 + Retry-After while the first completes
// normally. The first request is held in-flight deterministically by
// streaming its body slowly through a pipe.
func TestQueueBoundSheds429(t *testing.T) {
	srv := newServer(dftsp.NewService(2), serverConfig{maxInflight: 1, maxQueue: 0})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	pr, pw := io.Pipe()
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/synthesize", "application/json", pr)
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()

	// Wait until the first request occupies the endpoint's only slot —
	// visible through the (exempt) metrics endpoint.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(fetchMetrics(t, ts.URL), "dftsp_http_inflight_synthesize 1") {
		if time.Now().After(deadline) {
			t.Fatal("first request never showed up in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, _ := postJSON(t, ts.URL+"/synthesize", `{"code":"Steane"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("concurrent request: %d, want 429", code)
	}

	// Releasing the body lets the first request finish as a normal 200.
	if _, err := pw.Write([]byte(`{"code":"Steane"}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if got := <-firstDone; got != http.StatusOK {
		t.Fatalf("held request finished with %d, want 200", got)
	}
	if out := fetchMetrics(t, ts.URL); !strings.Contains(out,
		`dftsp_http_shed_total{endpoint="synthesize",reason="queue"} 1`) {
		t.Errorf("queue shed counter missing from /metrics:\n%s", out)
	}
}

// TestReadOnlyCatalogServerServesWithoutWrites is the read-only tier
// acceptance test: a server restarted over only a read-only catalog (the
// -store-ro deployment) serves the cataloged protocol with zero SAT misses
// and zero store writes, and fresh syntheses stay memory-only.
func TestReadOnlyCatalogServerServesWithoutWrites(t *testing.T) {
	dir := t.TempDir()

	// First life: a writable server populates the catalog.
	warm := newStoreServer(t, dir, false)
	if code, _ := postJSON(t, warm.URL+"/synthesize", `{"code":"Steane"}`); code != http.StatusOK {
		t.Fatalf("populating catalog: %d", code)
	}
	warm.Close()
	files := func() int {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range ents {
			if filepath.Ext(e.Name()) == ".dfp" {
				n++
			}
		}
		return n
	}
	if files() != 1 {
		t.Fatalf("catalog holds %d protocols, want 1", files())
	}

	// Second life: read-only catalog, no writable overlay.
	svc := dftsp.NewService(2)
	if err := svc.AttachStoreTiers("", dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.WarmStart(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(svc, serverConfig{}))
	t.Cleanup(ts.Close)

	code, body := postJSON(t, ts.URL+"/synthesize", `{"code":"Steane"}`)
	if code != http.StatusOK {
		t.Fatalf("synthesize from catalog: %d", code)
	}
	if hit, _ := body["cache_hit"].(bool); !hit {
		t.Error("cataloged protocol was not a cache hit after warm start")
	}
	// A fresh synthesis (different options) must work but never write.
	if code, _ := postJSON(t, ts.URL+"/synthesize", `{"code":"Steane","flag_all":true}`); code != http.StatusOK {
		t.Fatalf("fresh synthesize on read-only server: %d", code)
	}

	var stats map[string]any
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if got := stats["misses"].(float64); got != 1 {
		t.Errorf("misses = %v, want 1 (only the fresh options may solve)", got)
	}
	if got := stats["store_writes"].(float64); got != 0 {
		t.Errorf("store_writes = %v, want 0 on a read-only tier", got)
	}
	if got := stats["store_write_failures"].(float64); got != 0 {
		t.Errorf("store_write_failures = %v, want 0 (read-only skips write-back)", got)
	}
	if files() != 1 {
		t.Errorf("catalog grew to %d files; a read-only tier must never be written", files())
	}
}
