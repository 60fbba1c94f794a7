package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/dftsp"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(dftsp.NewService(2), serverConfig{}))
	t.Cleanup(ts.Close)
	return ts
}

// newTrackedServer wraps the handler so tests can observe when an in-flight
// request's handler actually returned — the observable for "client
// disconnect aborts server-side work".
func newTrackedServer(t *testing.T) (*httptest.Server, chan struct{}) {
	t.Helper()
	srv := newServer(dftsp.NewService(2), serverConfig{})
	done := make(chan struct{}, 4)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		done <- struct{}{}
	}))
	t.Cleanup(ts.Close)
	return ts, done
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func TestSynthesizeSecondRequestIsCacheHit(t *testing.T) {
	ts := newTestServer(t)

	status, first := postJSON(t, ts.URL+"/synthesize", `{"code":"Steane"}`)
	if status != http.StatusOK {
		t.Fatalf("first synthesize: status %d: %v", status, first)
	}
	if first["cache_hit"] != false {
		t.Fatalf("first request must miss the cache: %v", first)
	}
	if s, _ := first["summary"].(string); !strings.Contains(s, "Steane") {
		t.Fatalf("summary missing code name: %v", first)
	}

	// The second identical request must be served from the protocol cache
	// without re-running synthesis.
	status, second := postJSON(t, ts.URL+"/synthesize", `{"code":"Steane"}`)
	if status != http.StatusOK {
		t.Fatalf("second synthesize: status %d: %v", status, second)
	}
	if second["cache_hit"] != true {
		t.Fatalf("second identical request was not a cache hit: %v", second)
	}
	if second["summary"] != first["summary"] || second["metrics"] != first["metrics"] {
		t.Fatal("cache returned a different protocol")
	}

	// The service counters confirm exactly one synthesis ran.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats dftsp.ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Misses != 1 || stats.Hits != 1 || stats.Entries != 1 {
		t.Fatalf("stats = %+v, want exactly one miss, one hit, one entry", stats)
	}
	if stats.Failed != 0 || stats.Coalesced != 0 {
		t.Fatalf("stats = %+v, want zero failed/coalesced counters", stats)
	}
}

func TestSynthesizeQASMAndErrors(t *testing.T) {
	ts := newTestServer(t)

	status, out := postJSON(t, ts.URL+"/synthesize", `{"code":"Steane","qasm":true}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	if q, _ := out["qasm"].(string); !strings.Contains(q, "OPENQASM 2.0") {
		t.Fatalf("missing QASM export: %v", out["qasm"])
	}

	// Every invalid-options path must map to 400 via ErrBadOptions.
	for _, body := range []string{
		`{"code":"NoSuchCode"}`,
		`{"code":"Steane","surface_distance":3}`,
		`{"code":"Steane","prep":"banana"}`,
		`{"hx":["110"],"hz":["011"]}`,
	} {
		status, out = postJSON(t, ts.URL+"/synthesize", body)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %v, want 400", body, status, out)
		}
		if _, ok := out["error"]; !ok {
			t.Fatalf("error response missing error field: %v", out)
		}
	}

	status, out = postJSON(t, ts.URL+"/synthesize", `{"bogus_field":1}`)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d: %v", status, out)
	}

	resp, err := http.Get(ts.URL + "/synthesize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /synthesize: status %d", resp.StatusCode)
	}
}

func TestStatusOfMapsTheTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrap: %w", dftsp.ErrBadOptions), http.StatusBadRequest},
		{fmt.Errorf("wrap: %w", dftsp.ErrSynthesis), http.StatusUnprocessableEntity},
		{fmt.Errorf("wrap: %w", dftsp.ErrCertification), http.StatusUnprocessableEntity},
		{fmt.Errorf("wrap: %w", context.Canceled), http.StatusServiceUnavailable},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), http.StatusServiceUnavailable},
		// Cancellation wins even when the synthesis wrapper is present.
		{fmt.Errorf("%w: %w", dftsp.ErrSynthesis, context.Canceled), http.StatusServiceUnavailable},
		{errors.New("mystery"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := statusOf(tc.err); got != tc.want {
			t.Errorf("statusOf(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestEstimateEndpoint(t *testing.T) {
	ts := newTestServer(t)

	body := `{"options":{"code":"Steane"},"estimate":{"rates":[0.01],"max_order":2,"samples":500,"mc_shots":500}}`
	status, out := postJSON(t, ts.URL+"/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("estimate: status %d: %v", status, out)
	}
	if out["code"] != "Steane" || out["cache_hit"] != false {
		t.Fatalf("unexpected response envelope: %v", out)
	}
	points, ok := out["points"].([]any)
	if !ok || len(points) != 1 {
		t.Fatalf("want 1 point, got %v", out["points"])
	}
	pt := points[0].(map[string]any)
	if pl, _ := pt["pl"].(float64); pl <= 0 || pl >= 1 {
		t.Fatalf("pL = %v outside (0,1)", pt["pl"])
	}

	// A second estimate for the same code reuses the cached protocol.
	status, out = postJSON(t, ts.URL+"/estimate", body)
	if status != http.StatusOK || out["cache_hit"] != true {
		t.Fatalf("second estimate not served from cache: status %d %v", status, out)
	}

	status, out = postJSON(t, ts.URL+"/estimate", `{"options":{"code":"Steane"},"estimate":{"rates":[7]}}`)
	if status != http.StatusBadRequest {
		t.Fatalf("bad rate: status %d: %v", status, out)
	}

	// Negative shot budgets used to silently produce NaN estimates; they
	// are rejected as bad options before synthesis now.
	status, out = postJSON(t, ts.URL+"/estimate", `{"options":{"code":"Steane"},"estimate":{"rates":[0.01],"mc_shots":-5}}`)
	if status != http.StatusBadRequest {
		t.Fatalf("negative mc_shots: status %d: %v", status, out)
	}

	// Adaptive sampling: the point reports shots, rse and the Wilson CI.
	body = `{"options":{"code":"Steane"},"estimate":{"rates":[0.05],"max_order":2,"samples":500,"target_rse":0.3,"max_shots":1000000}}`
	status, out = postJSON(t, ts.URL+"/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("adaptive estimate: status %d: %v", status, out)
	}
	points, ok = out["points"].([]any)
	if !ok || len(points) != 1 {
		t.Fatalf("want 1 adaptive point, got %v", out["points"])
	}
	pt = points[0].(map[string]any)
	shots, _ := pt["shots"].(float64)
	rse, _ := pt["rse"].(float64)
	ciLo, hasLo := pt["ci_lo"].(float64)
	ciHi, hasHi := pt["ci_hi"].(float64)
	mc, _ := pt["mc"].(float64)
	if shots <= 0 || rse <= 0 || rse > 0.3 {
		t.Fatalf("adaptive point missing statistics: %v", pt)
	}
	if !hasLo || !hasHi || !(ciLo <= mc && mc <= ciHi) {
		t.Fatalf("Wilson interval missing or not bracketing: %v", pt)
	}
	if m, ok := pt["method"].(string); !ok || (m != "direct" && m != "rare") {
		t.Fatalf("adaptive point missing method: %v", pt)
	}
	if eff, ok := pt["effective_samples"].(float64); !ok || eff <= 0 || eff > shots {
		t.Fatalf("adaptive point effective_samples out of range: %v", pt)
	}
	if wv, ok := pt["weight_variance"].(float64); !ok || wv < 0 {
		t.Fatalf("adaptive point weight_variance missing or negative: %v", pt)
	}

	// A forced rare-event method samples a rate far below the direct
	// floor and labels the point accordingly.
	body = `{"options":{"code":"Steane"},"estimate":{"rates":[1e-4],"max_order":1,"target_rse":0.3,"max_shots":2000000,"method":"rare"}}`
	status, out = postJSON(t, ts.URL+"/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("rare estimate: status %d: %v", status, out)
	}
	points, ok = out["points"].([]any)
	if !ok || len(points) != 1 {
		t.Fatalf("want 1 rare point, got %v", out["points"])
	}
	pt = points[0].(map[string]any)
	if m, _ := pt["method"].(string); m != "rare" {
		t.Fatalf("rare point labeled %v", pt)
	}
	if shots, _ := pt["shots"].(float64); shots <= 0 {
		t.Fatalf("rare point not sampled: %v", pt)
	}

	// An unknown method is a client error before synthesis-priced work.
	body = `{"options":{"code":"Steane"},"estimate":{"rates":[0.05],"method":"subset"}}`
	if status, out := postJSON(t, ts.URL+"/estimate", body); status != http.StatusBadRequest {
		t.Fatalf("unknown method: status %d: %v", status, out)
	}

	// A fixed-budget estimate feeds the throughput counters checked below.
	body = `{"options":{"code":"Steane"},"estimate":{"rates":[0.05],"max_order":1,"mc_shots":500}}`
	if status, out := postJSON(t, ts.URL+"/estimate", body); status != http.StatusOK {
		t.Fatalf("fixed-budget estimate: status %d: %v", status, out)
	}
	// The engine option is gone: every shot runs on the batch engine, and a
	// request that still names one is an unknown field.
	for _, engine := range []string{"scalar", "batch"} {
		body = `{"options":{"code":"Steane"},"estimate":{"rates":[0.05],"mc_shots":500,"engine":"` + engine + `"}}`
		if status, out := postJSON(t, ts.URL+"/estimate", body); status != http.StatusBadRequest {
			t.Fatalf("engine %q: status %d: %v", engine, status, out)
		}
	}

	// The estimation volume above must surface as operator-visible
	// throughput counters on /stats.
	var stats dftsp.ServiceStats
	if status := getJSON(t, ts.URL+"/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	if stats.ShotsSampled < 500 {
		t.Fatalf("shots_sampled = %d, want at least the 500-shot fixed budget", stats.ShotsSampled)
	}
	if stats.ShotsPerSec <= 0 {
		t.Fatalf("shots_per_sec = %g, want > 0 after sampling", stats.ShotsPerSec)
	}
}

func TestEstimateBiasedNoiseModel(t *testing.T) {
	ts := newTestServer(t)

	// A biased estimate is served and echoes the resolved model, with the
	// defaulted one-field spelled out.
	body := `{"options":{"code":"Steane"},"estimate":{"rates":[0.01],"max_order":2,"samples":500,"mc_shots":500,"bias_2q":2,"eta":4}}`
	status, out := postJSON(t, ts.URL+"/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("biased estimate: status %d: %v", status, out)
	}
	nb, ok := out["noise_bias"].(map[string]any)
	if !ok {
		t.Fatalf("biased estimate missing noise_bias echo: %v", out)
	}
	if nb["bias_2q"] != 2.0 || nb["bias_meas"] != 1.0 || nb["eta"] != 4.0 {
		t.Fatalf("noise_bias echo = %v, want bias_2q 2, bias_meas 1, eta 4", nb)
	}

	// The uniform model omits the echo entirely, including when the caller
	// spells out the defaults.
	body = `{"options":{"code":"Steane"},"estimate":{"rates":[0.01],"max_order":2,"samples":500,"bias_2q":1,"bias_meas":1,"eta":1}}`
	status, out = postJSON(t, ts.URL+"/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("uniform estimate: status %d: %v", status, out)
	}
	if _, ok := out["noise_bias"]; ok {
		t.Fatalf("uniform estimate carries a noise_bias echo: %v", out)
	}

	// Invalid multipliers and a scaled rate reaching 1 are client errors
	// before synthesis-priced work.
	for _, bad := range []string{
		`{"options":{"code":"Steane"},"estimate":{"rates":[0.01],"bias_2q":-3}}`,
		`{"options":{"code":"Steane"},"estimate":{"rates":[0.01],"eta":-1}}`,
		`{"options":{"code":"Steane"},"estimate":{"rates":[0.2],"bias_2q":5,"mc_shots":100}}`,
	} {
		if status, out := postJSON(t, ts.URL+"/estimate", bad); status != http.StatusBadRequest {
			t.Fatalf("bad model %s: status %d: %v", bad, status, out)
		}
	}
}

func TestEstimateClientDisconnectAbortsWork(t *testing.T) {
	ts, done := newTrackedServer(t)

	// Without cancellation this request samples for minutes; the client
	// hangs up after 100ms and the handler must return almost immediately.
	body := `{"options":{"code":"Steane"},"estimate":{"rates":[0.01],"max_order":2,"samples":100,"mc_shots":500000000}}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/estimate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()

	if err := <-errc; err == nil {
		t.Fatal("cancelled request unexpectedly completed")
	}
	select {
	case <-done:
		// Handler returned: the in-flight Monte-Carlo was aborted.
	case <-time.After(3 * time.Second):
		t.Fatal("handler still running 3s after client disconnect")
	}
}

// batchEvent mirrors the NDJSON event schema for decoding in tests.
type batchEvent struct {
	Index    int    `json:"index"`
	Status   string `json:"status"`
	Code     string `json:"code"`
	Params   string `json:"params"`
	Summary  string `json:"summary"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error"`
	Elapsed  int64  `json:"elapsed_ms"`
}

func TestBatchStreamsNDJSONPerItemEvents(t *testing.T) {
	ts := newTestServer(t)

	body := `{"items":[{"code":"Steane"},{"code":"Shor"},{"code":"Surface"}]}`
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}

	events := map[int][]batchEvent{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev batchEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		events[ev.Index] = append(events[ev.Index], ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	wantCodes := map[int]string{0: "Steane", 1: "Shor", 2: "Surface"}
	for i := 0; i < 3; i++ {
		evs := events[i]
		if len(evs) != 3 {
			t.Fatalf("item %d: %d events %v, want queued/synthesizing/done", i, len(evs), evs)
		}
		if evs[0].Status != dftsp.BatchQueued || evs[1].Status != dftsp.BatchSynthesizing || evs[2].Status != dftsp.BatchDone {
			t.Fatalf("item %d: event sequence %v", i, evs)
		}
		last := evs[2]
		if last.Code != wantCodes[i] || last.Params == "" || last.Summary == "" {
			t.Fatalf("item %d: done event incomplete: %+v", i, last)
		}
	}

	// Invalid batches are rejected up front with 400.
	status, _ := postJSON(t, ts.URL+"/batch", `{"items":[]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", status)
	}
}

func TestBatchCancelStopsPendingSATWork(t *testing.T) {
	ts, done := newTrackedServer(t)

	// Tetrahedral synthesis runs for seconds; cancelling the request
	// context must stop the pending SAT work and return the handler.
	body := `{"items":[{"code":"Tetrahedral"},{"code":"Carbon"}]}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			// Stream until the disconnect propagates.
			_, err = bufio.NewReader(resp.Body).ReadString(0)
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(150 * time.Millisecond)
	start := time.Now()
	cancel()
	<-errc

	select {
	case <-done:
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("handler took %v to abort after cancel", elapsed)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("batch handler still running 3s after cancel; SAT work not stopped")
	}
}

// getJSON decodes a GET response body into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

// newStoreServer builds a test server whose service persists protocols in
// dir, optionally warm-started — the restart scenario of -store-dir.
func newStoreServer(t *testing.T, dir string, warm bool) *httptest.Server {
	t.Helper()
	svc := dftsp.NewService(2)
	if err := svc.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	if warm {
		if _, _, err := svc.WarmStart(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(newServer(svc, serverConfig{}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRestartedServerServesFromDiskWithoutSolving is the acceptance test of
// the persistent store: a protocol synthesized before a "restart" must be
// served afterwards without the SAT solver ever running, observable as
// misses == 0 alongside a non-zero disk_hits / preloaded counter in /stats.
func TestRestartedServerServesFromDiskWithoutSolving(t *testing.T) {
	dir := t.TempDir()

	ts1 := newStoreServer(t, dir, true)
	status, first := postJSON(t, ts1.URL+"/synthesize", `{"code":"Steane"}`)
	if status != http.StatusOK || first["cache_hit"] != false {
		t.Fatalf("first synthesize: status %d: %v", status, first)
	}
	var stats dftsp.ServiceStats
	getJSON(t, ts1.URL+"/stats", &stats)
	if stats.Misses != 1 || stats.StoreWrites != 1 {
		t.Fatalf("first server stats: %+v", stats)
	}
	ts1.Close()

	// Cold restart without warm start: the request is served by a disk
	// read, not a synthesis.
	ts2 := newStoreServer(t, dir, false)
	status, out := postJSON(t, ts2.URL+"/synthesize", `{"code":"Steane"}`)
	if status != http.StatusOK {
		t.Fatalf("synthesize after restart: status %d: %v", status, out)
	}
	if out["cache_hit"] != true || out["summary"] != first["summary"] {
		t.Fatalf("restart did not serve the stored protocol: %v", out)
	}
	getJSON(t, ts2.URL+"/stats", &stats)
	if stats.Misses != 0 || stats.DiskHits != 1 {
		t.Fatalf("restarted server ran the solver: %+v", stats)
	}

	// Warm restart: the protocol is preloaded at boot and the request is a
	// pure memory hit — still zero syntheses.
	ts3 := newStoreServer(t, dir, true)
	status, out = postJSON(t, ts3.URL+"/synthesize", `{"code":"Steane"}`)
	if status != http.StatusOK || out["cache_hit"] != true {
		t.Fatalf("warm restart: status %d: %v", status, out)
	}
	getJSON(t, ts3.URL+"/stats", &stats)
	if stats.Misses != 0 || stats.Preloaded != 1 || stats.Hits != 1 {
		t.Fatalf("warm-restarted server stats: %+v", stats)
	}
}

func TestProtocolsEndpointListsMemoryAndStore(t *testing.T) {
	dir := t.TempDir()
	ts := newStoreServer(t, dir, false)

	var listing struct {
		Count     int                  `json:"count"`
		Protocols []dftsp.ProtocolInfo `json:"protocols"`
	}
	if status := getJSON(t, ts.URL+"/protocols", &listing); status != http.StatusOK {
		t.Fatalf("GET /protocols: status %d", status)
	}
	if listing.Count != 0 {
		t.Fatalf("empty server lists %d protocols", listing.Count)
	}

	postJSON(t, ts.URL+"/synthesize", `{"code":"Steane"}`)
	if status := getJSON(t, ts.URL+"/protocols", &listing); status != http.StatusOK {
		t.Fatalf("GET /protocols: status %d", status)
	}
	if listing.Count != 1 || len(listing.Protocols) != 1 {
		t.Fatalf("listing = %+v", listing)
	}
	p := listing.Protocols[0]
	if p.Code != "Steane" || p.Params != "[[7,1,3]]" || !p.InMemory || !p.OnDisk {
		t.Fatalf("protocol row = %+v", p)
	}

	resp, err := http.Post(ts.URL+"/protocols", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /protocols: status %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
}

// newJobsServer builds a server with jobs (and optionally the protocol
// store) attached to dir, returning the service for direct inspection.
func newJobsServer(t *testing.T, dir string) (*httptest.Server, *dftsp.Service, *server) {
	t.Helper()
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
	return ts, svc, srv
}

func TestReadyzTracksDrainState(t *testing.T) {
	svc := dftsp.NewService(2)
	srv := newServer(svc, serverConfig{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	get := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	status, body := get()
	if status != http.StatusOK || body["ok"] != true {
		t.Fatalf("ready server: %d %v", status, body)
	}
	if body["jobs"] != false || body["store"] != false {
		t.Fatalf("memory-only server reports attached layers: %v", body)
	}

	srv.setReady(false)
	if status, body = get(); status != http.StatusServiceUnavailable || body["ok"] != true {
		if status != http.StatusServiceUnavailable {
			t.Fatalf("draining server: status %d, want 503", status)
		}
	}

	// Liveness stays green while draining.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
}

func TestJobsRoutesAbsentWithoutJobStore(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /jobs without a job store: status %d, want 404", resp.StatusCode)
	}
}

func TestJobsEndToEnd(t *testing.T) {
	ts, _, _ := newJobsServer(t, t.TempDir())

	// Submit: the /estimate request shape, accepted asynchronously.
	body := `{"options":{"code":"Steane"},"estimate":{"rates":[0.03],"mc_shots":9000,"seed":5}}`
	status, sub := postJSON(t, ts.URL+"/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d: %v", status, sub)
	}
	id, _ := sub["id"].(string)
	if len(id) != 32 {
		t.Fatalf("job id %q is not a content address", id)
	}

	// Stream events until the job settles: first line is the status
	// snapshot, the rest are events ending in a terminal one.
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s/events: status %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("event stream ended before the status line")
	}
	var snap map[string]any
	if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
		t.Fatalf("status line: %v", err)
	}
	if snap["id"] != id {
		t.Fatalf("status line for job %v, want %s", snap["id"], id)
	}
	sawTerminal := ""
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		switch ev["type"] {
		case "done", "failed", "cancelled", "paused":
			sawTerminal, _ = ev["type"].(string)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// The stream may have attached after the job settled (zero events) —
	// but if any terminal event arrived it must be "done".
	if sawTerminal != "" && sawTerminal != "done" {
		t.Fatalf("terminal event %q, want done", sawTerminal)
	}

	// Status: settled as done, with per-point results.
	status, st := postJSONGet(t, ts.URL+"/jobs/"+id)
	if status != http.StatusOK || st["state"] != "done" {
		t.Fatalf("GET /jobs/%s: status %d state %v (%v)", id, status, st["state"], st["error"])
	}
	points, _ := st["points"].([]any)
	if len(points) != 1 {
		t.Fatalf("job has %d points, want 1", len(points))
	}
	pt, _ := points[0].(map[string]any)
	if pt["done"] != true || pt["shots"] != float64(9000) {
		t.Fatalf("point not finished with the full budget: %v", pt)
	}

	// List: exactly this job.
	status, list := postJSONGet(t, ts.URL+"/jobs")
	if status != http.StatusOK || list["count"] != float64(1) {
		t.Fatalf("GET /jobs: status %d body %v", status, list)
	}

	// Resubmitting the identical request attaches to the finished job.
	status, again := postJSON(t, ts.URL+"/jobs", body)
	if status != http.StatusAccepted || again["id"] != id || again["state"] != "done" {
		t.Fatalf("resubmit: status %d body %v", status, again)
	}

	// The job's result matches a plain /estimate of the same options
	// bit-for-bit (shared seed derivation and pooled-count finisher).
	status, est := postJSON(t, ts.URL+"/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("estimate: status %d: %v", status, est)
	}
	epts, _ := est["points"].([]any)
	ept, _ := epts[0].(map[string]any)
	for jobField, estField := range map[string]string{
		"pl": "mc", "rse": "rse", "ci_lo": "ci_lo", "ci_hi": "ci_hi",
	} {
		if pt[jobField] != ept[estField] {
			t.Errorf("job %s = %v, estimate %s = %v", jobField, pt[jobField], estField, ept[estField])
		}
	}
}

func TestJobsErrorMapping(t *testing.T) {
	ts, _, _ := newJobsServer(t, t.TempDir())

	// Unknown job → 404 on every per-job route.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/jobs/feedfacefeedfacefeedfacefeedface"},
		{"GET", "/jobs/feedfacefeedfacefeedfacefeedface/events"},
		{"POST", "/jobs/feedfacefeedfacefeedfacefeedface/cancel"},
	} {
		req, err := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}

	// Bad submissions → 400.
	for _, body := range []string{
		`{"options":{"code":"Steane"},"estimate":{"rates":[0.03]}}`,                    // no budget
		`{"options":{"code":"Steane"},"estimate":{"rates":[2],"mc_shots":1000}}`,       // bad rate
		`{"options":{"code":"NoSuchCode"},"estimate":{"mc_shots":1000}}`,               // unknown code
		`{"options":{"code":"Steane"},"estimate":{"mc_shots":-1}}`,                     // negative budget
		`{"options":{"code":"Steane"},"estimate":{"mc_shots":1000,"engine":"scalar"}}`, // retired option
	} {
		if status, resp := postJSON(t, ts.URL+"/jobs", body); status != http.StatusBadRequest {
			t.Errorf("POST /jobs %s: status %d (%v), want 400", body, status, resp)
		}
	}

	// Wrong method → 405 via the method-pattern router.
	resp, err := http.Post(ts.URL+"/jobs/feedfacefeedfacefeedfacefeedface", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST on a GET route: status %d, want 405", resp.StatusCode)
	}
}

// TestJobsCancelAndServerRestart drives the operational story over HTTP: a
// slow job is cancelled mid-run (checkpoints retained), then a "restarted"
// server over the same directory resumes it to completion.
func TestJobsCancelAndServerRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, _, _ := newJobsServer(t, dir)

	// Three points of three rounds each: enough work that the cancel,
	// issued right after the submit, lands mid-run.
	body := `{"options":{"code":"Steane"},"estimate":{"rates":[0.03,0.04,0.05],"mc_shots":393216,"seed":3}}`
	status, sub := postJSON(t, ts1.URL+"/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d: %v", status, sub)
	}
	id, _ := sub["id"].(string)

	status, cancelled := postJSON(t, ts1.URL+"/jobs/"+id+"/cancel", "{}")
	switch status {
	case http.StatusOK:
		switch cancelled["state"] {
		case "cancelled":
		case "done":
			t.Log("job finished before the cancel; the resume path was not exercised")
		default:
			t.Fatalf("after cancel: state %v", cancelled["state"])
		}
	case http.StatusNotFound:
		// The job finished before the cancel landed; nothing to resume
		// below, but the resubmit path still must return it as done.
		t.Log("job finished before the cancel; the resume path was not exercised")
	default:
		t.Fatalf("cancel: status %d: %v", status, cancelled)
	}
	ts1.Close()

	// Fresh server, same directory: resubmitting resumes from the durable
	// checkpoints and runs to completion.
	ts2, _, _ := newJobsServer(t, dir)
	if status, _ := postJSON(t, ts2.URL+"/jobs", body); status != http.StatusAccepted {
		t.Fatalf("resubmit on restarted server: status %d", status)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		status, st := postJSONGet(t, ts2.URL+"/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, status)
		}
		if st["state"] == "done" {
			points, _ := st["points"].([]any)
			for i, p := range points {
				pt, _ := p.(map[string]any)
				if pt["shots"] != float64(393216) {
					t.Fatalf("resumed job ran %v shots at point %d, want 393216", pt["shots"], i)
				}
			}
			break
		}
		if st["state"] == "failed" {
			t.Fatalf("resumed job failed: %v", st["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %v", st["state"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// postJSONGet GETs a URL and decodes the JSON response.
func postJSONGet(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}
