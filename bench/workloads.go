package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/dftsp"
	"repro/internal/code"
	"repro/internal/sim"
	"repro/internal/store"
)

// setupBoots is how many extra boots each run times for setup_s, on top of
// the boots its workload needs anyway; setup_s is the median of all.
const setupBoots = 9

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// synthReply is the /synthesize response.
type synthReply struct {
	Code     string `json:"code"`
	Params   string `json:"params"`
	Metrics  string `json:"metrics"`
	CacheHit bool   `json:"cache_hit"`
}

// estimateReply is the /estimate response.
type estimateReply struct {
	Code     string `json:"code"`
	CacheHit bool   `json:"cache_hit"`
	dftsp.EstimateResult
}

// estimateRequest is the /estimate and /jobs request body.
type estimateRequest struct {
	Options  dftsp.Options         `json:"options"`
	Estimate dftsp.EstimateOptions `json:"estimate"`
}

// timeBoots boots a server n times with fresh arguments from args and
// returns each boot's start-to-ready time.
func (r *run) timeBoots(sp *speedo, n int, args func() ([]string, error)) ([]timing, error) {
	var out []timing
	for i := 0; i < n; i++ {
		a, err := args()
		if err != nil {
			return nil, err
		}
		s, err := bootServer(r.bin("server"), a)
		if err != nil {
			return nil, err
		}
		out = append(out, sp.boot(s))
		if err := s.stop(10 * time.Second); err != nil {
			return nil, fmt.Errorf("stopping boot probe: %w", err)
		}
	}
	return out, nil
}

// catalog returns the read-only protocol catalog of every catalog code
// (Heu/Opt), built once per checkout with cmd/precompute and kept under a
// name derived from the precompute binary, so a rebuilt binary rebuilds it.
func (r *run) catalog() (string, error) {
	bin := r.bin("precompute")
	data, err := os.ReadFile(bin)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	dir := filepath.Join(r.cfg.out, "catalog-"+hex.EncodeToString(sum[:6]))
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp, err := r.scratch("catalog")
	if err != nil {
		return "", err
	}
	var slugs []string
	for _, c := range dftsp.Codes() {
		slugs = append(slugs, code.Slug(c.Name))
	}
	p, err := startProc(bin, "-store-dir", tmp, "-codes", strings.Join(slugs, ","))
	if err != nil {
		return "", err
	}
	if err := <-p.done; err != nil {
		return "", fmt.Errorf("precompute: %w", err)
	}
	// A concurrent run may have renamed its copy into place first.
	if err := os.Rename(tmp, dir); err != nil {
		if _, statErr := os.Stat(dir); statErr != nil {
			return "", err
		}
	}
	return dir, nil
}

// warmService is an in-process service over the catalog: the reference the
// benchmark computes expected answers with.
func (r *run) warmService(cat string) (*dftsp.Service, error) {
	svc := dftsp.NewService(r.nproc)
	if err := svc.AttachStoreTiers("", cat); err != nil {
		return nil, err
	}
	if _, _, err := svc.WarmStart(context.Background()); err != nil {
		return nil, err
	}
	return svc, nil
}

// ---------------------------------------------------------------------------
// table1-synth: cold Table I synthesis on a fresh server, one client.
// ---------------------------------------------------------------------------

// One sample of a row is noisy, so after the first pass each row is
// synthesized cold on further fresh servers until it has rowSamples
// samples or its samples add up to rowBudget; a row's time is the median
// of its samples, and pass_s is the sum of the rows' times. Rows slower
// than rowBudget keep their one sample.
const (
	rowSamples = 9
	rowBudget  = 1500 * time.Millisecond
)

func runTable1(r *run) error {
	rows := table1Rows()
	nproc := strconv.Itoa(r.nproc)
	freshStore := func() ([]string, error) {
		dir, err := r.scratch("store")
		return []string{"-store-dir", dir, "-workers", nproc}, err
	}
	sp := newSpeedo(r.nproc)
	setups, err := r.timeBoots(sp, setupBoots, freshStore)
	if err != nil {
		return err
	}
	var rss float64
	var ops opTimes
	// serve boots a fresh server, synthesizes rows in order, stops it and
	// certifies what it persisted.
	serve := func(order []table1Row) error {
		args, err := freshStore()
		if err != nil {
			return err
		}
		s, err := bootServer(r.bin("server"), args)
		if err != nil {
			return err
		}
		setups = append(setups, sp.boot(s))
		for _, row := range order {
			var resp synthReply
			t, c := time.Now(), s.cpu()
			err := postJSON(s.base+"/synthesize", dftsp.Options{Code: row.Code, Prep: row.Prep, Verif: row.Verif}, &resp)
			tm := sp.took(time.Since(t), s.cpu()-c)
			if err == nil && resp.CacheHit {
				err = errors.New("cold row served as a cache hit")
			}
			if err == nil {
				ops.add(row.id(), tm)
				var m rowMetrics
				if m, err = parseRow(resp.Params, resp.Metrics); err == nil {
					err = r.exp.checkRow(row.id(), m)
				}
			}
			r.check("table1 "+row.id(), err)
		}
		if v, err := s.peakRSSMB(); err == nil {
			rss = math.Max(rss, v)
		}
		if err := s.stop(30 * time.Second); err != nil {
			return err
		}
		r.certifyStore(args[1], len(order))
		return nil
	}

	// One pass over Table I takes longer than a run's window on its own,
	// so the work, not the clock, bounds this workload: the pass, then
	// the further samples of the rows that are cheap enough.
	var order []table1Row
	for _, i := range r.rng.Perm(len(rows)) {
		order = append(order, rows[i])
	}
	if err := serve(order); err != nil {
		return err
	}
	for round := 1; round < rowSamples; round++ {
		rowMS := ops.byKind(wallMS)
		var order []table1Row
		for _, i := range r.rng.Perm(len(rows)) {
			got := rowMS[rows[i].id()]
			var sum float64
			for _, v := range got {
				sum += v
			}
			if len(got) > 0 && len(got) < rowSamples && sum < ms(rowBudget) {
				order = append(order, rows[i])
			}
		}
		if len(order) == 0 {
			break
		}
		if err := serve(order); err != nil {
			return err
		}
	}

	r.put("peak_rss_mb", rss, "MB")
	r.putTimes(sp, ops, sp.cpuMS, setups, nil)
	wall := r.detail["wall"].(map[string]float64)
	r.detail["synth_geomean_s"] = wall["op_geomean_ms"] / 1000
	r.detail["synth_total_s"] = wall["pass_s"]
	r.detail["row_ms"] = ops.byKind(wallMS)
	return nil
}

// certifyStore runs the exhaustive single-fault certificate on every
// protocol the server persisted to dir, outside the timed path, and checks
// that every row was persisted.
func (r *run) certifyStore(dir string, want int) {
	st, err := store.OpenReadOnly(dir)
	if err != nil {
		r.fail("open persisted store", err)
		return
	}
	entries, err := st.List()
	if err == nil && len(entries) != want {
		err = fmt.Errorf("server persisted %d protocols, want %d", len(entries), want)
	}
	r.check("persisted protocol count", err)
	for _, e := range entries {
		p, _, err := st.Get(e.Key)
		if err == nil {
			err = sim.ExhaustiveFaultCheck(p)
		}
		r.check("FT certificate "+e.Key, err)
	}
}

// ---------------------------------------------------------------------------
// fig4-curve: Fig. 4 curves from a warm server, one client.
// ---------------------------------------------------------------------------

func runFig4(r *run) error {
	cat, err := r.catalog()
	if err != nil {
		return err
	}
	args := []string{"-store-ro", cat, "-workers", strconv.Itoa(r.nproc)}
	sp := newSpeedo(r.nproc)
	setups, err := r.timeBoots(sp, setupBoots, func() ([]string, error) { return args, nil })
	if err != nil {
		return err
	}
	s, err := bootServer(r.bin("server"), args)
	if err != nil {
		return err
	}
	defer s.stop(10 * time.Second)
	setups = append(setups, sp.boot(s))

	var passes [][]timing
	var ops opTimes
	var shots int
	end := r.deadline()
	for len(passes) == 0 || time.Now().Before(end) {
		var pass []timing
		for _, i := range r.rng.Perm(len(fig4Codes)) {
			c := fig4Codes[i]
			req := estimateRequest{Options: dftsp.Options{Code: c}, Estimate: dftsp.EstimateOptions{Method: "auto", TargetRSE: 0.1, Seed: r.sampleSeed()}}
			var resp estimateReply
			t, c0 := time.Now(), s.cpu()
			err := postJSON(s.base+"/estimate", req, &resp)
			tm := sp.took(time.Since(t), s.cpu()-c0)
			if err == nil {
				ops.add(c, tm)
				pass = append(pass, tm)
				err = checkCurveReply(r.exp, c, resp)
				for _, pt := range resp.Points {
					shots += pt.Shots
				}
			}
			r.check("fig4 "+c, err)
		}
		passes = append(passes, pass)
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return err
	}
	r.put("peak_rss_mb", rss, "MB")
	r.putTimes(sp, ops, sp.cpuMS, setups, passes)
	var total float64
	for _, l := range ops.wall() {
		total += l / 1000
	}
	r.detail["curve_geomean_s"] = geomean(ops.wall()) / 1000
	r.detail["curve_shots_per_s"] = float64(shots) / total
	r.detail["curves"] = len(ops)
	return s.stop(10 * time.Second)
}

// sampleSeed draws a request seed, never the reference curves' seed.
func (r *run) sampleSeed() int64 {
	for {
		if s := 1 + r.rng.Int63n(1<<40); s != r.exp.Fig4.Seed {
			return s
		}
	}
}

func checkCurveReply(exp *expected, c string, resp estimateReply) error {
	if resp.Code != c {
		return fmt.Errorf("reply for %s names code %q", c, resp.Code)
	}
	if len(resp.F) < 2 || resp.F[1] != 0 {
		return fmt.Errorf("%s: f[1] = %v, want 0 (single-fault tolerance)", c, resp.F)
	}
	return exp.checkCurve(c, resp.Points)
}

// ---------------------------------------------------------------------------
// serve-mixed: warm /synthesize hits with ~10% stratified /estimate, one
// closed-loop client, a /metrics scrape about once a second. One client,
// not one per CPU: with two, a hit, the other client's estimate and both
// clients' own work contend for the host's two CPUs, and the hit latency
// then measures the scheduler (and the steal on the host) more than the
// serving path.
// ---------------------------------------------------------------------------

// mixedRequest is one entry of the serve-mixed request list.
type mixedRequest struct {
	estimate bool
	canon    string // canonical code name
	spelling string // the code name as sent
	seed     int64  // estimate seed
}

// mixedListLen is the request-list length; pass_s is the server's CPU
// time for that many requests.
const mixedListLen = 400

// spellings are the relaxed spellings a client may use for a code: the
// name, its lower- and upper-case forms, and its slug.
func spellings(name string) []string {
	return []string{name, strings.ToLower(name), strings.ToUpper(name), code.Slug(name)}
}

// mixedRequests draws the seeded request list. Its make-up is fixed — a
// tenth are estimates, spread evenly over the Fig. 4 codes and three
// seeds, the rest hits spread evenly over the catalog — and the seed draws
// the estimate seeds, the spellings and the order.
func (r *run) mixedRequests() []mixedRequest {
	codes := dftsp.Codes()
	base := 1 + r.rng.Int63n(1000)
	list := make([]mixedRequest, mixedListLen)
	nEst := mixedListLen / 10
	for i := range list {
		q := mixedRequest{canon: codes[i%len(codes)].Name}
		if i < nEst {
			q = mixedRequest{estimate: true, canon: fig4Codes[i%len(fig4Codes)], seed: base + int64(i/len(fig4Codes)%3)}
		}
		sp := spellings(q.canon)
		q.spelling = sp[r.rng.Intn(len(sp))]
		list[i] = q
	}
	r.rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list
}

func runServeMixed(r *run) error {
	cat, err := r.catalog()
	if err != nil {
		return err
	}
	list := r.mixedRequests()
	ref, err := r.warmService(cat)
	if err != nil {
		return err
	}
	want := map[string]dftsp.EstimateResult{}
	for _, q := range list {
		k := fmt.Sprintf("%s|%d", q.canon, q.seed)
		if !q.estimate || want[k].Points != nil {
			continue
		}
		res, _, err := ref.Estimate(context.Background(), dftsp.Options{Code: q.canon}, dftsp.EstimateOptions{Seed: q.seed})
		if err != nil {
			return fmt.Errorf("reference estimate %s: %w", k, err)
		}
		res.MCSeconds = 0
		want[k] = res
	}

	args := []string{"-store-ro", cat, "-workers", strconv.Itoa(r.nproc)}
	sp := newSpeedo(r.nproc)
	setups, err := r.timeBoots(sp, setupBoots, func() ([]string, error) { return args, nil })
	if err != nil {
		return err
	}
	s, err := bootServer(r.bin("server"), args)
	if err != nil {
		return err
	}
	defer s.stop(10 * time.Second)
	setups = append(setups, sp.boot(s))
	m0, err := scrape(s.base)
	if err != nil {
		return err
	}

	// One pass sends the whole list once, in order, each request only
	// after the previous reply. The hits of a pass are scaled by the
	// reference samples around it.
	var ops opTimes
	var passes [][]timing
	var ests []float64
	var hitN, estN, mcShots, scrapes int
	lastScrape := time.Now()
	end := r.deadline()
	for len(passes) == 0 || time.Now().Before(end) {
		// The reference runs only between passes, where nothing else
		// does; a few samples each time fill its window.
		for i := 1; i < refWindow/3; i++ {
			sp.mark()
		}
		var hits []time.Duration
		var hitCodes []string
		start, c0 := time.Now(), s.cpu()
		for _, q := range list {
			if time.Since(lastScrape) >= time.Second {
				_, err := scrape(s.base)
				r.check("metrics scrape", err)
				scrapes++
				lastScrape = time.Now()
			}
			t := time.Now()
			if q.estimate {
				var resp estimateReply
				err := postJSON(s.base+"/estimate", estimateRequest{Options: dftsp.Options{Code: q.spelling}, Estimate: dftsp.EstimateOptions{Seed: q.seed}}, &resp)
				d := time.Since(t)
				estN++
				if err == nil {
					ests = append(ests, ms(d))
					for _, pt := range resp.Points {
						mcShots += pt.Shots
					}
					err = checkMixedEstimate(q, resp, want[fmt.Sprintf("%s|%d", q.canon, q.seed)])
				}
				r.check("estimate "+q.spelling, err)
				continue
			}
			var resp synthReply
			err := postJSON(s.base+"/synthesize", dftsp.Options{Code: q.spelling}, &resp)
			d := time.Since(t)
			hitN++
			if err == nil {
				hits = append(hits, d)
				hitCodes = append(hitCodes, q.canon)
				err = r.checkMixedHit(q, resp)
			}
			r.check("synthesize "+q.spelling, err)
		}
		tm := sp.took(time.Since(start), s.cpu()-c0)
		passes = append(passes, []timing{tm})
		for k, h := range hits {
			ops.add(hitCodes[k], timing{wall: h, at: tm.at})
		}
	}
	m1, err := scrape(s.base)
	if err != nil {
		return err
	}
	// Cross-check against the live server: every request is one cache
	// hit, no Monte-Carlo shot and no lease.
	r.check("metrics cross-check", crossCheck(m0, m1, map[string]float64{
		"dftsp_service_cache_hits_total":    float64(hitN + estN),
		"dftsp_service_shots_sampled_total": float64(mcShots),
		"dftsp_remote_leases_total":         0,
	}))
	rss, err := s.peakRSSMB()
	if err != nil {
		return err
	}
	var elapsed float64
	for _, p := range passes {
		elapsed += p[0].wall.Seconds()
	}
	r.put("peak_rss_mb", rss, "MB")
	r.putTimes(sp, ops, sp.wallMS, setups, passes)
	hits := ops.wall()
	r.detail["synth_hit_p50_ms"] = median(hits)
	if q, ok := tailQuantile(len(hits), 10, 0.999, 0.99, 0.9); ok {
		r.detail[fmt.Sprintf("synth_hit_p%g_ms", q*100)] = percentile(hits, q)
	}
	r.detail["synth_hits"] = len(hits)
	r.detail["estimate_p50_ms"] = median(ests)
	if q, ok := tailQuantile(len(ests), 10, 0.99, 0.9); ok {
		r.detail[fmt.Sprintf("estimate_p%g_ms", q*100)] = percentile(ests, q)
	}
	r.detail["estimates"] = len(ests)
	r.detail["serve_rps"] = float64(hitN+estN) / elapsed
	r.detail["scrapes"] = scrapes
	r.detail["shed"] = m1.sum("dftsp_http_shed_total", nil) - m0.sum("dftsp_http_shed_total", nil)
	return s.stop(10 * time.Second)
}

func (r *run) checkMixedHit(q mixedRequest, resp synthReply) error {
	if !resp.CacheHit {
		return fmt.Errorf("warm %s was not a cache hit", q.spelling)
	}
	if resp.Code != q.canon {
		return fmt.Errorf("%s resolved to %q, want %q", q.spelling, resp.Code, q.canon)
	}
	m, err := parseRow(resp.Params, resp.Metrics)
	if err != nil {
		return err
	}
	return r.exp.checkRow(table1Row{q.canon, dftsp.PrepHeuristic, dftsp.VerifOptimal}.id(), m)
}

func checkMixedEstimate(q mixedRequest, resp estimateReply, want dftsp.EstimateResult) error {
	if resp.Code != q.canon || !resp.CacheHit {
		return fmt.Errorf("estimate %s: code %q cache_hit %v", q.spelling, resp.Code, resp.CacheHit)
	}
	if !reflect.DeepEqual(resp.EstimateResult, want) {
		return fmt.Errorf("estimate %s seed %d differs from the in-process estimate", q.spelling, q.seed)
	}
	return nil
}

// crossCheck compares counter deltas between two scrapes with the load
// generator's own counts.
func crossCheck(m0, m1 metricsSnapshot, want map[string]float64) error {
	var bad []string
	for name, v := range want {
		if got := m1.sum(name, nil) - m0.sum(name, nil); got != v {
			bad = append(bad, fmt.Sprintf("%s moved by %g, generator counted %g", name, got, v))
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}

// ---------------------------------------------------------------------------
// job-fleet: Fig. 4 curves as persistent jobs, on a server with one local
// Monte-Carlo worker and one remote cmd/worker; a fresh jobs dir per pass.
// ---------------------------------------------------------------------------

// jobSpec is one job of the job-fleet list.
type jobSpec struct {
	code string
	seed int64
}

func (q jobSpec) request() estimateRequest {
	return estimateRequest{Options: dftsp.Options{Code: q.code}, Estimate: dftsp.EstimateOptions{Method: "auto", TargetRSE: 0.1, Seed: q.seed}}
}

// fleet is one pass's server and worker.
type fleet struct {
	srv    *server
	worker *proc
}

// bootFleet starts a server with a fresh jobs dir and a remote-worker
// listener, then one cmd/worker, and waits until the worker is connected.
func (r *run) bootFleet(cat string) (*fleet, error) {
	jobsDir, err := r.scratch("jobs")
	if err != nil {
		return nil, err
	}
	waddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s, err := bootServer(r.bin("server"), []string{"-store-ro", cat, "-jobs-dir", jobsDir, "-workers-addr", waddr, "-workers", "1"})
	if err != nil {
		return nil, err
	}
	w, err := startProc(r.bin("worker"), "-coordinator", waddr, "-parallel", "1", "-name", "bench-worker")
	if err != nil {
		_ = s.stop(10 * time.Second)
		return nil, err
	}
	f := &fleet{srv: s, worker: w}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		var body struct {
			Workers int `json:"workers"`
		}
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
		}
		if err == nil && body.Workers >= 1 {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, errors.New("worker did not connect within 30s")
		}
	}
}

// stop ends the worker, then the server; it returns the worker's count of
// accepted shard completions.
func (f *fleet) stop() (completed int, err error) {
	werr := f.worker.stop(20 * time.Second)
	serr := f.srv.stop(20 * time.Second)
	if werr != nil {
		return 0, fmt.Errorf("worker: %w", werr)
	}
	if serr != nil {
		return 0, fmt.Errorf("server: %w", serr)
	}
	var name string
	if _, err := fmt.Sscanf(strings.TrimSpace(f.worker.stdout.String()), "worker %s %d shards completed", &name, &completed); err != nil {
		return 0, fmt.Errorf("worker summary %q: %w", f.worker.stdout.String(), err)
	}
	return completed, nil
}

// jobStatus is the subset of the job status the benchmark reads.
type jobStatus struct {
	ID     string           `json:"id"`
	State  string           `json:"state"`
	Type   string           `json:"type"` // set on event lines, not on status lines
	Shots  int64            `json:"shots"`
	Points []dftsp.JobPoint `json:"points"`
}

// runJob submits one job and follows its event stream until it is done,
// returning its final status.
func runJob(base string, q jobSpec) (jobStatus, error) {
	var st jobStatus
	if err := postJSON(base+"/jobs", q.request(), &st); err != nil {
		return st, err
	}
	resp, err := client.Get(base + "/jobs/" + st.ID + "/events")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	finished := false
	for !finished && sc.Scan() {
		var ev jobStatus
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return st, fmt.Errorf("event line: %w", err)
		}
		switch {
		case ev.Type == "done" || (ev.Type == "" && ev.State == dftsp.JobStateDone):
			finished = true
		case ev.Type == "failed" || ev.Type == "cancelled" || ev.Type == "paused":
			return st, fmt.Errorf("job %s ended %s", st.ID, ev.Type)
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
		return st, err
	}
	r, err := client.Get(base + "/jobs/" + st.ID)
	if err != nil {
		return st, err
	}
	defer r.Body.Close()
	var final jobStatus
	if err := json.NewDecoder(r.Body).Decode(&final); err != nil {
		return st, err
	}
	if final.State != dftsp.JobStateDone {
		return final, fmt.Errorf("job %s is %s after its event stream ended", st.ID, final.State)
	}
	return final, nil
}

// checkJob compares a job's points with the in-process estimate of the
// same options.
func checkJob(q jobSpec, got jobStatus, want dftsp.EstimateResult) error {
	if len(got.Points) != len(want.Points) {
		return fmt.Errorf("job %s/%d has %d points, estimate %d", q.code, q.seed, len(got.Points), len(want.Points))
	}
	for i, pt := range got.Points {
		w := want.Points[i]
		if pt.Rate != w.P || pt.PL != w.MC || pt.Shots != int64(w.Shots) || pt.RSE != w.RSE ||
			pt.CILo != w.CILo || pt.CIHi != w.CIHi || pt.Method != w.Method {
			return fmt.Errorf("job %s/%d point %d = %+v, in-process estimate %+v", q.code, q.seed, i, pt, w)
		}
	}
	return nil
}

// jobsPerPass is the job-list length: each Fig. 4 code twice, with
// distinct seeds.
const jobsPerPass = 2 * 4

// jobList draws the seeded job list.
func (r *run) jobList() []jobSpec {
	var list []jobSpec
	for _, i := range r.rng.Perm(jobsPerPass) {
		list = append(list, jobSpec{fig4Codes[i%len(fig4Codes)], r.sampleSeed()})
	}
	return list
}

func runJobFleet(r *run) error {
	cat, err := r.catalog()
	if err != nil {
		return err
	}
	list := r.jobList()
	ref, err := r.warmService(cat)
	if err != nil {
		return err
	}
	want := map[jobSpec]dftsp.EstimateResult{}
	for _, q := range list {
		rq := q.request()
		rq.Estimate.Workers = r.nproc
		res, _, err := ref.Estimate(context.Background(), rq.Options, rq.Estimate)
		if err != nil {
			return fmt.Errorf("reference estimate %v: %w", q, err)
		}
		want[q] = res
	}

	sp := newSpeedo(r.nproc)
	setups, err := r.timeBoots(sp, setupBoots, func() ([]string, error) {
		dir, err := r.scratch("jobs")
		if err != nil {
			return nil, err
		}
		waddr, err := freeAddr()
		return []string{"-store-ro", cat, "-jobs-dir", dir, "-workers-addr", waddr, "-workers", "1"}, err
	})
	if err != nil {
		return err
	}
	var passes [][]timing
	var ops opTimes
	var shots int64
	var rss, granted, relets, remote, shards float64
	end := r.deadline()
	for len(passes) == 0 || time.Now().Before(end) {
		f, err := r.bootFleet(cat)
		if err != nil {
			return err
		}
		setups = append(setups, sp.boot(f.srv))
		m0, err := scrape(f.srv.base)
		if err != nil {
			f.stop()
			return err
		}
		var pass []timing
		for _, q := range list {
			t, c := time.Now(), f.srv.cpu()+f.worker.cpu()
			st, err := runJob(f.srv.base, q)
			tm := sp.took(time.Since(t), f.srv.cpu()+f.worker.cpu()-c)
			if err == nil {
				ops.add(q.code, tm)
				pass = append(pass, tm)
				shots += st.Shots
				err = checkJob(q, st, want[q])
			}
			r.check(fmt.Sprintf("job %s/%d", q.code, q.seed), err)
		}
		passes = append(passes, pass)
		m1, err := scrape(f.srv.base)
		if err != nil {
			f.stop()
			return err
		}
		if v, err := f.srv.peakRSSMB(); err == nil {
			rss = math.Max(rss, v)
		}
		completed, err := f.stop()
		if err != nil {
			return err
		}
		delta := func(name string, labels map[string]string) float64 {
			return m1.sum(name, labels) - m0.sum(name, labels)
		}
		g := delta("dftsp_remote_leases_total", map[string]string{"event": "granted"})
		expired := delta("dftsp_remote_leases_total", map[string]string{"event": "expired"})
		stale := delta("dftsp_remote_stale_completions_total", nil)
		garbage := delta("dftsp_remote_garbage_completions_total", nil)
		rs := delta("dftsp_remote_shard_seconds_count", nil)
		var bad []string
		if g != float64(completed)+expired+stale+garbage {
			bad = append(bad, fmt.Sprintf("leases granted %g != worker completions %d + expired %g + stale %g + garbage %g", g, completed, expired, stale, garbage))
		}
		if rs != float64(completed) {
			bad = append(bad, fmt.Sprintf("remote shard completions %g != worker completions %d", rs, completed))
		}
		if err := crossCheck(m0, m1, map[string]float64{
			"dftsp_service_cache_hits_total":    float64(len(list)),
			"dftsp_service_shots_sampled_total": 0,
		}); err != nil {
			bad = append(bad, err.Error())
		}
		if len(bad) > 0 {
			err = errors.New(strings.Join(bad, "; "))
		}
		r.check("metrics cross-check", err)
		granted += g
		relets += expired + stale
		remote += rs
		shards += delta("dftsp_jobs_shards_total", nil)
	}
	r.put("peak_rss_mb", rss, "MB")
	r.putTimes(sp, ops, sp.cpuMS, setups, passes)
	var total float64
	for _, l := range ops.wall() {
		total += l / 1000
	}
	r.detail["job_s"] = median(ops.wall()) / 1000
	r.detail["job_shots_per_s"] = float64(shots) / total
	r.detail["jobs"] = len(ops)
	r.detail["leases_granted"] = granted
	if shards > 0 {
		r.detail["remote_shard_share"] = remote / shards
	}
	if granted > 0 {
		r.detail["relet_share"] = relets / granted
	}
	return nil
}
