package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/dftsp"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/f2"
	"repro/internal/jobs"
	"repro/internal/noise"
	"repro/internal/prep"
	"repro/internal/sat"
	"repro/internal/shardrpc"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/verify"
)

// The traced run. It calls each layer's public functions in-process with a
// span around every call (spans are recorded here, in the benchmark, not
// inside the program), reports the per-layer metrics, then replays one pass
// of the run's workload under a root span and reports which share of that
// end-to-end time the layer self times explain. The spans are written to
// .bench_build/traces/ when the run ends.

// layerOp is the Op of the layer-suite spans.
const layerOp = "layers"

// timed runs f n times, each in its own span, and returns the median
// duration.
func timed(tr *tracer, name string, n int, f func()) time.Duration {
	var ds []float64
	for i := 0; i < n; i++ {
		ds = append(ds, float64(tr.do(0, layerOp, name, f)))
	}
	return time.Duration(median(ds))
}

func (r *run) putDur(name string, d time.Duration) { r.putPerOp(name, d, 1) }

// putPerOp reports d spread over ops operations in the metric's unit,
// keeping fractions of a nanosecond.
func (r *run) putPerOp(name string, d time.Duration, ops float64) {
	ns := float64(d) / ops
	var v float64
	switch u := unitOf(name); u {
	case "s":
		v = ns / 1e9
	case "ms":
		v = ns / 1e6
	case "us":
		v = ns / 1e3
	case "ns":
		v = ns
	default:
		panic("putPerOp: " + name + " has unit " + u)
	}
	r.put(name, v, unitOf(name))
}

// layerCodes are the codes the per-code layer metrics are measured on,
// with their metric suffixes.
var layerCodes = []struct{ name, slug string }{
	{"Steane", "steane"}, {"Surface", "surface"}, {"Carbon", "carbon"}, {"[[16,2,4]]", "16-2-4"},
}

func runTraced(r *run) error {
	ctx := context.Background()
	tr := newTracer()
	cat, err := r.catalog()
	if err != nil {
		return err
	}
	ref, err := r.warmService(cat)
	if err != nil {
		return err
	}
	protos := map[string]*core.Protocol{}
	for _, c := range layerCodes {
		p, _, err := ref.Protocol(ctx, dftsp.Options{Code: c.name})
		if err != nil {
			return err
		}
		protos[c.name] = p.Core
	}

	for _, step := range []func() error{
		func() error { return satLayer(ctx, r, tr) },
		func() error { return synthLayers(ctx, r, tr) },
		func() error { return coreLayer(ctx, r, tr) },
		func() error { return simLayers(ctx, r, tr, protos) },
		func() error { return storeLayer(r, tr, cat, protos["Carbon"]) },
		func() error { return jobsLayer(r, tr) },
		func() error { return leaseLayer(ctx, r, tr) },
		func() error { return serviceLayers(ctx, r, tr, ref) },
		func() error { return probeLive(ctx, r, tr, cat, ref) },
	} {
		if err := step(); err != nil {
			return err
		}
	}

	root, err := replay(ctx, r, tr, cat, ref)
	if err != nil {
		return err
	}
	spans := tr.snapshot()
	dur, share := explained(spans, root)
	r.put("trace.e2e_s", dur.Seconds(), "s")
	r.put("trace.explained_share", share, "share")
	self := selfTimes(spans)
	byLayer := map[string]float64{}
	for _, s := range spans {
		if s.Op != layerOp && s.ID != root {
			byLayer[s.layer()] += float64(self[s.ID]) / 1e9
		}
	}
	r.detail["replay_self_s_by_layer"] = byLayer

	dir := filepath.Join(r.cfg.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.cfg.workload, r.cfg.seed))
	r.detail["spans"] = path
	return tr.write(path)
}

// ---------------------------------------------------------------------------
// Synthesis layers: sat, prep, verify, correct, code, core.
// ---------------------------------------------------------------------------

// satLayer solves weight-bound instances built the way synthesis builds
// them: a stabilizer of the detection group (Xor over generator choices)
// that anticommutes with a dangerous error, of weight at most w under a
// totalizer bound. w = the true minimum is SAT, one less is UNSAT.
func satLayer(ctx context.Context, r *run, tr *tracer) error {
	var solves []float64
	var props, conflicts int64
	var busy time.Duration
	for _, name := range []string{"Carbon", "[[16,2,4]]", "Tesseract"} {
		cs, err := code.ByName(name)
		if err != nil {
			return err
		}
		det := cs.DetectionGroup(code.ErrX)
		errs := verify.DangerousErrors(cs, prep.Heuristic(cs), code.ErrX)
		for k := 0; k < len(errs) && k < 3; k++ {
			wmin := minDetectingWeight(det, errs[k])
			if wmin == 0 {
				continue
			}
			for _, w := range []int{wmin, wmin - 1} {
				b := cnf.NewBuilder()
				coef := b.NewVars(det.Rows())
				stab := make([]sat.Lit, cs.N)
				for j := 0; j < cs.N; j++ {
					var terms []sat.Lit
					for i := 0; i < det.Rows(); i++ {
						if det.Row(i).Get(j) {
							terms = append(terms, coef[i])
						}
					}
					stab[j] = xorOf(b, terms)
				}
				var hit []sat.Lit
				for _, j := range errs[k].Support() {
					hit = append(hit, stab[j])
				}
				b.AddClause(xorOf(b, hit))
				b.AtMostKTotalizer(stab, w)
				var isSat bool
				d := tr.do(0, layerOp, "sat.solve", func() { isSat, err = b.SolveContext(ctx) })
				if err != nil {
					return err
				}
				if isSat != (w == wmin) {
					r.fail("sat instance", fmt.Errorf("%s error %d weight %d: sat=%v, want %v", name, k, w, isSat, w == wmin))
					continue
				}
				r.ok()
				_, p, c := b.S.Stats()
				props += p
				conflicts += c
				busy += d
				solves = append(solves, float64(d))
			}
		}
	}
	if len(solves) == 0 {
		return errors.New("no SAT instances built")
	}
	r.putDur("sat.solve_ms", time.Duration(median(solves)))
	r.put("sat.conflicts", float64(conflicts), "count")
	r.put("sat.propagations_per_s", float64(props)/busy.Seconds(), "1/s")
	return nil
}

// minDetectingWeight is the least weight of a detection-group element that
// anticommutes with e, by enumerating the group (0 if none does).
func minDetectingWeight(det *f2.Mat, e f2.Vec) int {
	best := 0
	f2.SpanForEach(det, func(v f2.Vec) bool {
		if v.Dot(e) == 1 && (best == 0 || v.Weight() < best) {
			best = v.Weight()
		}
		return true
	})
	return best
}

func synthLayers(ctx context.Context, r *run, tr *tracer) error {
	tess := code.Tesseract()
	r.putDur("prep.heuristic_ms", timed(tr, "prep.heuristic", 5, func() { prep.Heuristic(tess) }))
	var err error
	r.putDur("prep.optimal_ms", timed(tr, "prep.optimal", 2, func() {
		var c *circuit.Circuit
		if c, err = prep.Optimal(ctx, code.Steane(), 0); err == nil && c == nil {
			err = errors.New("optimal Steane preparation gave up")
		}
	}))
	if err != nil {
		return err
	}

	c16 := code.CSS16()
	circ16 := prep.Heuristic(c16)
	r.putDur("verify.dangerous_ms", timed(tr, "verify.dangerous", 5, func() {
		verify.DangerousErrors(c16, circ16, code.ErrX)
		verify.DangerousErrors(c16, circ16, code.ErrZ)
	}))
	carbon := code.Carbon()
	exCarbon := verify.DangerousErrors(carbon, prep.Heuristic(carbon), code.ErrX)
	r.putDur("verify.synthesize_ms", timed(tr, "verify.synthesize", 3, func() {
		if err == nil {
			_, err = verify.Synthesize(ctx, carbon.DetectionGroup(code.ErrX), exCarbon)
		}
	}))
	c11 := code.CSS11()
	ex11 := verify.DangerousErrors(c11, prep.Heuristic(c11), code.ErrX)
	r.putDur("verify.enumerate_ms", timed(tr, "verify.enumerate", 3, func() {
		if err == nil {
			_, err = verify.EnumerateOptimal(ctx, c11.DetectionGroup(code.ErrX), ex11, 16)
		}
	}))
	if err != nil {
		return err
	}

	tet := code.ReedMuller15()
	circT := prep.Heuristic(tet)
	exT := verify.DangerousErrors(tet, circT, code.ErrX)
	ver, err := verify.Synthesize(ctx, tet.DetectionGroup(code.ErrX), exT)
	if err != nil {
		return err
	}
	class := triggeredClass(tet, circT, ver)
	r.putDur("correct.synthesize_ms", timed(tr, "correct.synthesize", 1, func() {
		if err == nil {
			_, err = correct.Synthesize(ctx, tet.DetectionGroup(code.ErrX), tet.ReductionGroup(code.ErrX), class, correct.Options{})
		}
	}))
	r.put("correct.class_size", float64(len(class)), "count")
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(r.cfg.seed))
	vecs := make([]f2.Vec, 256)
	for i := range vecs {
		vecs[i] = f2.NewVec(tess.N)
		for j := 0; j < tess.N; j++ {
			vecs[i].Set(j, rng.Intn(4) == 0)
		}
	}
	d := timed(tr, "code.reduced_weight", 5, func() {
		for _, v := range vecs {
			tess.ReducedWeight(code.ErrX, v)
		}
	})
	r.putPerOp("code.reduced_weight_us", d, float64(len(vecs)))
	return nil
}

// triggeredClass is the error class of the first verification branch, as
// the repository's correction ablation builds it: the X coset
// representatives with odd overlap with the first verification measurement,
// plus the zero error.
func triggeredClass(cs *code.CSS, circ *circuit.Circuit, ver *verify.Result) []f2.Vec {
	stab := ver.Stabs[0]
	seen := map[string]bool{}
	class := []f2.Vec{f2.NewVec(cs.N)}
	seen[class[0].Key()] = true
	for _, ft := range circ.SingleFaults() {
		if ft.Final.X.IsZero() {
			continue
		}
		rep := cs.CosetRep(code.ErrX, ft.Final.X)
		if stab.Dot(rep) != 1 || seen[rep.Key()] {
			continue
		}
		seen[rep.Key()] = true
		class = append(class, rep)
	}
	return class
}

// coreLayer times BuildFromPrep per code, and its self time: the build
// minus the verification stages it runs first (dangerous errors of both
// types and the layer-1 verification), timed separately on the same input.
func coreLayer(ctx context.Context, r *run, tr *tracer) error {
	var self time.Duration
	for _, c := range []struct{ name, slug string }{{"Steane", "steane"}, {"Carbon", "carbon"}, {"[[16,2,4]]", "16-2-4"}} {
		cs, err := code.ByName(c.name)
		if err != nil {
			return err
		}
		pc := prep.Heuristic(cs)
		n := 2
		if cs.N > 12 {
			n = 1
		}
		build := timed(tr, "core.build_from_prep", n, func() {
			if err == nil {
				_, err = core.BuildFromPrep(ctx, cs, pc, core.Config{})
			}
		})
		if err != nil {
			return err
		}
		var ex []f2.Vec
		children := timed(tr, "verify.dangerous", n, func() {
			ex = verify.DangerousErrors(cs, pc, code.ErrX)
			verify.DangerousErrors(cs, pc, code.ErrZ)
		})
		if len(ex) > 0 {
			children += timed(tr, "verify.synthesize", n, func() {
				if err == nil {
					_, err = verify.Synthesize(ctx, cs.DetectionGroup(code.ErrX), ex)
				}
			})
		}
		if err != nil {
			return err
		}
		r.putDur("core.build_from_prep_s."+c.slug, build)
		self += max(build-children, 0)
	}
	r.putDur("core.assemble_self_s", self)
	return nil
}

// ---------------------------------------------------------------------------
// Estimation layers: sim, noise.
// ---------------------------------------------------------------------------

func simLayers(ctx context.Context, r *run, tr *tracer, protos map[string]*core.Protocol) error {
	for _, c := range layerCodes {
		p := protos[c.name]
		est := sim.NewEstimator(p)
		var err error
		r.putDur("sim.fault_order_ms."+c.slug, timed(tr, "sim.fault_order", 3, func() {
			if err == nil {
				_, err = est.FaultOrder(ctx, 3, 20000, rand.New(rand.NewSource(r.cfg.seed)))
			}
		}))
		r.putDur("sim.certificate_ms."+c.slug, timed(tr, "sim.certificate", 3, func() {
			if err == nil {
				err = sim.ExhaustiveFaultCheck(p)
			}
		}))
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if c.slug == "16-2-4" {
			continue
		}
		// The continuity rows: the shot loops exactly as BENCH_pr6.json
		// measured them, at p = 1e-2.
		prog, batch := est.Program(), est.Batch()
		if prog == nil || batch == nil {
			return fmt.Errorf("%s does not compile to both engines", c.name)
		}
		const shots, words = 100_000, 8_000
		compiled := timed(tr, "sim.compiled_shots", 3, func() {
			inj := &noise.Depolarizing{P: 0.01, Rng: rand.New(rand.NewSource(1))}
			sh := prog.NewShot()
			for i := 0; i < shots; i++ {
				prog.Run(sh, inj)
				prog.Judge(sh)
			}
		})
		r.putPerOp("sim.compiled_ns_per_shot."+c.slug, compiled, shots)
		batched := timed(tr, "sim.batch_shots", 3, func() {
			smp := noise.NewSparseSampler(0.01, 1)
			bs := batch.NewShot()
			fails := 0
			for i := 0; i < words; i++ {
				batch.Run(bs, smp, ^uint64(0))
				fails += bits.OnesCount64(batch.Judge(bs))
			}
		})
		r.putPerOp("sim.batch_ns_per_shot."+c.slug, batched, 64*words)
	}

	carbon := protos["Carbon"]
	var err error
	r.putDur("sim.compile_us", timed(tr, "sim.compile", 20, func() {
		if err == nil {
			_, err = sim.Compile(carbon)
		}
	}))
	if err != nil {
		return err
	}
	batch := sim.NewEstimator(carbon).Batch()
	smp := noise.NewSparseSampler(0.01, 1)
	bs := batch.NewShot()
	allocs := testing.AllocsPerRun(2000, func() {
		batch.Run(bs, smp, ^uint64(0))
		batch.Judge(bs)
	})
	r.put("sim.allocs_per_shot", allocs/64, "count")

	const draws = 200_000
	d := timed(tr, "noise.sampler", 3, func() {
		s := noise.NewSparseSampler(0.01, 1)
		for i := 0; i < draws; i++ {
			s.Draw2Q(^uint64(0))
		}
	})
	r.putPerOp("noise.sampler_ns_per_word", d, draws)

	steane := sim.NewEstimator(protos["Steane"])
	var res sim.RareEventResult
	tr.do(0, layerOp, "sim.rare_event", func() {
		res, err = steane.RareEventAdaptive(ctx, 1e-4, 0.1, 100_000_000, 1, 1)
	})
	if err != nil {
		return err
	}
	r.put("sim.rare_shots_per_s", res.ShotsPerSec, "1/s")
	return nil
}

// ---------------------------------------------------------------------------
// Persistence and dispatch layers: store, jobs, shardrpc.
// ---------------------------------------------------------------------------

func storeLayer(r *run, tr *tracer, cat string, carbon *core.Protocol) error {
	key, err := dftsp.Options{Code: "Carbon"}.Key()
	if err != nil {
		return err
	}
	meta := store.Meta{Key: key, Code: carbon.Code.Name, Params: carbon.Code.Params(), Options: []byte(`{"code":"Carbon"}`)}
	var data []byte
	r.putDur("store.encode_us", timed(tr, "store.encode", 50, func() {
		if err == nil {
			data, err = store.Encode(meta, carbon)
		}
	}))
	r.putDur("store.decode_us", timed(tr, "store.decode", 50, func() {
		if err == nil {
			_, _, err = store.Decode(data)
		}
	}))
	if err != nil {
		return err
	}
	dir, err := r.scratch("store")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	r.putDur("store.put_ms", timed(tr, "store.put", 10, func() {
		if err == nil {
			err = st.Put(meta, carbon)
		}
	}))
	r.putDur("store.warm_start_ms", timed(tr, "store.warm_start", 5, func() {
		if err == nil {
			_, err = r.warmService(cat)
		}
	}))
	return err
}

func jobsLayer(r *run, tr *tracer) error {
	dir, err := r.scratch("joblog")
	if err != nil {
		return err
	}
	st, err := jobs.Open(dir)
	if err != nil {
		return err
	}
	key, err := dftsp.Options{Code: "Steane"}.Key()
	if err != nil {
		return err
	}
	log, _, err := st.Create(jobs.Spec{ProtocolKey: key, Method: "auto", Engine: "auto", Rates: []float64{0.01}, TargetRSE: 0.1, MaxShots: 1_000_000, Seed: 1})
	if err != nil {
		return err
	}
	defer log.Close()
	i := 0
	r.putDur("jobs.append_fsync_ms", timed(tr, "jobs.append_fsync", 20, func() {
		i++
		if err == nil {
			err = log.Append(jobs.Record{Kind: "shard", Shard: i, Counts: &sim.Counts{}})
		}
	}))
	return err
}

// leaseLayer times the lease round trip: a coordinator serving its HTTP
// handler on loopback, one registered client, a task queued before each
// Lease call so the call returns at once with a grant.
func leaseLayer(ctx context.Context, r *run, tr *tracer) error {
	coord := shardrpc.NewCoordinator(shardrpc.Config{})
	defer coord.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: coord.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Close() // also closes ln
		<-served
	}()
	cl := shardrpc.NewClient(shardrpc.ClientConfig{BaseURL: ln.Addr().String(), Name: "bench"})
	if err := cl.Register(ctx); err != nil {
		return err
	}
	var rtts []float64
	for i := 0; i < 40; i++ {
		octx, cancel := context.WithCancel(ctx)
		delivered := make(chan struct{})
		task := shardrpc.Task{ID: shardrpc.TaskID("bench", 0, 0, i), Job: "bench", Shard: i}
		coord.Offer(octx, task, nil, func(sim.Counts, error) { close(delivered) })
		var lease *shardrpc.Lease
		d := tr.do(0, layerOp, "shardrpc.lease", func() { lease, err = cl.Lease(ctx, time.Second) })
		cancel()
		<-delivered
		if err == nil && (lease == nil || lease.Task.ID != task.ID) {
			err = fmt.Errorf("lease %d granted %+v, want task %s", i, lease, task.ID)
		}
		if err != nil {
			return err
		}
		rtts = append(rtts, float64(d))
	}
	r.putDur("shardrpc.lease_rtt_ms", time.Duration(median(rtts)))
	return cl.Deregister(ctx)
}

// ---------------------------------------------------------------------------
// Serving layers: dftsp (service cache), telemetry, and the live probe for
// server, jobs and shardrpc figures only a running fleet shows.
// ---------------------------------------------------------------------------

// hitLoop is how many in-process calls one timed batch makes.
const hitLoop = 2000

func serviceLayers(ctx context.Context, r *run, tr *tracer, ref *dftsp.Service) error {
	var err error
	d := timed(tr, "dftsp.cache_hit", 5, func() {
		for i := 0; i < hitLoop && err == nil; i++ {
			_, _, err = ref.Protocol(ctx, dftsp.Options{Code: "Carbon"})
		}
	})
	if err != nil {
		return err
	}
	r.putPerOp("dftsp.cache_hit_us", d, hitLoop)
	var opts []dftsp.Options
	for _, c := range dftsp.Codes() {
		for _, sp := range spellings(c.Name) {
			opts = append(opts, dftsp.Options{Code: sp})
		}
	}
	d = timed(tr, "dftsp.key", 5, func() {
		for i := 0; i < hitLoop && err == nil; i++ {
			_, err = opts[i%len(opts)].Key()
		}
	})
	if err != nil {
		return err
	}
	r.putPerOp("dftsp.key_us", d, hitLoop)
	var buf bytes.Buffer
	r.putDur("telemetry.expose_us", timed(tr, "telemetry.expose", 200, func() {
		buf.Reset()
		if err == nil {
			err = ref.Metrics().Expose(&buf)
		}
	}))
	return err
}

// probeLive boots a fleet (server with jobs and a worker) and measures the
// HTTP overhead of a warm hit, admission sheds under two clients, and one
// job's checkpoints, lease shares and overhead over in-process sampling.
func probeLive(ctx context.Context, r *run, tr *tracer, cat string, ref *dftsp.Service) error {
	f, err := r.bootFleet(cat)
	if err != nil {
		return err
	}
	defer f.stop()
	m0, err := scrape(f.srv.base)
	if err != nil {
		return err
	}

	// Two closed-loop clients of warm hits; the first 300 of one give the
	// loopback p50.
	var wg sync.WaitGroup
	lat := make([][]float64, 2)
	errs := make([]error, 2)
	for c := range lat {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				var resp synthReply
				t := time.Now()
				if err := postJSON(f.srv.base+"/synthesize", dftsp.Options{Code: "Carbon"}, &resp); err != nil {
					errs[c] = err
					return
				}
				lat[c] = append(lat[c], float64(time.Since(t)))
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var inproc []float64
	for i := 0; i < 300; i++ {
		t := time.Now()
		if _, _, err := ref.Protocol(ctx, dftsp.Options{Code: "Carbon"}); err != nil {
			return err
		}
		inproc = append(inproc, float64(time.Since(t)))
	}
	r.putDur("server.http_overhead_us", time.Duration(median(append(lat[0], lat[1]...))-median(inproc)))

	q := jobSpec{"Steane", 4242}
	wall := tr.do(0, layerOp, "jobs.probe_job", func() { _, err = runJob(f.srv.base, q) })
	if err != nil {
		return err
	}
	m1, err := scrape(f.srv.base)
	if err != nil {
		return err
	}
	delta := func(name string, labels map[string]string) float64 {
		return m1.sum(name, labels) - m0.sum(name, labels)
	}
	r.put("server.shed", delta("dftsp_http_shed_total", nil), "count")
	shards := delta("dftsp_jobs_shards_total", nil)
	r.put("jobs.checkpoints", shards, "count")
	granted := delta("dftsp_remote_leases_total", map[string]string{"event": "granted"})
	if shards == 0 || granted == 0 {
		return fmt.Errorf("probe job ran %g shards with %g leases granted", shards, granted)
	}
	r.put("shardrpc.remote_shard_share", delta("dftsp_remote_shard_seconds_count", nil)/shards, "share")
	relets := delta("dftsp_remote_leases_total", map[string]string{"event": "expired"}) + delta("dftsp_remote_stale_completions_total", nil)
	r.put("shardrpc.relet_share", relets/granted, "share")

	// The same spec sampled in-process, point by point, on as many workers
	// as the fleet has (one local, one remote).
	p, _, err := ref.Protocol(ctx, dftsp.Options{Code: q.code})
	if err != nil {
		return err
	}
	est := sim.NewEstimator(p.Core)
	rates, err := dftsp.LogGrid(1e-4, 1e-1, 13)
	if err != nil {
		return err
	}
	inProc := tr.do(0, layerOp, "sim.adaptive_curve", func() {
		for i, rate := range rates {
			if err == nil {
				_, err = est.AdaptiveModel(ctx, sim.MethodAuto, noise.Uniform(rate), 0.1, 10_000_000, sim.PointSeed(q.seed, i), 2)
			}
		}
	})
	if err != nil {
		return err
	}
	r.put("jobs.overhead_ratio", wall.Seconds()/inProc.Seconds(), "ratio")
	return nil
}

// xorOf returns a literal equal to the parity of lits (false when empty).
func xorOf(b *cnf.Builder, lits []sat.Lit) sat.Lit {
	if len(lits) == 0 {
		return b.False()
	}
	return b.Xor(lits...)
}
