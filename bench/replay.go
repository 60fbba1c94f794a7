package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/dftsp"
	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/prep"
	"repro/internal/sim"
	"repro/internal/store"
)

// replay runs one pass of the run's workload in-process, every layer call
// in a span under one root span, and returns the root's span ID.
func replay(ctx context.Context, r *run, tr *tracer, cat string, ref *dftsp.Service) (int, error) {
	root := tr.begin(0, r.cfg.workload, "e2e."+r.cfg.workload)
	var err error
	switch r.cfg.workload {
	case "table1-synth":
		err = replayTable1(ctx, r, tr, root)
	case "fig4-curve":
		err = replayFig4(ctx, r, tr, root, cat)
	case "serve-mixed":
		err = replayServeMixed(ctx, r, tr, root, ref)
	case "job-fleet":
		err = replayJobs(ctx, r, tr, root, cat)
	default:
		err = fmt.Errorf("no replay for workload %q", r.cfg.workload)
	}
	tr.finish(root)
	return root, err
}

// replayTable1 synthesizes every Table I row the way the service does
// (preparation, then BuildFromPrep, then the store write) and checks each
// row against its pinned metrics.
func replayTable1(ctx context.Context, r *run, tr *tracer, root int) error {
	dir, err := r.scratch("replay-store")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	rows := table1Rows()
	for _, i := range r.rng.Perm(len(rows)) {
		row := rows[i]
		op := row.id()
		cs, err := code.ByName(row.Code)
		if err != nil {
			return err
		}
		var pc *circuit.Circuit
		if row.Prep == dftsp.PrepOptimal {
			tr.do(root, op, "prep.optimal", func() { pc, err = prep.Optimal(ctx, cs, 0) })
			if err != nil {
				return err
			}
		}
		if pc == nil {
			tr.do(root, op, "prep.heuristic", func() { pc = prep.Heuristic(cs) })
		}
		cfg := core.Config{}
		if row.Verif == dftsp.VerifGlobal {
			cfg.Verif = core.VerifGlobal
		}
		var p *core.Protocol
		tr.do(root, op, "core.build_from_prep", func() { p, err = core.BuildFromPrep(ctx, cs, pc, cfg) })
		if err != nil {
			return err
		}
		key, err := dftsp.Options{Code: row.Code, Prep: row.Prep, Verif: row.Verif}.Key()
		if err != nil {
			return err
		}
		meta := store.Meta{Key: key, Code: cs.Name, Params: cs.Params()}
		tr.do(root, op, "store.encode", func() { _, err = store.Encode(meta, p) })
		if err == nil {
			tr.do(root, op, "store.put", func() { err = st.Put(meta, p) })
		}
		if err != nil {
			return err
		}
		m, err := parseRow(cs.Params(), p.ComputeMetrics().FormatRow())
		if err == nil {
			err = r.exp.checkRow(row.id(), m)
		}
		r.check("replayed row "+row.id(), err)
	}
	return nil
}

// replayFig4 estimates the Fig. 4 curves the way Protocol.Estimate does:
// decode, compile, the stratified pass, then one adaptive run per point.
func replayFig4(ctx context.Context, r *run, tr *tracer, root int, cat string) error {
	st, err := store.OpenReadOnly(cat)
	if err != nil {
		return err
	}
	rates, err := dftsp.LogGrid(1e-4, 1e-1, 13)
	if err != nil {
		return err
	}
	ratio := noise.Uniform(1)
	for _, i := range r.rng.Perm(len(fig4Codes)) {
		c := fig4Codes[i]
		seed := r.sampleSeed()
		op := fmt.Sprintf("%s/%d", c, seed)
		key, err := dftsp.Options{Code: c}.Key()
		if err != nil {
			return err
		}
		var p *core.Protocol
		tr.do(root, op, "store.decode", func() { p, _, err = st.Get(key) })
		if err != nil {
			return err
		}
		var est *sim.Estimator
		tr.do(root, op, "sim.compile", func() { est = sim.NewEstimator(p) })
		tr.do(root, op, "sim.fault_order", func() {
			_, err = est.FaultOrderModel(ctx, 3, 20000, rand.New(rand.NewSource(seed)), ratio)
		})
		if err != nil {
			return err
		}
		var pts []dftsp.RatePoint
		for j, rate := range rates {
			var ar sim.AdaptiveResult
			tr.do(root, op, "sim.adaptive", func() {
				ar, err = est.AdaptiveModel(ctx, sim.MethodAuto, ratio.Scale(rate), 0.1, 10_000_000, sim.PointSeed(seed, j), r.nproc)
			})
			if err != nil {
				return err
			}
			pts = append(pts, dftsp.RatePoint{P: rate, MC: ar.PL, Shots: ar.Shots, RSE: ar.RSE})
		}
		r.check("replayed curve "+op, r.exp.checkCurve(c, pts))
	}
	return nil
}

// replayServeMixed serves one pass of the request list in one goroutine:
// key, cache hit and response fields for a hit; cache hit, compile and the
// stratified pass for an estimate; an exposition about once a second.
func replayServeMixed(ctx context.Context, r *run, tr *tracer, root int, ref *dftsp.Service) error {
	ratio := noise.Uniform(1)
	last := time.Now()
	var err error
	for i, q := range r.mixedRequests() {
		op := fmt.Sprintf("req%d", i)
		if time.Since(last) >= time.Second {
			tr.do(root, op, "telemetry.expose", func() { err = ref.Metrics().Expose(io.Discard) })
			last = time.Now()
		}
		opts := dftsp.Options{Code: q.spelling}
		tr.do(root, op, "dftsp.key", func() { _, err = opts.Key() })
		var p *dftsp.Protocol
		var hit bool
		if err == nil {
			tr.do(root, op, "dftsp.cache_hit", func() { p, hit, err = ref.Protocol(ctx, opts) })
		}
		if err != nil {
			return err
		}
		if !hit || p.CodeName() != q.canon {
			r.fail("replayed request "+op, fmt.Errorf("%s: hit %v, code %q", q.spelling, hit, p.CodeName()))
			continue
		}
		r.ok()
		if !q.estimate {
			tr.do(root, op, "dftsp.response", func() { _, _, _ = p.Summary(), p.MetricsRow(), p.Describe() })
			continue
		}
		var est *sim.Estimator
		tr.do(root, op, "sim.compile", func() { est = sim.NewEstimator(p.Core) })
		tr.do(root, op, "sim.fault_order", func() {
			_, err = est.FaultOrderModel(ctx, 3, 20000, rand.New(rand.NewSource(q.seed)), ratio)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// replayJobs runs one pass of a job list on an in-process service with a
// fresh job store and its local pool only.
func replayJobs(ctx context.Context, r *run, tr *tracer, root int, cat string) error {
	svc, err := r.warmService(cat)
	if err != nil {
		return err
	}
	dir, err := r.scratch("replay-jobs")
	if err != nil {
		return err
	}
	if err := svc.AttachJobs(dir, ""); err != nil {
		return err
	}
	defer svc.ShutdownJobs(context.Background())
	for _, q := range r.jobList() {
		op := fmt.Sprintf("%s/%d", q.code, q.seed)
		rq := q.request()
		var st dftsp.JobStatus
		tr.do(root, op, "dftsp.submit_job", func() { st, err = svc.SubmitJob(ctx, rq.Options, rq.Estimate) })
		if err != nil {
			return err
		}
		tr.do(root, op, "jobs.run", func() { err = waitJob(svc, st.ID) })
		r.check("replayed job "+op, err)
	}
	return nil
}

// waitJob follows a job's progress feed until the job is done.
func waitJob(svc *dftsp.Service, id string) error {
	events, stop, err := svc.WatchJob(id)
	if err != nil {
		return err
	}
	defer stop()
	for ev := range events {
		if ev.Type != "shard" && ev.Type != "point" && ev.Type != "started" {
			break
		}
	}
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(5 * time.Millisecond) {
		st, err := svc.Job(id)
		if err != nil || st.State == dftsp.JobStateDone {
			return err
		}
		if st.State != dftsp.JobStateRunning || time.Now().After(deadline) {
			return fmt.Errorf("job %s is %s", id, st.State)
		}
	}
}
