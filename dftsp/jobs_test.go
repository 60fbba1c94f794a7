package dftsp

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/sim"
)

// waitJob polls until the job settles (anything but running) and returns
// its final status.
func waitJob(t *testing.T, s *Service, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if st.State != jobs.StateRunning {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle within 120s", id)
	return JobStatus{}
}

// checkJobPointMatchesEstimate asserts bit-identity between a finished job
// point and the corresponding /estimate curve point — the cross-layer
// contract that a persistent job reports exactly what an in-process
// Estimate of the same options would.
func checkJobPointMatchesEstimate(t *testing.T, jp JobPoint, pt RatePoint) {
	t.Helper()
	if !jp.Done {
		t.Errorf("point %d not done: %+v", jp.Point, jp)
		return
	}
	if jp.Shots != int64(pt.Shots) {
		t.Errorf("point %d shots = %d, estimate ran %d", jp.Point, jp.Shots, pt.Shots)
	}
	if jp.PL != pt.MC || jp.RSE != pt.RSE || jp.CILo != pt.CILo || jp.CIHi != pt.CIHi {
		t.Errorf("point %d stats diverge from estimate:\n job     = %+v\n estimate= %+v", jp.Point, jp, pt)
	}
	if jp.Method != pt.Method || jp.EffSamples != pt.EffSamples || jp.WeightVar != pt.WeightVar {
		t.Errorf("point %d diagnostics diverge from estimate:\n job     = %+v\n estimate= %+v", jp.Point, jp, pt)
	}
}

func TestSubmitJobMatchesEstimate(t *testing.T) {
	s := NewService(2)
	if err := s.AttachJobs(t.TempDir(), ""); err != nil {
		t.Fatal(err)
	}
	eo := EstimateOptions{
		Rates:   []float64{3e-2, 6e-2},
		MCShots: 3*sim.BlockShots + 1000,
		Seed:    9,
	}
	st, err := s.SubmitJob(bg, Options{}, eo)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.ID) != 32 {
		t.Fatalf("job ID %q is not a content address", st.ID)
	}
	st = waitJob(t, s, st.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}

	res, _, err := s.Estimate(bg, Options{}, eo)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Points) != len(res.Points) {
		t.Fatalf("job has %d points, estimate %d", len(st.Points), len(res.Points))
	}
	for i, pt := range res.Points {
		checkJobPointMatchesEstimate(t, st.Points[i], pt)
	}

	// Resubmitting the identical request attaches to the finished job
	// instead of re-running it.
	again, err := s.SubmitJob(bg, Options{}, eo)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != st.ID || again.State != jobs.StateDone {
		t.Fatalf("resubmit = %s/%s, want %s/done", again.ID, again.State, st.ID)
	}
}

func TestSubmitJobValidation(t *testing.T) {
	detached := NewService(2)
	if _, err := detached.SubmitJob(bg, Options{}, EstimateOptions{MCShots: 1}); err == nil {
		t.Error("SubmitJob without an attached job store succeeded")
	}
	if _, err := detached.Job("0123456789abcdef0123456789abcdef"); err == nil {
		t.Error("Job without an attached job store succeeded")
	}

	s := NewService(2)
	if err := s.AttachJobs(t.TempDir(), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachJobs(t.TempDir(), ""); err == nil {
		t.Error("second AttachJobs succeeded")
	}
	cases := []struct {
		name string
		eo   EstimateOptions
	}{
		{"no budget", EstimateOptions{Rates: []float64{1e-2}}},
		{"bad method", EstimateOptions{Rates: []float64{1e-2}, MCShots: 10, Method: "magic"}},
		{"bad rate", EstimateOptions{Rates: []float64{2}, MCShots: 10}},
		{"negative target", EstimateOptions{Rates: []float64{1e-2}, TargetRSE: -0.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.SubmitJob(bg, Options{}, tc.eo); !errors.Is(err, ErrBadOptions) {
				t.Errorf("SubmitJob = %v, want ErrBadOptions", err)
			}
		})
	}
	if _, err := s.SubmitJob(bg, Options{Code: "NoSuchCode"}, EstimateOptions{MCShots: 10}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("unknown code: %v, want ErrBadOptions", err)
	}
	if _, err := s.Job("feedfacefeedfacefeedfacefeedface"); !errors.Is(err, ErrJobNotFound) {
		t.Error("unknown job ID did not return ErrJobNotFound")
	}
}

// TestJobSurvivesServiceRestart is the facade half of the resume contract:
// a job interrupted by a graceful shutdown is picked up by a fresh service
// — which resolves the protocol from the shared persistent store, not from
// memory — and finishes bit-identical to an uninterrupted estimate.
func TestJobSurvivesServiceRestart(t *testing.T) {
	dir := t.TempDir()
	// Three points of three rounds each: enough work that the shutdown,
	// issued right after the submit, lands mid-job.
	eo := EstimateOptions{
		Rates:   []float64{3e-2, 4e-2, 5e-2},
		MCShots: 3 * sim.BlocksPerRound * sim.BlockShots,
		Seed:    7,
	}

	s1 := NewService(2)
	if err := s1.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	if err := s1.AttachJobs(dir, ""); err != nil {
		t.Fatal(err)
	}
	st, err := s1.SubmitJob(bg, Options{}, eo)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.ShutdownJobs(bg); err != nil {
		t.Fatal(err)
	}
	paused, err := s1.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	switch paused.State {
	case jobs.StatePaused:
	case jobs.StateDone:
		t.Log("job finished before the shutdown; the resume path was not exercised")
	default:
		t.Fatalf("after shutdown: state %s, want paused or done", paused.State)
	}
	if _, err := s1.SubmitJob(bg, Options{}, eo); !errors.Is(err, jobs.ErrClosed) {
		t.Fatalf("submit after shutdown = %v, want ErrClosed", err)
	}

	// A fresh service over the same directory: no WarmStart, so the
	// resume resolver must reconstruct the protocol from the store.
	s2 := NewService(2)
	if err := s2.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	if err := s2.AttachJobs(dir, ""); err != nil {
		t.Fatal(err)
	}
	resumed, err := s2.ResumeJobs()
	if err != nil {
		t.Fatal(err)
	}
	if paused.State == jobs.StatePaused && len(resumed) != 1 {
		t.Fatalf("resumed %d jobs, want 1", len(resumed))
	}
	final := waitJob(t, s2, st.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("resumed job state = %s (%s), want done", final.State, final.Error)
	}

	// Reference from a third, memory-only service: one uninterrupted run.
	ref := NewService(2)
	res, _, err := ref.Estimate(bg, Options{}, eo)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range res.Points {
		checkJobPointMatchesEstimate(t, final.Points[i], pt)
	}

	// The finished job is listed, and a fresh sweep resumes nothing.
	all, err := s2.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != st.ID || all[0].State != jobs.StateDone {
		t.Fatalf("Jobs() = %+v, want the one done job", all)
	}
	if again, err := s2.ResumeJobs(); err != nil || len(again) != 0 {
		t.Fatalf("second sweep resumed %d jobs (err %v), want 0", len(again), err)
	}
	if err := s2.ShutdownJobs(bg); err != nil {
		t.Fatal(err)
	}
}

func TestCancelJobKeepsCheckpoints(t *testing.T) {
	s := NewService(2)
	if err := s.AttachJobs(t.TempDir(), ""); err != nil {
		t.Fatal(err)
	}
	eo := EstimateOptions{
		Rates:   []float64{4e-2},
		MCShots: 4 * sim.BlocksPerRound * sim.BlockShots,
		Seed:    3,
	}
	st, err := s.SubmitJob(bg, Options{}, eo)
	if err != nil {
		t.Fatal(err)
	}
	events, stop, err := s.WatchJob(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	sawShard := false
	for ev := range events {
		if ev.Type == "shard" {
			sawShard = true
			if err := s.CancelJob(st.ID); err != nil && !errors.Is(err, ErrJobNotFound) {
				t.Fatal(err)
			}
			break
		}
	}
	after := waitJob(t, s, st.ID)
	switch after.State {
	case jobs.StateCancelled:
		if !sawShard || after.Shots == 0 {
			t.Fatalf("cancelled job lost its checkpoints: %+v", after)
		}
	case jobs.StateDone:
		t.Log("job outran the cancel; nothing left to assert")
	default:
		t.Fatalf("after cancel: state %s, want cancelled or done", after.State)
	}
}

// TestSoakConcurrentLoad hammers one service with concurrent synthesis,
// in-process estimates and persistent jobs (submit, watch, cancel, resume)
// for a bounded wall-clock budget. It exists for the CI soak lane (run
// under -race); set DFTSP_SOAK=1 to enable, DFTSP_SOAK_SECONDS to resize.
func TestSoakConcurrentLoad(t *testing.T) {
	if os.Getenv("DFTSP_SOAK") == "" {
		t.Skip("set DFTSP_SOAK=1 to run the soak test")
	}
	seconds := 20
	if v := os.Getenv("DFTSP_SOAK_SECONDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			seconds = n
		}
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)

	dir := t.TempDir()
	s := NewService(2)
	if err := s.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachJobs(dir, ""); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Synthesis churn: repeated protocol requests (all cache hits after
	// the first) racing the estimate and job traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if _, _, err := s.Protocol(bg, Options{}); err != nil {
				report(fmt.Errorf("protocol: %w", err))
				return
			}
		}
	}()

	// In-process estimates sharing the worker pool with job shards.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; time.Now().Before(deadline); it++ {
				eo := EstimateOptions{
					Rates:   []float64{3e-2},
					MCShots: 2 * sim.BlockShots,
					Seed:    int64(1000*g + it + 1),
				}
				if _, _, err := s.Estimate(bg, Options{}, eo); err != nil {
					report(fmt.Errorf("estimate: %w", err))
					return
				}
			}
		}(g)
	}

	// Job traffic: distinct seeds make distinct jobs; every third job is
	// cancelled mid-flight and resubmitted, exercising checkpoint resume
	// under load.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; time.Now().Before(deadline); it++ {
				eo := EstimateOptions{
					Rates:   []float64{4e-2, 6e-2},
					MCShots: 6 * sim.BlockShots,
					Seed:    int64(100000*(g+1) + it),
				}
				st, err := s.SubmitJob(bg, Options{}, eo)
				if err != nil {
					report(fmt.Errorf("submit: %w", err))
					return
				}
				if it%3 == 0 {
					if err := s.CancelJob(st.ID); err != nil && !errors.Is(err, ErrJobNotFound) {
						report(fmt.Errorf("cancel: %w", err))
						return
					}
					if _, err := s.SubmitJob(bg, Options{}, eo); err != nil {
						report(fmt.Errorf("resubmit: %w", err))
						return
					}
				}
				for {
					js, err := s.Job(st.ID)
					if err != nil {
						report(fmt.Errorf("job status: %w", err))
						return
					}
					if js.State == jobs.StateDone {
						break
					}
					if js.State == jobs.StateFailed {
						report(fmt.Errorf("job failed: %s", js.Error))
						return
					}
					if js.State == jobs.StateCancelled || js.State == jobs.StatePaused {
						if _, err := s.SubmitJob(bg, Options{}, eo); err != nil {
							report(fmt.Errorf("resume: %w", err))
							return
						}
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(g)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := s.ShutdownJobs(bg); err != nil {
		t.Fatal(err)
	}
}
