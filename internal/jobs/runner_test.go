package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/sim"
)

// testProtocolKey is the protocol key the test resolver serves.
const testProtocolKey = "steane-test-protocol"

var (
	protoOnce sync.Once
	proto     *core.Protocol
	protoErr  error
)

// steaneProto builds (once) the Steane protocol all runner tests sample.
func steaneProto(t *testing.T) *core.Protocol {
	t.Helper()
	protoOnce.Do(func() {
		proto, protoErr = core.Build(context.Background(), code.Steane(),
			core.Config{Prep: core.PrepHeuristic, Verif: core.VerifOptimal})
	})
	if protoErr != nil {
		t.Fatalf("build steane: %v", protoErr)
	}
	return proto
}

// steaneResolver resolves testProtocolKey to a fresh Steane estimator.
func steaneResolver(t *testing.T) Resolver {
	p := steaneProto(t)
	return func(ctx context.Context, key string) (*sim.Estimator, error) {
		if key != testProtocolKey {
			return nil, fmt.Errorf("unknown protocol %q", key)
		}
		return sim.NewEstimator(p), nil
	}
}

// singleProcessPoint computes the expected result of one job point with
// the plain in-process adaptive estimator — the reference every sharded,
// checkpointed, resumed execution must match bit-for-bit.
func singleProcessPoint(t *testing.T, spec Spec, point int) sim.AdaptiveResult {
	t.Helper()
	spec = spec.Normalized()
	est := sim.NewEstimator(steaneProto(t))
	method, _ := sim.ParseMethod(spec.Method)
	target, budget := spec.Budget()
	ar, err := est.AdaptiveModel(context.Background(), method, noise.Uniform(spec.Rates[point]), target, budget,
		sim.PointSeed(spec.Seed, point), 3)
	if err != nil {
		t.Fatal(err)
	}
	return ar
}

// checkPointMatches requires bit-identity between a job point and the
// single-process reference on every statistical field.
func checkPointMatches(t *testing.T, label string, pt PointStatus, want sim.AdaptiveResult) {
	t.Helper()
	if !pt.Done {
		t.Errorf("%s: point not done: %+v", label, pt)
		return
	}
	if pt.Shots != int64(want.Shots) || pt.Fails != int64(want.Fails) {
		t.Errorf("%s: counts (%d,%d), want (%d,%d)", label, pt.Shots, pt.Fails, want.Shots, want.Fails)
	}
	if pt.PL != want.PL || pt.RSE != want.RSE || pt.CILo != want.CILo || pt.CIHi != want.CIHi {
		t.Errorf("%s: stats (pl=%g rse=%g ci=[%g,%g]), want (pl=%g rse=%g ci=[%g,%g])",
			label, pt.PL, pt.RSE, pt.CILo, pt.CIHi, want.PL, want.RSE, want.CILo, want.CIHi)
	}
	if pt.Method != want.Method.String() || pt.CondP != want.CondP ||
		pt.EffSamples != want.EffectiveSamples || pt.WeightVar != want.WeightVariance {
		t.Errorf("%s: diagnostics (%s condP=%g eff=%g var=%g), want (%s condP=%g eff=%g var=%g)",
			label, pt.Method, pt.CondP, pt.EffSamples, pt.WeightVar,
			want.Method, want.CondP, want.EffectiveSamples, want.WeightVariance)
	}
}

// waitTerminal polls until the job leaves StateRunning.
func waitTerminal(t *testing.T, r *Runner, id string) Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, err := r.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateRunning {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not reach a terminal state")
	return Status{}
}

// TestJobMatchesSingleProcess is the core acceptance invariant for both
// methods: a job executed as checkpointed shards on the worker pool
// reproduces the single-process adaptive estimate bit for bit. The spec
// names the batch engine explicitly, the spelling that must keep working.
func TestJobMatchesSingleProcess(t *testing.T) {
	for _, method := range []string{"direct", "rare"} {
		t.Run("batch/"+method, func(t *testing.T) {
			spec := Spec{
				ProtocolKey: testProtocolKey,
				Method:      method,
				Engine:      "batch",
				Rates:       []float64{3e-3, 3e-2},
				MCShots:     3*sim.BlockShots + 1000, // clamps the final block
				Seed:        7,
			}
			store, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunner(store, steaneResolver(t), 3, "")
			defer r.Close(context.Background())
			st, err := r.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			st = waitTerminal(t, r, st.ID)
			if st.State != StateDone {
				t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
			}
			for i := range spec.Rates {
				want := singleProcessPoint(t, spec, i)
				checkPointMatches(t, fmt.Sprintf("point %d", i), st.Points[i], want)
			}
			// The durable state agrees with the reported one.
			disk, err := store.Load(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !disk.Done {
				t.Error("done job not marked done on disk")
			}
		})
	}
}

// TestAdaptiveJobMatchesSingleProcess covers the adaptive stopping rule:
// the sharded coordinator must stop at exactly the same round boundary as
// the in-process estimator, on auto method resolution.
func TestAdaptiveJobMatchesSingleProcess(t *testing.T) {
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Rates:       []float64{4e-3, 4e-2},
		TargetRSE:   0.2,
		MaxShots:    70 * sim.BlockShots, // several rounds available
		Seed:        11,
	}
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store, steaneResolver(t), 4, "")
	defer r.Close(context.Background())
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, r, st.ID)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	for i := range spec.Rates {
		want := singleProcessPoint(t, spec, i)
		checkPointMatches(t, fmt.Sprintf("point %d", i), st.Points[i], want)
	}
}

// prepPartial writes a job file holding the point-start record and the
// first `shards` shard checkpoints of point 0, computed with the same
// block runners the coordinator uses (plus an optional fail-count bias to
// make checkpoint reuse observable). It returns the job ID.
func prepPartial(t *testing.T, store *Store, spec Spec, shards int, bias int64) string {
	t.Helper()
	spec = spec.Normalized()
	lg, _, err := store.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	ps := PointState{Point: 0, Rate: spec.Rates[0], Method: "direct"}
	if err := lg.Append(Record{Kind: "point", Point: 0, State: &ps}); err != nil {
		t.Fatal(err)
	}
	est := sim.NewEstimator(steaneProto(t))
	_, budget := spec.Budget()
	seed := sim.PointSeed(spec.Seed, 0)
	for sh := 0; sh < shards; sh++ {
		br, err := est.NewBlockRunnerModel(sim.MethodDirect, noise.Uniform(spec.Rates[0]))
		if err != nil {
			t.Fatal(err)
		}
		b0 := sh * ShardBlocks
		b1 := min(b0+ShardBlocks, (budget+sim.BlockShots-1)/sim.BlockShots)
		for b := b0; b < b1; b++ {
			br.RunBlock(context.Background(), seed, b, sim.ShotsInBlock(b, budget))
		}
		c := br.Counts()
		c.Fails += bias
		if err := lg.Append(Record{Kind: "shard", Point: 0, Round: 0, Shard: sh, Counts: &c}); err != nil {
			t.Fatal(err)
		}
	}
	return spec.ID()
}

// partialSpec is the fixed-budget direct spec the prepared-checkpoint
// tests resume: 2 points, 12 blocks each (one round, 2 shards).
func partialSpec() Spec {
	return Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Rates:       []float64{3e-2, 5e-2},
		MCShots:     12 * sim.BlockShots,
		Seed:        7,
	}
}

// TestResumeFromCheckpointMatches resumes a job whose first shard is
// already durable and requires the finished job to be bit-identical to an
// uninterrupted single-process run.
func TestResumeFromCheckpointMatches(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := partialSpec()
	id := prepPartial(t, store, spec, 1, 0)

	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())
	if _, err := r.Submit(spec); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, r, id)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	for i := range spec.Rates {
		want := singleProcessPoint(t, spec, i)
		checkPointMatches(t, fmt.Sprintf("point %d", i), st.Points[i], want)
	}
}

// TestResumeTrustsCheckpoints proves resumed shards are not re-executed:
// a deliberately biased durable shard count flows through to the final
// pooled result unchanged — exactly +bias fails on the same shots.
func TestResumeTrustsCheckpoints(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := partialSpec()
	const bias = 1000
	id := prepPartial(t, store, spec, 1, bias)

	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())
	if _, err := r.Submit(spec); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, r, id)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	want := singleProcessPoint(t, spec, 0)
	pt := st.Points[0]
	if pt.Shots != int64(want.Shots) || pt.Fails != int64(want.Fails)+bias {
		t.Errorf("point 0 counts (%d,%d), want (%d,%d): checkpointed shard was re-executed",
			pt.Shots, pt.Fails, want.Shots, int64(want.Fails)+bias)
	}
}

// TestResumeFromCorruptTail kills the log mid-record: resume must fall
// back to the last good shard, redo only what was never durable, and still
// land bit-identical to a single-process run.
func TestResumeFromCorruptTail(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := partialSpec()
	id := prepPartial(t, store, spec, 2, 0)

	// Tear the final record in half, as a crash mid-append would.
	path := filepath.Join(store.Dir(), Filename(id))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := store.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(before.Shards); got != 1 {
		t.Fatalf("torn log folded %d shards, want 1", got)
	}

	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())
	if _, err := r.Submit(spec); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, r, id)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	for i := range spec.Rates {
		want := singleProcessPoint(t, spec, i)
		checkPointMatches(t, fmt.Sprintf("point %d", i), st.Points[i], want)
	}
}

// TestCancelThenResume cancels a running job, checks its durable progress
// survives, resubmits, and requires the final result to be bit-identical.
func TestCancelThenResume(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		// Three points of three rounds each: enough work that the cancel,
		// issued at the first checkpoint, lands mid-run.
		Rates:   []float64{3e-2, 4e-2, 5e-2},
		MCShots: 3 * sim.BlocksPerRound * sim.BlockShots,
		Seed:    7,
	}
	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())

	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ev, stop, err := r.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for e := range ev {
		if e.Type == "shard" {
			break
		}
	}
	stop()
	if err := r.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	st, err = r.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	switch st.State {
	case StateCancelled:
	case StateDone:
		t.Log("job finished before the cancel; the resume path was not exercised")
	default:
		t.Fatalf("after cancel: state %q", st.State)
	}

	if _, err := r.Submit(spec); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, r, st.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job state %q (err %q), want done", final.State, final.Error)
	}
	for i := range spec.Rates {
		want := singleProcessPoint(t, spec, i)
		checkPointMatches(t, fmt.Sprintf("point %d", i), final.Points[i], want)
	}
}

// TestGracefulCloseCheckpointsAndResumes quiesces a runner mid-job: the
// in-flight shards must be checkpointed, the job left paused, and a fresh
// runner must resume it to the bit-identical result.
func TestGracefulCloseCheckpointsAndResumes(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Rates:       []float64{3e-2, 4e-2, 5e-2},
		MCShots:     3 * sim.BlocksPerRound * sim.BlockShots,
		Seed:        7,
	}
	r := NewRunner(store, steaneResolver(t), 2, "")
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ev, stop, err := r.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for e := range ev {
		if e.Type == "shard" {
			break
		}
	}
	stop()
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err = r.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	switch st.State {
	case StatePaused:
	case StateDone:
		t.Log("job finished before the close; the resume path was not exercised")
	default:
		t.Fatalf("after graceful close: state %q", st.State)
	}
	disk, err := store.Load(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Records == 0 {
		t.Fatal("graceful close left no durable checkpoints")
	}
	if _, err := r.Submit(spec); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}

	r2 := NewRunner(store, steaneResolver(t), 2, "")
	defer r2.Close(context.Background())
	if _, err := r2.Submit(spec); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, r2, st.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job state %q (err %q), want done", final.State, final.Error)
	}
	for i := range spec.Rates {
		want := singleProcessPoint(t, spec, i)
		checkPointMatches(t, fmt.Sprintf("point %d", i), final.Points[i], want)
	}
}

// TestSubmitCoalesces checks submit-or-attach: equal specs (even with
// defaults spelled differently) share one execution, and resubmitting a
// finished job returns its stored result without running anything.
func TestSubmitCoalesces(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Rates:       []float64{3e-2},
		MCShots:     2 * sim.BlockShots,
		Seed:        7,
	}
	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())

	st1, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	alias := spec
	alias.Engine = "auto" // spelled-out default: same job
	st2, err := r.Submit(alias)
	if err != nil {
		t.Fatal(err)
	}
	if st1.ID != st2.ID {
		t.Fatalf("equal specs got different jobs: %s vs %s", st1.ID, st2.ID)
	}
	final := waitTerminal(t, r, st1.ID)
	if final.State != StateDone {
		t.Fatalf("job state %q, want done", final.State)
	}
	again, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateDone || again.Points[0] != final.Points[0] {
		t.Fatalf("resubmit of done job: %+v, want stored result %+v", again, final)
	}
}

// TestWatchStreamsEvents pins the event feed shape: started first, shard
// progress, a point event per finished point with its statistics, and a
// terminal done event before the channel closes.
func TestWatchStreamsEvents(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Gate the resolver so the subscription is attached before any event
	// fires.
	gate := make(chan struct{})
	base := steaneResolver(t)
	resolver := func(ctx context.Context, key string) (*sim.Estimator, error) {
		<-gate
		return base(ctx, key)
	}
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Method:      "direct",
		Rates:       []float64{3e-2, 5e-2},
		MCShots:     10 * sim.BlockShots,
		Seed:        7,
	}
	r := NewRunner(store, resolver, 2, "")
	defer r.Close(context.Background())
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ev, stop, err := r.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	close(gate)

	seen := map[string]int{}
	var pointEvents []Event
	for e := range ev {
		if e.Job != st.ID {
			t.Fatalf("event for wrong job: %+v", e)
		}
		seen[e.Type]++
		if e.Type == "point" {
			pointEvents = append(pointEvents, e)
		}
	}
	if seen["started"] != 1 || seen["done"] != 1 {
		t.Errorf("event counts %v, want exactly one started and one done", seen)
	}
	if seen["shard"] == 0 {
		t.Errorf("no shard progress events: %v", seen)
	}
	if len(pointEvents) != len(spec.Rates) {
		t.Fatalf("%d point events, want %d", len(pointEvents), len(spec.Rates))
	}
	for _, e := range pointEvents {
		if e.Result == nil || !e.Result.Done || e.Result.Shots == 0 {
			t.Errorf("point event without finished result: %+v", e)
		}
	}
}

// TestResolverFailure marks the job failed (with the cause) and leaves it
// resumable.
func TestResolverFailure(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	resolver := func(ctx context.Context, key string) (*sim.Estimator, error) {
		return nil, fmt.Errorf("protocol backend down")
	}
	r := NewRunner(store, resolver, 2, "")
	defer r.Close(context.Background())
	spec := testSpec()
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, r, st.ID)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("job state %q (err %q), want failed with cause", st.State, st.Error)
	}
	// The job is still on disk and a later submit retries it.
	if _, err := store.Load(st.ID); err != nil {
		t.Fatalf("failed job vanished from disk: %v", err)
	}
	if _, err := r.Submit(spec); err != nil {
		t.Fatalf("retry submit: %v", err)
	}
	waitTerminal(t, r, st.ID)
}

// TestResumeAll boots a fresh runner over a store holding one unfinished
// job and requires it to be picked up and finished.
func TestResumeAll(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := partialSpec()
	id := prepPartial(t, store, spec, 1, 0)

	r := NewRunner(store, steaneResolver(t), 2, "")
	defer r.Close(context.Background())
	resumed, err := r.ResumeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0].ID != id {
		t.Fatalf("ResumeAll = %+v, want the one unfinished job", resumed)
	}
	st := waitTerminal(t, r, id)
	if st.State != StateDone {
		t.Fatalf("resumed job state %q (err %q), want done", st.State, st.Error)
	}
	// A second sweep has nothing to do: the job is done on disk.
	resumed, err = r.ResumeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 0 {
		t.Fatalf("second ResumeAll resumed %d jobs, want 0", len(resumed))
	}
}
