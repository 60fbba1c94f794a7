package jobs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// metricValue digs one un-labeled sample out of an exposition payload.
func metricValue(t *testing.T, exposition, name string) string {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return rest
		}
	}
	t.Fatalf("metric %s not in exposition:\n%s", name, exposition)
	return ""
}

// TestRunnerMetrics drives a small job through an instrumented runner and
// checks the full metric lifecycle: the running gauge returns to zero, the
// queue drains, every durable shard is counted, and a resumed job shows up
// in the resume counter.
func TestRunnerMetrics(t *testing.T) {
	reg := telemetry.New()
	spec := Spec{
		ProtocolKey: testProtocolKey,
		Rates:       []float64{3e-2},
		MCShots:     2 * sim.BlockShots,
		Seed:        3,
	}
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store, steaneResolver(t), 2, "")
	r.Instrument(reg)
	st, err := r.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, r, st.ID)
	if st.State != StateDone {
		t.Fatalf("job state %q, want done", st.State)
	}
	if err := r.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := metricValue(t, out, "dftsp_jobs_running"); got != "0" {
		t.Errorf("dftsp_jobs_running = %s after completion, want 0", got)
	}
	if got := metricValue(t, out, "dftsp_jobs_queue_depth"); got != "0" {
		t.Errorf("dftsp_jobs_queue_depth = %s after completion, want 0", got)
	}
	if got := metricValue(t, out, "dftsp_jobs_shards_total"); got == "0" {
		t.Error("dftsp_jobs_shards_total stayed 0 over a completed job")
	}
	if got := metricValue(t, out, "dftsp_jobs_shard_seconds_count"); got == "0" {
		t.Error("shard histogram recorded no observations")
	}
	if err := telemetry.Lint(strings.NewReader(out)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}

	// A second runner over the same store resumes nothing (the job is
	// done); an unfinished job on disk is resumed and counted.
	reg2 := telemetry.New()
	store2, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prepPartial(t, store2, spec, 1, 0)
	r2 := NewRunner(store2, steaneResolver(t), 2, "")
	r2.Instrument(reg2)
	resumed, err := r2.ResumeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 {
		t.Fatalf("resumed %d jobs, want 1", len(resumed))
	}
	waitTerminal(t, r2, resumed[0].ID)
	if err := r2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := reg2.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, sb.String(), "dftsp_jobs_resumed_total"); got != "1" {
		t.Errorf("dftsp_jobs_resumed_total = %s, want 1", got)
	}
}

// TestQueueDepthWithWorkersListener pins the queue-depth gauge on the
// job-fleet deployment: with a workers listener up, zero workers connected
// and the local pool held busy, the job's shards wait in the shard
// coordinator and the gauge must show them; once the pool is released and
// the job finishes, it must read 0 again.
func TestQueueDepthWithWorkersListener(t *testing.T) {
	reg := telemetry.New()
	r, _ := remoteRunner(t, 2)
	r.Instrument(reg)
	depth := func() string {
		t.Helper()
		var sb strings.Builder
		if err := reg.Expose(&sb); err != nil {
			t.Fatal(err)
		}
		return metricValue(t, sb.String(), "dftsp_jobs_queue_depth")
	}

	// Occupy both pool workers so no shard can start.
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	for w := 0; w < 2; w++ {
		r.tasks <- func() { <-release }
	}

	st, err := r.Submit(remoteSpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for depth() == "0" {
		if time.Now().After(deadline) {
			t.Fatal("dftsp_jobs_queue_depth stayed 0 while shards waited for a busy pool")
		}
		time.Sleep(time.Millisecond)
	}

	unblock()
	st = waitTerminal(t, r, st.ID)
	if st.State != StateDone {
		t.Fatalf("job state %q (err %q)", st.State, st.Error)
	}
	if got := depth(); got != "0" {
		t.Fatalf("dftsp_jobs_queue_depth = %s after the job finished, want 0", got)
	}
}
