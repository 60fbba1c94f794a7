package shardrpc

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// fakeClock is the injectable clock of the TTL tests: time advances only
// when a test says so, so lease-expiry scenarios run in microseconds.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// delivery records one deliver invocation.
type delivery struct {
	counts sim.Counts
	err    error
}

const testTTL = 10 * time.Second

// testCoord builds a coordinator on a fake clock with an instrumented
// registry, plus a task whose expected shot count is one full block.
func testCoord(t *testing.T, cfg Config) (*Coordinator, *fakeClock, *telemetry.Registry) {
	t.Helper()
	clock := newFakeClock()
	cfg.Now = clock.Now
	if cfg.TTL == 0 {
		cfg.TTL = testTTL
	}
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	reg := telemetry.New()
	c.Instrument(reg)
	return c, clock, reg
}

// testTask returns a one-block task description.
func testTask(id string) Task {
	return Task{
		ID: id, Job: "job1", Point: 0, Round: 0, Shard: 0,
		ProtocolKey: "proto", Method: "direct",
		Seed: 42, Block0: 0, Block1: 1, Budget: sim.BlockShots,
	}
}

// goodCounts matches testTask's expected shot total.
func goodCounts(fails int64) sim.Counts {
	return sim.Counts{Shots: sim.BlockShots, Fails: fails}
}

// offer queues a task and returns its delivery channel.
func offer(c *Coordinator, desc Task) chan delivery {
	ch := make(chan delivery, 4)
	c.Offer(context.Background(), desc, nil, func(counts sim.Counts, err error) {
		ch <- delivery{counts, err}
	})
	return ch
}

// expectNone asserts nothing was delivered.
func expectNone(t *testing.T, ch chan delivery) {
	t.Helper()
	select {
	case d := <-ch:
		t.Fatalf("unexpected delivery: %+v", d)
	default:
	}
}

// expectDelivered asserts exactly one delivery with the given counts.
func expectDelivered(t *testing.T, ch chan delivery, want sim.Counts) {
	t.Helper()
	select {
	case d := <-ch:
		if d.err != nil {
			t.Fatalf("delivered error %v, want counts %+v", d.err, want)
		}
		if !reflect.DeepEqual(d.counts, want) {
			t.Fatalf("delivered %+v, want %+v", d.counts, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("nothing delivered")
	}
	expectNone(t, ch)
}

// counterValue reads one labeled series of the lease-event counter.
func leaseEvents(reg *telemetry.Registry, c *Coordinator, event string) uint64 {
	return c.metrics.leases.With(event).Value()
}

func TestLeaseLifecycle(t *testing.T) {
	c, clock, reg := testCoord(t, Config{})
	wid, ttl, err := c.Register("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if ttl != testTTL {
		t.Fatalf("ttl = %v, want %v", ttl, testTTL)
	}

	ch := offer(c, testTask("t1"))
	lease, err := c.Lease(wid, 0)
	if err != nil || lease == nil {
		t.Fatalf("lease: %v, %v", lease, err)
	}
	if lease.Gen != 1 || lease.Task.ID != "t1" {
		t.Fatalf("lease = %+v", lease)
	}
	if lease.Task.ExpectedShots() != sim.BlockShots {
		t.Fatalf("expected shots = %d", lease.Task.ExpectedShots())
	}

	// Heartbeats renew: advance past the original deadline in renewed
	// steps, then past a missed renewal to prove Tick would have expired
	// an unrenewed lease.
	for i := 0; i < 3; i++ {
		clock.Advance(testTTL * 3 / 4)
		if err := c.Heartbeat(wid, "t1", lease.Gen); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
		c.Tick()
	}
	if got := leaseEvents(reg, c, "expired"); got != 0 {
		t.Fatalf("expired = %d after renewed heartbeats", got)
	}

	dup, err := c.Complete(wid, "t1", lease.Gen, goodCounts(7))
	if err != nil || dup {
		t.Fatalf("complete: dup=%v err=%v", dup, err)
	}
	expectDelivered(t, ch, goodCounts(7))

	if w, l := c.Stats(); w != 1 || l != 0 {
		t.Fatalf("stats = (%d workers, %d leases)", w, l)
	}
	if got := leaseEvents(reg, c, "granted"); got != 1 {
		t.Fatalf("granted = %d", got)
	}
	if got := leaseEvents(reg, c, "renewed"); got != 3 {
		t.Fatalf("renewed = %d", got)
	}
}

// TestCompletionMatrix is the table-driven failure matrix of the
// completion path: death-and-re-lease, stale fencing, duplicate
// idempotency and the garbage guard.
func TestCompletionMatrix(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, c *Coordinator, clock *fakeClock, reg *telemetry.Registry, ch chan delivery)
	}{
		{"worker death mid-shard re-leases", func(t *testing.T, c *Coordinator, clock *fakeClock, reg *telemetry.Registry, ch chan delivery) {
			a, _, _ := c.Register("a")
			b, _, _ := c.Register("b")
			la, _ := c.Lease(a, 0)
			if la == nil || la.Gen != 1 {
				t.Fatalf("lease a = %+v", la)
			}
			// Worker a dies silently; its lease expires and the shard is
			// re-leased to b under the next generation.
			clock.Advance(testTTL + time.Second)
			c.Tick()
			if got := leaseEvents(reg, c, "expired"); got != 1 {
				t.Fatalf("expired = %d", got)
			}
			lb, _ := c.Lease(b, 0)
			if lb == nil || lb.Gen != 2 {
				t.Fatalf("lease b = %+v", lb)
			}
			if got := leaseEvents(reg, c, "stolen"); got != 1 {
				t.Fatalf("stolen = %d", got)
			}
			if dup, err := c.Complete(b, "t1", lb.Gen, goodCounts(3)); err != nil || dup {
				t.Fatalf("complete b: dup=%v err=%v", dup, err)
			}
			expectDelivered(t, ch, goodCounts(3))
		}},
		{"stale completion after expiry rejected", func(t *testing.T, c *Coordinator, clock *fakeClock, reg *telemetry.Registry, ch chan delivery) {
			a, _, _ := c.Register("a")
			b, _, _ := c.Register("b")
			la, _ := c.Lease(a, 0)
			clock.Advance(testTTL + time.Second)
			c.Tick()
			lb, _ := c.Lease(b, 0)
			// The zombie finishes after expiry: its generation is stale and
			// the counts must never reach the job.
			if _, err := c.Complete(a, "t1", la.Gen, goodCounts(999)); !errors.Is(err, ErrStaleCompletion) {
				t.Fatalf("zombie complete: %v", err)
			}
			expectNone(t, ch)
			if c.metrics.stale.Value() != 1 {
				t.Fatalf("stale = %d", c.metrics.stale.Value())
			}
			// The live lease still completes exactly once.
			if dup, err := c.Complete(b, "t1", lb.Gen, goodCounts(1)); err != nil || dup {
				t.Fatalf("complete b: dup=%v err=%v", dup, err)
			}
			expectDelivered(t, ch, goodCounts(1))
			// And the zombie retrying yet again stays rejected.
			if _, err := c.Complete(a, "t1", la.Gen, goodCounts(999)); !errors.Is(err, ErrStaleCompletion) {
				t.Fatalf("zombie re-complete: %v", err)
			}
			expectNone(t, ch)
		}},
		{"duplicate completion idempotent", func(t *testing.T, c *Coordinator, clock *fakeClock, reg *telemetry.Registry, ch chan delivery) {
			a, _, _ := c.Register("a")
			la, _ := c.Lease(a, 0)
			if dup, err := c.Complete(a, "t1", la.Gen, goodCounts(5)); err != nil || dup {
				t.Fatalf("first complete: dup=%v err=%v", dup, err)
			}
			// A retried delivery of the same completion acknowledges
			// without a second delivery.
			dup, err := c.Complete(a, "t1", la.Gen, goodCounts(5))
			if err != nil || !dup {
				t.Fatalf("retried complete: dup=%v err=%v", dup, err)
			}
			expectDelivered(t, ch, goodCounts(5))
		}},
		{"wrong generation rejected before expiry", func(t *testing.T, c *Coordinator, clock *fakeClock, reg *telemetry.Registry, ch chan delivery) {
			a, _, _ := c.Register("a")
			la, _ := c.Lease(a, 0)
			if _, err := c.Complete(a, "t1", la.Gen+1, goodCounts(0)); !errors.Is(err, ErrStaleCompletion) {
				t.Fatalf("future gen: %v", err)
			}
			if _, err := c.Complete(a, "unknown-task", la.Gen, goodCounts(0)); !errors.Is(err, ErrStaleCompletion) {
				t.Fatalf("unknown task: %v", err)
			}
			expectNone(t, ch)
		}},
		{"garbage completion re-leases", func(t *testing.T, c *Coordinator, clock *fakeClock, reg *telemetry.Registry, ch chan delivery) {
			a, _, _ := c.Register("a")
			la, _ := c.Lease(a, 0)
			// Wrong shot total: rejected, never delivered, shard re-leased.
			bad := sim.Counts{Shots: 1, Fails: 0}
			if _, err := c.Complete(a, "t1", la.Gen, bad); !errors.Is(err, ErrGarbageCompletion) {
				t.Fatalf("garbage complete: %v", err)
			}
			expectNone(t, ch)
			if c.metrics.garbage.Value() != 1 {
				t.Fatalf("garbage = %d", c.metrics.garbage.Value())
			}
			la2, _ := c.Lease(a, 0)
			if la2 == nil || la2.Gen != la.Gen+1 {
				t.Fatalf("re-lease = %+v", la2)
			}
			// The revoked generation is now stale even for its own holder.
			if _, err := c.Complete(a, "t1", la.Gen, goodCounts(0)); !errors.Is(err, ErrStaleCompletion) {
				t.Fatalf("revoked gen: %v", err)
			}
			if dup, err := c.Complete(a, "t1", la2.Gen, goodCounts(2)); err != nil || dup {
				t.Fatalf("good complete: dup=%v err=%v", dup, err)
			}
			expectDelivered(t, ch, goodCounts(2))
		}},
		{"inconsistent strata rejected", func(t *testing.T, c *Coordinator, clock *fakeClock, reg *telemetry.Registry, ch chan delivery) {
			a, _, _ := c.Register("a")
			la, _ := c.Lease(a, 0)
			bad := sim.Counts{Shots: sim.BlockShots, Fails: 1,
				Strata: []sim.StratumCount{{W: 1, Shots: 5, Fails: 1}}}
			if _, err := c.Complete(a, "t1", la.Gen, bad); !errors.Is(err, ErrGarbageCompletion) {
				t.Fatalf("bad strata: %v", err)
			}
			expectNone(t, ch)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, clock, reg := testCoord(t, Config{})
			ch := offer(c, testTask("t1"))
			tc.run(t, c, clock, reg, ch)
		})
	}
}

func TestLocalPoolClaimRace(t *testing.T) {
	// SubmitLocal hands claims to a fake local pool; a claimed task is
	// gone before a remote worker can lease it.
	var mu sync.Mutex
	var claims []func()
	c, _, _ := testCoord(t, Config{
		SubmitLocal: func(claim func(), settled <-chan struct{}) {
			mu.Lock()
			claims = append(claims, claim)
			mu.Unlock()
		},
	})
	ran := false
	ch := make(chan delivery, 1)
	c.Offer(context.Background(), testTask("t1"), func() (sim.Counts, error) {
		ran = true
		return goodCounts(11), nil
	}, func(counts sim.Counts, err error) { ch <- delivery{counts, err} })

	mu.Lock()
	claim := claims[0]
	mu.Unlock()
	claim()
	if !ran {
		t.Fatal("local claim did not execute the task")
	}
	expectDelivered(t, ch, goodCounts(11))

	// A remote worker arriving after the local claim gets nothing, and a
	// second invocation of the claim is a no-op.
	wid, _, _ := c.Register("late")
	if lease, err := c.Lease(wid, 0); err != nil || lease != nil {
		t.Fatalf("post-claim lease = %+v, %v", lease, err)
	}
	claim()
	expectNone(t, ch)
}

func TestOfferAbortsOnContextCancel(t *testing.T) {
	c, _, _ := testCoord(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan delivery, 1)
	c.Offer(ctx, testTask("t1"), nil, func(counts sim.Counts, err error) {
		ch <- delivery{counts, err}
	})
	cancel()
	select {
	case d := <-ch:
		if !errors.Is(d.err, context.Canceled) {
			t.Fatalf("delivered err = %v", d.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort not delivered")
	}
	// The settled task cannot be leased.
	wid, _, _ := c.Register("a")
	for deadline := time.Now().Add(5 * time.Second); ; {
		if lease, err := c.Lease(wid, 0); err != nil {
			t.Fatal(err)
		} else if lease == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatal("aborted task still leasable")
		}
	}
}

func TestCloseQuiescesOutstanding(t *testing.T) {
	c, _, _ := testCoord(t, Config{})
	wid, _, _ := c.Register("a")
	ch := offer(c, testTask("t1"))
	lease, _ := c.Lease(wid, 0)

	c.Close()
	// The outstanding task aborts with ErrClosed — the runner checkpoints
	// nothing for it and the job stays resumable.
	select {
	case d := <-ch:
		if !errors.Is(d.err, ErrClosed) {
			t.Fatalf("delivered err = %v", d.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not settle the outstanding task")
	}
	if err := c.Heartbeat(wid, "t1", lease.Gen); !errors.Is(err, ErrClosed) {
		t.Fatalf("heartbeat after close: %v", err)
	}
	if _, err := c.Complete(wid, "t1", lease.Gen, goodCounts(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("complete after close: %v", err)
	}
	if _, _, err := c.Register("b"); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v", err)
	}
}

func TestWorkerPruneAndDeregister(t *testing.T) {
	c, clock, _ := testCoord(t, Config{})
	a, _, _ := c.Register("a")
	b, _, _ := c.Register("b")
	if w, _ := c.Stats(); w != 2 {
		t.Fatalf("workers = %d", w)
	}
	c.Deregister(a)
	if w, _ := c.Stats(); w != 1 {
		t.Fatalf("workers after deregister = %d", w)
	}
	// b goes silent past the liveness horizon and is pruned; leasing with
	// the pruned ID now fails ErrUnknownWorker (the client re-registers).
	clock.Advance(5 * testTTL)
	c.Tick()
	if w, _ := c.Stats(); w != 0 {
		t.Fatalf("workers after prune = %d", w)
	}
	if _, err := c.Lease(b, 0); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("pruned lease: %v", err)
	}
}

// TestParkedLongPollSurvivesPrune pins that a worker whose only "silence"
// is a parked lease long-poll is NOT pruned: the parked request is live
// evidence of the worker. With short lease TTLs (fast chaos recovery) the
// prune horizon 4×TTL is easily shorter than a long-poll, and pruning a
// parked worker would make it lose every grant to a 404/re-register cycle.
func TestParkedLongPollSurvivesPrune(t *testing.T) {
	c, clock, _ := testCoord(t, Config{})
	wid, _, _ := c.Register("parked")
	got := make(chan *Lease, 1)
	go func() {
		lease, _ := c.Lease(wid, 30*time.Second)
		got <- lease
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		parked := len(c.waiters) == 1
		c.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long-poll never parked")
		}
		time.Sleep(time.Millisecond)
	}

	clock.Advance(20 * testTTL)
	c.Tick()
	if w, _ := c.Stats(); w != 1 {
		t.Fatalf("workers after prune with parked poll = %d, want 1", w)
	}

	// The parked poll still wins the next offer.
	offer(c, testTask("t1"))
	select {
	case lease := <-got:
		if lease == nil || lease.Task.ID != "t1" {
			t.Fatalf("parked lease after prune tick = %+v", lease)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked poll did not wake after prune tick")
	}
}

func TestLongPollWakesOnOffer(t *testing.T) {
	c, _, _ := testCoord(t, Config{})
	wid, _, _ := c.Register("a")
	got := make(chan *Lease, 1)
	go func() {
		lease, _ := c.Lease(wid, 10*time.Second)
		got <- lease
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	ch := offer(c, testTask("t1"))
	select {
	case lease := <-got:
		if lease == nil || lease.Task.ID != "t1" {
			t.Fatalf("long-poll lease = %+v", lease)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll did not wake on offer")
	}
	_ = ch
}
