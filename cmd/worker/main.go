// Command worker is a remote shard-execution replica for estimation jobs.
// It connects to a coordinator — a dftsp server started with -workers-addr
// (or any jobs runner with remote dispatch active) — registers, and then
// leases job shards one at a time over the shardrpc protocol
// (docs/shard-protocol.md): resolve the shard's protocol by key (from a
// local read-only store if -store is given, otherwise fetched from the
// coordinator), execute its block range on the deterministic block
// scheduler with the resolved method, noise model and seed, and
// report the pooled counts back under the lease's fencing generation.
//
// Because shard RNG streams are keyed by block index and counts pool by
// exact integer addition, a fleet of workers finishes a job bit-identical
// to a single process. The worker renews its lease heartbeat at a third of
// the TTL; if a heartbeat reports the lease lost (the worker stalled past
// the TTL and the shard was re-leased) the shard is abandoned — its counts
// are discarded, never double-counted.
//
// On SIGINT/SIGTERM the worker stops leasing, finishes the shards it
// currently holds, reports them, deregisters and exits 0 — a graceful
// drain. A SIGKILL'd worker simply disappears; its leases expire and the
// coordinator re-leases the shards elsewhere.
//
// Usage:
//
//	worker -coordinator host:9090
//	worker -coordinator host:9090 -store /srv/catalog -parallel 4
//	worker -coordinator host:9090 -name chaos -delay-max 500ms
//
// -delay-max injects a uniformly random sleep before every block — a
// chaos/test aid that makes slow-worker and kill-mid-shard scenarios easy
// to provoke.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/shardrpc"
	"repro/internal/sim"
	"repro/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the worker entry point, factored for tests (which re-exec the
// test binary through it). It returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coordinator = fs.String("coordinator", "", "coordinator address (host:port of the server's -workers-addr listener; required)")
		name        = fs.String("name", "", "worker name reported to the coordinator (default host-pid)")
		storeDir    = fs.String("store", "", "local read-only protocol store; protocols not found there are fetched from the coordinator")
		parallel    = fs.Int("parallel", 1, "shards executed concurrently")
		leaseWait   = fs.Duration("lease-wait", 5*time.Second, "coordinator-side long-poll per lease request")
		delayMax    = fs.Duration("delay-max", 0, "inject a uniformly random sleep up to this duration before every block (chaos/test aid)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *coordinator == "" {
		fmt.Fprintln(stderr, "worker: -coordinator is required")
		return 2
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	logger := log.New(stderr, "worker "+*name+": ", log.LstdFlags|log.Lmsgprefix)

	client := shardrpc.NewClient(shardrpc.ClientConfig{BaseURL: *coordinator, Name: *name})
	if err := client.Register(ctx); err != nil {
		logger.Printf("register with %s: %v", *coordinator, err)
		return 1
	}
	logger.Printf("registered as %s (lease ttl %s)", client.WorkerID(), client.TTL())

	src := &protocolSource{client: client, ests: map[string]*sim.Estimator{}}
	if *storeDir != "" {
		st, err := store.OpenReadOnly(*storeDir)
		if err != nil {
			logger.Printf("open store %s: %v (falling back to coordinator fetches)", *storeDir, err)
		} else {
			src.store = st
		}
	}

	w := &worker{
		client:    client,
		src:       src,
		log:       logger,
		leaseWait: *leaseWait,
		delayMax:  *delayMax,
		rng:       rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(os.Getpid()))),
	}
	var wg sync.WaitGroup
	for slot := 0; slot < max(*parallel, 1); slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(ctx)
		}()
	}
	wg.Wait()

	// Graceful drain: every held shard has been finished and reported by
	// the time the loops return; deregister with a fresh context (ctx is
	// already cancelled by the signal).
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := client.Deregister(dctx); err != nil {
		logger.Printf("deregister: %v", err)
	}
	fmt.Fprintf(stdout, "worker %s: %d shards completed\n", *name, w.completed.Load())
	return 0
}

// worker holds one process's lease-execution state, shared by its
// parallel slots.
type worker struct {
	client    *shardrpc.Client
	src       *protocolSource
	log       *log.Logger
	leaseWait time.Duration
	delayMax  time.Duration
	completed atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

// loop leases and executes shards until ctx is cancelled. A shard being
// executed when ctx cancels (graceful drain) runs to completion — only the
// leasing stops.
func (w *worker) loop(ctx context.Context) {
	for ctx.Err() == nil {
		lease, err := w.client.Lease(ctx, w.leaseWait)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.log.Printf("lease: %v", err)
			select {
			case <-time.After(time.Second):
			case <-ctx.Done():
				return
			}
			continue
		}
		if lease == nil {
			continue
		}
		w.execute(lease)
	}
}

// execute runs one leased shard to completion and reports its counts. The
// shard context is deliberately detached from the signal context: a
// graceful drain finishes held shards. It is cancelled only when the lease
// is lost — then the counts are abandoned, because the coordinator has
// re-leased the shard and would fence our completion off anyway.
func (w *worker) execute(lease *shardrpc.Lease) {
	task := lease.Task
	shardCtx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ttl := time.Duration(lease.TTLMs) * time.Millisecond
	beat := ttl / 3
	if beat < 10*time.Millisecond {
		beat = 10 * time.Millisecond
	}
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(beat)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-shardCtx.Done():
				return
			case <-t.C:
				hctx, hcancel := context.WithTimeout(shardCtx, ttl)
				err := w.client.Heartbeat(hctx, lease)
				hcancel()
				if errors.Is(err, shardrpc.ErrLeaseLost) {
					w.log.Printf("task %s: lease lost, abandoning", task.ID)
					cancel()
					return
				}
			}
		}
	}()

	counts, err := w.runShard(shardCtx, task)
	close(hbStop)
	<-hbDone
	if err != nil {
		w.log.Printf("task %s: abandoned: %v", task.ID, err)
		return
	}
	cctx, ccancel := context.WithTimeout(context.Background(), time.Minute)
	defer ccancel()
	dup, err := w.client.Complete(cctx, lease, counts)
	switch {
	case err != nil:
		w.log.Printf("task %s: completion rejected: %v", task.ID, err)
	case dup:
		w.log.Printf("task %s: completion was a duplicate (already counted)", task.ID)
	default:
		w.completed.Add(1)
		w.log.Printf("task %s: completed (%d shots, %d fails)", task.ID, counts.Shots, counts.Fails)
	}
}

// runShard executes the task's block range on the deterministic block
// scheduler — the identical streams the coordinator's local pool would run.
func (w *worker) runShard(ctx context.Context, task shardrpc.Task) (sim.Counts, error) {
	est, err := w.src.estimator(ctx, task.ProtocolKey)
	if err != nil {
		return sim.Counts{}, err
	}
	method, err := sim.ParseMethod(task.Method)
	if err != nil {
		return sim.Counts{}, err
	}
	br, err := est.NewBlockRunnerModel(method, task.Model)
	if err != nil {
		return sim.Counts{}, err
	}
	for b := task.Block0; b < task.Block1; b++ {
		w.chaosDelay(ctx)
		if err := ctx.Err(); err != nil {
			return sim.Counts{}, err
		}
		br.RunBlock(ctx, task.Seed, b, sim.ShotsInBlock(b, task.Budget))
	}
	if err := ctx.Err(); err != nil {
		return sim.Counts{}, err
	}
	return br.Counts(), nil
}

// chaosDelay sleeps a uniformly random duration up to -delay-max.
func (w *worker) chaosDelay(ctx context.Context) {
	if w.delayMax <= 0 {
		return
	}
	w.mu.Lock()
	d := time.Duration(w.rng.Int63n(int64(w.delayMax)))
	w.mu.Unlock()
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
}

// protocolSource resolves protocol keys to estimators, caching one
// estimator per key: a local read-only store first, the coordinator's
// protocol endpoint second. Estimators are shared read-only across slots,
// exactly as the coordinator's own pool shares them.
type protocolSource struct {
	client *shardrpc.Client
	store  *store.Store

	mu   sync.Mutex
	ests map[string]*sim.Estimator
}

// estimator returns the cached (or freshly resolved) estimator for key.
func (ps *protocolSource) estimator(ctx context.Context, key string) (*sim.Estimator, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if est, ok := ps.ests[key]; ok {
		return est, nil
	}
	var cp *core.Protocol
	if ps.store != nil {
		if p, _, err := ps.store.Get(key); err == nil {
			cp = p
		}
	}
	if cp == nil {
		data, err := ps.client.Protocol(ctx, key)
		if err != nil {
			return nil, fmt.Errorf("fetch protocol %s: %w", key, err)
		}
		cp, _, err = store.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("decode protocol %s: %w", key, err)
		}
	}
	est := sim.NewEstimator(cp)
	ps.ests[key] = est
	return est, nil
}
