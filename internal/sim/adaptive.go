package sim

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/noise"
)

// blockSeed derives the RNG seed of sampling block b from the caller's
// seed via the SplitMix64 sequence; successive block indices get
// well-separated streams.
func blockSeed(seed int64, b int) uint64 {
	return noise.SplitMix64{State: uint64(seed)}.Seq(uint64(b))
}

// ShotsInBlock returns the shot count of block b of a point whose budget is
// budget shots: BlockShots for every block but the last, which is clamped
// to the remainder so a point never samples more than its budget.
func ShotsInBlock(b, budget int) int {
	return min(BlockShots, budget-b*BlockShots)
}

// RunRounds owns the schedule of one estimation point. It cuts the budget
// into BlockShots-shot blocks, groups them into rounds of BlocksPerRound
// blocks, and calls round(k, b0, b1) for round k, which must sample blocks
// [b0, b1) and return their counts. The rounds' counts are pooled with
// PoolCounts, and the schedule stops after the first round whose pooled
// relative standard error is at most targetRSE (once failures exist), or
// after the last block. targetRSE == 0 runs every block. A round error
// stops the schedule and is returned with the counts pooled before it.
//
// Every estimator of the repository — the in-process adaptive estimators
// and the job coordinator — runs its points through this one function, so
// any two executions that return the same counts for the same blocks stop
// at the same round with the same pooled counts, however the blocks were
// spread over workers, processes or machines.
func RunRounds(budget int, targetRSE float64, round func(k, b0, b1 int) (Counts, error)) (Counts, error) {
	blocks := (budget + BlockShots - 1) / BlockShots
	var pooled Counts
	for k, b0 := 0, 0; b0 < blocks; k, b0 = k+1, b0+BlocksPerRound {
		c, err := round(k, b0, min(b0+BlocksPerRound, blocks))
		if err != nil {
			return pooled, err
		}
		pooled = PoolCounts(pooled, c)
		if targetRSE > 0 && pooled.Fails > 0 && RSE(pooled.Fails, pooled.Shots) <= targetRSE {
			break
		}
	}
	return pooled, nil
}

// AdaptiveResult reports an adaptive (or fixed-budget) Monte-Carlo estimate
// together with its statistical quality. Direct estimates fill the direct
// fields only; rare-event estimates (Method == MethodRare) additionally
// carry the conditioning weight and the weighted-sample diagnostics.
type AdaptiveResult struct {
	// PL is the estimated logical error rate: Fails/Shots for direct
	// sampling, CondP·Fails/Shots for the rare-event estimator.
	PL float64

	// Shots and Fails are the executed shot count and observed failures.
	// For the rare-event estimator both count conditional (>= 1 fault)
	// shots.
	Shots int
	Fails int

	// RSE is the relative standard error sqrt((1-q)/Fails) of the estimate,
	// where q is the per-shot failure proportion (the conditioning weight
	// cancels, so the same formula serves both methods). It is reported as
	// 0 when Fails == 0 (the RSE is undefined without failures — inspect
	// Fails).
	RSE float64

	// CILo and CIHi are the 95% Wilson score confidence interval for PL
	// (scaled by the conditioning weight for the rare-event estimator).
	CILo, CIHi float64

	// ShotsPerSec is the observed sampling throughput.
	ShotsPerSec float64

	// Method is the sampling method that actually ran: MethodDirect or
	// MethodRare (never MethodAuto — auto resolves before sampling).
	Method Method

	// CondP is the conditioning weight P(#faults >= 1) applied to the
	// conditional failure proportion; 1 for direct sampling.
	CondP float64

	// EffectiveSamples is the Kish effective sample size of the run under
	// the fault-count post-stratification weights; equal to Shots for
	// direct sampling (uniform weights).
	EffectiveSamples float64

	// WeightVariance is the relative variance of the per-shot
	// post-stratification weights (Shots/EffectiveSamples - 1); 0 for
	// direct sampling.
	WeightVariance float64
}

// AdaptiveModel estimates the logical error rate under noise model m with
// an adaptive stopping rule. It resolves the requested method against the
// crossover policy (MethodAuto, see CrossoverModel) and samples the point
// on the RunRounds schedule: fixed 4096-shot blocks fanned out over a
// bounded worker pool, until the relative standard error of the estimate
// drops to targetRSE or maxShots is reached, whichever comes first.
// targetRSE == 0 disables the early stop, so exactly maxShots shots run.
//
// MethodDirect samples the model directly. MethodRare samples from the
// exact >= 1-fault conditional distribution (see
// noise.NewCondSamplerModel) and reweights the conditional failure
// proportion by the exact conditioning probability CondP; it requires every
// class rate below 1 and a model that can fire at least one fault on the
// protocol (ErrBadRate). maxShots must be positive (ErrBadShots) and
// targetRSE in [0, 1) (ErrBadTarget). workers <= 0 selects
// DefaultWorkers(). A protocol that did not compile returns
// ErrEngineUnavailable.
//
// Every block's RNG stream is derived from seed via the SplitMix64
// sequence keyed by block index, so the result is a pure function of
// (seed, maxShots, targetRSE, engine, model) on every machine: the worker
// count only changes wall-clock time. The final block is clamped to the
// remaining budget, so the reported Shots never exceeds maxShots.
// Cancelling ctx stops every worker promptly and returns ctx.Err().
func (est *Estimator) AdaptiveModel(ctx context.Context, method Method, m noise.Model, targetRSE float64, maxShots int, seed int64, workers int) (AdaptiveResult, error) {
	_, res, err := est.adaptive(ctx, method, m, targetRSE, maxShots, seed, workers)
	return res, err
}

// adaptive is the body of every in-process adaptive estimate: it validates
// the arguments, builds one BlockRunner per worker, runs the point on
// RunRounds with a round that fans the round's blocks out over the workers
// (atomic per-block claims; each runner reused across rounds), and
// finishes the pooled counts. It returns the pooled counts alongside the
// finished result, for views that report the strata.
func (est *Estimator) adaptive(ctx context.Context, method Method, m noise.Model, targetRSE float64, maxShots int, seed int64, workers int) (Counts, AdaptiveResult, error) {
	if est.err != nil {
		return Counts{}, AdaptiveResult{}, est.err
	}
	if maxShots <= 0 {
		return Counts{}, AdaptiveResult{}, fmt.Errorf("%w: %d max shots", ErrBadShots, maxShots)
	}
	if targetRSE < 0 || targetRSE >= 1 {
		return Counts{}, AdaptiveResult{}, fmt.Errorf("%w: %g outside [0,1)", ErrBadTarget, targetRSE)
	}
	method, err := est.resolveMethodModel(method, m)
	if err != nil {
		return Counts{}, AdaptiveResult{}, err
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	workers = min(workers, (maxShots+BlockShots-1)/BlockShots)

	// Per-worker block runners persist across rounds; the RNG state is
	// re-keyed per block so the runner owner does not matter.
	runners := make([]*BlockRunner, workers)
	for w := range runners {
		if runners[w], err = est.NewBlockRunnerModel(method, m); err != nil {
			return Counts{}, AdaptiveResult{}, err
		}
	}
	round := func(_, b0, b1 int) (Counts, error) {
		next := int64(b0)
		var wg sync.WaitGroup
		for _, r := range runners {
			wg.Add(1)
			go func(r *BlockRunner) {
				defer wg.Done()
				for ctx.Err() == nil {
					b := int(atomic.AddInt64(&next, 1)) - 1
					if b >= b1 {
						break
					}
					r.RunBlock(ctx, seed, b, ShotsInBlock(b, maxShots))
				}
			}(r)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return Counts{}, err
		}
		parts := make([]Counts, len(runners))
		for w, r := range runners {
			parts[w] = r.Counts()
			r.ResetCounts()
		}
		return PoolCounts(parts...), nil
	}

	start := time.Now()
	pooled, err := RunRounds(maxShots, targetRSE, round)
	if err != nil {
		return Counts{}, AdaptiveResult{}, err
	}
	res, err := pooled.ResultModel(method, m, est.ClassCounts())
	if err != nil {
		return Counts{}, AdaptiveResult{}, err
	}
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		res.ShotsPerSec = float64(pooled.Shots) / elapsed
	}
	return pooled, res, nil
}

// Wilson returns the 95% Wilson score confidence interval for a binomial
// proportion with the given failure and trial counts. Unlike the normal
// approximation it behaves sensibly at zero observed failures, which is the
// common case for fault-tolerant protocols at low physical rates.
func Wilson(fails, shots int) (lo, hi float64) {
	if shots <= 0 {
		return 0, 1
	}
	const z = 1.959963984540054 // Phi^-1(0.975)
	n := float64(shots)
	ph := float64(fails) / n
	denom := 1 + z*z/n
	center := ph + z*z/(2*n)
	half := z * math.Sqrt(ph*(1-ph)/n+z*z/(4*n*n))
	lo = (center - half) / denom
	hi = (center + half) / denom
	return math.Max(0, lo), math.Min(1, hi)
}
