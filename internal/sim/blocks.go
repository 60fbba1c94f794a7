package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/noise"
)

// Block geometry of the deterministic round scheduler (RunRounds), exported
// so the distributed job layer (internal/jobs) shards work on exactly the
// same grid the in-process estimators sample on: a point's budget is cut
// into BlockShots-shot blocks whose RNG streams are keyed by block index,
// and the stopping rule is evaluated every BlocksPerRound blocks. Any
// execution that runs the same blocks with the same seed and pools the
// counts — no matter how many workers, processes or machines it spreads
// them over — reproduces the single-process (shots, fails) sequence
// bit-identically.
const (
	// BlockShots is the number of shots in one sampling block, the unit of
	// deterministic work distribution. It is a multiple of 64, so batch
	// blocks run whole lane words except in the clamped final block of a
	// budget.
	BlockShots = 4096

	// BlocksPerRound is the number of blocks between stopping-rule checks.
	// It is a fixed constant — deliberately not scaled by the worker count,
	// which would make the stopping decision (and therefore the reported
	// shot totals) depend on the machine: large enough that per-round
	// synchronization is invisible in the throughput, small enough that an
	// easy target stops within ~10^5 shots.
	BlocksPerRound = 32
)

// PointSeed derives the sampling seed of curve point i from a run seed, the
// convention shared by Protocol.Estimate and the job layer: offsetting the
// seed per point keeps rates from sharing RNG streams, and using one shared
// rule keeps a sharded job bit-identical to an in-process estimate of the
// same grid.
func PointSeed(seed int64, point int) int64 {
	return seed + int64(point+1)*0x51ED270B
}

// RSE returns the relative standard error sqrt((1-q)/fails) of a binomial
// failure proportion q = fails/shots — the adaptive stopping statistic,
// identical for the direct and rare-event estimators since the rare-event
// conditioning weight cancels. It is 0 when fails (or shots) is not
// positive: the RSE is undefined without observed failures.
func RSE(fails, shots int64) float64 {
	if fails <= 0 || shots <= 0 {
		return 0
	}
	return math.Sqrt((1 - float64(fails)/float64(shots)) / float64(fails))
}

// StratumCount is the exactly-poolable view of one realized-fault-count
// stratum: raw integer counts, no derived statistics.
type StratumCount struct {
	// W is the realized fault count of the stratum.
	W int `json:"w"`

	// Shots and Fails are the conditional shots that realized W faults and
	// how many of them failed.
	Shots int64 `json:"shots"`
	Fails int64 `json:"fails"`
}

// Counts is the raw outcome of a sampling slice — a block, a shard, a whole
// run — in the exactly-poolable representation the distributed job layer
// checkpoints and aggregates: (shots, fails) integer pairs sum exactly, so
// pooling N slices and finishing the pool (Result) is bit-identical to
// having sampled the union in one process. Strata carry the rare-event
// estimator's per-fault-count breakdown (sorted by W, only strata that
// received shots); direct sampling leaves it nil.
type Counts struct {
	// Shots and Fails are the executed shot count and observed failures of
	// the slice.
	Shots int64 `json:"shots"`
	Fails int64 `json:"fails"`

	// Strata is the realized-fault-count breakdown of the same shots, in
	// increasing W order; nil for direct sampling.
	Strata []StratumCount `json:"strata,omitempty"`
}

// PoolCounts merges sampling slices by exact integer addition: pooled shots
// and fails are the sums, and strata are merged stratum-wise by W. Because
// every operation is an integer sum, the result is independent of the order
// and grouping of the parts — the "sums exactly" contract that makes
// adaptive estimation embarrassingly shardable: workers, replicas and
// checkpoint slices can be pooled in any order and the coordinator's
// recomputed statistics (Result) match a single-process run bit-for-bit.
func PoolCounts(parts ...Counts) Counts {
	var out Counts
	strata := map[int]*StratumCount{}
	for _, c := range parts {
		out.Shots += c.Shots
		out.Fails += c.Fails
		for _, s := range c.Strata {
			if acc, ok := strata[s.W]; ok {
				acc.Shots += s.Shots
				acc.Fails += s.Fails
			} else {
				sc := s
				strata[s.W] = &sc
			}
		}
	}
	for _, s := range strata {
		out.Strata = append(out.Strata, *s)
	}
	sort.Slice(out.Strata, func(i, j int) bool { return out.Strata[i].W < out.Strata[j].W })
	return out
}

// ResultModel finishes a pooled count into the derived statistics of an
// adaptive run under noise model m: the rate estimate, RSE and 95% Wilson
// confidence interval, plus — for MethodRare — the conditioning weight
// CondP (noise.CondProbModel), the Kish effective sample size and the
// weight variance under the fault-count post-stratification weights of
// CondWeightsModel. It is the finisher of the in-process adaptive
// estimators, so a coordinator pooling checkpointed shard counts reproduces
// the single-process result bit-identically — except ShotsPerSec, which is
// wall-clock and stays 0 here.
//
// method must be resolved (MethodDirect or MethodRare, not MethodAuto).
// counts holds the protocol's fault locations by class
// (Estimator.ClassCounts); under a uniform model only their total matters.
// Both are used only by MethodRare, which also requires every class rate
// below 1, fault locations, and a positive conditioning weight
// (ErrBadRate). Counts with no shots wrap ErrBadShots.
func (c Counts) ResultModel(method Method, m noise.Model, counts [3]int) (AdaptiveResult, error) {
	if c.Shots <= 0 {
		return AdaptiveResult{}, fmt.Errorf("%w: cannot finish a pool of %d shots", ErrBadShots, c.Shots)
	}
	res := AdaptiveResult{
		PL:     float64(c.Fails) / float64(c.Shots),
		Shots:  int(c.Shots),
		Fails:  int(c.Fails),
		Method: method,
		RSE:    RSE(c.Fails, c.Shots),
		CondP:  1,
	}
	res.CILo, res.CIHi = Wilson(int(c.Fails), int(c.Shots))
	if method == MethodDirect {
		res.EffectiveSamples = float64(c.Shots)
		return res, nil
	}
	if method != MethodRare {
		return AdaptiveResult{}, fmt.Errorf("sim: Counts.ResultModel needs a resolved method (direct or rare), got %q", method)
	}

	if m.MaxRate() >= 1 {
		return AdaptiveResult{}, fmt.Errorf("%w: max class rate = %g", ErrBadRate, m.MaxRate())
	}
	if total := counts[0] + counts[1] + counts[2]; total <= 0 {
		return AdaptiveResult{}, fmt.Errorf("%w: %d fault locations", ErrBadRate, total)
	}
	condP := noise.CondProbModel(m, counts)
	if condP <= 0 {
		return AdaptiveResult{}, fmt.Errorf("%w: model fires no faults on this protocol", ErrBadRate)
	}
	res.CondP = condP
	res.PL *= condP
	res.CILo, res.CIHi = condP*res.CILo, condP*res.CIHi

	weights := CondWeightsModel(counts, rareMaxW, m)
	var sumW, sumW2 float64
	for _, s := range c.Strata {
		if s.Shots <= 0 || s.W < 0 || s.W > rareMaxW {
			continue // W outside [0, rareMaxW] carries no binomial mass
		}
		sumW += weights[s.W]
		sumW2 += weights[s.W] * weights[s.W] / float64(s.Shots)
	}
	res.EffectiveSamples = float64(c.Shots)
	if sumW2 > 0 {
		res.EffectiveSamples = sumW * sumW / sumW2
	}
	if res.EffectiveSamples > 0 {
		res.WeightVariance = math.Max(0, float64(c.Shots)/res.EffectiveSamples-1)
	}
	return res, nil
}

// stratum is the bare per-fault-count accumulator shared by the rare-event
// estimator's workers and the block runner.
type stratum struct{ shots, fails int }

// BlockRunner samples deterministic blocks of the RunRounds grid for one
// (method, noise model) pair: block b of a run seeded s always draws from
// the RNG stream keyed by (s, b), so any assignment of blocks to runners —
// across goroutines, processes or machines — accumulates the same
// per-block (shots, fails, strata) counts. It is the primitive under the
// in-process adaptive estimators and the unit of work of the distributed
// job layer's shards.
//
// A BlockRunner is not safe for concurrent use; create one per worker. The
// accumulated Counts of a runner whose RunBlock was cut short by context
// cancellation are partial and must be discarded, never checkpointed.
type BlockRunner struct {
	est    *Estimator
	method Method // resolved: direct or rare
	batch  bool

	// Engine state; exactly one engine/method combination is populated.
	inj  *noise.Depolarizing
	smp  *noise.SparseSampler
	cj   *noise.CondInjector
	csmp *noise.CondSampler
	sh   *Shot
	bs   *BatchShot

	shots  int64
	fails  int64
	strata [rareMaxW + 1]stratum
}

// NewBlockRunnerModel builds a block sampler for noise model model. method
// may be MethodAuto, which resolves through the crossover policy
// (CrossoverModel); an explicit MethodRare requires every class rate below 1
// and a model that can fire at least one fault on the protocol
// (ErrBadRate). The runner samples on the estimator's selected engine
// (SetEngine), which is part of the deterministic identity of the stream:
// batch and scalar engines draw different RNG sequences. A protocol that
// did not compile returns ErrEngineUnavailable.
func (est *Estimator) NewBlockRunnerModel(method Method, model noise.Model) (*BlockRunner, error) {
	if est.err != nil {
		return nil, est.err
	}
	m, err := est.resolveMethodModel(method, model)
	if err != nil {
		return nil, err
	}
	r := &BlockRunner{est: est, method: m, batch: est.useBatch()}
	if m == MethodRare {
		kinds := est.LocationKinds()
		if r.batch {
			r.csmp = noise.NewCondSamplerModel(model, kinds, 0)
			r.bs = est.batch.NewShot()
		} else {
			r.cj = noise.NewCondInjectorModel(model, kinds, 0)
			r.sh = est.prog.NewShot()
		}
		return r, nil
	}
	if r.batch {
		r.smp = noise.NewSparseSamplerModel(model, 0)
		r.bs = est.batch.NewShot()
	} else {
		r.inj = noise.NewDepolarizing(model, rand.New(rand.NewSource(0)))
		r.sh = est.prog.NewShot()
	}
	return r, nil
}

// RunBlock samples exactly n shots of block b of the run seeded seed,
// folding them into the runner's accumulated counts, and returns the
// block's failure count. The block's RNG stream depends only on (seed, b) —
// never on the runner, goroutine or prior blocks — which is what makes any
// block-to-worker assignment reproduce the same totals. Cancelling ctx
// returns early with the failures seen so far; the runner's accumulated
// Counts are then partial and must be discarded.
func (r *BlockRunner) RunBlock(ctx context.Context, seed int64, b, n int) int {
	r.shots += int64(n)
	count := 0
	defer func() { r.fails += int64(count) }()

	est := r.est
	if r.method == MethodRare {
		if r.batch {
			r.csmp.Reseed(blockSeed(seed, b))
			for i := 0; i < n; i += 64 {
				if ctx.Err() != nil {
					return count
				}
				live := ^uint64(0)
				if rem := n - i; rem < 64 {
					live = 1<<uint(rem) - 1
				}
				r.csmp.Reset(live)
				est.batch.Run(r.bs, r.csmp, live)
				failed := est.batch.Judge(r.bs) & live
				count += bits.OnesCount64(failed)
				for l := live; l != 0; l &= l - 1 {
					lane := uint(bits.TrailingZeros64(l))
					k := int(r.csmp.Faults[lane])
					if k > rareMaxW {
						k = rareMaxW
					}
					r.strata[k].shots++
					if failed>>lane&1 == 1 {
						r.strata[k].fails++
					}
				}
			}
		} else {
			r.cj.Reseed(blockSeed(seed, b))
			for i := 0; i < n; i++ {
				if i%ctxPollShots == 0 && ctx.Err() != nil {
					return count
				}
				r.cj.Reset()
				est.prog.Run(r.sh, r.cj)
				k := r.cj.Faults
				if k > rareMaxW {
					k = rareMaxW
				}
				r.strata[k].shots++
				if est.prog.Judge(r.sh) {
					r.strata[k].fails++
					count++
				}
			}
		}
		return count
	}

	if r.batch {
		r.smp.Reseed(blockSeed(seed, b))
		// One 64-lane word per iteration; the final word is masked to the
		// remainder so exactly n shots run and the reported total can never
		// exceed the budget.
		for i := 0; i < n; i += 64 {
			if ctx.Err() != nil {
				return count
			}
			live := ^uint64(0)
			if rem := n - i; rem < 64 {
				live = 1<<uint(rem) - 1
			}
			est.batch.Run(r.bs, r.smp, live)
			count += bits.OnesCount64(est.batch.Judge(r.bs))
		}
	} else {
		r.inj.Rng.Seed(int64(blockSeed(seed, b)))
		for i := 0; i < n; i++ {
			if i%ctxPollShots == 0 && ctx.Err() != nil {
				return count
			}
			est.prog.Run(r.sh, r.inj)
			if est.prog.Judge(r.sh) {
				count++
			}
		}
	}
	return count
}

// Counts snapshots the runner's accumulated totals in the poolable
// representation: pooled across runners (PoolCounts) they equal the totals
// of a single runner having executed every block.
func (r *BlockRunner) Counts() Counts {
	c := Counts{Shots: r.shots, Fails: r.fails}
	if r.method == MethodRare {
		for w, s := range r.strata {
			if s.shots > 0 {
				c.Strata = append(c.Strata, StratumCount{W: w, Shots: int64(s.shots), Fails: int64(s.fails)})
			}
		}
	}
	return c
}

// ResetCounts clears the accumulated totals, keeping the engine state, so a
// runner can be reused across checkpointed slices.
func (r *BlockRunner) ResetCounts() {
	r.shots, r.fails = 0, 0
	r.strata = [rareMaxW + 1]stratum{}
}
