package sim

import (
	"context"

	"repro/internal/noise"
)

// rareMaxW is the highest separately-tracked fault-count stratum; shots
// with more realized faults (possible only through correction blocks
// extending the trajectory) collapse into it.
const rareMaxW = 63

// CondWeightsModel returns the conditional fault-count distribution
// P(K = w | K >= 1) for w = 0..maxW under noise model m, where the fault
// count K over the fault-free path is the sum of three independent class
// binomials Binomial(counts[c], p_c): weights[0] is always 0 and
// weights[w] = P(K = w) / P(K >= 1), with the denominator from
// noise.CondProbModel. Under one shared rate p the numerator is the single
// binomial C(N,w) p^w (1-p)^(N-w) over all N locations (0 for w > N), and
// the weights over w = 1..N sum to 1; otherwise it is the exact class
// convolution (orderPMFModel). Boundary rates take their exact NaN/Inf-free
// limits: a model that fires no faults returns all zeros, a class at rate 1
// contributes its point mass at counts[c].
func CondWeightsModel(counts [3]int, maxW int, m noise.Model) []float64 {
	weights := make([]float64, maxW+1)
	condP := noise.CondProbModel(m, counts)
	if condP <= 0 {
		return weights
	}
	var pmf []float64
	if p, ok := m.UniformRate(); ok {
		// One binomial over all locations, not the class convolution: the
		// two differ in the last float bits.
		n := counts[0] + counts[1] + counts[2]
		pmf = make([]float64, maxW+1)
		for w := 1; w <= maxW && w <= n; w++ {
			pmf[w] = binomPMF(n, w, p)
		}
	} else {
		pmf = orderPMFModel(counts, maxW, m)
	}
	for w := 1; w <= maxW; w++ {
		// The log-space binomial mass can overshoot the exact ratio by a
		// few ulps (exp(log p) != p); clamp so the result is always a
		// probability.
		if weights[w] = pmf[w] / condP; weights[w] > 1 {
			weights[w] = 1
		}
	}
	return weights
}

// RareStratum is one realized-fault-count stratum of a rare-event run.
type RareStratum struct {
	// W is the realized fault count of the stratum; the top stratum
	// (W = 63) also absorbs any higher counts.
	W int

	// Shots and Fails are the conditional shots that realized W faults and
	// how many of them failed.
	Shots int
	Fails int

	// Weight is the stratum's conditional probability P(K = W | K >= 1)
	// under the skeleton binomial model (0 when W exceeds the fault-free
	// location count: those shots grew extra locations in correction
	// blocks).
	Weight float64
}

// RareEventResult reports a rare-event (>= 1-fault conditional) estimate:
// the AdaptiveResult fields carry the pooled exact estimate
// PL = CondP·Fails/Shots with its scaled Wilson interval, and the strata
// break the same shots down by realized fault count, the
// FaultOrder-compatible view (see ToFaultOrder).
type RareEventResult struct {
	AdaptiveResult

	// N is the number of fault locations on the fault-free path.
	N int

	// Q is the conditional failure proportion Fails/Shots, i.e.
	// P(logical error | >= 1 fault); PL = CondP·Q.
	Q float64

	// Strata holds the realized-fault-count strata that received at least
	// one shot, in increasing W order.
	Strata []RareStratum
}

// ToFaultOrder converts the stratified view into a FaultOrderResult: F[w]
// is the sampled conditional failure probability given w realized faults
// (F[0] = 0 exactly — a fault-free shot follows the deterministic
// fault-free path and cannot fail), up to the highest stratum that
// received shots. Rate/RateLower then recombine the strata under the
// binomial location weights, which reproduces the pooled PL up to
// post-stratification noise and lets rare-event runs feed every consumer
// of the subset-sampling estimator.
func (r RareEventResult) ToFaultOrder() FaultOrderResult {
	maxW := 0
	for _, s := range r.Strata {
		if s.W > maxW {
			maxW = s.W
		}
	}
	f := make([]float64, maxW+1)
	for _, s := range r.Strata {
		if s.Shots > 0 {
			f[s.W] = float64(s.Fails) / float64(s.Shots)
		}
	}
	return FaultOrderResult{N: r.N, F: f}
}

// RareEventAdaptive is RareEventAdaptiveModel under the uniform model at
// physical rate p, which must lie strictly inside (0, 1) (ErrBadRate).
func (est *Estimator) RareEventAdaptive(ctx context.Context, p float64, targetRSE float64, maxShots int, seed int64, workers int) (RareEventResult, error) {
	return est.RareEventAdaptiveModel(ctx, noise.Uniform(p), targetRSE, maxShots, seed, workers)
}

// RareEventAdaptiveModel is AdaptiveModel with MethodRare, reported with the
// rare-event breakdown: every shot is drawn from the exact >= 1-fault
// conditional distribution, so no sampling effort is spent on the
// fault-free shots that dominate direct Monte-Carlo at low rates, and the
// conditional failure proportion Q is reweighted by the exact conditioning
// probability CondP to the unconditional PL = CondP·Q. targetRSE applies to
// PL, whose relative error equals that of Q since CondP is an exact
// constant. Alongside the pooled estimate the result bins shots by realized
// fault count, yielding FaultOrder-compatible strata weighted by
// CondWeightsModel, plus the Kish effective sample size and weight variance
// of the post-stratification weights.
func (est *Estimator) RareEventAdaptiveModel(ctx context.Context, m noise.Model, targetRSE float64, maxShots int, seed int64, workers int) (RareEventResult, error) {
	pooled, ar, err := est.adaptive(ctx, MethodRare, m, targetRSE, maxShots, seed, workers)
	if err != nil {
		return RareEventResult{}, err
	}
	counts := est.ClassCounts()
	res := RareEventResult{
		AdaptiveResult: ar,
		N:              counts[0] + counts[1] + counts[2],
		Q:              float64(pooled.Fails) / float64(pooled.Shots),
	}
	weights := CondWeightsModel(counts, rareMaxW, m)
	for _, s := range pooled.Strata {
		res.Strata = append(res.Strata, RareStratum{
			W: s.W, Shots: int(s.Shots), Fails: int(s.Fails), Weight: weights[s.W],
		})
	}
	return res, nil
}
