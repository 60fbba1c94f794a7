package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/noise"
)

// Validation sentinels of the estimation entry points. Callers dispatch
// with errors.Is; the dftsp facade maps all of them to its ErrBadOptions.
var (
	// ErrBadShots rejects non-positive shot counts and caps — the previous
	// behaviour was a silent 0/0 = NaN estimate.
	ErrBadShots = errors.New("sim: shot count must be positive")

	// ErrBadSamples rejects non-positive per-order sample counts when any
	// order >= 2 would be sampled (those strata were NaN before).
	ErrBadSamples = errors.New("sim: sample count must be positive")

	// ErrBadOrder rejects stratified fault orders outside [0, N]; orders
	// above the location count fed binomPMF a negative n-w before.
	ErrBadOrder = errors.New("sim: stratified fault order out of range")

	// ErrBadTarget rejects adaptive relative-standard-error targets
	// outside [0, 1).
	ErrBadTarget = errors.New("sim: target RSE out of range")
)

// Estimator measures logical error rates of a protocol under the E1_1
// depolarizing model, following the paper's evaluation: the protocol is
// followed by one perfect round of lookup-table error correction and a
// destructive Z-basis readout; a logical error is registered when the
// corrected result anticommutes with a logical operator of the prepared
// eigenstate (a logical Z for |0>_L, flipped by residual X errors).
//
// NewEstimator compiles the protocol into a Program and its 64-lane Batch,
// the one production shot engine. Every shot of the adaptive estimators
// (AdaptiveModel, RareEventAdaptiveModel, NewBlockRunnerModel) runs on the
// Batch; FaultOrderModel and NonDeterministicStats run on the scalar
// Program. The reference executor Run is kept only as a test oracle. A protocol beyond the engine's packing limits
// has no engine; the entry points then return ErrEngineUnavailable.
type Estimator struct {
	P     *core.Protocol
	prog  *Program // compiled shot engine; nil if compilation failed
	batch *Batch   // 64-lane engine over prog; nil if compilation failed
	err   error    // why compilation failed, wrapping ErrEngineUnavailable
}

// LocationKinds returns the location-kind vector of the protocol's
// fault-free path in execution order — one entry per fault location, the N
// of the fault-order and rare-event estimators — as recorded by Compile;
// nil when the protocol did not compile. The slice is shared and must not
// be modified.
func (est *Estimator) LocationKinds() []noise.LocKind {
	if est.prog == nil {
		return nil
	}
	return est.prog.kinds
}

// ClassCounts returns the per-class location counts of the fault-free path,
// indexed by noise.LocKind.
func (est *Estimator) ClassCounts() [3]int {
	return noise.CountKinds(est.LocationKinds())
}

// NewEstimator compiles the shot program plus its 64-lane batch engine;
// Judge shares the program's dense decoder. A protocol beyond the packing
// limits gets an estimator whose entry points return the compile error
// wrapped in ErrEngineUnavailable.
func NewEstimator(p *core.Protocol) *Estimator {
	est := &Estimator{P: p}
	prog, err := Compile(p)
	if err != nil {
		est.err = fmt.Errorf("%w: %w", ErrEngineUnavailable, err)
		return est
	}
	est.prog = prog
	est.batch, _ = NewBatch(prog) // fails only for a nil program
	return est
}

// Program returns the compiled shot engine, or nil when the protocol
// exceeded the engine's packing limits.
func (est *Estimator) Program() *Program { return est.prog }

// Batch returns the 64-lane bit-parallel engine, or nil when the protocol
// exceeded the compiled engine's packing limits.
func (est *Estimator) Batch() *Batch { return est.batch }

// Judge applies the perfect EC round to an outcome and reports a logical
// error in the paper's sense: after lookup-table correction, the residual X
// error anticommutes with a logical Z of the prepared eigenstate. Residual
// Z errors cannot cause a logical error on |0...0>_L — the state is a +1
// eigenstate of every logical Z, so any post-EC Z residual (which lies in
// span(Hz ∪ Lz)) acts trivially; this is also why the paper's simulation
// reads out only the Z logicals destructively. It judges outcomes of the
// reference executor with the compiled program's decoder, so it needs a
// protocol that compiled.
func (est *Estimator) Judge(out Outcome) bool {
	ex := out.Ex.Xor(est.prog.dec.Decode(out.Ex))
	for i := 0; i < est.P.Code.Lz.Rows(); i++ {
		if ex.Dot(est.P.Code.Lz.Row(i)) == 1 {
			return true
		}
	}
	return false
}

// FaultOrderResult holds the stratified conditional failure probabilities:
// F[w] is the probability of a logical error given exactly w faulted
// locations, estimated exactly for w ≤ 1 and by sampling above.
type FaultOrderResult struct {
	N int // fault locations on the fault-free path
	F []float64

	// ClassCounts breaks N down by location class (indexed by
	// noise.LocKind); populated by FaultOrder and FaultOrderModel, and
	// required by RateModel under a per-class model. Results built
	// elsewhere (e.g. RareEventResult.ToFaultOrder) leave it zero and
	// support only uniform-rate recombination.
	ClassCounts [3]int
}

// FaultOrder is FaultOrderModel under the paper's uniform model: every
// location weighted equally, every operator uniformly within its location.
func (est *Estimator) FaultOrder(ctx context.Context, maxW, samples int, rng *rand.Rand) (FaultOrderResult, error) {
	return est.FaultOrderModel(ctx, maxW, samples, rng, noise.Uniform(1))
}

// FaultOrderModel computes the stratified estimator (a substitute for
// dynamic subset sampling): order w = 0 and 1 are enumerated exhaustively —
// for a fault-tolerant protocol F[1] must be exactly 0, which doubles as the
// FT certificate — and orders 2..maxW are sampled with the given number of
// samples per order. Cancelling ctx aborts the enumeration and sampling
// loops promptly with ctx.Err().
//
// The noise model is given as a ratio model: the class rates of ratio are
// relative weights (their overall scale cancels — pass the model at any
// physical rate, or the ratio vector itself), and ratio.Eta tilts the
// two-qubit operator menu. Locations are weighted by their class rate and
// operators by the menu weights — the conditional fault distribution of the
// model in the p -> 0 limit, which is the regime the stratified estimator
// targets (at finite rates the order-conditional location law acquires O(p)
// corrections the subset sampler ignores, exactly as published
// subset-sampling estimators do). Recombine with Rate or RateModel.
//
// maxW must lie in [0, N] where N is the protocol's fault location count
// (violations wrap ErrBadOrder; orders above N used to feed binomPMF a
// negative n-w), and samples must be positive whenever maxW >= 2 requires
// sampling (violations wrap ErrBadSamples; those strata used to come out
// as 0/0 = NaN). Every fault plan runs on the compiled Program; a protocol
// that did not compile returns ErrEngineUnavailable.
func (est *Estimator) FaultOrderModel(ctx context.Context, maxW, samples int, rng *rand.Rand, ratio noise.Model) (FaultOrderResult, error) {
	if est.err != nil {
		return FaultOrderResult{}, est.err
	}
	if maxW < 0 {
		return FaultOrderResult{}, fmt.Errorf("%w: maxW %d < 0", ErrBadOrder, maxW)
	}
	if maxW >= 2 && samples <= 0 {
		return FaultOrderResult{}, fmt.Errorf("%w: %d samples for sampled orders 2..%d", ErrBadSamples, samples, maxW)
	}
	kinds := est.LocationKinds()
	n := len(kinds)
	if maxW > n {
		return FaultOrderResult{}, fmt.Errorf("%w: maxW %d exceeds the %d fault locations", ErrBadOrder, maxW, n)
	}
	res := FaultOrderResult{N: n, F: make([]float64, maxW+1), ClassCounts: noise.CountKinds(kinds)}

	// The uniform model keeps its own arithmetic and RNG draws: equal
	// location weights summed as counts, and an Intn draw for the location
	// and the operator. The weighted form below draws different RNG outputs
	// and rounds differently.
	uniform := ratio.IsUniform()

	// Per-class operator distributions and their cumulative tables, built
	// once for the whole enumeration.
	var opW, opCum [3][]float64
	for k := range opW {
		opW[k] = noise.OpWeights(noise.LocKind(k), ratio.Eta)
		opCum[k] = make([]float64, len(opW[k]))
		cum := 0.0
		for i, w := range opW[k] {
			cum += w
			opCum[k][i] = cum
		}
		opCum[k][len(opCum[k])-1] = 1
	}
	classW := [3]float64{ratio.P1Q, ratio.P2Q, ratio.PMeas}

	// One shot and one fault map serve every plan of the enumeration.
	prog, sh := est.prog, est.prog.NewShot()
	faults := map[int]noise.Fault{}

	if maxW >= 1 {
		// Exhaustive order 1: locations weighted by their class rate,
		// operators by the menu weights — the model's single-fault
		// conditionals.
		var sum, totW float64
		for loc, kind := range kinds {
			if err := ctx.Err(); err != nil {
				return FaultOrderResult{}, err
			}
			ops := noise.OpsFor(kind)
			var x float64
			for oi, op := range ops {
				clear(faults)
				faults[loc] = op
				prog.Run(sh, noise.NewPlan(faults))
				if !prog.Judge(sh) {
					continue
				}
				if uniform {
					x++
				} else {
					x += opW[kind][oi]
				}
			}
			if uniform {
				sum += x / float64(len(ops))
				totW++
			} else {
				sum += classW[kind] * x
				totW += classW[kind]
			}
		}
		res.F[1] = sum / totW
	}

	// Per-class location index lists and the class-selection distribution
	// for the sampled orders.
	var locIdx [3][]int32
	for loc, kind := range kinds {
		locIdx[kind] = append(locIdx[kind], int32(loc))
	}
	var classCum [3]float64
	classTot := 0.0
	for k := range classCum {
		classTot += classW[k] * float64(len(locIdx[k]))
		classCum[k] = classTot
	}

	for w := 2; w <= maxW; w++ {
		var x float64
		for s := 0; s < samples; s++ {
			if s%ctxPollShots == 0 {
				if err := ctx.Err(); err != nil {
					return FaultOrderResult{}, err
				}
			}
			clear(faults)
			for len(faults) < w {
				var loc int
				if uniform {
					loc = rng.Intn(n)
				} else {
					u := rng.Float64() * classTot
					kind := 0
					// Skip past lighter classes and — at exact cum
					// boundaries — classes that carry no mass at all.
					for kind < 2 && (u > classCum[kind] || classW[kind]*float64(len(locIdx[kind])) == 0) {
						kind++
					}
					idx := locIdx[kind]
					loc = int(idx[rng.Intn(len(idx))])
				}
				if _, dup := faults[loc]; dup {
					continue
				}
				kind := kinds[loc]
				ops := noise.OpsFor(kind)
				if uniform {
					faults[loc] = ops[rng.Intn(len(ops))]
					continue
				}
				uo := rng.Float64()
				oi := 0
				for oi < len(ops)-1 && uo > opCum[kind][oi] {
					oi++
				}
				faults[loc] = ops[oi]
			}
			prog.Run(sh, noise.NewPlan(faults))
			if prog.Judge(sh) {
				x++
			}
		}
		res.F[w] = x / float64(samples)
	}
	return res, nil
}

// Rate evaluates the stratified logical error rate at physical rate p:
// pL(p) = Σ_w C(N,w) p^w (1-p)^(N-w) F[w], with the unsampled tail
// (w > maxW) bounded by 1/2 as in dynamic subset sampling's upper bound.
// Use RateLower for the no-tail lower bound.
func (r FaultOrderResult) Rate(p float64) float64 {
	return r.rate(p, r.F, true)
}

// RateLower is Rate without the tail bound.
func (r FaultOrderResult) RateLower(p float64) float64 {
	return r.rate(p, r.F, false)
}

// RateModel evaluates the stratified logical error rate under a per-class
// model m: the fault-order distribution becomes the convolution of the three
// class binomials Binomial(n_c, p_c) over ClassCounts, replacing the single
// Binomial(N, p) of Rate, with the same 1/2 tail bound on the uncovered
// orders. A uniform-rate m delegates to Rate(p) bit-identically; a
// per-class m requires ClassCounts (populated by FaultOrder and
// FaultOrderModel).
func (r FaultOrderResult) RateModel(m noise.Model) float64 {
	if p, ok := m.UniformRate(); ok {
		return r.Rate(p)
	}
	pmf := orderPMFModel(r.ClassCounts, len(r.F)-1, m)
	total := 0.0
	covered := 0.0
	for w := 0; w < len(r.F); w++ {
		covered += pmf[w]
		total += pmf[w] * r.F[w]
	}
	total += 0.5 * math.Max(0, 1-covered)
	return total
}

// orderPMFModel returns the unconditional fault-count distribution
// P(K = w) for w = 0..maxW under per-class rates: the convolution of the
// three independent class binomials Binomial(counts[c], p_c). Boundary
// rates take their exact limits NaN/Inf-free via binomPMF's clamps.
func orderPMFModel(counts [3]int, maxW int, m noise.Model) []float64 {
	rates := [3]float64{m.P1Q, m.P2Q, m.PMeas}
	out := make([]float64, 1, maxW+1)
	out[0] = 1
	for c, n := range counts {
		out = convolveBinom(out, n, rates[c], maxW)
	}
	for len(out) < maxW+1 {
		out = append(out, 0)
	}
	return out
}

// convolveBinom convolves a PMF vector with Binomial(n, p), truncating at
// order maxW (truncation is exact for the retained entries: order w only
// needs class orders <= w).
func convolveBinom(a []float64, n int, p float64, maxW int) []float64 {
	top := n
	if top > maxW {
		top = maxW
	}
	pmf := make([]float64, top+1)
	for w := 0; w <= top; w++ {
		pmf[w] = binomPMF(n, w, p)
	}
	hi := len(a) - 1 + top
	if hi > maxW {
		hi = maxW
	}
	res := make([]float64, hi+1)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, pv := range pmf {
			if i+j > maxW {
				break
			}
			res[i+j] += av * pv
		}
	}
	return res
}

func (r FaultOrderResult) rate(p float64, f []float64, tail bool) float64 {
	total := 0.0
	covered := 0.0
	for w := 0; w < len(f); w++ {
		aw := binomPMF(r.N, w, p)
		covered += aw
		total += aw * f[w]
	}
	if tail {
		total += 0.5 * math.Max(0, 1-covered)
	}
	return total
}

// binomPMF returns C(n,w) p^w (1-p)^(n-w) computed in logs for stability.
// Boundary rates take their exact point-mass limits: without the p >= 1
// branch the w == n term would evaluate 0·log(1-1) = 0·(-Inf) = NaN.
func binomPMF(n, w int, p float64) float64 {
	if p <= 0 {
		if w == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if w == n {
			return 1
		}
		return 0
	}
	lg := lgamma(n+1) - lgamma(w+1) - lgamma(n-w+1) +
		float64(w)*math.Log(p) + float64(n-w)*math.Log1p(-p)
	return math.Exp(lg)
}

func lgamma(x int) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
}
