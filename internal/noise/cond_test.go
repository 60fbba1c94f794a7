package noise

import (
	"math"
	"math/bits"
	"testing"
)

// uniformCondSampler is the conditional sampler of the uniform model at rate
// p over n fault locations; on the single-chain path only the location count
// matters, not the kinds.
func uniformCondSampler(p float64, n int, seed uint64) *CondSampler {
	return NewCondSamplerModel(Uniform(p), make([]LocKind, n), seed)
}

// uniformCondProb is the conditioning probability of the uniform model at
// rate p over n fault locations.
func uniformCondProb(n int, p float64) float64 {
	return CondProbModel(Uniform(p), [3]int{n})
}

// TestCondProb pins the uniform model's conditioning probability against
// direct evaluation and its exact boundary limits.
func TestCondProb(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
	}{
		{0, 0.3, 0},
		{5, 0, 0},
		{5, -0.1, 0},
		{5, 1, 1},
		{5, 1.5, 1},
		{1, 0.25, 0.25},
		{2, 0.5, 0.75},
		{3, 0.1, 1 - 0.9*0.9*0.9},
	}
	for _, c := range cases {
		got := uniformCondProb(c.n, c.p)
		if math.Abs(got-c.want) > 1e-15 {
			t.Errorf("uniformCondProb(%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}

	// Tiny rates: the expm1/log1p form must track n·p to first order where
	// the naive 1-(1-p)^n collapses to 0 or loses all digits.
	for _, n := range []int{1, 21, 500} {
		p := 1e-12
		got := uniformCondProb(n, p)
		approx := float64(n) * p
		if got <= 0 || math.Abs(got-approx)/approx > 1e-6 {
			t.Errorf("uniformCondProb(%d, %g) = %g, want ~%g", n, p, got, approx)
		}
	}
}

// condDrawAll walks a CondSampler through n one-qubit sites with the given
// active mask and returns, per lane, the site index of the first fault (or
// -1) and the sampler's final fault tallies.
func condDrawAll(s *CondSampler, live uint64, n int) (first [64]int, faulted uint64) {
	for lane := range first {
		first[lane] = -1
	}
	for site := 0; site < n; site++ {
		x, z := s.Draw1Q(live)
		hit := x | z
		faulted |= hit
		for l := hit; l != 0; l &= l - 1 {
			lane := bits.TrailingZeros64(l)
			if first[lane] < 0 {
				first[lane] = site
			}
		}
	}
	return
}

// TestCondSamplerForcesFault is the defining property of the conditional
// sampler: within the N locations of the fault-free path, every live lane
// must fault at least once, and lanes outside the live mask must never
// fault.
func TestCondSamplerForcesFault(t *testing.T) {
	const n = 37
	const p = 1e-3 // small enough that unconditional words would be mostly fault-free
	s := uniformCondSampler(p, n, 7)
	live := uint64(0xF0F0_F0F0_F0F0_F0F0)
	for word := 0; word < 200; word++ {
		s.Reset(live)
		_, faulted := condDrawAll(s, ^uint64(0), n)
		if faulted&live != live {
			t.Fatalf("word %d: live lanes %016x missing forced faults (faulted %016x)", word, live, faulted)
		}
		if faulted&^live != 0 {
			t.Fatalf("word %d: dead lanes faulted: %016x", word, faulted&^live)
		}
		for lane := 0; lane < 64; lane++ {
			if live>>uint(lane)&1 == 1 && s.Faults[lane] == 0 {
				t.Fatalf("word %d: live lane %d has zero fault tally", word, lane)
			}
			if live>>uint(lane)&1 == 0 && s.Faults[lane] != 0 {
				t.Fatalf("word %d: dead lane %d has fault tally %d", word, lane, s.Faults[lane])
			}
		}
	}
}

// TestCondSamplerFirstFaultDistribution pins the forced first-fault location
// to the truncated geometric P(J = j | J < N) = (1-p)^j p / (1-(1-p)^N):
// per-site counts over many words must sit within 5 sigma of the expected
// multinomial cell counts.
func TestCondSamplerFirstFaultDistribution(t *testing.T) {
	const n = 6
	const p = 0.25
	const words = 2000 // 128k samples across 64 lanes
	s := uniformCondSampler(p, n, 11)
	var counts [n]int
	for w := 0; w < words; w++ {
		s.Reset(^uint64(0))
		first, _ := condDrawAll(s, ^uint64(0), n)
		for lane := 0; lane < 64; lane++ {
			if first[lane] < 0 {
				t.Fatalf("word %d lane %d never faulted", w, lane)
			}
			counts[first[lane]]++
		}
	}
	total := float64(words * 64)
	condP := uniformCondProb(n, p)
	for j := 0; j < n; j++ {
		q := math.Pow(1-p, float64(j)) * p / condP
		mean := total * q
		sd := math.Sqrt(total * q * (1 - q))
		if diff := math.Abs(float64(counts[j]) - mean); diff > 5*sd {
			t.Errorf("first-fault site %d: count %d, want %.0f ± %.0f (5σ)", j, counts[j], mean, 5*sd)
		}
	}
}

// TestCondSamplerTotalFaults checks the unconditional tail after the forced
// first fault: over a straight n-site walk the expected total fault count is
// E[1 + Binomial(n-1-J, p)] = 1 + p(n-1-E[J]), within 5 sigma.
func TestCondSamplerTotalFaults(t *testing.T) {
	const n = 40
	const p = 0.05
	const words = 1500
	s := uniformCondSampler(p, n, 13)
	condP := uniformCondProb(n, p)

	// E[J] for the truncated geometric.
	var ej float64
	for j := 0; j < n; j++ {
		ej += float64(j) * math.Pow(1-p, float64(j)) * p / condP
	}
	mean := 1 + p*(float64(n)-1-ej)

	var sum, sum2 float64
	for w := 0; w < words; w++ {
		s.Reset(^uint64(0))
		condDrawAll(s, ^uint64(0), n)
		for lane := 0; lane < 64; lane++ {
			k := float64(s.Faults[lane])
			sum += k
			sum2 += k * k
		}
	}
	total := float64(words * 64)
	got := sum / total
	variance := sum2/total - got*got
	sd := math.Sqrt(variance / total)
	if diff := math.Abs(got - mean); diff > 5*sd {
		t.Errorf("mean fault count %.4f, want %.4f ± %.4f (5σ)", got, mean, 5*sd)
	}
}

// TestCondInjectorMatchesSampler pins the scalar conditional injector to its
// batch twin: same forced-fault guarantee, and the mean total fault count
// over matched straight-line walks agrees within 5 sigma.
func TestCondInjectorMatchesSampler(t *testing.T) {
	const n = 30
	const p = 0.04
	const shots = 60_000

	cj := NewCondInjectorModel(Uniform(p), make([]LocKind, n), 17)
	var sumS, sumS2 float64
	for s := 0; s < shots; s++ {
		cj.Reset()
		faults := 0
		for site := 0; site < n; site++ {
			if !cj.Next(Loc1Q).IsTrivial() {
				faults++
			}
		}
		if faults == 0 {
			t.Fatalf("shot %d: scalar conditional shot with zero faults", s)
		}
		if faults != cj.Faults {
			t.Fatalf("shot %d: observed %d faults, tally says %d", s, faults, cj.Faults)
		}
		sumS += float64(faults)
		sumS2 += float64(faults) * float64(faults)
	}

	bs := uniformCondSampler(p, n, 19)
	var sumB, sumB2 float64
	for w := 0; w < shots/64; w++ {
		bs.Reset(^uint64(0))
		condDrawAll(bs, ^uint64(0), n)
		for lane := 0; lane < 64; lane++ {
			k := float64(bs.Faults[lane])
			sumB += k
			sumB2 += k * k
		}
	}

	nS, nB := float64(shots), float64(shots/64*64)
	mS, mB := sumS/nS, sumB/nB
	vS, vB := sumS2/nS-mS*mS, sumB2/nB-mB*mB
	sd := math.Sqrt(vS/nS + vB/nB)
	if diff := math.Abs(mS - mB); diff > 5*sd {
		t.Errorf("scalar mean faults %.4f vs batch %.4f (diff > 5σ = %.4f)", mS, mB, 5*sd)
	}
}

// TestCondSamplerReseedDeterministic pins Reseed to full reproducibility:
// two samplers re-keyed to the same seed must produce identical draws.
func TestCondSamplerReseedDeterministic(t *testing.T) {
	const n = 25
	a := uniformCondSampler(0.1, n, 1)
	b := uniformCondSampler(0.1, n, 2)
	a.Reseed(42)
	b.Reseed(42)
	a.Reset(^uint64(0))
	b.Reset(^uint64(0))
	for site := 0; site < n; site++ {
		ax, az := a.Draw1Q(^uint64(0))
		bx, bz := b.Draw1Q(^uint64(0))
		if ax != bx || az != bz {
			t.Fatalf("site %d: reseeded samplers diverge", site)
		}
	}
	if a.Faults != b.Faults {
		t.Fatalf("reseeded samplers tally differently: %v vs %v", a.Faults, b.Faults)
	}
}
