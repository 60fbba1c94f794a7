package noise

import (
	"math"
	"math/bits"
)

// This file implements conditional fault sampling for the rare-event
// estimator: drawing fault configurations from the E1_1 model conditioned on
// at least one fault occurring. The construction exploits a structural fact
// of the simulator: a shot with zero faults follows the fault-free path
// exactly, which has a fixed number N of fault locations. Consequently
// "the shot has >= 1 fault" is equivalent to "the first fault lands on one
// of the first N locations", and the conditional distribution factorizes
// sequentially:
//
//   - the first fault's location J is truncated-geometric on [0, N):
//     P(J = j | J < N) = (1-p)^j p / (1 - (1-p)^N),
//   - locations before J are fault-free, the location after J onward fault
//     independently with probability p each (plain geometric gaps), wherever
//     the now-divergent trajectory takes the shot,
//   - the faulting operator at each location is drawn from the location's
//     menu exactly as in the unconditional model.
//
// This is the exact conditional law, not an approximation: replaying it and
// reweighting verdicts by P(#faults >= 1) = 1-(1-p)^N reproduces the direct
// Monte-Carlo distribution bit-for-bit in expectation, which is what the
// overlap-regime cross-check tests pin statistically.

// noFault marks a location counter value no real location reaches: a lane
// (or scalar shot) whose next-fault index is noFault runs fault-free until
// its next Reset.
const noFault = ^uint32(0)

// condTables holds the precomputed fault-free-path tables of a per-class
// conditional sampler, built once per (model, protocol) pair and shared by
// every Reset. With per-class rates the sequential factorization above
// generalizes: the first fault's location J on the fault-free path follows
// P(J = j | J < N) = (prod_{i<j} (1-p_{k_i})) p_{k_j} / CondP — inverted by
// one uniform draw against the precomputed CDF — and each location class
// continues with its own plain geometric chain in that class's own local
// location order (per-class Bernoulli sampling is memoryless, so the chains
// stay exact wherever the divergent trajectory goes). A uniform model never
// builds these tables: it runs the single-chain code path and its RNG
// stream.
type condTables struct {
	rates [3]float64  // per-class fault probabilities
	cinv  [3]float64  // per-class 1/log(1-p); 0 for a zero-rate class
	condP float64     // P(#faults >= 1) over the fault-free path
	cdf   []float64   // first-fault CDF over fault-free-path locations
	kcls  []uint8     // location class of each fault-free-path location
	pfx   [][3]uint32 // pfx[j][c] = class-c locations among locations [0..j]
}

// newCondTables builds the tables for model m over a fault-free path with
// the given location kinds. The caller guarantees 0 < CondP < 1 (see
// NewCondSamplerModel).
func newCondTables(m Model, kinds []LocKind) *condTables {
	n := len(kinds)
	t := &condTables{
		rates: [3]float64{m.P1Q, m.P2Q, m.PMeas},
		condP: CondProbModel(m, CountKinds(kinds)),
		cdf:   make([]float64, n),
		kcls:  make([]uint8, n),
		pfx:   make([][3]uint32, n),
	}
	for c, p := range t.rates {
		if p > 0 {
			t.cinv[c] = 1 / math.Log1p(-p)
		}
	}
	var counts [3]uint32
	surv, sum := 1.0, 0.0
	for j, k := range kinds {
		t.kcls[j] = uint8(k)
		counts[k]++
		t.pfx[j] = counts
		p := t.rates[k]
		sum += surv * p
		surv *= 1 - p
		t.cdf[j] = sum
	}
	// Normalize by the accumulated mass (self-consistent with the entries)
	// and close the table exactly, so the inversion below cannot run off the
	// end at u = 1.
	for j := range t.cdf {
		t.cdf[j] /= sum
	}
	t.cdf[n-1] = 1
	return t
}

// force draws one shot's forced first fault — one uniform inverted against
// the CDF — and schedules every class's next-fault counter: the first
// fault's class fires at its own class-local index, every other class
// starts a plain geometric chain on its locations after the first fault.
func (t *condTables) force(rng *SplitMix64, next *[3]uint32) {
	u := rng.Float64()
	lo, hi := 0, len(t.cdf)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u <= t.cdf[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	c0 := t.kcls[lo]
	next[c0] = t.pfx[lo][c0] - 1 // the forced location, class-locally
	for c := range t.rates {
		if c == int(c0) || t.rates[c] <= 0 {
			continue
		}
		// First class-c location after the forced one is class-local index
		// pfx[lo][c]; it starts a fresh geometric chain.
		g := math.Log(rng.Float64()) * t.cinv[c]
		if g >= float64(noFault) {
			next[c] = noFault
			continue
		}
		nxt := uint64(t.pfx[lo][c]) + uint64(g)
		if nxt >= uint64(noFault) {
			next[c] = noFault
		} else {
			next[c] = uint32(nxt)
		}
	}
}

// nextAfterClass schedules class c's fault after one fired at class-local
// location cur: a plain geometric gap under that class's rate, saturating to
// noFault past the uint32 range.
func (t *condTables) nextAfterClass(rng *SplitMix64, c int, cur uint32) uint32 {
	g := math.Log(rng.Float64()) * t.cinv[c]
	if g >= float64(noFault) {
		return noFault
	}
	nxt := uint64(cur) + 1 + uint64(g)
	if nxt >= uint64(noFault) {
		return noFault
	}
	return uint32(nxt)
}

// CondSampler is the >=1-fault conditional twin of SparseSampler for the
// 64-lane batch engine: every live lane of every word is guaranteed at least
// one fault, drawn from the exact conditional distribution above. Unlike
// SparseSampler it must track per-lane location indices (the conditioning is
// defined in each lane's own location order, which advances only while the
// lane is in the active mask), so each draw costs one counter update per
// active lane instead of the sparse sampler's single comparison per site —
// the price of never sampling a fault-free shot.
//
// Call Reset before every 64-shot word to redraw the forced first-fault
// locations; a CondSampler is not safe for concurrent use.
type CondSampler struct {
	// P is the per-location physical fault probability, in (0, 1).
	P float64

	// N is the number of fault locations on the fault-free path.
	N int

	// CondP is the conditioning weight P(#faults >= 1) = 1-(1-P)^N: the
	// exact probability mass the conditional sample represents. Multiply
	// conditional failure proportions by CondP to recover unconditional
	// ones.
	CondP float64

	// Faults[l] counts the faults injected into lane l since the last
	// Reset; the rare-event estimator bins verdicts by it (fault-count
	// strata).
	Faults [64]uint16

	rng    SplitMix64
	invLog float64    // 1 / log(1-p)
	cnt    [64]uint32 // locations executed per lane since Reset
	next   [64]uint32 // lane-local location index of each lane's next fault

	// Per-class model state; tab == nil selects the uniform single-chain
	// path above.
	tab   *condTables
	ccnt  [64][3]uint32 // per-class locations executed per lane since Reset
	cnext [64][3]uint32 // per-class class-local index of each lane's next fault
	menus menuSet
}

// NewCondSamplerModel returns a conditional sampler for a per-class noise
// model over a fault-free path with the given location kinds, with the RNG
// stream seeded by seed. A model with one shared class rate runs the
// single-chain path above (the truncated geometric over all N locations);
// distinct rates run one geometric chain per class against the precomputed
// first-fault tables. The model must satisfy 0 < CondP < 1 — every class
// rate in [0, 1) and at least one faultable location: outside that range the
// conditional distribution does not exist (no faults to condition on, or a
// vacuous conditioning where the plain SparseSampler is exact); callers
// validate before constructing.
func NewCondSamplerModel(m Model, kinds []LocKind, seed uint64) *CondSampler {
	s := &CondSampler{P: m.P1Q, N: len(kinds), rng: SplitMix64{State: seed}, menus: newMenuSet(m.Eta)}
	if p, ok := m.UniformRate(); ok {
		s.invLog = 1 / math.Log1p(-p)
		s.CondP = CondProbModel(m, CountKinds(kinds))
		for lane := range s.next {
			s.next[lane] = noFault
		}
		return s
	}
	s.tab = newCondTables(m, kinds)
	s.CondP = s.tab.condP
	for lane := range s.cnext {
		s.cnext[lane] = [3]uint32{noFault, noFault, noFault}
	}
	return s
}

// CondProbModel returns P(#faults >= 1) = 1 - prod_c (1-p_c)^(n_c) over the
// per-class location counts of the fault-free path (CountKinds), computed
// via expm1/log1p so it stays accurate when every n_c·p_c is tiny (at
// p = 1e-9 the naive form loses every significant digit). A model with one
// shared rate p evaluates the single binomial form 1-(1-p)^N over all
// N = n_1q + n_2q + n_meas locations. Boundary rates take their exact limits
// NaN/Inf-free: a class at rate >= 1 with locations forces 1, zero-rate or
// empty classes contribute nothing, and a path with no faultable locations
// returns 0.
func CondProbModel(m Model, counts [3]int) float64 {
	if p, ok := m.UniformRate(); ok {
		// One log1p term scaled by N, not the per-class sum below: the two
		// differ in the last float bits.
		n := counts[0] + counts[1] + counts[2]
		if p <= 0 || n <= 0 {
			return 0
		}
		if p >= 1 {
			return 1
		}
		return -math.Expm1(float64(n) * math.Log1p(-p))
	}
	rates := [3]float64{m.P1Q, m.P2Q, m.PMeas}
	sum := 0.0
	for c, n := range counts {
		if n <= 0 || rates[c] <= 0 {
			continue
		}
		if rates[c] >= 1 {
			return 1
		}
		sum += float64(n) * math.Log1p(-rates[c])
	}
	if sum == 0 {
		return 0
	}
	return -math.Expm1(sum)
}

// Reseed restarts the sampler's RNG stream at seed, as if freshly
// constructed; the adaptive estimator uses it to give every fixed-size
// sampling block its own deterministic stream independent of which worker
// runs it.
func (s *CondSampler) Reseed(seed uint64) { s.rng.State = seed }

// Reset begins a new 64-shot word: location counters and fault tallies
// clear, and every lane in live gets a forced first-fault location drawn
// from the truncated distribution on [0, N) — the truncated geometric for a
// uniform model, the per-class CDF inversion otherwise. Lanes outside live
// run fault-free.
func (s *CondSampler) Reset(live uint64) {
	if s.tab != nil {
		for lane := range s.ccnt {
			s.Faults[lane] = 0
			s.ccnt[lane] = [3]uint32{}
			s.cnext[lane] = [3]uint32{noFault, noFault, noFault}
		}
		for l := live; l != 0; l &= l - 1 {
			s.tab.force(&s.rng, &s.cnext[bits.TrailingZeros64(l)])
		}
		return
	}
	for lane := range s.cnt {
		s.cnt[lane] = 0
		s.Faults[lane] = 0
		s.next[lane] = noFault
	}
	for l := live; l != 0; l &= l - 1 {
		s.next[bits.TrailingZeros64(l)] = s.firstFault()
	}
}

// firstFault draws the forced first-fault location from the truncated
// geometric: J = floor(log(1 - u·CondP)/log(1-p)) for u uniform in (0, 1],
// clamped to N-1 against the float edge at u = 1.
func (s *CondSampler) firstFault() uint32 {
	g := math.Log1p(-s.rng.Float64()*s.CondP) * s.invLog
	j := uint32(g)
	if j >= uint32(s.N) {
		j = uint32(s.N) - 1
	}
	return j
}

// nextAfter schedules the fault after one fired at lane-local location c:
// a plain geometric gap, exactly the unconditional per-location Bernoulli(p)
// law of the sparse sampler. Gaps past the uint32 range saturate to noFault
// (no protocol executes 4 billion locations in one shot).
func (s *CondSampler) nextAfter(c uint32) uint32 {
	g := math.Log(s.rng.Float64()) * s.invLog // >= 0; Float64 is in (0,1]
	if g >= float64(noFault) {
		return noFault
	}
	nxt := uint64(c) + 1 + uint64(g)
	if nxt >= uint64(noFault) {
		return noFault
	}
	return uint32(nxt)
}

// draw advances every active lane by one location of the given class and
// fires the scheduled faults, mirroring BatchPlan's location semantics
// (counters advance only while the lane is active). The uniform path counts
// locations globally; the per-class path counts each class on its own chain.
func (s *CondSampler) draw(kind LocKind, active uint64, visit func(lane uint)) {
	if s.tab != nil {
		for a := active; a != 0; a &= a - 1 {
			lane := uint(bits.TrailingZeros64(a))
			c := s.ccnt[lane][kind]
			s.ccnt[lane][kind] = c + 1
			if c != s.cnext[lane][kind] {
				continue
			}
			s.Faults[lane]++
			s.cnext[lane][kind] = s.tab.nextAfterClass(&s.rng, int(kind), c)
			visit(lane)
		}
		return
	}
	for a := active; a != 0; a &= a - 1 {
		lane := uint(bits.TrailingZeros64(a))
		c := s.cnt[lane]
		s.cnt[lane] = c + 1
		if c != s.next[lane] {
			continue
		}
		s.Faults[lane]++
		s.next[lane] = s.nextAfter(c)
		visit(lane)
	}
}

// Draw1Q implements BatchInjector: uniform {X, Y, Z} on faulted lanes.
func (s *CondSampler) Draw1Q(active uint64) (x, z uint64) {
	mn := &s.menus[Loc1Q]
	s.draw(Loc1Q, active, func(lane uint) {
		f := mn.draw(&s.rng)
		if f.P1&1 != 0 {
			x |= 1 << lane
		}
		if f.P1&2 != 0 {
			z |= 1 << lane
		}
	})
	return
}

// Draw2Q implements BatchInjector: the model's two-qubit menu — uniform
// over the 15 non-identity two-qubit Paulis at Eta == 1, Z-biased otherwise
// — on faulted lanes.
func (s *CondSampler) Draw2Q(active uint64) (x1, z1, x2, z2 uint64) {
	mn := &s.menus[Loc2Q]
	s.draw(Loc2Q, active, func(lane uint) {
		f := mn.draw(&s.rng)
		if f.P1&1 != 0 {
			x1 |= 1 << lane
		}
		if f.P1&2 != 0 {
			z1 |= 1 << lane
		}
		if f.P2&1 != 0 {
			x2 |= 1 << lane
		}
		if f.P2&2 != 0 {
			z2 |= 1 << lane
		}
	})
	return
}

// DrawMeas implements BatchInjector: a classical flip on faulted lanes.
func (s *CondSampler) DrawMeas(active uint64) (flip uint64) {
	s.draw(LocMeas, active, func(lane uint) {
		flip |= 1 << lane
	})
	return
}

// CondInjector is the scalar twin of CondSampler for the scalar shot
// engines: one shot per Reset, the same exact >=1-fault conditional law. It
// backs the rare-event estimator on the scalar compiled engine (the
// "scalar" engine selection) and the scalar-vs-batch conditional
// cross-check.
type CondInjector struct {
	// P, N and CondP mirror the CondSampler fields.
	P     float64
	N     int
	CondP float64

	// Faults counts the faults injected since the last Reset.
	Faults int

	rng    SplitMix64
	invLog float64
	cnt    uint32
	next   uint32

	// Per-class model state; tab == nil selects the uniform path.
	tab   *condTables
	ccnt  [3]uint32
	cnext [3]uint32
	menus menuSet
}

// NewCondInjectorModel returns a scalar conditional injector for a
// per-class noise model; the argument contract matches NewCondSamplerModel
// (0 < CondP < 1), and a model with one shared class rate takes the
// single-chain path.
func NewCondInjectorModel(m Model, kinds []LocKind, seed uint64) *CondInjector {
	c := &CondInjector{P: m.P1Q, N: len(kinds), rng: SplitMix64{State: seed}, menus: newMenuSet(m.Eta)}
	if p, ok := m.UniformRate(); ok {
		c.invLog = 1 / math.Log1p(-p)
		c.CondP = CondProbModel(m, CountKinds(kinds))
		c.next = noFault
		return c
	}
	c.tab = newCondTables(m, kinds)
	c.CondP = c.tab.condP
	c.cnext = [3]uint32{noFault, noFault, noFault}
	return c
}

// Reseed restarts the injector's RNG stream at seed, as if freshly
// constructed.
func (c *CondInjector) Reseed(seed uint64) { c.rng.State = seed }

// Reset begins a new shot: the location counters and fault tally clear and a
// fresh forced first-fault location is drawn.
func (c *CondInjector) Reset() {
	c.Faults = 0
	if c.tab != nil {
		c.ccnt = [3]uint32{}
		c.cnext = [3]uint32{noFault, noFault, noFault}
		c.tab.force(&c.rng, &c.cnext)
		return
	}
	c.cnt = 0
	g := math.Log1p(-c.rng.Float64()*c.CondP) * c.invLog
	j := uint32(g)
	if j >= uint32(c.N) {
		j = uint32(c.N) - 1
	}
	c.next = j
}

// Next implements Injector.
func (c *CondInjector) Next(kind LocKind) Fault {
	if c.tab != nil {
		loc := c.ccnt[kind]
		c.ccnt[kind] = loc + 1
		if loc != c.cnext[kind] {
			return Fault{}
		}
		c.Faults++
		c.cnext[kind] = c.tab.nextAfterClass(&c.rng, int(kind), loc)
		return c.menus[kind].draw(&c.rng)
	}
	loc := c.cnt
	c.cnt = loc + 1
	if loc != c.next {
		return Fault{}
	}
	c.Faults++
	g := math.Log(c.rng.Float64()) * c.invLog
	if g >= float64(noFault) || uint64(loc)+1+uint64(g) >= uint64(noFault) {
		c.next = noFault
	} else {
		c.next = loc + 1 + uint32(g)
	}
	return c.menus[kind].draw(&c.rng)
}
