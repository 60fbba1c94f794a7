// Package correct implements the paper's central contribution: SAT-based
// synthesis of optimal correction circuits (CORRECTION CIRCUIT SYNTHESIS).
//
// Given the set E of errors that share one verification signature (one
// branch of the deterministic protocol), the synthesizer finds u stabilizers
// s_1..s_u from the detection-group span with minimal u and minimal total
// weight v = Σ wt(s_i), such that all errors with the same extended syndrome
// b ∈ {0,1}^u are reduced to a correctable error (stabilizer-reduced weight
// ≤ 1) by one shared Pauli recovery c_b. The decision problem for fixed
// (u, v) is encoded as CNF and decided by the CDCL solver; optimality
// follows by iterating u upward and v downward exactly as in the paper.
package correct

import (
	"context"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/code"
	"repro/internal/f2"
	"repro/internal/sat"
)

// Block is a synthesized correction: the additional stabilizer measurements
// and the recovery operator to apply for each observed syndrome.
type Block struct {
	Stabs    []f2.Vec          // measured stabilizers, elements of the detection span
	Recovery map[string]f2.Vec // syndrome bits ("01...") → recovery support
}

// Ancillas returns the number of additional measurements.
func (b *Block) Ancillas() int { return len(b.Stabs) }

// CNOTs returns the total CNOT count of the additional measurements.
func (b *Block) CNOTs() int {
	w := 0
	for _, s := range b.Stabs {
		w += s.Weight()
	}
	return w
}

// SyndromeOf returns the syndrome key of error e under the block's
// measurements.
func (b *Block) SyndromeOf(e f2.Vec) string {
	key := make([]byte, len(b.Stabs))
	for i, s := range b.Stabs {
		if s.Dot(e) == 1 {
			key[i] = '1'
		} else {
			key[i] = '0'
		}
	}
	return string(key)
}

// RecoveryFor returns the recovery for the given syndrome key (the zero
// vector when the syndrome was not constrained during synthesis).
func (b *Block) RecoveryFor(key string, n int) f2.Vec {
	if r, ok := b.Recovery[key]; ok {
		return r
	}
	return f2.NewVec(n)
}

// Options tune the synthesis; the zero value is the paper's setting.
type Options struct {
	// MaxU caps the number of additional measurements; 0 means the rank
	// of the detection group (always sufficient).
	MaxU int

	// NoPairPruning disables the precomputed incompatible-pair clauses
	// (σ(e) ≠ σ(e') for pairs that cannot share a recovery), leaving their
	// detection entirely to the solver. Exists for the ablation benchmark;
	// results are identical, only solving time changes.
	NoPairPruning bool
}

// Synthesize finds the optimal correction block for the error class errs.
//
//	det  — basis of the group whose measurement distinguishes the errors
//	       (opposite-type stabilizers of |0>_L, e.g. span(Hz ∪ Lz) for X
//	       errors);
//	red  — basis modulo which residual errors act trivially (same-type
//	       stabilizers, e.g. span(Hx) for X errors);
//	errs — canonical coset representatives of the class's errors,
//	       including benign members (so that a recovery never promotes a
//	       weight-≤1 error to a dangerous one). The zero vector should be
//	       included whenever a signal can fire without a data error
//	       (measurement faults).
//
// Cancelling ctx aborts the underlying SAT search with ctx.Err().
func Synthesize(ctx context.Context, det, red *f2.Mat, errs []f2.Vec, opt Options) (*Block, error) {
	if len(errs) == 0 {
		return &Block{Recovery: map[string]f2.Vec{}}, nil
	}
	p := newProblem(det, red, errs, opt)
	maxU := opt.MaxU
	if maxU <= 0 {
		maxU = p.gens.Rows()
	}
	for u := 0; u <= maxU; u++ {
		if u == 0 && !p.sharedRecovery() {
			continue // decided in closed form: no u = 0 solution
		}
		blk, err := p.solve(ctx, u, -1)
		if err != nil {
			return nil, err
		}
		if blk == nil {
			continue
		}
		if u == 0 {
			return blk, nil
		}
		// Minimize total weight for this u by binary search on v.
		best := blk
		lo, hi := u, best.CNOTs()-1
		for lo <= hi {
			mid := (lo + hi) / 2
			cand, err := p.solve(ctx, u, mid)
			if err != nil {
				return nil, err
			}
			if cand == nil {
				lo = mid + 1
			} else {
				best = cand
				hi = cand.CNOTs() - 1
			}
		}
		return best, nil
	}
	return nil, fmt.Errorf("correct: no correction with up to %d measurements; class has inequivalent errors sharing the full syndrome", maxU)
}

// problem is what every (u, v) instance of one Synthesize call shares.
type problem struct {
	gens *f2.Mat      // RREF basis of the detection group
	quot *f2.Quotient // errors modulo the reduction group
	errs []f2.Vec

	// apart[k1*len(errs)+k2] (k1 < k2) marks pairs that cannot share a
	// recovery: wt_S(errs[k1] ⊕ errs[k2]) > 2. nil under NoPairPruning.
	apart []bool
}

func newProblem(det, red *f2.Mat, errs []f2.Vec, opt Options) *problem {
	p := &problem{gens: det.SpanBasis(), quot: f2.NewQuotient(red), errs: errs}
	if !opt.NoPairPruning {
		m := len(errs)
		p.apart = make([]bool, m*m)
		for k1 := 0; k1 < m; k1++ {
			for k2 := k1 + 1; k2 < m; k2++ {
				p.apart[k1*m+k2] = p.quot.Weight(errs[k1].Xor(errs[k2])) > 2
			}
		}
	}
	return p
}

// sharedRecovery decides the u = 0 instance exactly: whether one recovery c
// reduces every error to wt_S(e ⊕ c) ≤ 1. Such a c has wt_S(errs[0] ⊕ c) ≤ 1,
// so modulo the reduction group c is errs[0] or errs[0] ⊕ x_q for some qubit
// q, and wt_S(e ⊕ c) depends on c only through its coset; these n+1
// candidates decide the instance. The solver needs tens of thousands of
// conflicts to refute some of these instances.
func (p *problem) sharedRecovery() bool {
	c := p.errs[0].Clone()
	fits := func() bool {
		for _, e := range p.errs {
			if p.quot.Weight(e.Xor(c)) > 1 {
				return false
			}
		}
		return true
	}
	if fits() {
		return true
	}
	for q := 0; q < c.Len(); q++ {
		c.Flip(q)
		ok := fits()
		c.Flip(q)
		if ok {
			return true
		}
	}
	return false
}

// solve decides a single (u, v) instance; v < 0 disables the weight bound.
// It returns nil if unsatisfiable.
//
// Encoding: instead of materializing all 2^u syndrome cells, each error gets
// its own recovery vector c_e, and equal syndromes force equal recoveries
// (σ(e) = σ(e') → c_e = c_e'). This is equisatisfiable with the paper's
// cell formulation but linear in u. Pairs of errors that cannot share any
// recovery — exactly those with reduced weight wt_S(e ⊕ e') > 2 — directly
// require differing syndromes, which prunes the search substantially.
func (p *problem) solve(ctx context.Context, u, v int) (*Block, error) {
	gens, redGens, errs := p.gens, p.quot.Basis(), p.errs
	r := gens.Rows()
	n := gens.Cols()
	rr := redGens.Rows()

	b := cnf.NewBuilder()

	// Measurement selection variables.
	sel := make([][]sat.Lit, u)
	for i := range sel {
		sel[i] = b.NewVars(r)
		b.AddClause(sel[i]...) // non-trivial measurement
	}
	for i := 0; i+1 < u; i++ {
		addLexLE(b, sel[i], sel[i+1])
	}

	// Weight bound.
	if v >= 0 && u > 0 {
		var bits []sat.Lit
		for i := 0; i < u; i++ {
			for q := 0; q < n; q++ {
				var lits []sat.Lit
				for j := 0; j < r; j++ {
					if gens.Row(j).Get(q) {
						lits = append(lits, sel[i][j])
					}
				}
				if len(lits) > 0 {
					bits = append(bits, b.Xor(lits...))
				}
			}
		}
		b.AtMostK(bits, v)
	}

	// Syndrome bits per error.
	sigma := make([][]sat.Lit, len(errs))
	for k, e := range errs {
		sigma[k] = make([]sat.Lit, u)
		for i := 0; i < u; i++ {
			var lits []sat.Lit
			for j := 0; j < r; j++ {
				if gens.Row(j).Dot(e) == 1 {
					lits = append(lits, sel[i][j])
				}
			}
			sigma[k][i] = b.Xor(lits...)
		}
	}

	// Per-error recovery with correctability: wt(e ⊕ c_e ⊕ t) ≤ 1.
	recovery := make([][]sat.Lit, len(errs))
	for k, e := range errs {
		recovery[k] = b.NewVars(n)
		t := b.NewVars(rr)
		res := make([]sat.Lit, n)
		for q := 0; q < n; q++ {
			lits := []sat.Lit{recovery[k][q]}
			for l := 0; l < rr; l++ {
				if redGens.Row(l).Get(q) {
					lits = append(lits, t[l])
				}
			}
			x := b.Xor(lits...)
			if e.Get(q) {
				x = x.Neg()
			}
			res[q] = x
		}
		b.AtMostOne(res...)
	}

	// Link recoveries of same-syndrome errors; incompatible pairs must be
	// separated by some measurement.
	for k1 := 0; k1 < len(errs); k1++ {
		for k2 := k1 + 1; k2 < len(errs); k2++ {
			if p.apart != nil && p.apart[k1*len(errs)+k2] {
				// No shared recovery exists: require σ(e1) != σ(e2).
				var disj []sat.Lit
				for i := 0; i < u; i++ {
					disj = append(disj, b.Xor(sigma[k1][i], sigma[k2][i]))
				}
				if len(disj) == 0 {
					return nil, nil // u = 0 cannot separate them
				}
				b.AddClause(disj...)
				continue
			}
			// Same syndrome forces the same recovery.
			var eqLits []sat.Lit
			for i := 0; i < u; i++ {
				eqLits = append(eqLits, b.Xor(sigma[k1][i], sigma[k2][i]).Neg())
			}
			eq := b.And(eqLits...)
			for q := 0; q < n; q++ {
				b.AddClause(eq.Neg(), recovery[k1][q].Neg(), recovery[k2][q])
				b.AddClause(eq.Neg(), recovery[k1][q], recovery[k2][q].Neg())
			}
		}
	}

	ok, err := b.SolveContext(ctx)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}

	// Extract measurements and per-cell recoveries.
	blk := &Block{Recovery: map[string]f2.Vec{}}
	for i := 0; i < u; i++ {
		s := f2.NewVec(n)
		for j := 0; j < r; j++ {
			if b.Val(sel[i][j]) {
				s.XorInPlace(gens.Row(j))
			}
		}
		blk.Stabs = append(blk.Stabs, s)
	}
	for k, e := range errs {
		key := blk.SyndromeOf(e)
		if _, done := blk.Recovery[key]; done {
			continue
		}
		c := f2.NewVec(n)
		for q := 0; q < n; q++ {
			if b.Val(recovery[k][q]) {
				c.Set(q, true)
			}
		}
		blk.Recovery[key] = c
	}
	return blk, nil
}

// Check verifies a block against its error class: every error must be
// reduced to stabilizer-weight ≤ 1 by the recovery of its syndrome cell.
// It returns the first violating error, or ok.
func Check(blk *Block, cs *code.CSS, kind code.ErrType, errs []f2.Vec) error {
	for _, e := range errs {
		key := blk.SyndromeOf(e)
		c := blk.RecoveryFor(key, cs.N)
		if w := cs.ReducedWeight(kind, e.Xor(c)); w > 1 {
			return fmt.Errorf("correct: error %v in cell %q leaves residual weight %d", e, key, w)
		}
	}
	return nil
}

// addLexLE constrains vector x <= y lexicographically.
func addLexLE(b *cnf.Builder, x, y []sat.Lit) {
	prefixEq := b.True()
	for k := 0; k < len(x); k++ {
		b.AddClause(prefixEq.Neg(), x[k].Neg(), y[k])
		if k+1 < len(x) {
			eqk := b.Xor(x[k], y[k]).Neg()
			prefixEq = b.And(prefixEq, eqk)
		}
	}
}
