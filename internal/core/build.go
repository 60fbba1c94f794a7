package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/correct"
	"repro/internal/f2"
	"repro/internal/prep"
	"repro/internal/verify"
)

// Build synthesizes the full deterministic fault-tolerant preparation
// protocol for |0...0>_L of cs under the given configuration. ctx is
// threaded through every synthesis stage (preparation search, verification
// and correction SAT solving); cancelling it aborts the build promptly with
// an error matching ctx.Err() via errors.Is.
func Build(ctx context.Context, cs *code.CSS, cfg Config) (*Protocol, error) {
	prepC, err := buildPrep(ctx, cs, cfg)
	if err != nil {
		return nil, err
	}
	return BuildFromPrep(ctx, cs, prepC, cfg)
}

// BuildFromPrep synthesizes the protocol for a caller-supplied preparation
// circuit (which must prepare |0...0>_L exactly; see prep.Verify).
func BuildFromPrep(ctx context.Context, cs *code.CSS, prepC *circuit.Circuit, cfg Config) (*Protocol, error) {
	if err := prep.Verify(cs, prepC); err != nil {
		return nil, err
	}
	exD := verify.DangerousErrors(cs, prepC, code.ErrX)
	ezD := verify.DangerousErrors(cs, prepC, code.ErrZ)

	if cfg.Verif == VerifGlobal {
		return buildGlobal(ctx, cs, prepC, exD, ezD, cfg)
	}

	var verif1 []f2.Vec
	if len(exD) > 0 {
		res, err := verify.Synthesize(ctx, cs.DetectionGroup(code.ErrX), exD)
		if err != nil {
			return nil, err
		}
		verif1 = res.Stabs
	}
	return assemble(ctx, cs, prepC, verif1, len(ezD) > 0, nil, cfg)
}

// buildGlobal explores all optimal layer-1 verifications (and for each, all
// optimal layer-2 verifications), returning the protocol with the lowest
// average correction cost, tie-broken by total verification cost.
func buildGlobal(ctx context.Context, cs *code.CSS, prepC *circuit.Circuit, exD, ezD []f2.Vec, cfg Config) (*Protocol, error) {
	limit := cfg.GlobalLimit
	if limit <= 0 {
		limit = 16
	}
	cands := [][]f2.Vec{nil}
	if len(exD) > 0 {
		results, err := verify.EnumerateOptimal(ctx, cs.DetectionGroup(code.ErrX), exD, limit)
		if err != nil {
			return nil, err
		}
		cands = cands[:0]
		for _, r := range results {
			cands = append(cands, r.Stabs)
		}
	}
	var best *Protocol
	var bestCost float64
	var firstErr error
	for _, v1 := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := assemble(ctx, cs, prepC, v1, len(ezD) > 0, &globalOpts{limit: limit}, cfg)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		cost := p.avgCorrectionCost()
		if best == nil || cost < bestCost {
			best, bestCost = p, cost
		}
	}
	if best == nil {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("core: global optimization found no protocol")
	}
	return best, nil
}

type globalOpts struct{ limit int }

func buildPrep(ctx context.Context, cs *code.CSS, cfg Config) (*circuit.Circuit, error) {
	if cfg.Prep == PrepOptimal {
		c, err := prep.Optimal(ctx, cs, cfg.PrepBudget)
		if err != nil {
			return nil, err
		}
		if c != nil {
			return c, nil
		}
		// Budget exhausted: fall back, mirroring the paper's use of the
		// heuristic for larger codes.
	}
	return prep.Heuristic(cs), nil
}

// assemble builds the protocol given the layer-1 verification stabilizers.
// wantLayer2 forces a Z layer when prep has dangerous Z errors; a Z layer is
// also created when layer-1 hook deferral requires one. When g is non-nil,
// the layer-2 verification is globally optimized as well.
func assemble(ctx context.Context, cs *code.CSS, prepC *circuit.Circuit, verif1 []f2.Vec, wantLayer2 bool, g *globalOpts, cfg Config) (*Protocol, error) {
	p := &Protocol{Code: cs, Prep: prepC}

	// ---- Layer 1: verify X errors with Z-type measurements. ----
	var layer1 *Layer
	if len(verif1) > 0 {
		layer1 = &Layer{Detects: code.ErrX, Classes: map[string]*ClassCorrection{}}
		for _, s := range verif1 {
			m := Measurement{Stab: s.Clone(), Kind: code.ErrZ}
			order, dangerous := chooseOrder(cs, code.ErrZ, s)
			m.Order = order
			// Dangerous hooks: defer to the Z layer when one is planned,
			// otherwise protect with a flag.
			if dangerous > 0 && !wantLayer2 {
				m.Flagged = true
			}
			if cfg.FlagAll && m.Weight() >= 3 {
				m.Flagged = true
			}
			layer1.Verif = append(layer1.Verif, m)
		}
		p.Layers = append(p.Layers, layer1)
	}

	// ---- Determine the layer-2 error set from the prep+layer-1 faults. ----
	lay1Meas := [][]Measurement{}
	if layer1 != nil {
		lay1Meas = append(lay1Meas, layer1.Verif)
	}
	cl1 := classify(cs, prepC, lay1Meas)
	var e2 []f2.Vec
	seen := map[string]bool{}
	for _, ft := range cl1.faults {
		if len(ft.sig) > 0 && ft.sig[0].fAny() {
			continue // flag fired: hook-corrected in layer 1
		}
		if cs.ReducedWeight(code.ErrZ, ft.ez) >= 2 && !seen[ft.ez.Key()] {
			seen[ft.ez.Key()] = true
			e2 = append(e2, ft.ez)
		}
	}

	// ---- Layer 2: verify Z errors with X-type measurements. ----
	if len(e2) > 0 {
		var verif2Cands [][]f2.Vec
		if g != nil {
			results, err := verify.EnumerateOptimal(ctx, cs.DetectionGroup(code.ErrZ), e2, g.limit)
			if err != nil {
				return nil, err
			}
			for _, r := range results {
				verif2Cands = append(verif2Cands, r.Stabs)
			}
		} else {
			res, err := verify.Synthesize(ctx, cs.DetectionGroup(code.ErrZ), e2)
			if err != nil {
				return nil, err
			}
			verif2Cands = [][]f2.Vec{res.Stabs}
		}
		var best *Protocol
		var bestCost float64
		var firstErr error
		for _, v2 := range verif2Cands {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cand, err := finishTwoLayer(ctx, cs, prepC, layer1, v2, cfg)
			if err != nil {
				if ctx.Err() != nil {
					return nil, err
				}
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			cost := cand.avgCorrectionCost()
			if best == nil || cost < bestCost {
				best, bestCost = cand, cost
			}
		}
		if best == nil {
			return nil, firstErr
		}
		return best, nil
	}

	// Single-layer (or zero-layer) protocol: classify and correct.
	if err := buildCorrections(ctx, cs, cl1, p.Layers); err != nil {
		return nil, err
	}
	return p, nil
}

// finishTwoLayer builds the complete protocol for a fixed layer-2
// verification choice. layer1 may be nil.
func finishTwoLayer(ctx context.Context, cs *code.CSS, prepC *circuit.Circuit, layer1 *Layer, verif2 []f2.Vec, cfg Config) (*Protocol, error) {
	layer2 := &Layer{Detects: code.ErrZ, Classes: map[string]*ClassCorrection{}}
	for _, s := range verif2 {
		m := Measurement{Stab: s.Clone(), Kind: code.ErrX}
		order, dangerous := chooseOrder(cs, code.ErrX, s)
		m.Order = order
		if dangerous > 0 || (cfg.FlagAll && len(order) >= 3) {
			m.Flagged = true // last layer: hooks must be flagged
		}
		layer2.Verif = append(layer2.Verif, m)
	}
	p := &Protocol{Code: cs, Prep: prepC}
	var meas [][]Measurement
	if layer1 != nil {
		l1 := &Layer{Detects: layer1.Detects, Verif: layer1.Verif, Classes: map[string]*ClassCorrection{}}
		p.Layers = append(p.Layers, l1)
		meas = append(meas, l1.Verif)
	}
	p.Layers = append(p.Layers, layer2)
	meas = append(meas, layer2.Verif)

	cl := classify(cs, prepC, meas)
	if err := buildCorrections(ctx, cs, cl, p.Layers); err != nil {
		return nil, err
	}
	return p, nil
}

// chooseOrder selects a CNOT order for measuring stab, minimizing the number
// of dangerous hook errors (suffix errors of the measurement's own type).
// It returns the order and the remaining dangerous-hook count.
func chooseOrder(cs *code.CSS, measType code.ErrType, stab f2.Vec) ([]int, int) {
	sup := stab.Support()
	w := len(sup)
	dangerousCount := func(order []int) int {
		cnt := 0
		suffix := f2.NewVec(cs.N)
		// Build suffixes from the back: after CNOT j (1-based), the
		// remaining qubits order[j:] carry the hook.
		for j := w - 1; j >= 1; j-- {
			suffix.Flip(order[j])
			if cs.ReducedWeight(measType, suffix) >= 2 {
				cnt++
			}
		}
		return cnt
	}
	if w <= 1 {
		return sup, 0
	}
	best := append([]int(nil), sup...)
	bestCnt := dangerousCount(best)
	if bestCnt == 0 {
		return best, 0
	}
	if w <= 8 {
		perm := append([]int(nil), sup...)
		var rec func(k int) bool
		rec = func(k int) bool {
			if k == w {
				if c := dangerousCount(perm); c < bestCnt {
					bestCnt = c
					copy(best, perm)
				}
				return bestCnt == 0
			}
			for i := k; i < w; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				if rec(k + 1) {
					return true
				}
				perm[k], perm[i] = perm[i], perm[k]
			}
			return false
		}
		rec(0)
		return best, bestCnt
	}
	// Large stabilizers: deterministic local search over adjacent swaps.
	cur := append([]int(nil), sup...)
	curCnt := dangerousCount(cur)
	improved := true
	for improved && curCnt > 0 {
		improved = false
		for i := 0; i < w-1; i++ {
			cur[i], cur[i+1] = cur[i+1], cur[i]
			if c := dangerousCount(cur); c < curCnt {
				curCnt = c
				improved = true
			} else {
				cur[i], cur[i+1] = cur[i+1], cur[i]
			}
		}
	}
	if curCnt < bestCnt {
		return cur, curCnt
	}
	return best, bestCnt
}

// corrCache memoizes correction synthesis across branches: many signature
// classes carry identical error sets (e.g. all single-flag branches of a
// layer), and synthesis cost dominates the build.
type corrCache map[string]*correct.Block

func (cc corrCache) synthesize(ctx context.Context, cs *code.CSS, kind code.ErrType, errs []f2.Vec) (*correct.Block, error) {
	key := kind.String()
	for _, e := range errs {
		key += "|" + e.String()
	}
	if blk, ok := cc[key]; ok {
		return blk, nil
	}
	blk, err := correct.Synthesize(ctx, cs.DetectionGroup(kind), cs.ReductionGroup(kind), errs, correct.Options{})
	if err != nil {
		return nil, err
	}
	// Re-validate the SAT model outside the solver: every class error must
	// reduce to weight <= 1 under its cell's recovery.
	if err := correct.Check(blk, cs, kind, errs); err != nil {
		return nil, err
	}
	cc[key] = blk
	return blk, nil
}

// buildCorrections synthesizes all correction blocks from the classified
// faults and attaches them to the layers. It also asserts the silent-case
// safety condition.
func buildCorrections(ctx context.Context, cs *code.CSS, cl *classification, layers []*Layer) error {
	cache := corrCache{}
	// Silent faults: both sectors must already be benign.
	for _, ft := range cl.faults {
		if !ft.silent() {
			continue
		}
		if cs.ReducedWeight(code.ErrX, ft.ex) >= 2 {
			return fmt.Errorf("core: silent fault leaves dangerous X error %v (verification incomplete)", ft.ex)
		}
		if cs.ReducedWeight(code.ErrZ, ft.ez) >= 2 {
			return fmt.Errorf("core: silent fault leaves dangerous Z error %v (verification incomplete)", ft.ez)
		}
	}

	for li, layer := range layers {
		classErrs := map[string]map[string]f2.Vec{}     // sig -> primary reps
		classHookErrs := map[string]map[string]f2.Vec{} // sig -> hook reps
		classSig := map[string]Signature{}
		for _, ft := range cl.faults {
			sig := ft.sig[li]
			include := false
			switch {
			case li == 0:
				include = !sig.zero()
			case li == 1:
				// Layer 2 runs unless a layer-1 flag fired.
				if ft.sig[0].fAny() {
					continue
				}
				include = !sig.zero()
			}
			if !include {
				continue
			}
			key := sig.signature().Key()
			if classErrs[key] == nil {
				classErrs[key] = map[string]f2.Vec{}
				classHookErrs[key] = map[string]f2.Vec{}
				classSig[key] = sig.signature()
			}
			prim, hook := ft.ex, ft.ez
			if layer.Detects == code.ErrZ {
				prim, hook = ft.ez, ft.ex
			}
			classErrs[key][prim.Key()] = prim
			if sig.fAny() {
				classHookErrs[key][hook.Key()] = hook
			}
		}
		for key, reps := range classErrs {
			if err := ctx.Err(); err != nil {
				return err
			}
			sig := classSig[key]
			cc := &ClassCorrection{Sig: sig}
			prim := vecsOf(reps)
			blk, err := cache.synthesize(ctx, cs, layer.Detects, prim)
			if err != nil {
				return fmt.Errorf("core: layer %d class %s primary: %w", li+1, key, err)
			}
			cc.Primary = blk
			if hooks := vecsOf(classHookErrs[key]); len(hooks) > 0 {
				hblk, err := cache.synthesize(ctx, cs, layer.Detects.Opposite(), hooks)
				if err != nil {
					return fmt.Errorf("core: layer %d class %s hook: %w", li+1, key, err)
				}
				cc.Hook = hblk
			}
			layer.Classes[key] = cc
		}
	}
	return nil
}

func vecsOf(m map[string]f2.Vec) []f2.Vec {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Deterministic order for reproducible synthesis.
	slices.Sort(keys)
	out := make([]f2.Vec, 0, len(m))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}
