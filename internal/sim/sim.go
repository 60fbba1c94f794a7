// Package sim executes deterministic fault-tolerant preparation protocols
// under circuit-level Pauli noise and measures their logical performance.
//
// Because the protocols are Clifford circuits and the noise is Pauli, a
// Pauli-frame simulation is exact: the fault-free run prepares |0...0>_L
// with every verification outcome deterministically +1, so the simulator
// only tracks the frame (the accumulated Pauli error) through the branching
// protocol. The package provides
//
//   - Program (Compile) and its 64-lane twin Batch: the one production shot
//     engine, allocation-free per shot;
//   - ExhaustiveFaultCheck: the strict fault-tolerance certificate — every
//     possible single fault is enumerated and the residual must have
//     stabilizer-reduced weight ≤ 1 in both sectors (Definition 1, t = 1);
//   - Estimator: logical error rates by direct Monte-Carlo, rare-event
//     sampling and fault-order (subset) stratification, reproducing Fig. 4;
//   - Run: the reference executor, an independent interpretation of the
//     protocol kept as the oracle the compiled engines are tested against.
package sim

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/f2"
	"repro/internal/noise"
)

// Outcome summarizes one protocol execution.
type Outcome struct {
	Ex, Ez f2.Vec // residual Pauli frame on the data qubits

	// Sigs records the observed signature of each executed layer (layers
	// skipped by an early termination are absent).
	Sigs []core.Signature

	// Triggered reports whether any verification or flag fired.
	Triggered bool

	// UnknownClass is set when an observed signature had no synthesized
	// correction (only possible with two or more faults).
	UnknownClass bool

	// TerminatedEarly reports a layer-1 flag event (Fig. 3 step (e)).
	TerminatedEarly bool
}

// frame is the Pauli frame of the data register.
type frame struct {
	ex, ez f2.Vec
}

// executor runs one protocol instance.
type executor struct {
	p   *core.Protocol
	inj noise.Injector
	f   frame
	out Outcome
}

// Run executes the protocol once under the injector and returns the
// outcome. It is the reference executor the compiled engines are tested
// against; production paths run the compiled Program instead.
func Run(p *core.Protocol, inj noise.Injector) Outcome {
	ex := &executor{
		p:   p,
		inj: inj,
		f:   frame{ex: f2.NewVec(p.Code.N), ez: f2.NewVec(p.Code.N)},
	}
	ex.run()
	ex.out.Ex = ex.f.ex
	ex.out.Ez = ex.f.ez
	return ex.out
}

func (e *executor) applyData(q int, pauli byte) {
	if pauli&1 != 0 {
		e.f.ex.Flip(q)
	}
	if pauli&2 != 0 {
		e.f.ez.Flip(q)
	}
}

func (e *executor) run() {
	// Preparation circuit.
	for _, g := range e.p.Prep.Gates {
		switch g.Kind {
		case circuit.PrepZ, circuit.PrepX:
			// Preparations erase the frame on the prepared qubit.
			e.f.ex.Set(g.Q, false)
			e.f.ez.Set(g.Q, false)
			ft := e.inj.Next(noise.Loc1Q)
			e.applyData(g.Q, ft.P1)
		case circuit.H:
			x, z := e.f.ex.Get(g.Q), e.f.ez.Get(g.Q)
			e.f.ex.Set(g.Q, z)
			e.f.ez.Set(g.Q, x)
			ft := e.inj.Next(noise.Loc1Q)
			e.applyData(g.Q, ft.P1)
		case circuit.CNOT:
			if e.f.ex.Get(g.Q) {
				e.f.ex.Flip(g.Q2)
			}
			if e.f.ez.Get(g.Q2) {
				e.f.ez.Flip(g.Q)
			}
			ft := e.inj.Next(noise.Loc2Q)
			e.applyData(g.Q, ft.P1)
			e.applyData(g.Q2, ft.P2)
		default:
			panic(fmt.Sprintf("sim: unexpected gate %v in preparation circuit", g.Kind))
		}
	}

	// Verification layers.
	for _, layer := range e.p.Layers {
		b := make([]byte, len(layer.Verif))
		fl := make([]byte, len(layer.Verif))
		any := false
		for mi := range layer.Verif {
			out, flag := e.measure(&layer.Verif[mi])
			if out {
				b[mi] = '1'
				any = true
			} else {
				b[mi] = '0'
			}
			if flag {
				fl[mi] = '1'
				any = true
			} else {
				fl[mi] = '0'
			}
		}
		sig := core.Signature{B: string(b), F: string(fl)}
		e.out.Sigs = append(e.out.Sigs, sig)
		if !any {
			continue
		}
		e.out.Triggered = true
		cc, ok := layer.Classes[sig.Key()]
		if !ok {
			e.out.UnknownClass = true
			continue
		}
		flagFired := sig.F != "" && containsOne(sig.F)
		if cc.Primary != nil {
			e.runBlock(cc.Primary, layer.Detects)
		}
		if cc.Hook != nil && flagFired {
			e.runBlock(cc.Hook, layer.Detects.Opposite())
		}
		if flagFired {
			// Fig. 3(e): hook detected, protocol terminates after the
			// correction.
			e.out.TerminatedEarly = true
			return
		}
	}
}

func containsOne(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '1' {
			return true
		}
	}
	return false
}

// runBlock measures the block's stabilizers (unflagged, natural order) and
// applies the recovery for the observed syndrome to the corrected sector:
// X recoveries fix kind ErrX, Z recoveries fix kind ErrZ. The measured
// stabilizers are of the opposite operator type.
func (e *executor) runBlock(blk *correct.Block, kind code.ErrType) {
	key := make([]byte, len(blk.Stabs))
	for i, s := range blk.Stabs {
		m := core.Measurement{Stab: s, Kind: kind.Opposite()}
		out, _ := e.measure(&m)
		if out {
			key[i] = '1'
		} else {
			key[i] = '0'
		}
	}
	rec := blk.RecoveryFor(string(key), e.p.Code.N)
	if kind == code.ErrX {
		e.f.ex.XorInPlace(rec)
	} else {
		e.f.ez.XorInPlace(rec)
	}
}

// measure simulates one ancilla-mediated stabilizer measurement with fault
// injection; it returns the syndrome and flag outcome bits (flag false when
// unflagged).
func (e *executor) measure(m *core.Measurement) (out, flag bool) {
	order := m.Order
	if len(order) == 0 {
		order = m.Stab.Support()
	}
	w := len(order)
	zType := m.Kind == code.ErrZ
	var ancX, ancZ, flagX, flagZ bool

	apply1Q := func(x, z *bool) {
		ft := e.inj.Next(noise.Loc1Q)
		*x = *x != (ft.P1&1 != 0)
		*z = *z != (ft.P1&2 != 0)
	}
	// Ancilla preparation.
	apply1Q(&ancX, &ancZ)

	dataCNOT := func(q int) {
		if zType {
			// CNOT(data q -> anc): X spreads q->anc, Z spreads anc->q.
			ancX = ancX != e.f.ex.Get(q)
			if ancZ {
				e.f.ez.Flip(q)
			}
		} else {
			// CNOT(anc -> data q).
			if ancX {
				e.f.ex.Flip(q)
			}
			ancZ = ancZ != e.f.ez.Get(q)
		}
		ft := e.inj.Next(noise.Loc2Q)
		if zType {
			e.applyData(q, ft.P1)
			ancX = ancX != (ft.P2&1 != 0)
			ancZ = ancZ != (ft.P2&2 != 0)
		} else {
			ancX = ancX != (ft.P1&1 != 0)
			ancZ = ancZ != (ft.P1&2 != 0)
			e.applyData(q, ft.P2)
		}
	}
	flagCNOT := func() {
		if zType {
			// CNOT(flag -> anc).
			ancX = ancX != flagX
			flagZ = flagZ != ancZ
		} else {
			// CNOT(anc -> flag).
			flagX = flagX != ancX
			ancZ = ancZ != flagZ
		}
		ft := e.inj.Next(noise.Loc2Q)
		if zType {
			flagX = flagX != (ft.P1&1 != 0)
			flagZ = flagZ != (ft.P1&2 != 0)
			ancX = ancX != (ft.P2&1 != 0)
			ancZ = ancZ != (ft.P2&2 != 0)
		} else {
			ancX = ancX != (ft.P1&1 != 0)
			ancZ = ancZ != (ft.P1&2 != 0)
			flagX = flagX != (ft.P2&1 != 0)
			flagZ = flagZ != (ft.P2&2 != 0)
		}
	}

	useFlag := m.Flagged && w >= 3
	dataCNOT(order[0])
	if useFlag {
		apply1Q(&flagX, &flagZ) // flag preparation
		flagCNOT()
	}
	for j := 1; j < w-1; j++ {
		dataCNOT(order[j])
	}
	if useFlag {
		flagCNOT()
		// Flag measurement: X basis for Z-type, Z basis for X-type.
		mf := e.inj.Next(noise.LocMeas)
		if zType {
			flag = flagZ != mf.Flip
		} else {
			flag = flagX != mf.Flip
		}
	}
	if w > 1 {
		dataCNOT(order[w-1])
	}
	mf := e.inj.Next(noise.LocMeas)
	if zType {
		out = ancX != mf.Flip
	} else {
		out = ancZ != mf.Flip
	}
	return out, flag
}

// ExhaustiveFaultCheck enumerates every single fault at every location of
// the fault-free execution path (preparation, verification CNOTs, ancilla
// and flag preparations, measurement flips) and verifies that the residual
// frame after the full protocol has stabilizer-reduced weight at most one in
// both sectors, with a known correction branch taken throughout. This is
// the paper's Definition 1 for t = 1, checked exactly rather than sampled.
// Faults inside conditional correction circuits are second-order events (a
// branch only runs after a first fault) and excluded by the definition.
// The faults run on the compiled Program; a protocol that does not compile
// returns the compile error wrapped in ErrEngineUnavailable.
func ExhaustiveFaultCheck(p *core.Protocol) error {
	prog, err := Compile(p)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrEngineUnavailable, err)
	}
	sh := prog.NewShot()
	for loc, kind := range prog.kinds {
		for _, op := range noise.OpsFor(kind) {
			prog.Run(sh, noise.NewPlan(map[int]noise.Fault{loc: op}))
			if sh.UnknownClass {
				return fmt.Errorf("sim: fault %+v at location %d hits an unsynthesized class", op, loc)
			}
			out := prog.Outcome(sh)
			if w := p.Code.ReducedWeight(code.ErrX, out.Ex); w > 1 {
				return fmt.Errorf("sim: fault %+v at location %d leaves X residual %v (weight %d)", op, loc, out.Ex, w)
			}
			if w := p.Code.ReducedWeight(code.ErrZ, out.Ez); w > 1 {
				return fmt.Errorf("sim: fault %+v at location %d leaves Z residual %v (weight %d)", op, loc, out.Ez, w)
			}
		}
	}
	return nil
}

// Locations returns the number of fault locations on the fault-free path,
// the N used by the fault-order estimator, as counted by Compile; 0 for a
// protocol beyond the compiled engine's packing limits.
func Locations(p *core.Protocol) int {
	prog, err := Compile(p)
	if err != nil {
		return 0
	}
	return len(prog.kinds)
}
