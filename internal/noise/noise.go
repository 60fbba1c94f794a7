// Package noise defines the circuit-level error model of the paper's
// evaluation (the E1_1 model of Qsample): every operation is followed by a
// depolarizing fault with one physical rate p — uniform {X,Y,Z} after
// one-qubit operations, uniform over the 15 non-identity two-qubit Paulis
// after CNOTs, and classical flips on measurements — together with the
// injector plumbing used by the simulator for Monte-Carlo, subset and
// exhaustive single-fault runs.
package noise

import "math/rand"

// LocKind classifies fault locations.
type LocKind int

// Fault location kinds.
const (
	Loc1Q   LocKind = iota // after a preparation or one-qubit gate
	Loc2Q                  // after a CNOT
	LocMeas                // classical measurement flip
)

// Pauli codes packed as bits: bit0 = X component, bit1 = Z component.
const (
	PI byte = 0
	PX byte = 1
	PZ byte = 2
	PY byte = 3
)

// Fault is the operator injected at one location. P1 applies to the
// location's first qubit, P2 (CNOT target side) to the second; Flip flips a
// measurement outcome.
type Fault struct {
	P1, P2 byte
	Flip   bool
}

// IsTrivial reports whether the fault does nothing.
func (f Fault) IsTrivial() bool { return f.P1 == PI && f.P2 == PI && !f.Flip }

// Injector supplies the fault for each location, in execution order.
type Injector interface {
	Next(kind LocKind) Fault
}

// none injects nothing.
type none struct{}

func (none) Next(LocKind) Fault { return Fault{} }

// None returns the fault-free injector.
func None() Injector { return none{} }

// Counter counts locations by kind without injecting faults; used by the
// dry run that enumerates the fault space.
type Counter struct {
	Kinds []LocKind
}

// Next records the location and injects nothing.
func (c *Counter) Next(kind LocKind) Fault {
	c.Kinds = append(c.Kinds, kind)
	return Fault{}
}

// N returns the number of locations seen.
func (c *Counter) N() int { return len(c.Kinds) }

// Plan injects predetermined faults at chosen location indices.
type Plan struct {
	Faults map[int]Fault
	next   int
}

// NewPlan returns an injector firing the given faults by location index.
func NewPlan(faults map[int]Fault) *Plan { return &Plan{Faults: faults} }

// Next implements Injector.
func (p *Plan) Next(LocKind) Fault {
	f := p.Faults[p.next]
	p.next++
	return f
}

// The operator menus are built once: OpsFor sits inside the Monte-Carlo
// shot loop (every fired fault draws from a menu), where a per-call
// allocation would dominate the profile.
var (
	ops1Q   = []Fault{{P1: PX}, {P1: PZ}, {P1: PY}}
	ops2Q   = makeOps2Q()
	opsMeas = []Fault{{Flip: true}}
)

func makeOps2Q() []Fault {
	out := make([]Fault, 0, 15)
	for m := 1; m < 16; m++ {
		out = append(out, Fault{P1: byte(m >> 2), P2: byte(m & 3)})
	}
	return out
}

// OpsFor enumerates the non-trivial fault operators of a location kind:
// 3 Paulis for one-qubit locations, 15 two-qubit combinations for CNOTs and
// the single classical flip for measurements. The returned slice is shared
// and must not be modified.
func OpsFor(kind LocKind) []Fault {
	switch kind {
	case Loc1Q:
		return ops1Q
	case Loc2Q:
		return ops2Q
	default:
		return opsMeas
	}
}

// Depolarizing is the E1_1 model: every location faults independently with
// probability P, drawing uniformly from the location's operator menu. The
// zero-value literal form (&Depolarizing{P: p, Rng: rng}) is the paper's
// uniform model; NewDepolarizing generalizes it to per-class rates and a
// biased two-qubit menu while keeping the literal form's RNG stream
// bit-identical — every location costs one Float64, every fired fault one
// more draw.
type Depolarizing struct {
	P   float64
	Rng *rand.Rand

	rates *[3]float64 // per-class rates; nil selects the uniform rate P
	menus menuSet     // per-class menus; zero (nil ops) selects OpsFor
}

// NewDepolarizing returns the scalar-engine injector for a noise model:
// per-class rates and, when m.Eta != 1, a Z-biased two-qubit operator menu.
// A uniform model reproduces the literal form &Depolarizing{P: p, Rng: rng}
// bit-identically on the same RNG stream.
func NewDepolarizing(m Model, rng *rand.Rand) *Depolarizing {
	d := &Depolarizing{P: m.P1Q, Rng: rng, menus: newMenuSet(m.Eta)}
	if p, ok := m.UniformRate(); ok {
		d.P = p
		return d
	}
	d.rates = &[3]float64{m.P1Q, m.P2Q, m.PMeas}
	return d
}

// Next implements Injector.
func (d *Depolarizing) Next(kind LocKind) Fault {
	p := d.P
	if d.rates != nil {
		p = d.rates[kind]
	}
	if d.Rng.Float64() >= p {
		return Fault{}
	}
	mn := &d.menus[kind]
	if mn.ops == nil {
		ops := OpsFor(kind)
		return ops[d.Rng.Intn(len(ops))]
	}
	if mn.cum == nil {
		return mn.ops[d.Rng.Intn(len(mn.ops))]
	}
	return mn.pick(d.Rng.Float64())
}
