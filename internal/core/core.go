// Package core assembles complete deterministic fault-tolerant state
// preparation protocols (Fig. 3 of the paper): a non-FT preparation circuit,
// per-sector verification layers with flag-qubit hook protection, and
// SAT-synthesized correction circuits for every verification signature, such
// that any single circuit fault leaves a residual error of stabilizer-reduced
// weight at most one in each CSS sector.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/correct"
	"repro/internal/f2"
)

// Measurement is one ancilla-mediated stabilizer measurement.
type Measurement struct {
	Stab    f2.Vec       // measured stabilizer support
	Kind    code.ErrType // operator type: ErrZ = Z-type stabilizer (detects X errors)
	Order   []int        // CNOT order over the support
	Flagged bool         // flag ancilla protecting against hook errors
}

// Weight returns the stabilizer weight (= data CNOT count).
func (m *Measurement) Weight() int { return m.Stab.Weight() }

// Signature identifies one verification outcome pattern of a layer:
// the verification measurement bits B and the flag bits F, as strings of
// '0'/'1' ordered like the layer's measurements (flag bits only for flagged
// measurements, in measurement order).
type Signature struct {
	B string
	F string
}

// Key renders the signature as a map key.
func (s Signature) Key() string { return s.B + "|" + s.F }

// IsZero reports whether nothing fired.
func (s Signature) IsZero() bool {
	return !strings.ContainsRune(s.B, '1') && !strings.ContainsRune(s.F, '1')
}

// ClassCorrection holds the synthesized corrections for one signature class.
type ClassCorrection struct {
	Sig Signature

	// Primary corrects errors of the layer's sector (triggered by B bits):
	// additional measurements of the layer's detection group plus a
	// recovery per extended syndrome.
	Primary *correct.Block

	// Hook corrects opposite-sector hook errors (triggered by F bits).
	Hook *correct.Block
}

// Layer is one verification layer of the protocol.
type Layer struct {
	Detects code.ErrType // error sector this layer verifies (ErrX for layer 1)
	Verif   []Measurement
	Classes map[string]*ClassCorrection
}

// FlagCount returns the number of flagged verification measurements.
func (l *Layer) FlagCount() int {
	n := 0
	for _, m := range l.Verif {
		if m.Flagged {
			n++
		}
	}
	return n
}

// VerifCNOTs returns the data CNOT count of the verification measurements
// (excluding flag CNOTs).
func (l *Layer) VerifCNOTs() int {
	w := 0
	for _, m := range l.Verif {
		w += m.Weight()
	}
	return w
}

// Protocol is a complete deterministic fault-tolerant preparation protocol
// for |0...0>_L of a CSS code.
type Protocol struct {
	Code   *code.CSS
	Prep   *circuit.Circuit
	Layers []*Layer
}

// PrepMethod selects the preparation-circuit synthesis.
type PrepMethod int

// Preparation synthesis methods (paper: "Heu" and "Opt" of Ref. [22]).
const (
	PrepHeuristic PrepMethod = iota
	PrepOptimal
)

// String returns the paper's column label, "Heu" or "Opt".
func (m PrepMethod) String() string {
	if m == PrepOptimal {
		return "Opt"
	}
	return "Heu"
}

// VerifMethod selects the verification/correction synthesis strategy.
type VerifMethod int

// Verification synthesis methods (paper: "Opt" and "Global").
const (
	VerifOptimal VerifMethod = iota // one optimal verification, then corrections
	VerifGlobal                     // explore all optimal verifications, keep the best overall
)

// String returns the paper's column label, "Opt" or "Global".
func (m VerifMethod) String() string {
	if m == VerifGlobal {
		return "Global"
	}
	return "Opt"
}

// Config tunes protocol synthesis.
type Config struct {
	Prep  PrepMethod
	Verif VerifMethod

	// PrepBudget bounds the optimal preparation search (states per
	// direction); 0 selects the default.
	PrepBudget int

	// GlobalLimit caps the number of optimal verifications explored per
	// layer by the global method; 0 selects a default of 16.
	GlobalLimit int

	// FlagAll forces a flag on every verification measurement (of weight
	// >= 3) even when a CNOT ordering defuses its hook errors. This is the
	// "always-flag" ablation (BenchmarkAblationFlagAll); it can only add
	// overhead.
	FlagAll bool
}

// sortedClassKeys returns the class keys in deterministic order.
func (l *Layer) sortedClassKeys() []string {
	keys := make([]string, 0, len(l.Classes))
	for k := range l.Classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String gives a compact human-readable protocol summary.
func (p *Protocol) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: prep %d CNOTs", p.Code, p.Prep.CNOTCount())
	for i, l := range p.Layers {
		fmt.Fprintf(&sb, "; layer %d (%v): %d meas / %d CNOTs / %d flags, %d classes",
			i+1, l.Detects, len(l.Verif), l.VerifCNOTs(), l.FlagCount(), len(l.Classes))
	}
	return sb.String()
}
