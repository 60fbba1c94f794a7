package sim

import (
	"errors"
	"fmt"

	"repro/internal/noise"
)

// Method selects the Monte-Carlo sampling method of the adaptive estimator.
type Method uint8

// Method values.
const (
	// MethodAuto picks the method by the crossover policy: the rare-event
	// conditional estimator when conditioning on >= 1 fault discards at
	// least half of the direct sampling effort (P(#faults >= 1) < 0.5),
	// direct Monte-Carlo otherwise.
	MethodAuto Method = iota

	// MethodDirect forces direct Monte-Carlo sampling.
	MethodDirect

	// MethodRare forces the >= 1-fault conditional (rare-event) estimator;
	// it requires a physical rate strictly inside (0, 1).
	MethodRare
)

// ErrBadRate rejects physical rates the rare-event estimator cannot
// condition on: p <= 0 has no faults to condition on, and p >= 1 makes the
// conditioning vacuous (direct sampling is already exact there).
var ErrBadRate = errors.New("sim: physical rate outside (0,1) for the rare-event estimator")

// rareCrossover is the auto-selection threshold on P(#faults >= 1): below
// it the conditional estimator needs fewer than half the shots of direct
// Monte-Carlo for the same precision, which more than pays for its
// per-location bookkeeping.
const rareCrossover = 0.5

// ParseMethod resolves a method name: "" and "auto" select MethodAuto,
// "direct" and "rare" their methods.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "", "auto":
		return MethodAuto, nil
	case "direct":
		return MethodDirect, nil
	case "rare":
		return MethodRare, nil
	}
	return MethodAuto, fmt.Errorf("sim: unknown method %q (want auto, direct or rare)", s)
}

// String returns the method's ParseMethod name.
func (m Method) String() string {
	switch m {
	case MethodDirect:
		return "direct"
	case MethodRare:
		return "rare"
	default:
		return "auto"
	}
}

// CrossoverModel reports the method MethodAuto resolves to under noise model
// m: MethodRare when every class rate lies below 1 and the conditioning
// probability P(#faults >= 1) over the protocol's fault-free path is
// positive and below the crossover threshold, MethodDirect otherwise.
func (est *Estimator) CrossoverModel(m noise.Model) Method {
	if m.MaxRate() < 1 {
		if cp := noise.CondProbModel(m, est.ClassCounts()); cp > 0 && cp < rareCrossover {
			return MethodRare
		}
	}
	return MethodDirect
}

// resolveMethodModel maps a requested method to the one that will run under
// noise model m. An explicit MethodRare needs every class rate below 1 and a
// strictly positive conditioning probability under the model (ErrBadRate
// otherwise) — for a uniform rate p, exactly 0 < p < 1 on a protocol with
// fault locations.
func (est *Estimator) resolveMethodModel(method Method, m noise.Model) (Method, error) {
	switch method {
	case MethodRare:
		if m.MaxRate() >= 1 {
			return method, fmt.Errorf("%w: max class rate = %g", ErrBadRate, m.MaxRate())
		}
		if noise.CondProbModel(m, est.ClassCounts()) <= 0 {
			return method, fmt.Errorf("%w: model fires no faults on this protocol", ErrBadRate)
		}
		return MethodRare, nil
	case MethodDirect:
		return MethodDirect, nil
	default:
		return est.CrossoverModel(m), nil
	}
}
