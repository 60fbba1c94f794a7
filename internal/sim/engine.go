package sim

import (
	"errors"
	"fmt"
	"os"
)

// EngineEnv is the environment variable consulted by DefaultEngine for the
// Monte-Carlo engine selection; it accepts the same names as ParseEngine.
const EngineEnv = "DFTSP_ENGINE"

// Engine selects the Monte-Carlo sampling engine of an Estimator.
type Engine uint8

// Engine values.
const (
	// EngineAuto picks the fastest engine: the 64-lane batch engine.
	EngineAuto Engine = iota

	// EngineScalar forces the scalar compiled Program, one shot at a time.
	EngineScalar

	// EngineBatch requires the 64-lane bit-parallel engine; selecting it
	// on an estimator whose protocol did not compile is an error.
	EngineBatch
)

// ErrEngineUnavailable reports a protocol beyond the compiled engine's
// packing limits (see Compile), which no production engine can simulate:
// the certificate, the estimators and an explicit EngineBatch selection all
// return it.
var ErrEngineUnavailable = errors.New("sim: compiled engine unavailable for this protocol")

// ParseEngine resolves an engine name: "" and "auto" select EngineAuto,
// "scalar" and "batch" their engines.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "scalar":
		return EngineScalar, nil
	case "batch":
		return EngineBatch, nil
	}
	return EngineAuto, fmt.Errorf("sim: unknown engine %q (want auto, scalar or batch)", s)
}

// String returns the engine's ParseEngine name.
func (e Engine) String() string {
	switch e {
	case EngineScalar:
		return "scalar"
	case EngineBatch:
		return "batch"
	default:
		return "auto"
	}
}

// DefaultEngine returns the engine selected by the DFTSP_ENGINE environment
// variable, or EngineAuto when it is unset or unparseable.
func DefaultEngine() Engine {
	e, err := ParseEngine(os.Getenv(EngineEnv))
	if err != nil {
		return EngineAuto
	}
	return e
}

// SetEngine overrides the estimator's engine selection (NewEstimator
// defaults to DefaultEngine()). Selecting EngineBatch on an estimator whose
// protocol did not compile returns ErrEngineUnavailable.
func (est *Estimator) SetEngine(e Engine) error {
	if e == EngineBatch && est.batch == nil {
		return ErrEngineUnavailable
	}
	est.engine = e
	return nil
}

// EngineInUse reports the engine the sampling entry points will actually
// run: the auto selection resolved against what compiled.
func (est *Estimator) EngineInUse() Engine {
	if est.useBatch() {
		return EngineBatch
	}
	return EngineScalar
}

// useBatch reports whether direct Monte-Carlo sampling should run on the
// 64-lane engine.
func (est *Estimator) useBatch() bool {
	if est.engine == EngineScalar {
		return false
	}
	return est.batch != nil
}
