package sim

import "errors"

// ErrEngineUnavailable reports a protocol beyond the compiled engine's
// packing limits (see Compile), which no production engine can simulate:
// the certificate and every estimator return it.
var ErrEngineUnavailable = errors.New("sim: compiled engine unavailable for this protocol")
