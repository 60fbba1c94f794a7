package sim

import (
	"math/rand"

	"repro/internal/noise"
)

// NonDetStats estimates the acceptance behaviour and post-selected logical
// error rate of the repeat-until-success (non-deterministic) baseline: the
// paper's comparison scheme, in which a triggered verification discards the
// state and restarts instead of correcting.
type NonDetStats struct {
	AcceptRate   float64 // fraction of rounds passing verification
	MeanAttempts float64 // average rounds until acceptance
	LogicalRate  float64 // logical error rate of accepted states
}

// NonDeterministicStats samples the baseline scheme at physical rate pp:
// the preparation and verification run under fresh noise each round, any
// verification or flag signal restarts the protocol (corrections are never
// applied), and an accepted state is judged like a deterministic one. Shots
// counts accepted preparations; each uses up to maxAttempts rounds. The
// rounds run on the compiled Program; a protocol that did not compile
// returns ErrEngineUnavailable.
func (est *Estimator) NonDeterministicStats(pp float64, shots, maxAttempts int, rng *rand.Rand) (NonDetStats, error) {
	if est.err != nil {
		return NonDetStats{}, est.err
	}
	prog, sh := est.prog, est.prog.NewShot()
	inj := &noise.Depolarizing{P: pp, Rng: rng}
	rounds, accepted, fails := 0, 0, 0
	attemptsTotal := 0 // rounds of the accepted preparations only
	for s := 0; s < shots; s++ {
		for attempt := 1; attempt <= maxAttempts; attempt++ {
			rounds++
			prog.Run(sh, inj)
			if sh.Triggered {
				continue
			}
			accepted++
			attemptsTotal += attempt
			if prog.Judge(sh) {
				fails++
			}
			break
		}
	}
	st := NonDetStats{}
	if rounds > 0 {
		st.AcceptRate = float64(accepted) / float64(rounds)
	}
	if accepted > 0 {
		st.MeanAttempts = float64(attemptsTotal) / float64(accepted)
		st.LogicalRate = float64(fails) / float64(accepted)
	}
	return st, nil
}
