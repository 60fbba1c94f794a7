package sim

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/code"
	"repro/internal/noise"
)

func buildBatch(t *testing.T, cs *code.CSS) (*Estimator, *Batch) {
	t.Helper()
	est := NewEstimator(buildProto(t, cs))
	if est.Batch() == nil {
		t.Fatalf("%s: batch engine unavailable", cs.Name)
	}
	return est, est.Batch()
}

// TestBatchMatchesScalarFixedFaults is the fixed-fault-mask cross-check of
// the 64-lane engine: an explicit per-lane fault plan is injected into both
// the scalar interpreted executor (per lane, via noise.Plan) and the batch
// engine (all lanes at once, via noise.BatchPlan), and every lane must come
// out bit-identical — residual frames, branch flags and the Judge verdict.
// The plans cover fault-free lanes, every single-fault location spread
// across lanes, and dense multi-fault lanes that exercise correction
// blocks, hooks, early termination and unknown classes.
func TestBatchMatchesScalarFixedFaults(t *testing.T) {
	for _, cs := range []*code.CSS{code.Steane(), code.Surface3(), code.Carbon()} {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			est, batch := buildBatch(t, cs)
			proto := est.P
			counter := &noise.Counter{}
			Run(proto, counter)
			kinds := counter.Kinds
			n := len(kinds)

			rng := rand.New(rand.NewSource(int64(n)))
			// Several 64-lane words, so every location hosts a fault in some
			// lane and plenty of lanes carry 2+ faults.
			for word := 0; word < 6; word++ {
				plans := map[int]map[int]noise.Fault{}
				for lane := 0; lane < 64; lane++ {
					plan := map[int]noise.Fault{}
					switch {
					case lane == 0 && word == 0:
						// fault-free lane
					case word < 2:
						// single faults walking the location space
						loc := (word*64 + lane) % n
						ops := noise.OpsFor(kinds[loc])
						plan[loc] = ops[lane%len(ops)]
					default:
						// 1–4 random faults per lane
						for k := 0; k <= rng.Intn(4); k++ {
							loc := rng.Intn(n)
							ops := noise.OpsFor(kinds[loc])
							plan[loc] = ops[rng.Intn(len(ops))]
						}
					}
					plans[lane] = plan
				}

				bs := batch.NewShot()
				batch.Run(bs, noise.NewBatchPlan(plans), ^uint64(0))
				verdicts := batch.Judge(bs)

				for lane := 0; lane < 64; lane++ {
					want := Run(proto, noise.NewPlan(plans[lane]))
					got := batch.LaneOutcome(bs, lane)
					if !want.Ex.Equal(got.Ex) || !want.Ez.Equal(got.Ez) {
						t.Fatalf("word %d lane %d: frames differ: scalar %v/%v, batch %v/%v",
							word, lane, want.Ex, want.Ez, got.Ex, got.Ez)
					}
					if want.Triggered != got.Triggered ||
						want.UnknownClass != got.UnknownClass ||
						want.TerminatedEarly != got.TerminatedEarly {
						t.Fatalf("word %d lane %d: branch flags differ: scalar %+v, batch %+v",
							word, lane, want, got)
					}
					if est.Judge(want) != (verdicts>>uint(lane)&1 == 1) {
						t.Fatalf("word %d lane %d: Judge verdicts differ", word, lane)
					}
				}
			}
		})
	}
}

// TestBatchMatchesScalarStatistically pins the sparse-sampled batch engine
// to the compiled scalar engine at matched physical rate: both sample the
// same protocol at p = 0.05 and the two failure proportions must agree
// within a 5-sigma two-proportion bound. (The engines consume RNG
// differently, so bit-identity is impossible — the fixed-fault test above
// covers exactness, this one covers the sampling distribution.)
func TestBatchMatchesScalarStatistically(t *testing.T) {
	est, batch := buildBatch(t, code.Steane())
	prog := est.Program()
	const pp = 0.05
	const shots = 60_000

	failsScalar := 0
	inj := &noise.Depolarizing{P: pp, Rng: rand.New(rand.NewSource(101))}
	sh := prog.NewShot()
	for s := 0; s < shots; s++ {
		prog.Run(sh, inj)
		if prog.Judge(sh) {
			failsScalar++
		}
	}

	smp := noise.NewSparseSampler(pp, 202)
	bs := batch.NewShot()
	failsBatch := batch.sample(bs, smp, shots)

	p1 := float64(failsScalar) / shots
	p2 := float64(failsBatch) / shots
	pool := (p1 + p2) / 2
	sd := math.Sqrt(2 * pool * (1 - pool) / shots)
	if diff := math.Abs(p1 - p2); diff > 5*sd {
		t.Fatalf("engines disagree: scalar %.5f vs batch %.5f (diff %.5f > 5σ = %.5f)",
			p1, p2, diff, 5*sd)
	}
	if failsScalar == 0 || failsBatch == 0 {
		t.Fatalf("degenerate sample: scalar %d, batch %d fails", failsScalar, failsBatch)
	}
}

// TestBatchPartialWord checks the masked-lane budgeting path: a live mask
// covering r < 64 lanes must leave the dead lanes untouched (no faults, no
// frames, no verdicts) while the live lanes sample normally.
func TestBatchPartialWord(t *testing.T) {
	_, batch := buildBatch(t, code.Steane())
	const live = uint64(1)<<17 - 1
	smp := noise.NewSparseSampler(0.2, 5)
	bs := batch.NewShot()
	for i := 0; i < 50; i++ {
		batch.Run(bs, smp, live)
		if v := batch.Judge(bs); v&^live != 0 {
			t.Fatalf("dead lanes reported verdicts: %x", v&^live)
		}
		if (bs.Triggered|bs.UnknownClass|bs.TerminatedEarly)&^live != 0 {
			t.Fatalf("dead lanes carry branch flags")
		}
		for q, w := range bs.ex {
			if (w|bs.ez[q])&^live != 0 {
				t.Fatalf("dead lanes carry frame bits on qubit %d", q)
			}
		}
	}
}

// TestBatchZeroAllocs asserts the batch engine's steady-state guarantee,
// mirroring the PR 4 scalar one: the 64-shot word loop (Run + Judge on a
// reused BatchShot) performs zero heap allocations.
func TestBatchZeroAllocs(t *testing.T) {
	_, batch := buildBatch(t, code.Steane())
	smp := noise.NewSparseSampler(0.02, 9)
	bs := batch.NewShot()
	fails := 0
	allocs := testing.AllocsPerRun(2000, func() {
		batch.Run(bs, smp, ^uint64(0))
		fails += bits.OnesCount64(batch.Judge(bs))
	})
	if allocs != 0 {
		t.Fatalf("batch word loop allocates %.2f times per word, want 0", allocs)
	}
}

// TestAdaptiveEnginesAgree runs the adaptive estimator, which samples on the
// batch engine, and the scalar reference sampler at the same physical rate
// and checks the two estimates agree statistically — the end-to-end
// guarantee that the production sampler draws the scalar engine's
// distribution.
func TestAdaptiveEnginesAgree(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	const pp, shots = 0.05, 40_000

	b, err := est.AdaptiveModel(t.Context(), MethodDirect, noise.Uniform(pp), 0, shots, 31, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Shots != shots {
		t.Fatalf("batch engine ran %d shots, want %d", b.Shots, shots)
	}
	a := float64(scalarFails(est, MethodDirect, noise.Uniform(pp), shots, 31)) / shots
	pool := (a + b.PL) / 2
	sd := math.Sqrt(2 * pool * (1 - pool) / shots)
	if diff := math.Abs(a - b.PL); diff > 5*sd {
		t.Fatalf("engines disagree: scalar %.5f vs batch %.5f (diff %.5f > 5σ = %.5f)",
			a, b.PL, diff, 5*sd)
	}
}

// TestAdaptiveNeverExceedsMaxShots is the regression net for the final-round
// clamp: with a target the sampler cannot reach, the reported shot count
// must land exactly on maxShots — including caps that are not multiples of
// the worker count or the 64-lane word.
func TestAdaptiveNeverExceedsMaxShots(t *testing.T) {
	est := NewEstimator(buildProto(t, code.Steane()))
	ctx := t.Context()
	for _, maxShots := range []int{10_001, 8192, 63, 1} {
		res, err := est.AdaptiveModel(ctx, MethodDirect, noise.Uniform(0.05), 1e-9, maxShots, 7, 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Shots != maxShots {
			t.Fatalf("maxShots %d: ran %d shots", maxShots, res.Shots)
		}
	}
}

// TestBatchAdaptiveModelDeterministic pins reproducibility: a direct
// estimate on the batch engine is a pure function of the caller's RNG seed.
func TestBatchAdaptiveModelDeterministic(t *testing.T) {
	est, _ := buildBatch(t, code.Steane())
	a := directMC(t, est, 0.03, 10_000, rand.New(rand.NewSource(3)))
	b := directMC(t, est, 0.03, 10_000, rand.New(rand.NewSource(3)))
	if a != b {
		t.Fatalf("batch direct estimate not deterministic: %g vs %g", a, b)
	}
}

// TestWilsonEdgeCases is the table-driven net for the interval's boundary
// behaviour: zero failures, all failures and empty samples must yield a
// clamped [0,1] interval without dividing by zero.
func TestWilsonEdgeCases(t *testing.T) {
	cases := []struct {
		name           string
		fails, shots   int
		wantLo, wantHi float64 // exact endpoint expectations; NaN = unpinned
	}{
		{"no samples", 0, 0, 0, 1},
		{"negative shots", 3, -5, 0, 1},
		{"zero fails", 0, 1000, 0, math.NaN()},
		{"all fails", 1000, 1000, math.NaN(), 1},
		{"one fail", 1, 100, math.NaN(), math.NaN()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			lo, hi := Wilson(tc.fails, tc.shots)
			if math.IsNaN(lo) || math.IsNaN(hi) {
				t.Fatalf("Wilson(%d,%d) produced NaN", tc.fails, tc.shots)
			}
			if lo < 0 || hi > 1 || lo > hi {
				t.Fatalf("Wilson(%d,%d) = [%g, %g] not a clamped interval", tc.fails, tc.shots, lo, hi)
			}
			if !math.IsNaN(tc.wantLo) && lo != tc.wantLo {
				t.Fatalf("lo = %g, want %g", lo, tc.wantLo)
			}
			if !math.IsNaN(tc.wantHi) && hi != tc.wantHi {
				t.Fatalf("hi = %g, want %g", hi, tc.wantHi)
			}
			if tc.shots > 0 {
				ph := float64(tc.fails) / float64(tc.shots)
				if ph < lo || ph > hi {
					t.Fatalf("interval [%g, %g] does not bracket p̂ = %g", lo, hi, ph)
				}
			}
		})
	}
	// Zero failures over n trials: the 95% upper bound is z²/(n+z²) ≈ 0.0038.
	if _, hi := Wilson(0, 1000); hi < 0.003 || hi > 0.005 {
		t.Fatalf("Wilson(0,1000) upper = %g, want ~0.0038", hi)
	}
}
