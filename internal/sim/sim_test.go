package sim

import (
	"context"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/f2"
	"repro/internal/noise"
)

// directMC is the fixed-budget direct Monte-Carlo estimate of the uniform
// model at rate p: shots shots on one worker, seeded from rng.
func directMC(t *testing.T, est *Estimator, p float64, shots int, rng *rand.Rand) float64 {
	t.Helper()
	res, err := est.AdaptiveModel(context.Background(), MethodDirect, noise.Uniform(p), 0, shots, rng.Int63(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return res.PL
}

// sample runs exactly shots shots in 64-lane words (the final word masked
// down to the remainder, so the count is exact) and returns the failure
// count: the batch engine's bare shot loop, without block seeding.
func (b *Batch) sample(bs *BatchShot, inj noise.BatchInjector, shots int) int {
	fails := 0
	for done := 0; done < shots; done += 64 {
		live := ^uint64(0)
		if rem := shots - done; rem < 64 {
			live = 1<<uint(rem) - 1
		}
		b.Run(bs, inj, live)
		fails += bits.OnesCount64(b.Judge(bs))
	}
	return fails
}

// scalarFails is the scalar reference sampler of the statistical agreement
// tests: shots shots of the compiled Program, one at a time, with faults
// from the scalar injectors — noise.NewDepolarizing of model m for
// MethodDirect, or noise.NewCondInjectorModel's >= 1-fault conditional law
// for MethodRare — seeded from seed. It returns the failure count.
func scalarFails(est *Estimator, method Method, m noise.Model, shots int, seed int64) int {
	var inj noise.Injector
	reset := func() {}
	if method == MethodRare {
		cond := noise.NewCondInjectorModel(m, est.LocationKinds(), uint64(seed))
		inj, reset = cond, cond.Reset
	} else {
		inj = noise.NewDepolarizing(m, rand.New(rand.NewSource(seed)))
	}
	prog := est.Program()
	sh := prog.NewShot()
	fails := 0
	for range shots {
		reset()
		prog.Run(sh, inj)
		if prog.Judge(sh) {
			fails++
		}
	}
	return fails
}

func buildProto(t *testing.T, cs *code.CSS) *core.Protocol {
	t.Helper()
	p, err := core.Build(context.Background(), cs, core.Config{Prep: core.PrepHeuristic, Verif: core.VerifOptimal})
	if err != nil {
		t.Fatalf("build %s: %v", cs.Name, err)
	}
	return p
}

func TestFaultFreeRunIsClean(t *testing.T) {
	for _, cs := range []*code.CSS{code.Steane(), code.Shor(), code.Surface3()} {
		p := buildProto(t, cs)
		out := Run(p, noise.None())
		if !out.Ex.IsZero() || !out.Ez.IsZero() {
			t.Fatalf("%s: fault-free run left residual %v/%v", cs.Name, out.Ex, out.Ez)
		}
		if out.Triggered || out.UnknownClass {
			t.Fatalf("%s: fault-free run triggered verification", cs.Name)
		}
	}
}

func TestExhaustiveFaultCheckSmallCodes(t *testing.T) {
	for _, cs := range []*code.CSS{code.Steane(), code.Shor(), code.Surface3(), code.CSS11()} {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			p := buildProto(t, cs)
			if err := ExhaustiveFaultCheck(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestExhaustiveFaultCheckLargeCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("large-code synthesis takes seconds")
	}
	for _, cs := range []*code.CSS{code.ReedMuller15(), code.Hamming15(), code.Carbon()} {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			p := buildProto(t, cs)
			if err := ExhaustiveFaultCheck(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExhaustiveFaultCheckRejectsUnverifiedPrep guards the certificate
// against passing vacuously: the Steane encoder without its verification
// layers is not fault-tolerant, and some single CNOT fault must leave a
// weight-2 residual.
func TestExhaustiveFaultCheckRejectsUnverifiedPrep(t *testing.T) {
	p := *buildProto(t, code.Steane())
	p.Layers = nil
	err := ExhaustiveFaultCheck(&p)
	if err == nil || !strings.Contains(err.Error(), "(weight 2)") {
		t.Fatalf("unverified Steane encoder: err = %v, want a weight-2 residual", err)
	}
}

// TestExhaustiveFaultCheckRejectsMissingClass deletes one synthesized
// correction class: the single fault whose signature selects it must be
// reported as hitting an unsynthesized class.
func TestExhaustiveFaultCheckRejectsMissingClass(t *testing.T) {
	p := *buildProto(t, code.Steane())
	layer := *p.Layers[0]
	layer.Classes = maps.Clone(layer.Classes)
	delete(layer.Classes, slices.Sorted(maps.Keys(layer.Classes))[0])
	p.Layers = append([]*core.Layer{&layer}, p.Layers[1:]...)
	err := ExhaustiveFaultCheck(&p)
	if err == nil || !strings.Contains(err.Error(), "unsynthesized class") {
		t.Fatalf("protocol with a deleted class: err = %v, want an unsynthesized class", err)
	}
}

func TestSingleDangerousFaultTriggers(t *testing.T) {
	// On Steane, some single fault must trigger the verification (the prep
	// circuit is not FT by itself), and all triggering faults are
	// corrected.
	p := buildProto(t, code.Steane())
	counter := &noise.Counter{}
	Run(p, counter)
	triggered := 0
	for loc, kind := range counter.Kinds {
		for _, op := range noise.OpsFor(kind) {
			out := Run(p, noise.NewPlan(map[int]noise.Fault{loc: op}))
			if out.Triggered {
				triggered++
				if out.UnknownClass {
					t.Fatalf("triggering fault at %d has no class", loc)
				}
			}
		}
	}
	if triggered == 0 {
		t.Fatal("no single fault triggered verification")
	}
}

func TestFaultOrderF1IsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cs := range []*code.CSS{code.Steane(), code.Surface3()} {
		p := buildProto(t, cs)
		est := NewEstimator(p)
		res, err := est.FaultOrder(context.Background(), 1, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.F[1] != 0 {
			t.Fatalf("%s: f1 = %g, want exactly 0 (fault tolerance)", cs.Name, res.F[1])
		}
	}
}

func TestQuadraticScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	res, err := est.FaultOrder(context.Background(), 3, 4000, rng)
	if err != nil {
		t.Fatal(err)
	}
	r3 := res.Rate(1e-3)
	r4 := res.Rate(1e-4)
	ratio := r3 / r4
	// Exact quadratic scaling gives 100; allow slack for the cubic term.
	if ratio < 80 || ratio > 120 {
		t.Fatalf("pL(1e-3)/pL(1e-4) = %.1f, want ~100 (quadratic)", ratio)
	}
}

func TestAdaptiveModelAgreesWithStratified(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	res, err := est.FaultOrder(context.Background(), 3, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	const pp = 0.02
	mc := directMC(t, est, pp, 30000, rng)
	strat := res.Rate(pp)
	if mc == 0 {
		t.Fatal("MC sampled no failures at p=0.02")
	}
	ratio := mc / strat
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("MC %.4g vs stratified %.4g: ratio %.2f out of range", mc, strat, ratio)
	}
}

func TestJudgeDetectsLogicalError(t *testing.T) {
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	// A full logical Z-flipping X error: X on a logical X support is
	// corrected by the perfect round only up to logicals. Use an X error
	// equal to a logical X representative: syndrome zero, anticommutes
	// with Z_L.
	out := Outcome{Ex: p.Code.Lx.Row(0).Clone(), Ez: f2.NewVec(p.Code.N)}
	if !est.Judge(out) {
		t.Fatal("logical X residual not flagged")
	}
	// A single-qubit error is corrected perfectly.
	clean := Outcome{Ex: f2.FromSupport(p.Code.N, 3), Ez: f2.NewVec(p.Code.N)}
	if est.Judge(clean) {
		t.Fatal("weight-1 error not corrected by the perfect round")
	}
	// A residual logical Z is trivial on |0>_L and the Z sector cannot
	// fail after perfect EC by construction (see Judge).
	zres := Outcome{Ex: f2.NewVec(p.Code.N), Ez: p.Code.Lz.Row(0).Clone()}
	if est.Judge(zres) {
		t.Fatal("logical Z residual flagged; it stabilizes |0>_L")
	}
}

func TestTwoFaultsDoNotPanic(t *testing.T) {
	p := buildProto(t, code.Steane())
	counter := &noise.Counter{}
	Run(p, counter)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		l1 := rng.Intn(counter.N())
		l2 := rng.Intn(counter.N())
		if l1 == l2 {
			continue
		}
		ops1 := noise.OpsFor(counter.Kinds[l1])
		ops2 := noise.OpsFor(counter.Kinds[l2])
		Run(p, noise.NewPlan(map[int]noise.Fault{
			l1: ops1[rng.Intn(len(ops1))],
			l2: ops2[rng.Intn(len(ops2))],
		}))
	}
}

func TestLocationsCount(t *testing.T) {
	p := buildProto(t, code.Steane())
	// Steane: 7 preparations + 9 prep CNOTs + (anc prep + 3 CNOTs + meas)
	// for the single weight-3 verification = 21.
	if n := Locations(p); n != 21 {
		t.Fatalf("locations = %d, want 21", n)
	}
}
