package correct

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/code"
	"repro/internal/f2"
)

// satU0 decides the u = 0 instance with the solver alone, without the
// precomputed pair clauses, so that nothing but the CNF decides it.
func satU0(t *testing.T, det, red *f2.Mat, errs []f2.Vec) bool {
	t.Helper()
	blk, err := newProblem(det, red, errs, Options{NoPairPruning: true}).solve(context.Background(), 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	return blk != nil
}

// The closed-form u = 0 decision agrees with a u = 0 SAT solve on seeded
// random classes of low-weight errors over catalog codes, and the classes
// hit both answers, including UNSAT classes whose every pair could share a
// recovery (the ones pair pruning cannot refute).
func TestSharedRecoveryMatchesSAT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	codes := []*code.CSS{code.Steane(), code.Shor(), code.Surface3(), code.CSS11(), code.Carbon()}
	var sat, unsat, pairwiseUnsat int
	for trial := 0; trial < 300; trial++ {
		cs := codes[trial%len(codes)]
		kind := code.ErrType(rng.Intn(2))
		det, red := cs.DetectionGroup(kind), cs.ReductionGroup(kind)
		errs := make([]f2.Vec, 1+rng.Intn(5))
		for i := range errs {
			e := f2.NewVec(cs.N)
			for w := rng.Intn(4); w > 0; w-- {
				e.Flip(rng.Intn(cs.N))
			}
			errs[i] = e
		}
		p := newProblem(det, red, errs, Options{})
		got, want := p.sharedRecovery(), satU0(t, det, red, errs)
		if got != want {
			t.Fatalf("%s %v class %v: closed form %v, SAT %v", cs.Name, kind, errs, got, want)
		}
		if got {
			sat++
			continue
		}
		unsat++
		apart := false
		for _, a := range p.apart {
			apart = apart || a
		}
		if !apart {
			pairwiseUnsat++
		}
	}
	t.Logf("SAT %d, UNSAT %d (%d with no incompatible pair)", sat, unsat, pairwiseUnsat)
	if sat == 0 || unsat == 0 || pairwiseUnsat == 0 {
		t.Fatalf("cases do not cover both answers: SAT %d, UNSAT %d, UNSAT with no incompatible pair %d", sat, unsat, pairwiseUnsat)
	}
}

// tesseractU0Classes are the four Z-sector classes of the Tesseract
// synthesis whose u = 0 instances took the solver 43k–88k conflicts each
// to refute.
var tesseractU0Classes = [][]string{
	{"0000000000000000", "0000000000010000", "0000000000010110", "0000000000010101", "0000000000010011", "0000000100010000", "0000000100010100", "0000000100010010", "0000000100010001", "0000000100010111"},
	{"0000000000010000", "0000000000010111", "0000000100010110", "0000000100010001"},
	{"0000000000000000", "0000000000000100", "0000000000000010", "0000000100000010", "0000000100000101", "0000000100000011"},
	{"0000000000000000", "0000000000000110", "0000000000000001", "0000000100000000"},
}

func TestSharedRecoveryTesseractClasses(t *testing.T) {
	cs := code.Tesseract()
	det, red := cs.DetectionGroup(code.ErrZ), cs.ReductionGroup(code.ErrZ)
	for i, class := range tesseractU0Classes {
		var errs []f2.Vec
		for _, s := range class {
			errs = append(errs, vec(s))
		}
		p := newProblem(det, red, errs, Options{})
		if p.sharedRecovery() {
			t.Errorf("class %d: closed form finds a shared recovery", i)
		}
		for _, a := range p.apart {
			if a {
				t.Errorf("class %d: has an incompatible pair; pair pruning alone would refute it", i)
				break
			}
		}
		if testing.Short() {
			continue // the SAT refutations take seconds
		}
		if satU0(t, det, red, errs) {
			t.Errorf("class %d: SAT finds a u = 0 solution the closed form missed", i)
		}
	}
}

// Synthesize skips the infeasible u = 0 of each class without the solver
// and returns a correct block with measurements.
func TestSynthesizeTesseractClassesSkipU0(t *testing.T) {
	cs := code.Tesseract()
	det, red := cs.DetectionGroup(code.ErrZ), cs.ReductionGroup(code.ErrZ)
	for i, class := range tesseractU0Classes {
		var errs []f2.Vec
		for _, s := range class {
			errs = append(errs, vec(s))
		}
		blk, err := Synthesize(context.Background(), det, red, errs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if blk.Ancillas() == 0 {
			t.Errorf("class %d: u = 0 block for an infeasible class", i)
		}
		if err := Check(blk, cs, code.ErrZ, errs); err != nil {
			t.Errorf("class %d: %v", i, err)
		}
	}
}
