package decoder

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/code"
	"repro/internal/f2"
)

func TestSteaneLookup(t *testing.T) {
	cs := code.Steane()
	l := NewLookup(cs.Hz)
	if l.Size() != 8 {
		t.Fatalf("table size = %d, want 2^3", l.Size())
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every weight-1 X error must decode exactly (distance 3).
	for q := 0; q < cs.N; q++ {
		e := f2.FromSupport(cs.N, q)
		c := l.Decode(e)
		if !c.Equal(e) {
			t.Fatalf("weight-1 error on %d decoded to %v", q, c)
		}
	}
	// The zero syndrome decodes to nothing.
	if c := l.Decode(f2.NewVec(cs.N)); !c.IsZero() {
		t.Fatalf("zero error decoded to %v", c)
	}
}

func TestHammingLookup(t *testing.T) {
	cs := code.Hamming15()
	l := NewLookup(cs.Hz)
	if l.Size() != 16 {
		t.Fatalf("table size = %d, want 16", l.Size())
	}
	for q := 0; q < cs.N; q++ {
		e := f2.FromSupport(cs.N, q)
		if !l.Decode(e).Equal(e) {
			t.Fatalf("weight-1 error on %d misdecoded", q)
		}
	}
}

func TestDecodeSyndromeDirect(t *testing.T) {
	cs := code.Steane()
	l := NewLookup(cs.Hz)
	e := f2.FromSupport(cs.N, 4)
	s := cs.Hz.MulVec(e)
	if c := l.DecodeSyndrome(s); !c.Equal(e) {
		t.Fatalf("syndrome decode gave %v", c)
	}
}

// Property: decoding any error yields a correction with the same syndrome,
// of weight no larger than the error itself.
func TestDecoderMinimality(t *testing.T) {
	cs := code.Surface3()
	l := NewLookup(cs.Hz)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		e := f2.NewVec(cs.N)
		for q := 0; q < cs.N; q++ {
			if rng.Intn(3) == 0 {
				e.Set(q, true)
			}
		}
		c := l.Decode(e)
		if !cs.Hz.MulVec(c).Equal(cs.Hz.MulVec(e)) {
			t.Fatalf("correction syndrome mismatch for %v", e)
		}
		if c.Weight() > e.Weight() {
			t.Fatalf("decoder returned weight %d for error of weight %d", c.Weight(), e.Weight())
		}
	}
}

// TestDenseMatchesLookup pins the dense-array decoder to the reference
// lookup table: identical corrections for random errors and for every
// explicit syndrome, on several catalog codes.
func TestDenseMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, cs := range []*code.CSS{code.Steane(), code.Hamming15(), code.Surface3()} {
		lk := NewLookup(cs.Hz)
		d := NewDense(cs.Hz)
		if d.Size() != lk.Size() {
			t.Fatalf("%s: dense size %d != lookup size %d", cs.Name, d.Size(), lk.Size())
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 500; trial++ {
			e := f2.NewVec(cs.N)
			for q := 0; q < cs.N; q++ {
				if rng.Intn(2) == 1 {
					e.Flip(q)
				}
			}
			if got, want := d.Decode(e), lk.Decode(e); !got.Equal(want) {
				t.Fatalf("%s: dense decoded %v to %v, lookup to %v", cs.Name, e, got, want)
			}
		}
		for idx := 0; idx < d.Size(); idx++ {
			s := f2.NewVec(d.Rank())
			for i := 0; i < d.Rank(); i++ {
				if idx>>uint(i)&1 == 1 {
					s.Set(i, true)
				}
			}
			if got, want := d.DecodeSyndrome(s), lk.DecodeSyndrome(s); !got.Equal(want) {
				t.Fatalf("%s: syndrome %v decoded to %v, lookup to %v", cs.Name, s, got, want)
			}
		}
	}
}

// TestDenseIndexWords checks the allocation-free word-level primitives used
// by the compiled simulation engine.
func TestDenseIndexWords(t *testing.T) {
	cs := code.Steane()
	d := NewDense(cs.Hz)
	e := f2.FromSupport(cs.N, 2, 5)
	idx := d.Index(e.Words())
	corr := d.CorrectionWords(idx)
	c := f2.NewVec(cs.N)
	for q := 0; q < cs.N; q++ {
		if corr[q/64]>>(uint(q)%64)&1 == 1 {
			c.Flip(q)
		}
	}
	if !c.Equal(d.Decode(e)) {
		t.Fatalf("word-level correction %v != Decode %v", c, d.Decode(e))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = d.CorrectionWords(d.Index(e.Words()))
	}); allocs != 0 {
		t.Fatalf("Index/CorrectionWords allocate %.2f per call, want 0", allocs)
	}
}

// TestDenseCheckedRefusesHighRankFast pins the dense-table bound: a check
// matrix above the rank limit (the d = 9 rotated surface code's Hz has rank
// 40) must be refused with the rank error before any table is built, well
// within the deadline — not after enumerating 2^rank syndromes.
func TestDenseCheckedRefusesHighRankFast(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := NewDenseChecked(code.RotatedSurface(9).Hz)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "rank 40 exceeds") {
			t.Fatalf("err = %v, want the rank-40 limit error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NewDenseChecked still running after 5s on a rank-40 matrix")
	}
}
