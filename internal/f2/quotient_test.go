package f2

import (
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, n int) Vec {
	v := NewVec(n)
	for j := 0; j < n; j++ {
		if rng.Intn(2) == 1 {
			v.Set(j, true)
		}
	}
	return v
}

// pivotRep is the reference canonical representative: e with the pivots of
// basis.SpanBasis() eliminated row by row.
func pivotRep(e Vec, basis *Mat) Vec {
	red := basis.SpanBasis()
	out := e.Clone()
	for i := 0; i < red.Rows(); i++ {
		if p := red.Row(i).FirstOne(); p >= 0 && out.Get(p) {
			out.XorInPlace(red.Row(i))
		}
	}
	return out
}

// checkQuotient compares q against CosetMinWeight and pivot elimination on
// every vector of length n when exhaustive, else on samples random ones.
func checkQuotient(t *testing.T, q *Quotient, basis *Mat, rng *rand.Rand, samples int) {
	t.Helper()
	n := basis.Cols()
	check := func(e Vec) {
		if got, want := q.Weight(e), CosetMinWeight(e, basis); got != want {
			t.Fatalf("Weight(%v) = %d, CosetMinWeight = %d", e, got, want)
		}
		if got, want := q.Rep(e), pivotRep(e, basis); !got.Equal(want) {
			t.Fatalf("Rep(%v) = %v, pivot elimination gives %v", e, got, want)
		}
	}
	if samples <= 0 {
		for x := 0; x < 1<<uint(n); x++ {
			e := NewVec(n)
			for j := 0; j < n; j++ {
				e.Set(j, x>>uint(j)&1 == 1)
			}
			check(e)
		}
		return
	}
	for i := 0; i < samples; i++ {
		check(randVec(rng, n))
	}
}

func TestQuotientMatchesCosetSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(8)
		basis := NewMat(n)
		for i := rng.Intn(n + 2); i > 0; i-- { // dependent and zero rows included
			basis.MustAppendRow(randVec(rng, n))
		}
		q := NewQuotient(basis)
		if q.Basis().String() != basis.SpanBasis().String() {
			t.Fatalf("Basis() differs from SpanBasis():\n%v\nvs\n%v", q.Basis(), basis.SpanBasis())
		}
		if q.leader == nil {
			t.Fatalf("n=%d: no leader table", n)
		}
		checkQuotient(t, q, basis, rng, 0)
	}
}

// A quotient with more than 16 free coordinates keeps no table and falls
// back to the Gray-code search over its cached basis.
func TestQuotientFallbackAboveTableBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 24
	basis := NewMat(n)
	for i := 0; i < 5; i++ {
		basis.MustAppendRow(randVec(rng, n))
	}
	q := NewQuotient(basis)
	if free := n - q.Basis().Rows(); free <= maxLeaderBits {
		t.Fatalf("%d free coordinates, want more than %d", free, maxLeaderBits)
	}
	if q.leader != nil {
		t.Fatal("leader table built above the bound")
	}
	checkQuotient(t, q, basis, rng, 4096)
}

// The table bound itself: exactly 16 free coordinates still tabulates.
func TestQuotientTableAtBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 20
	basis := NewMat(n)
	for i := 0; i < n-maxLeaderBits; i++ {
		row := randVec(rng, n)
		row.Set(i, true)
		for j := 0; j < n-maxLeaderBits; j++ {
			row.Set(j, j == i) // independent rows with pivots 0..3
		}
		basis.MustAppendRow(row)
	}
	q := NewQuotient(basis)
	if q.leader == nil || len(q.leader) != 1<<maxLeaderBits {
		t.Fatalf("table of %d entries, want %d", len(q.leader), 1<<maxLeaderBits)
	}
	checkQuotient(t, q, basis, rng, 4096)
}

func TestQuotientLengthMismatchPanics(t *testing.T) {
	q := NewQuotient(MustMatFromStrings("1100", "0011"))
	defer func() {
		if recover() == nil {
			t.Fatal("Weight of a length-5 vector did not panic")
		}
	}()
	q.Weight(NewVec(5))
}

func BenchmarkQuotientWeight(b *testing.B) {
	// The BenchmarkCosetMinWeight basis: 10 rows over 16 columns.
	rng := rand.New(rand.NewSource(1))
	m := NewMat(16)
	for i := 0; i < 10; i++ {
		m.MustAppendRow(randVec(rng, 16))
	}
	q := NewQuotient(m)
	e := FromSupport(16, 1, 5, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Weight(e)
	}
}
