package code

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/f2"
)

// oldCosetRep is the pivot elimination CosetRep performed before it was
// cached: reduce the group afresh and clear each RREF pivot in row order.
func oldCosetRep(c *CSS, t ErrType, e f2.Vec) f2.Vec {
	red := c.ReductionGroup(t).SpanBasis()
	out := e.Clone()
	for i := 0; i < red.Rows(); i++ {
		p := red.Row(i).FirstOne()
		if p >= 0 && out.Get(p) {
			out.XorInPlace(red.Row(i))
		}
	}
	return out
}

// sectorVectors returns every length-n vector for n <= 12, else 4096 seeded
// random ones.
func sectorVectors(n int, seed int64) []f2.Vec {
	var out []f2.Vec
	if n <= 12 {
		for x := 0; x < 1<<uint(n); x++ {
			e := f2.NewVec(n)
			for j := 0; j < n; j++ {
				e.Set(j, x>>uint(j)&1 == 1)
			}
			out = append(out, e)
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 4096; i++ {
		e := f2.NewVec(n)
		for j := 0; j < n; j++ {
			e.Set(j, rng.Intn(2) == 1)
		}
		out = append(out, e)
	}
	return out
}

// The cached per-sector quotient answers exactly what the uncached
// Gray-code search and pivot elimination answer, on every catalog code and
// both sectors.
func TestReducedWeightMatchesCosetSearch(t *testing.T) {
	for _, c := range Catalog() {
		for _, kind := range []ErrType{ErrX, ErrZ} {
			group := c.ReductionGroup(kind)
			for _, e := range sectorVectors(c.N, int64(c.N)) {
				if got, want := c.ReducedWeight(kind, e), f2.CosetMinWeight(e, group); got != want {
					t.Fatalf("%s %v: ReducedWeight(%v) = %d, CosetMinWeight = %d", c.Name, kind, e, got, want)
				}
				if got, want := c.CosetRep(kind, e), oldCosetRep(c, kind, e); !got.Equal(want) {
					t.Fatalf("%s %v: CosetRep(%v) = %v, pivot elimination gives %v", c.Name, kind, e, got, want)
				}
			}
		}
	}
}

// The per-sector caches are filled under a once-guard; concurrent first
// use from many goroutines, next to a concurrent Distance, must be
// race-free and agree with a fresh code's answers. All goroutines wait on
// one start signal, so no goroutine's first use is ordered before
// another's and the race detector sees every unguarded cache write.
func TestReducedWeightConcurrent(t *testing.T) {
	shared, ref := Carbon(), Carbon()
	vecs := sectorVectors(shared.N, 1)[:512]
	want := map[ErrType][]int{}
	for _, kind := range []ErrType{ErrX, ErrZ} {
		for _, e := range vecs {
			want[kind] = append(want[kind], ref.ReducedWeight(kind, e))
		}
	}
	start := make(chan struct{})
	errs := make(chan string, 9)
	var wg sync.WaitGroup
	wg.Add(9)
	for g := 0; g < 8; g++ {
		go func(kind ErrType) {
			defer wg.Done()
			<-start
			for i, e := range vecs {
				if shared.ReducedWeight(kind, e) != want[kind][i] ||
					!shared.CosetRep(kind, e).Equal(ref.CosetRep(kind, e)) {
					errs <- "goroutine disagrees with a fresh code on " + e.String()
					return
				}
			}
		}(ErrType(g % 2))
	}
	go func() {
		defer wg.Done()
		<-start
		if d := shared.Distance(); d != 4 {
			errs <- "Carbon distance is not 4"
		}
	}()
	close(start)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
