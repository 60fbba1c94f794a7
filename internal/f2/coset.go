package f2

import (
	"fmt"
	"math/bits"
)

// maxSpanBits bounds the exponent of span enumeration; 2^24 vectors is a few
// hundred milliseconds and far above anything the d<5 catalog needs.
const maxSpanBits = 24

// maxLeaderBits bounds the coset-leader table of a Quotient: 2^16 one-byte
// weights is 64 KiB, built by one breadth-first search in about a
// millisecond. Quotients with more free coordinates answer weight queries
// by Gray-code enumeration of the basis span instead.
const maxLeaderBits = 16

// CosetMinWeight returns min_{s in rowspan(basis)} wt(e + s): the minimum
// Hamming weight of the coset e + span. This implements the
// stabilizer-reduced weight wt_S(e) of the paper for a basis of the
// stabilizer group restricted to one Pauli type.
//
// The span is enumerated with a Gray code, so each step costs one vector
// addition. basis is reduced to an independent set first, keeping the
// exponent minimal. It panics if the reduced basis has more than 24 rows.
func CosetMinWeight(e Vec, basis *Mat) int {
	w, _ := CosetMinRep(e, basis)
	return w
}

// CosetMinRep returns the minimum weight over the coset e + rowspan(basis)
// together with one representative achieving it.
func CosetMinRep(e Vec, basis *Mat) (int, Vec) {
	return cosetMinRep(e, basis.SpanBasis())
}

// cosetMinRep is CosetMinRep for a basis that is already independent.
func cosetMinRep(e Vec, red *Mat) (int, Vec) {
	r := red.Rows()
	if r > maxSpanBits {
		panic("f2: coset enumeration over more than 2^24 elements")
	}
	best := e.Weight()
	bestRep := e.Clone()
	cur := e.Clone()
	// Gray code: on step i, toggle basis row TrailingZeros(i).
	for i := uint64(1); i < 1<<uint(r); i++ {
		cur.XorInPlace(red.Row(bits.TrailingZeros64(i)))
		if w := cur.Weight(); w < best {
			best = w
			bestRep = cur.Clone()
			if best == 0 {
				break
			}
		}
	}
	return best, bestRep
}

// SpanForEach calls fn for every vector in the row span of basis, including
// the zero vector. The argument passed to fn is reused between calls; clone
// it to retain. Enumeration stops early if fn returns false.
func SpanForEach(basis *Mat, fn func(Vec) bool) {
	red := basis.SpanBasis()
	r := red.Rows()
	if r > maxSpanBits {
		panic("f2: span enumeration over more than 2^24 elements")
	}
	cur := NewVec(basis.Cols())
	if !fn(cur) {
		return
	}
	for i := uint64(1); i < 1<<uint(r); i++ {
		cur.XorInPlace(red.Row(bits.TrailingZeros64(i)))
		if !fn(cur) {
			return
		}
	}
}

// MinWeightNonZero returns the minimum Hamming weight over the non-zero
// vectors of the row span of basis, or -1 for a rank-zero basis.
func MinWeightNonZero(basis *Mat) int {
	best := -1
	first := true
	SpanForEach(basis, func(v Vec) bool {
		if first {
			first = false // skip the zero vector
			return true
		}
		if w := v.Weight(); best < 0 || w < best {
			best = w
		}
		return best != 1 // weight 1 is the global minimum for non-zero vectors
	})
	return best
}

// Quotient is the quotient space GF(2)^n / rowspan(basis), prepared once for
// repeated coset queries against a fixed basis. The basis is kept in reduced
// row echelon form. The canonical representative of a coset is its member
// that is zero on every pivot column, so a coset is identified by the bits
// of that representative on the remaining, free, columns. With at most 16
// free columns the minimum weight of every coset (the weight of its coset
// leader) is tabulated at construction, and Weight is a table lookup.
//
// A Quotient is immutable after NewQuotient and safe for concurrent use.
type Quotient struct {
	basis  *Mat     // RREF rows of the span
	pivots []int    // pivot column of each basis row
	free   []int    // non-pivot columns; bit j of a coset index is column free[j]
	rowIdx []uint32 // coset index of each basis row with its pivot cleared
	leader []uint8  // coset-leader weight by coset index; nil above maxLeaderBits
}

// NewQuotient row-reduces basis and, when the quotient has at most 16 free
// coordinates, tabulates the coset-leader weights. basis is not modified.
func NewQuotient(basis *Mat) *Quotient {
	red := basis.Clone()
	q := &Quotient{basis: red, pivots: red.RREF()}
	isPivot := make([]bool, red.Cols())
	for _, p := range q.pivots {
		isPivot[p] = true
	}
	for c := range isPivot {
		if !isPivot[c] {
			q.free = append(q.free, c)
		}
	}
	if len(q.free) > maxLeaderBits {
		return q
	}
	for i := range q.pivots {
		q.rowIdx = append(q.rowIdx, q.freeBits(red.Row(i)))
	}
	q.leader = q.leaderWeights()
	return q
}

// Basis returns the reduced row echelon basis of the span, the same rows
// basis.SpanBasis() returns. It shares storage with q and must not be
// modified.
func (q *Quotient) Basis() *Mat { return q.basis }

// Rep returns the canonical representative of the coset e + span: e with
// every pivot column eliminated. Two vectors lie in the same coset exactly
// when their representatives are equal.
func (q *Quotient) Rep(e Vec) Vec {
	out := e.Clone()
	for i, p := range q.pivots {
		if out.Get(p) {
			out.XorInPlace(q.basis.Row(i))
		}
	}
	return out
}

// Weight returns min_{s in span} wt(e + s), the value CosetMinWeight
// computes for the same basis.
func (q *Quotient) Weight(e Vec) int {
	if e.Len() != q.basis.Cols() {
		panic(fmt.Sprintf("f2: length mismatch %d != %d", e.Len(), q.basis.Cols()))
	}
	if q.leader == nil {
		w, _ := cosetMinRep(e, q.basis)
		return w
	}
	x := q.freeBits(e)
	for i, p := range q.pivots {
		if e.Get(p) {
			x ^= q.rowIdx[i]
		}
	}
	return int(q.leader[x])
}

// freeBits gathers the free coordinates of v into a coset index. It is the
// index of v's coset only when v is zero on every pivot column.
func (q *Quotient) freeBits(v Vec) uint32 {
	var x uint32
	for j, c := range q.free {
		if v.Get(c) {
			x |= 1 << uint(j)
		}
	}
	return x
}

// leaderWeights computes the minimum weight of every coset by breadth-first
// search from the zero coset. Adding the unit vector at column c moves a
// coset index by a fixed XOR: bit j for the free column free[j], and the
// row's index for the pivot column of a basis row. A coset's minimum weight
// is the fewest unit vectors summing into it, which is its BFS distance.
func (q *Quotient) leaderWeights() []uint8 {
	gens := make([]uint32, 0, len(q.free)+len(q.rowIdx))
	for j := range q.free {
		gens = append(gens, 1<<uint(j))
	}
	for _, g := range q.rowIdx {
		if g != 0 { // a unit vector in the span moves nothing
			gens = append(gens, g)
		}
	}
	const unseen = 0xff // weights are at most len(free) <= 16
	dist := make([]uint8, 1<<uint(len(q.free)))
	for i := range dist {
		dist[i] = unseen
	}
	dist[0] = 0
	queue := make([]uint32, 1, len(dist))
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, g := range gens {
			if y := x ^ g; dist[y] == unseen {
				dist[y] = dist[x] + 1
				queue = append(queue, y)
			}
		}
	}
	return dist
}
