package code

import "repro/internal/f2"

// ErrType distinguishes the two CSS error sectors.
type ErrType int

// Error sectors.
const (
	ErrX ErrType = iota // bit-flip errors (detected by Z-type measurements)
	ErrZ                // phase-flip errors (detected by X-type measurements)
)

// Opposite returns the other sector.
func (t ErrType) Opposite() ErrType {
	if t == ErrX {
		return ErrZ
	}
	return ErrX
}

// String returns "X" or "Z".
func (t ErrType) String() string {
	if t == ErrX {
		return "X"
	}
	return "Z"
}

// DetectionGroup returns a basis of the group of stabilizers of |0...0>_L
// whose measurement detects errors of sector t without disturbing the state:
// Z-type stabilizers (including logical Zs) for X errors, X-type stabilizers
// for Z errors.
func (c *CSS) DetectionGroup(t ErrType) *f2.Mat {
	if t == ErrX {
		return c.ZStabilizerGroup()
	}
	return c.XStabilizerGroup()
}

// ReductionGroup returns the basis modulo which errors of sector t act
// trivially on |0...0>_L: X-type stabilizers for X errors, Z-type
// stabilizers plus logical Zs for Z errors.
func (c *CSS) ReductionGroup(t ErrType) *f2.Mat {
	if t == ErrX {
		return c.XStabilizerGroup()
	}
	return c.ZStabilizerGroup()
}

// ReducedWeight returns wt_S(e) for an error e of sector t on |0...0>_L:
// the minimum weight over the coset e + ReductionGroup(t). It reads a
// coset-leader table built on the sector's first query.
func (c *CSS) ReducedWeight(t ErrType, e f2.Vec) int {
	return c.quotient(t).Weight(e)
}

// CosetRep returns the canonical representative of e modulo
// ReductionGroup(t), obtained by eliminating the group's RREF pivots. Two
// errors are equivalent on |0...0>_L exactly when their representatives are
// equal.
func (c *CSS) CosetRep(t ErrType, e f2.Vec) f2.Vec {
	return c.quotient(t).Rep(e)
}

// quotient returns the sector's ReductionGroup quotient, building it on
// first use.
func (c *CSS) quotient(t ErrType) *f2.Quotient {
	i := 0
	if t != ErrX {
		i = 1 // ReductionGroup treats every non-X sector as Z
	}
	c.quotOnce[i].Do(func() { c.quot[i] = f2.NewQuotient(c.ReductionGroup(t)) })
	return c.quot[i]
}
