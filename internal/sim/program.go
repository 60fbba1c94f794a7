package sim

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/circuit"
	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/decoder"
	"repro/internal/f2"
	"repro/internal/noise"
)

// Program is a core.Protocol compiled into a flat, allocation-free form for
// the Monte-Carlo hot loop. Compilation happens once per estimator and does
// everything the interpreted executor pays for on every shot:
//
//   - preparation gates are pre-indexed into a dense op list;
//   - every measurement's CNOT order is resolved (m.Order or the stabilizer
//     support) and its flag decision (Flagged && weight >= 3) is frozen;
//   - verification signatures are interned: the per-layer signature is
//     packed into a uint64 (B bits low, F bits high) and mapped to a dense
//     class index, so the shot loop never builds a string or hashes one;
//   - correction blocks carry dense recovery tables indexed by the packed
//     block syndrome, with recoveries bit-packed for word-wise XOR;
//   - the final perfect-EC round uses a decoder.Dense table and bit-packed
//     logical-Z rows.
//
// A Program is immutable after Compile and safe for concurrent use; all
// per-shot mutable state lives in a Shot. Run consumes the fault injector
// in exactly the reference executor's order, so for any fixed fault plan
// (or shared RNG stream) Program.Run and Run produce bit-identical
// outcomes — the cross-check tests pin this down.
type Program struct {
	n, nw  int // data qubits; words per frame
	prep   []gateOp
	layers []progLayer
	dec    *decoder.Dense
	lz     [][]uint64
	kinds  []noise.LocKind // location kinds of the fault-free path
}

// gate op kinds of the compiled preparation circuit.
const (
	opPrep uint8 = iota // PrepZ/PrepX: erase the frame, then a 1Q location
	opH                 // Hadamard: swap the frame sectors
	opCNOT
)

type gateOp struct {
	kind   uint8
	q1, q2 int32
}

// progMeas is one pre-resolved ancilla-mediated stabilizer measurement.
type progMeas struct {
	order   []int32
	zType   bool // measures a Z-type stabilizer (detects X errors)
	useFlag bool // flag circuit compiled in (Flagged && weight >= 3)
}

// progBlock is a compiled correction block: measurements plus a dense
// syndrome -> recovery table.
type progBlock struct {
	meas []progMeas
	// corrEx: recoveries apply to the X sector (and the measurements are
	// Z-type); otherwise the Z sector with X-type measurements.
	corrEx bool
	rec    [][]uint64 // packed syndrome -> recovery words; nil = identity
}

type progClass struct {
	primary, hook *progBlock
}

type progLayer struct {
	meas      []progMeas
	classes   map[uint64]int32 // packed signature -> class index
	classList []progClass
}

// maxLayerMeas bounds the verification measurements per layer so that the
// B and F bit fields pack into one uint64 signature key.
const maxLayerMeas = 31

// maxBlockStabs bounds a correction block's measurement count so its dense
// recovery table (2^u entries) stays small.
const maxBlockStabs = 20

// Shot is the reusable per-worker scratch of the compiled engine: the Pauli
// frame, the decoder scratch and the signature ring are allocated once by
// NewShot and reused for every subsequent Run, so the steady-state loop
// performs zero heap allocations per shot.
type Shot struct {
	ex, ez []uint64
	tmp    []uint64 // Judge scratch: corrected X frame
	sigs   []uint64 // packed signature per executed layer

	// Branch flags of the last Run, mirroring Outcome.
	Triggered, UnknownClass, TerminatedEarly bool
}

// Compile flattens the protocol into a Program and records the location
// kinds of its fault-free path. It returns an error when the protocol
// exceeds the engine's packing limits (more than 31 verification
// measurements in a layer, more than 20 block measurements, a decoder rank
// above the dense-table bound) or contains malformed class keys; the
// estimation entry points report ErrEngineUnavailable for such a protocol.
func Compile(p *core.Protocol) (*Program, error) {
	n := p.Code.N
	pr := &Program{n: n, nw: (n + 63) / 64}

	for _, g := range p.Prep.Gates {
		switch g.Kind {
		case circuit.PrepZ, circuit.PrepX:
			pr.prep = append(pr.prep, gateOp{kind: opPrep, q1: int32(g.Q)})
		case circuit.H:
			pr.prep = append(pr.prep, gateOp{kind: opH, q1: int32(g.Q)})
		case circuit.CNOT:
			pr.prep = append(pr.prep, gateOp{kind: opCNOT, q1: int32(g.Q), q2: int32(g.Q2)})
		default:
			return nil, fmt.Errorf("sim: unexpected gate %v in preparation circuit", g.Kind)
		}
	}

	for _, layer := range p.Layers {
		if len(layer.Verif) > maxLayerMeas {
			return nil, fmt.Errorf("sim: layer has %d measurements, packing limit is %d", len(layer.Verif), maxLayerMeas)
		}
		pl := progLayer{classes: make(map[uint64]int32, len(layer.Classes))}
		for mi := range layer.Verif {
			pl.meas = append(pl.meas, compileMeas(&layer.Verif[mi]))
		}
		// Sorted keys give deterministic class indices (behaviour does not
		// depend on them; debuggability does).
		keys := make([]string, 0, len(layer.Classes))
		for k := range layer.Classes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			cc := layer.Classes[key]
			packed, err := packSigKey(key, len(layer.Verif))
			if err != nil {
				return nil, err
			}
			var pc progClass
			if cc.Primary != nil {
				blk, err := compileBlock(cc.Primary, layer.Detects, n, pr.nw)
				if err != nil {
					return nil, err
				}
				pc.primary = blk
			}
			if cc.Hook != nil {
				blk, err := compileBlock(cc.Hook, layer.Detects.Opposite(), n, pr.nw)
				if err != nil {
					return nil, err
				}
				pc.hook = blk
			}
			pl.classes[packed] = int32(len(pl.classList))
			pl.classList = append(pl.classList, pc)
		}
		pr.layers = append(pr.layers, pl)
	}

	dec, err := decoder.NewDenseChecked(p.Code.Hz)
	if err != nil {
		return nil, err
	}
	pr.dec = dec
	for i := 0; i < p.Code.Lz.Rows(); i++ {
		row := make([]uint64, pr.nw)
		copy(row, p.Code.Lz.Row(i).Words())
		pr.lz = append(pr.lz, row)
	}
	ctr := &noise.Counter{}
	pr.Run(pr.NewShot(), ctr)
	pr.kinds = ctr.Kinds
	return pr, nil
}

// compileMeas freezes one verification measurement: explicit CNOT order or
// the stabilizer support, and the executor's flag decision.
func compileMeas(m *core.Measurement) progMeas {
	order := m.Order
	if len(order) == 0 {
		order = m.Stab.Support()
	}
	pm := progMeas{
		order:   make([]int32, len(order)),
		zType:   m.Kind == code.ErrZ,
		useFlag: m.Flagged && len(order) >= 3,
	}
	for i, q := range order {
		pm.order[i] = int32(q)
	}
	return pm
}

// compileBlock freezes a correction block for the sector kind it corrects:
// the measured stabilizers are of the opposite operator type, and the dense
// recovery table maps every packed syndrome to bit-packed recovery words
// (nil for the identity recovery).
func compileBlock(blk *correct.Block, kind code.ErrType, n, nw int) (*progBlock, error) {
	u := len(blk.Stabs)
	if u > maxBlockStabs {
		return nil, fmt.Errorf("sim: correction block has %d measurements, packing limit is %d", u, maxBlockStabs)
	}
	pb := &progBlock{corrEx: kind == code.ErrX, rec: make([][]uint64, 1<<uint(u))}
	for _, s := range blk.Stabs {
		m := core.Measurement{Stab: s, Kind: kind.Opposite()}
		pb.meas = append(pb.meas, compileMeas(&m))
	}
	for key, rec := range blk.Recovery {
		if len(key) != u {
			return nil, fmt.Errorf("sim: recovery key %q does not match %d block measurements", key, u)
		}
		var idx uint64
		for i := 0; i < u; i++ {
			if key[i] == '1' {
				idx |= 1 << uint(i)
			}
		}
		if rec.IsZero() {
			continue
		}
		w := make([]uint64, nw)
		copy(w, rec.Words())
		pb.rec[idx] = w
	}
	return pb, nil
}

// packSigKey parses a core.Signature map key ("B|F" with m bits each) into
// the packed form bBits | fBits<<m.
func packSigKey(key string, m int) (uint64, error) {
	if len(key) != 2*m+1 || key[m] != '|' {
		return 0, fmt.Errorf("sim: malformed signature key %q for %d measurements", key, m)
	}
	var b, f uint64
	for i := 0; i < m; i++ {
		if key[i] == '1' {
			b |= 1 << uint(i)
		}
		if key[m+1+i] == '1' {
			f |= 1 << uint(i)
		}
	}
	return b | f<<uint(m), nil
}

// NewShot allocates the reusable per-worker scratch for this program.
// A Shot must not be shared between concurrent Run calls.
func (pr *Program) NewShot() *Shot {
	return &Shot{
		ex:   make([]uint64, pr.nw),
		ez:   make([]uint64, pr.nw),
		tmp:  make([]uint64, pr.nw),
		sigs: make([]uint64, 0, len(pr.layers)),
	}
}

// word-level frame primitives; q is always in range by construction.

func getBit(w []uint64, q int32) bool { return w[q>>6]>>(uint(q)&63)&1 == 1 }
func flipBit(w []uint64, q int32)     { w[q>>6] ^= 1 << (uint(q) & 63) }
func clearBit(w []uint64, q int32)    { w[q>>6] &^= 1 << (uint(q) & 63) }
func setBit(w []uint64, q int32, one bool) {
	if one {
		w[q>>6] |= 1 << (uint(q) & 63)
	} else {
		clearBit(w, q)
	}
}

func (sh *Shot) applyData(q int32, pauli byte) {
	if pauli&1 != 0 {
		flipBit(sh.ex, q)
	}
	if pauli&2 != 0 {
		flipBit(sh.ez, q)
	}
}

// Run executes one shot of the compiled protocol under the injector,
// leaving the residual frame and branch flags in sh. It consumes injector
// locations in exactly the same order as the interpreted Run and performs
// no heap allocations.
func (pr *Program) Run(sh *Shot, inj noise.Injector) {
	for i := range sh.ex {
		sh.ex[i] = 0
		sh.ez[i] = 0
	}
	sh.sigs = sh.sigs[:0]
	sh.Triggered, sh.UnknownClass, sh.TerminatedEarly = false, false, false

	for _, g := range pr.prep {
		switch g.kind {
		case opPrep:
			clearBit(sh.ex, g.q1)
			clearBit(sh.ez, g.q1)
			ft := inj.Next(noise.Loc1Q)
			sh.applyData(g.q1, ft.P1)
		case opH:
			x, z := getBit(sh.ex, g.q1), getBit(sh.ez, g.q1)
			setBit(sh.ex, g.q1, z)
			setBit(sh.ez, g.q1, x)
			ft := inj.Next(noise.Loc1Q)
			sh.applyData(g.q1, ft.P1)
		case opCNOT:
			if getBit(sh.ex, g.q1) {
				flipBit(sh.ex, g.q2)
			}
			if getBit(sh.ez, g.q2) {
				flipBit(sh.ez, g.q1)
			}
			ft := inj.Next(noise.Loc2Q)
			sh.applyData(g.q1, ft.P1)
			sh.applyData(g.q2, ft.P2)
		}
	}

	for li := range pr.layers {
		lay := &pr.layers[li]
		m := uint(len(lay.meas))
		var bBits, fBits uint64
		for mi := range lay.meas {
			out, flag := pr.measure(sh, &lay.meas[mi], inj)
			if out {
				bBits |= 1 << uint(mi)
			}
			if flag {
				fBits |= 1 << uint(mi)
			}
		}
		packed := bBits | fBits<<m
		sh.sigs = append(sh.sigs, packed)
		if packed == 0 {
			continue
		}
		sh.Triggered = true
		ci, ok := lay.classes[packed]
		if !ok {
			sh.UnknownClass = true
			continue
		}
		cc := &lay.classList[ci]
		flagFired := fBits != 0
		if cc.primary != nil {
			pr.runBlock(sh, cc.primary, inj)
		}
		if cc.hook != nil && flagFired {
			pr.runBlock(sh, cc.hook, inj)
		}
		if flagFired {
			// Fig. 3(e): hook detected, protocol terminates after the
			// correction.
			sh.TerminatedEarly = true
			return
		}
	}
}

// runBlock measures the block's stabilizers and XORs the dense-table
// recovery for the observed syndrome into the corrected sector.
func (pr *Program) runBlock(sh *Shot, blk *progBlock, inj noise.Injector) {
	var idx uint64
	for i := range blk.meas {
		out, _ := pr.measure(sh, &blk.meas[i], inj)
		if out {
			idx |= 1 << uint(i)
		}
	}
	rec := blk.rec[idx]
	if rec == nil {
		return
	}
	dst := sh.ex
	if !blk.corrEx {
		dst = sh.ez
	}
	for i, w := range rec {
		dst[i] ^= w
	}
}

// measure is the compiled twin of executor.measure: one ancilla-mediated
// stabilizer measurement with fault injection, identical location order.
func (pr *Program) measure(sh *Shot, m *progMeas, inj noise.Injector) (out, flag bool) {
	w := len(m.order)
	zType := m.zType
	var ancX, ancZ, flagX, flagZ bool

	// Ancilla preparation.
	ft := inj.Next(noise.Loc1Q)
	ancX = ft.P1&1 != 0
	ancZ = ft.P1&2 != 0

	dataCNOT := func(q int32) {
		if zType {
			// CNOT(data q -> anc): X spreads q->anc, Z spreads anc->q.
			ancX = ancX != getBit(sh.ex, q)
			if ancZ {
				flipBit(sh.ez, q)
			}
		} else {
			// CNOT(anc -> data q).
			if ancX {
				flipBit(sh.ex, q)
			}
			ancZ = ancZ != getBit(sh.ez, q)
		}
		ft := inj.Next(noise.Loc2Q)
		if zType {
			sh.applyData(q, ft.P1)
			ancX = ancX != (ft.P2&1 != 0)
			ancZ = ancZ != (ft.P2&2 != 0)
		} else {
			ancX = ancX != (ft.P1&1 != 0)
			ancZ = ancZ != (ft.P1&2 != 0)
			sh.applyData(q, ft.P2)
		}
	}
	flagCNOT := func() {
		if zType {
			// CNOT(flag -> anc).
			ancX = ancX != flagX
			flagZ = flagZ != ancZ
		} else {
			// CNOT(anc -> flag).
			flagX = flagX != ancX
			ancZ = ancZ != flagZ
		}
		ft := inj.Next(noise.Loc2Q)
		if zType {
			flagX = flagX != (ft.P1&1 != 0)
			flagZ = flagZ != (ft.P1&2 != 0)
			ancX = ancX != (ft.P2&1 != 0)
			ancZ = ancZ != (ft.P2&2 != 0)
		} else {
			ancX = ancX != (ft.P1&1 != 0)
			ancZ = ancZ != (ft.P1&2 != 0)
			flagX = flagX != (ft.P2&1 != 0)
			flagZ = flagZ != (ft.P2&2 != 0)
		}
	}

	dataCNOT(m.order[0])
	if m.useFlag {
		ft := inj.Next(noise.Loc1Q) // flag preparation
		flagX = ft.P1&1 != 0
		flagZ = ft.P1&2 != 0
		flagCNOT()
	}
	for j := 1; j < w-1; j++ {
		dataCNOT(m.order[j])
	}
	if m.useFlag {
		flagCNOT()
		// Flag measurement: X basis for Z-type, Z basis for X-type.
		mf := inj.Next(noise.LocMeas)
		if zType {
			flag = flagZ != mf.Flip
		} else {
			flag = flagX != mf.Flip
		}
	}
	if w > 1 {
		dataCNOT(m.order[w-1])
	}
	mf := inj.Next(noise.LocMeas)
	if zType {
		out = ancX != mf.Flip
	} else {
		out = ancZ != mf.Flip
	}
	return out, flag
}

// Judge applies the perfect lookup-table EC round to the shot's residual X
// frame and reports a logical error, exactly like Estimator.Judge on the
// interpreted outcome, without allocating.
func (pr *Program) Judge(sh *Shot) bool {
	corr := pr.dec.CorrectionWords(pr.dec.Index(sh.ex))
	for i := range sh.tmp {
		sh.tmp[i] = sh.ex[i] ^ corr[i]
	}
	for _, row := range pr.lz {
		var acc uint64
		for j, w := range row {
			acc ^= w & sh.tmp[j]
		}
		if bits.OnesCount64(acc)&1 == 1 {
			return true
		}
	}
	return false
}

// Outcome converts the shot's state into the reference executor's Outcome
// form (allocating; used by the FT certificate and the cross-check tests,
// never by the hot loop).
func (pr *Program) Outcome(sh *Shot) Outcome {
	out := Outcome{
		Ex:              f2.NewVec(pr.n),
		Ez:              f2.NewVec(pr.n),
		Triggered:       sh.Triggered,
		UnknownClass:    sh.UnknownClass,
		TerminatedEarly: sh.TerminatedEarly,
	}
	for q := 0; q < pr.n; q++ {
		if getBit(sh.ex, int32(q)) {
			out.Ex.Flip(q)
		}
		if getBit(sh.ez, int32(q)) {
			out.Ez.Flip(q)
		}
	}
	for li, packed := range sh.sigs {
		m := len(pr.layers[li].meas)
		b := make([]byte, m)
		f := make([]byte, m)
		for i := 0; i < m; i++ {
			b[i] = '0' + byte(packed>>uint(i)&1)
			f[i] = '0' + byte(packed>>uint(m+i)&1)
		}
		out.Sigs = append(out.Sigs, core.Signature{B: string(b), F: string(f)})
	}
	return out
}
