package dftsp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/store"
)

// table1Pins are the Table I rows of the paper as this repository
// synthesizes them: heuristic preparation with optimal verification for
// every catalog code, optimal preparation for Steane and Shor, and global
// optimization for [[11,1,3]]. Each row pins the metrics row and the
// SHA-256 of the protocol's store encoding, so a change to any synthesis
// layer (preparation, verification, CNOT ordering, correction) that alters
// a single measured stabilizer or recovery fails here.
var table1Pins = []struct {
	code, prep, verif string
	row               string
	sha256            string
}{
	{"Steane", "heu", "opt", "Steane       [[7,1,3]]    prep= 9 CNOTs | L1(X): am=1 af=0 wm=3 wf=0 corr=[1/3] | ΣANC=1 ΣCNOT=3 ∅ANC=1.00 ∅CNOT=3.00", "afb57323cfb8b3a9b4231f2404704c01e9109d66ae9a12995320610a4d2e531e"},
	{"Shor", "heu", "opt", "Shor         [[9,1,3]]    prep=10 CNOTs | L1(X): am=1 af=0 wm=3 wf=0 corr=[1/3] | ΣANC=1 ΣCNOT=3 ∅ANC=1.00 ∅CNOT=3.00", "34421f97a0bffcfb4cd622283572a3064c1b3665dbc6b712c8bfc57a2bf55dbe"},
	{"Surface", "heu", "opt", "Surface      [[9,1,3]]    prep= 9 CNOTs | L1(X): am=1 af=0 wm=3 wf=0 corr=[1/3] | ΣANC=1 ΣCNOT=3 ∅ANC=1.00 ∅CNOT=3.00", "8114102bcf9278ad654fb3759d8bfed85c389624ec23969f5dc880b0b6ca7086"},
	{"[[11,1,3]]", "heu", "opt", "[[11,1,3]]   [[11,1,3]]   prep=18 CNOTs | L1(X): am=1 af=0 wm=5 wf=0 corr=[2/8] || L2(Z): am=1 af=1 wm=4 wf=2 corr=[1/3f 2/8 1/3f] | ΣANC=3 ΣCNOT=11 ∅ANC=1.50 ∅CNOT=5.50", "b4e2c269a495bb20f5b86ec3c3d72e297f72179bbbef53c9913cf0194f649076"},
	{"Tetrahedral", "heu", "opt", "Tetrahedral  [[15,1,3]]   prep=28 CNOTs | L1(X): am=1 af=0 wm=4 wf=0 corr=[4/12] | ΣANC=1 ΣCNOT=4 ∅ANC=4.00 ∅CNOT=12.00", "9880e735dde28999bb469a274af4d141050379275101322df70197281c1dc7b0"},
	{"Hamming", "heu", "opt", "Hamming      [[15,7,3]]   prep=28 CNOTs | L1(X): am=1 af=0 wm=4 wf=0 corr=[4/12] | ΣANC=1 ΣCNOT=4 ∅ANC=4.00 ∅CNOT=12.00", "cdc1f9d90ae135f2e9635ae375c86fe588dc1bd2c084d0522313778ceec768a2"},
	{"Carbon", "heu", "opt", "Carbon       [[12,2,4]]   prep=21 CNOTs | L1(X): am=2 af=0 wm=10 wf=0 corr=[2/8 1/4 1/4] || L2(Z): am=2 af=2 wm=12 wf=4 corr=[1/4f 1/4f 1/6 1/4f 1/4f 1/6 1/4f 1/4 1/4f] | ΣANC=6 ΣCNOT=26 ∅ANC=1.08 ∅CNOT=4.67", "703c8c2ffefb0e9f10c59828635ab4d75158942769097bf9eb3ae7d2bbdfed6f"},
	{"[[16,2,4]]", "heu", "opt", "[[16,2,4]]   [[16,2,4]]   prep=33 CNOTs | L1(X): am=2 af=0 wm=8 wf=0 corr=[2/10 2/8 2/8] || L2(Z): am=2 af=2 wm=12 wf=4 corr=[1/4f 1/4f 2/10 1/4f 0/0f 2/12 1/4f 2/8 0/0f] | ΣANC=6 ΣCNOT=24 ∅ANC=1.33 ∅CNOT=6.00", "3fe0c85de28ea9d0f854150d2358a248c1881cce9cc171273c66f2ee639afff8"},
	{"Tesseract", "heu", "opt", "Tesseract    [[16,6,4]]   prep=35 CNOTs | L1(X): am=1 af=0 wm=4 wf=0 corr=[4/16] || L2(Z): am=3 af=3 wm=24 wf=6 corr=[2/8f 2/8f 2/8f 1/8 2/8f 1/4f 1/4f 1/8 2/8f 1/4f 0/0 1/4f 0/0f 1/8 2/8f 1/8 1/4f 0/0 1/4f 0/0 0/0f] | ΣANC=7 ΣCNOT=34 ∅ANC=1.18 ∅CNOT=5.45", "53795dc2669e16c73a272a0fcec983036c94dfb508abdc750f82f56ed2fb20e6"},
	{"Steane", "opt", "opt", "Steane       [[7,1,3]]    prep= 8 CNOTs | L1(X): am=1 af=0 wm=3 wf=0 corr=[1/3] | ΣANC=1 ΣCNOT=3 ∅ANC=1.00 ∅CNOT=3.00", "5056506360597547caa9c7f656604df5110d9f47a36e1f1bd778407f65d98a67"},
	{"Shor", "opt", "opt", "Shor         [[9,1,3]]    prep= 8 CNOTs | L1(X): am=1 af=0 wm=3 wf=0 corr=[1/3] | ΣANC=1 ΣCNOT=3 ∅ANC=1.00 ∅CNOT=3.00", "fe52fb4c67c575b3e4c4cfa376e07c8e8a611dd6ea4e264b683704c41996a51c"},
	{"[[11,1,3]]", "heu", "global", "[[11,1,3]]   [[11,1,3]]   prep=18 CNOTs | L1(X): am=1 af=0 wm=5 wf=0 corr=[2/8] || L2(Z): am=1 af=1 wm=4 wf=2 corr=[1/3f 2/8 1/3f] | ΣANC=3 ΣCNOT=11 ∅ANC=1.50 ∅CNOT=5.50", "3e6769babffad3790e1115886ed9770450cb2256a9f37c25af8df1d8c06b7ed9"},
}

// TestTable1Pinned synthesizes every Table I row and compares it with the
// pinned metrics row and store-encoding digest. The store encoding carries
// every verification stabilizer, CNOT order, flag, correction measurement
// and recovery, so the digest is a byte-exact check on the whole protocol.
func TestTable1Pinned(t *testing.T) {
	if len(table1Pins) != len(Codes())+3 {
		t.Fatalf("pins cover %d rows, the catalog has %d codes (+3 extra rows)", len(table1Pins), len(Codes()))
	}
	for _, pin := range table1Pins {
		opts := Options{Code: pin.code, Prep: pin.prep, Verif: pin.verif}
		t.Run(pin.code+"/"+pin.prep+"/"+pin.verif, func(t *testing.T) {
			p, err := Synthesize(bg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.MetricsRow(); got != pin.row {
				t.Errorf("metrics row\n got %s\nwant %s", got, pin.row)
			}
			key, err := p.Options.Key()
			if err != nil {
				t.Fatal(err)
			}
			optsJSON, err := json.Marshal(p.Options)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := store.Encode(store.Meta{Key: key, Options: optsJSON}, p.Core)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(enc)
			if got := hex.EncodeToString(sum[:]); got != pin.sha256 {
				t.Errorf("store encoding sha256 %s, want %s", got, pin.sha256)
			}
		})
	}
}
