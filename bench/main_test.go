package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/dftsp"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileMedianGeomean(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := geomean([]float64{1, 10, 100}); !approx(got, 10) {
		t.Errorf("geomean(1,10,100) = %v, want 10", got)
	}
	// Two cheap kinds and two dear ones: the plain median sits in the gap
	// and follows the edge samples; the median of kind medians does not.
	byKind := map[string][]float64{"a": {1, 2, 3}, "b": {2, 3, 9}, "c": {100, 110, 120}, "d": {105, 115, 500}}
	if got := kindMedian(byKind); got != (3+110)/2.0 {
		t.Errorf("kindMedian = %v, want 56.5", got)
	}
	if geomean([]float64{1, 0}) != 0 || geomean(nil) != 0 || median(nil) != 0 || percentile(nil, 0.5) != 0 {
		t.Error("empty or non-positive input must give 0")
	}
}

func TestKindGeomeanAndPassTimes(t *testing.T) {
	byKind := map[string][]float64{"a": {1, 2, 30}, "b": {800, 200, 100}}
	if got := kindGeomean(byKind); !approx(got, 20) {
		t.Errorf("kindGeomean = %v, want sqrt(2*200) = 20", got)
	}
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	var ops opTimes
	for kind, vs := range byKind {
		for _, v := range vs {
			ops.add(kind, timing{wall: ms(v), cpu: ms(v / 2)})
		}
	}
	// Without passes, a pass is the sum of the kinds' medians.
	if got := passTimes(ops, nil, wallMS); len(got) != 1 || !approx(got[0], 0.202) {
		t.Errorf("passTimes(nil) = %v, want [0.202]", got)
	}
	passes := [][]timing{{{wall: ms(1000), cpu: ms(400)}, {wall: ms(500), cpu: ms(100)}}, {{wall: ms(3000), cpu: ms(2000)}}}
	if got := passTimes(ops, passes, cpuMS); !reflect.DeepEqual(got, []float64{0.5, 2}) {
		t.Errorf("passTimes = %v, want [0.5 2]", got)
	}
}

func TestSpeedoScalesByNearestSamples(t *testing.T) {
	// Ten samples around t = 0..9 s read 10 ms, ten around t = 100..109 s
	// read 20 ms, and one stray sample at 5.5 s reads 90 ms.
	sp := &speedo{n: 1}
	for i := 0; i < 10; i++ {
		sp.at = append(sp.at, time.Duration(i)*time.Second, time.Duration(100+i)*time.Second)
		sp.ref = append(sp.ref, 10*time.Millisecond, 20*time.Millisecond)
	}
	sp.at = append(sp.at, 5500*time.Millisecond)
	sp.ref = append(sp.ref, 90*time.Millisecond)
	early := timing{wall: 40 * time.Millisecond, cpu: 30 * time.Millisecond, at: 5 * time.Second}
	if got := sp.cpuMS(early); !approx(got, 30*float64(refNominal)/float64(10*time.Millisecond)) {
		t.Errorf("early cpuMS = %v: the window median must ignore the stray sample", got)
	}
	late := timing{wall: 40 * time.Millisecond, cpu: 30 * time.Millisecond, at: 104 * time.Second}
	if got := sp.wallMS(late); !approx(got, 40*float64(refNominal)/float64(20*time.Millisecond)) {
		t.Errorf("late wallMS = %v: the window must follow the later, slower samples", got)
	}
}

func TestRefKernelIsFixedWork(t *testing.T) {
	if refKernel(7) != refKernel(7) || refKernel(7) == refKernel(8) {
		t.Error("the reference kernel must be deterministic in its seed")
	}
	if d := refSample(1); d <= 0 {
		t.Errorf("refSample CPU time %v", d)
	}
}

func TestTailQuantileNeedsTenAbove(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{2000, 0.99, true}, // 20 samples above p99
		{999, 0.9, true},   // p99 leaves 9 above, p90 leaves 99
		{100, 0.9, true},   // exactly 10 above
		{99, 0, false},     // p90 leaves 9 above
	} {
		q, ok := tailQuantile(tc.n, 10, 0.99, 0.9)
		if ok != tc.ok || (ok && q != tc.want) {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.want, tc.ok)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	if got := coveredLength([]interval{{10, 20}, {15, 30}, {40, 50}, {0, 5}}, 0, 45); got != 5+20+5 {
		t.Errorf("coveredLength = %d, want 30", got)
	}
	// root [0,100] with children [10,40] and [30,60] (overlapping) and a
	// grandchild [20,30] under the first child.
	spans := []span{
		{ID: 1, Name: "e2e.x", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.build", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "sim.run", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "sat.solve", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 50, 2: 20, 3: 30, 4: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	dur, share := explained(spans, 1)
	if dur != 100 || !approx(share, 0.6) {
		t.Errorf("explained = %v, %v; want 100ns, 0.6", dur, share)
	}
	if spans[3].layer() != "sat" {
		t.Errorf("layer of %q = %q", spans[3].Name, spans[3].layer())
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, "op", "e2e.test")
	tr.do(root, "op", "prep.heuristic", func() {})
	tr.finish(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || strings.Count(string(data), "\n") != 2 {
		t.Fatalf("span file %q, %v", data, err)
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n, unit, better string) {
		if !nameRe.MatchString(n) || seen[n] {
			t.Errorf("%s name %q invalid or repeated", kind, n)
		}
		seen[n] = true
		if unit != "" && !unitRe.MatchString(unit) {
			t.Errorf("%s %s: bad unit %q", kind, n, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s %s: better = %q", kind, n, better)
		}
	}

	var wl []string
	for _, w := range bf.Workloads {
		name("workload", w.Name, "", "")
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(wl, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", wl, workloadNames())
	}

	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bf.EndToEnd {
		name("end_to_end", m.Name, m.Unit, m.Better)
		d := endToEndMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Unit != "s" {
		t.Error("setup_s in seconds must be an end-to-end metric")
	}

	defs := layerDefs()
	if len(bf.PerLayer) != len(defs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, layers.json %d", len(bf.PerLayer), len(defs))
	}
	e2e := map[string]bool{}
	for _, m := range endToEndMetrics {
		e2e[m.name] = true
	}
	workload := map[string]bool{}
	for _, w := range wl {
		workload[w] = true
	}
	for i, m := range bf.PerLayer {
		name("per_layer", m.Name, m.Unit, m.Better)
		d := defs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, layers.json %+v", i, m, d)
		}
		for _, e := range d.Moves {
			if !e2e[e] {
				t.Errorf("%s moves unknown end-to-end metric %q", d.Name, e)
			}
		}
		for _, w := range append(append([]string{}, d.On...), d.FlatOn...) {
			if !workload[w] {
				t.Errorf("%s names unknown workload %q", d.Name, w)
			}
		}
		if d.What == "" {
			t.Errorf("%s: no description", d.Name)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", bf.RunSeconds, bf.Paths)
	}
}

func testRun(seed int64) *run {
	exp := &expected{}
	exp.Fig4.Seed = 987654321
	return &run{rng: rand.New(rand.NewSource(seed)), exp: exp}
}

func TestSameSeedSameRequests(t *testing.T) {
	a, b, c := testRun(7), testRun(7), testRun(8)
	la, lb, lc := a.mixedRequests(), b.mixedRequests(), c.mixedRequests()
	if !reflect.DeepEqual(la, lb) {
		t.Error("serve-mixed lists differ for one seed")
	}
	if reflect.DeepEqual(la, lc) {
		t.Error("serve-mixed lists equal for two seeds")
	}
	if ja, jb := a.jobList(), b.jobList(); !reflect.DeepEqual(ja, jb) || len(ja) != jobsPerPass {
		t.Errorf("job lists %v and %v", ja, jb)
	}
	if a.rng.Perm(12)[0] != b.rng.Perm(12)[0] || a.sampleSeed() != b.sampleSeed() {
		t.Error("row order or curve seeds differ for one seed")
	}

	// The serve-mixed make-up is fixed: a tenth estimates, evenly spread.
	est, perCode := 0, map[string]int{}
	for _, q := range la {
		if q.estimate {
			est++
			perCode[q.canon]++
			continue
		}
		ok := false
		for _, sp := range spellings(q.canon) {
			ok = ok || sp == q.spelling
		}
		if !ok {
			t.Errorf("%q is not a spelling of %s", q.spelling, q.canon)
		}
	}
	if est != mixedListLen/10 || len(perCode) != len(fig4Codes) {
		t.Errorf("%d estimates over %v", est, perCode)
	}
}

func TestParseRowAndPinnedRows(t *testing.T) {
	row := "Carbon       [[12,2,4]]   prep=21 CNOTs | L1(X): am=2 af=0 wm=10 wf=0 corr=[2/8 1/4 1/4] | ΣANC=6 ΣCNOT=26 ∅ANC=1.08 ∅CNOT=4.67"
	m, err := parseRow("[[12,2,4]]", row)
	if err != nil {
		t.Fatal(err)
	}
	if want := (rowMetrics{Params: "[[12,2,4]]", PrepCNOTs: 21, SumANC: 6, SumCNOT: 26, AvgCNOT: 4.67}); m != want {
		t.Errorf("parseRow = %+v, want %+v", m, want)
	}
	if _, err := parseRow("", "no metrics here"); err == nil {
		t.Error("parseRow accepted a row without metrics")
	}
	exp, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.checkRow("heu/opt Carbon", m); err != nil {
		t.Error(err)
	}
	if len(exp.Table1) != len(table1Rows()) {
		t.Errorf("expected.json pins %d rows, workload has %d", len(exp.Table1), len(table1Rows()))
	}
	for _, c := range fig4Codes {
		if len(exp.Fig4.Curves[c]) != 13 {
			t.Errorf("reference curve %s has %d points", c, len(exp.Fig4.Curves[c]))
		}
	}
}

func TestCheckCurveFiveSigma(t *testing.T) {
	exp := &expected{}
	exp.Fig4.Curves = map[string][]refPoint{"Steane": {{P: 0.01, MC: 1e-3, RSE: 0.02}}}
	pt := dftsp.RatePoint{P: 0.01, MC: 1.2e-3, RSE: 0.1, Shots: 1000}
	// sigma = hypot(1.2e-4, 2e-5) ≈ 1.22e-4; the gap of 2e-4 is 1.6 sigma.
	if err := exp.checkCurve("Steane", []dftsp.RatePoint{pt}); err != nil {
		t.Error(err)
	}
	pt.MC = 3e-3 // 2e-3 away against sigma ≈ 3e-4: 6.6 sigma
	if err := exp.checkCurve("Steane", []dftsp.RatePoint{pt}); err == nil {
		t.Error("a point 5 sigma off passed")
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP x_total help
# TYPE x_total counter
x_total{event="granted"} 3
x_total{event="expired"} 1
y 2.5
`
	m, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	snap := metricsSnapshot(m)
	if snap.sum("x_total", nil) != 4 || snap.sum("x_total", map[string]string{"event": "granted"}) != 3 || snap.sum("y", nil) != 2.5 {
		t.Errorf("parsed %+v", m)
	}
}
