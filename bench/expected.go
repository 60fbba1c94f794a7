package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/dftsp"
)

// table1Row is one Table I row: a code under a preparation and a
// verification method.
type table1Row struct {
	Code  string `json:"code"`
	Prep  string `json:"prep"`
	Verif string `json:"verif"`
}

func (r table1Row) id() string { return r.Prep + "/" + r.Verif + " " + r.Code }

// table1Rows are the workload's rows: Heu/Opt for every catalog code, Opt
// preparation for Steane and Shor, and Global verification for [[11,1,3]].
// Global Carbon (minutes) and Opt-prep Surface (~11 s) are left out.
func table1Rows() []table1Row {
	var rows []table1Row
	for _, c := range dftsp.Codes() {
		rows = append(rows, table1Row{c.Name, dftsp.PrepHeuristic, dftsp.VerifOptimal})
	}
	return append(rows,
		table1Row{"Steane", dftsp.PrepOptimal, dftsp.VerifOptimal},
		table1Row{"Shor", dftsp.PrepOptimal, dftsp.VerifOptimal},
		table1Row{"[[11,1,3]]", dftsp.PrepHeuristic, dftsp.VerifGlobal},
	)
}

// rowMetrics are the pinned circuit metrics of one Table I row.
type rowMetrics struct {
	Params    string  `json:"params"`
	PrepCNOTs int     `json:"prep_cnots"`
	SumANC    int     `json:"sum_anc"`
	SumCNOT   int     `json:"sum_cnot"`
	AvgCNOT   float64 `json:"avg_cnot"`
}

var (
	rowPrepRe = regexp.MustCompile(`prep=\s*(\d+) CNOTs`)
	rowSumRe  = regexp.MustCompile(`ΣANC=(\d+) ΣCNOT=(\d+) ∅ANC=[0-9.]+ ∅CNOT=([0-9.]+)`)
)

// parseRow reads the pinned quantities out of a Table I metrics row
// (dftsp.Protocol.MetricsRow).
func parseRow(params, row string) (rowMetrics, error) {
	m := rowMetrics{Params: params}
	p := rowPrepRe.FindStringSubmatch(row)
	s := rowSumRe.FindStringSubmatch(row)
	if p == nil || s == nil {
		return m, fmt.Errorf("unparseable metrics row %q", row)
	}
	m.PrepCNOTs, _ = strconv.Atoi(p[1]) // \d+ matched
	m.SumANC, _ = strconv.Atoi(s[1])
	m.SumCNOT, _ = strconv.Atoi(s[2])
	m.AvgCNOT, _ = strconv.ParseFloat(s[3], 64)
	return m, nil
}

// refPoint is one point of a Fig. 4 reference curve.
type refPoint struct {
	P   float64 `json:"p"`
	MC  float64 `json:"mc"`
	RSE float64 `json:"rse"`
}

// expected is bench/expected.json: the pinned Table I rows and the Fig. 4
// reference curves every run is checked against.
type expected struct {
	Table1 map[string]rowMetrics `json:"table1"`
	Fig4   struct {
		Seed      int64                 `json:"seed"`
		TargetRSE float64               `json:"target_rse"`
		Curves    map[string][]refPoint `json:"curves"`
	} `json:"fig4_reference"`
}

func loadExpected(path string) (*expected, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("expected values: %w", err)
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("expected values %s: %w", path, err)
	}
	return &e, nil
}

// fig4Codes are the curves of the Fig. 4 workloads.
var fig4Codes = []string{"Steane", "Surface", "Carbon", "[[16,2,4]]"}

// checkRow compares a synthesized row with its pinned metrics.
func (e *expected) checkRow(id string, got rowMetrics) error {
	want, ok := e.Table1[id]
	if !ok {
		return fmt.Errorf("no pinned Table I row %q", id)
	}
	if got != want {
		return fmt.Errorf("Table I row %s = %+v, want %+v", id, got, want)
	}
	return nil
}

// checkCurve compares an adaptive curve with the reference: every point
// within 5 standard errors, counting both its own and the reference's.
func (e *expected) checkCurve(code string, pts []dftsp.RatePoint) error {
	ref := e.Fig4.Curves[code]
	if len(ref) == 0 || len(pts) != len(ref) {
		return fmt.Errorf("%s curve has %d points, reference %d", code, len(pts), len(ref))
	}
	for i, pt := range pts {
		r := ref[i]
		if math.Abs(pt.P-r.P) > 1e-12*r.P {
			return fmt.Errorf("%s point %d at p=%g, reference p=%g", code, i, pt.P, r.P)
		}
		if pt.Shots == 0 || pt.RSE <= 0 {
			return fmt.Errorf("%s point %d unsampled or without failures", code, i)
		}
		sigma := math.Hypot(pt.MC*pt.RSE, r.MC*r.RSE)
		if math.Abs(pt.MC-r.MC) > 5*sigma {
			return fmt.Errorf("%s point %d: mc=%g is %.1f sigma from the reference %g",
				code, i, pt.MC, math.Abs(pt.MC-r.MC)/sigma, r.MC)
		}
	}
	return nil
}

// recordExpected regenerates bench/expected.json in-process: the Table I
// rows from dftsp.Synthesize, and each Fig. 4 reference curve from a 2%
// RSE adaptive estimate with a seed no workload draws.
func recordExpected(cfg config) error {
	ctx := context.Background()
	var e expected
	e.Table1 = map[string]rowMetrics{}
	for _, row := range table1Rows() {
		p, err := dftsp.Synthesize(ctx, dftsp.Options{Code: row.Code, Prep: row.Prep, Verif: row.Verif})
		if err != nil {
			return fmt.Errorf("row %s: %w", row.id(), err)
		}
		m, err := parseRow(p.CodeParams(), p.MetricsRow())
		if err != nil {
			return err
		}
		e.Table1[row.id()] = m
		fmt.Fprintf(os.Stderr, "row %-22s %+v\n", row.id(), m)
	}
	e.Fig4.Seed, e.Fig4.TargetRSE = 987654321, 0.02
	e.Fig4.Curves = map[string][]refPoint{}
	for _, c := range fig4Codes {
		p, err := dftsp.Synthesize(ctx, dftsp.Options{Code: c})
		if err != nil {
			return err
		}
		res, err := p.Estimate(ctx, dftsp.EstimateOptions{Method: "auto", TargetRSE: e.Fig4.TargetRSE, Seed: e.Fig4.Seed})
		if err != nil {
			return err
		}
		for _, pt := range res.Points {
			e.Fig4.Curves[c] = append(e.Fig4.Curves[c], refPoint{P: pt.P, MC: pt.MC, RSE: pt.RSE})
		}
		fmt.Fprintf(os.Stderr, "reference curve %s recorded\n", c)
	}
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.root, "bench", "expected.json"), append(data, '\n'), 0o644)
}

// fingerprint identifies the machine and the source the run measured.
func fingerprint(root string) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown" // a checkout without history has only the digest
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"cpu":           cpu,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"goarch":        runtime.GOARCH,
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest(root),
	}
}

// sourceDigest hashes every Go source and go.mod file under root outside
// .bench_build, so runs of a checkout without git history still name the
// code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries only weaken the digest
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
