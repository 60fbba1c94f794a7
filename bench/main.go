// Command dftspbench is the repository's benchmark. It drives the real
// cmd/server binary (and, for the job-fleet workload, a cmd/worker process)
// over loopback with seeded workloads, checks every answer, and prints the
// end-to-end metrics; with -trace 1 it instead calls each layer's public Go
// functions in-process, records spans around those calls, and prints the
// per-layer metrics. See README.md in this directory.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash bench/run.sh --workload fig4-curve --seed 3 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is the parsed command line.
type config struct {
	root     string // repository root (holds cmd/ and internal/)
	out      string // build and scratch directory (.bench_build)
	workload string
	seed     int64
	seconds  int
	trace    bool
	record   bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations. A failed request, a
// rejected (429) or timed-out request and a failed correctness check each
// count as one failure.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(what string, err error) {
	t.attempted++
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// check records one correctness check.
func (t *tally) check(what string, err error) {
	if err != nil {
		t.fail(what, err)
		return
	}
	t.ok()
}

// run is the state of one benchmark invocation.
type run struct {
	cfg   config
	rng   *rand.Rand
	nproc int
	bin   func(name string) string
	dir   string // this invocation's scratch directory
	exp   *expected
	tally

	metrics map[string]metric
	detail  map[string]any
}

func (r *run) put(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// scratch returns a fresh directory under the run's scratch directory.
func (r *run) scratch(name string) (string, error) {
	d := filepath.Join(r.dir, fmt.Sprintf("%s-%d", name, r.rng.Int63()))
	return d, os.MkdirAll(d, 0o755)
}

// workloads maps each workload name to the function that runs it untraced
// (end-to-end).
var workloads = map[string]func(*run) error{
	"table1-synth": runTable1,
	"fig4-curve":   runFig4,
	"serve-mixed":  runServeMixed,
	"job-fleet":    runJobFleet,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var cfg config
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.out, "out", ".bench_build", "build and scratch directory")
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	var trace int
	flag.IntVar(&trace, "trace", 0, "1: traced in-process run reporting the per-layer metrics")
	flag.BoolVar(&cfg.record, "record", false, "regenerate expected.json (Table I rows and the Fig. 4 reference) and exit")
	flag.Parse()
	cfg.trace = trace == 1

	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dftspbench:", err)
		os.Exit(1)
	}
	if res == nil {
		return
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dftspbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func execute(cfg config) (*result, error) {
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return nil, err
	}
	cfg.root = root
	if cfg.out, err = filepath.Abs(cfg.out); err != nil {
		return nil, err
	}
	if cfg.record {
		return nil, recordExpected(cfg)
	}
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if threadCPU() <= 0 {
		return nil, fmt.Errorf("no per-thread CPU accounting in /proc/thread-self/schedstat")
	}
	exp, err := loadExpected(filepath.Join(root, "bench", "expected.json"))
	if err != nil {
		return nil, err
	}
	r := &run{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		nproc:   runtime.NumCPU(),
		bin:     func(name string) string { return filepath.Join(cfg.out, "bin", name) },
		dir:     filepath.Join(cfg.out, "runs", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())),
		exp:     exp,
		metrics: map[string]metric{},
		detail:  map[string]any{},
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)

	stat0 := cpuTicks()
	if cfg.trace {
		err = runTraced(r)
	} else {
		err = drive(r)
	}
	if err != nil {
		return nil, err
	}
	// Time the hypervisor gave to other guests slows every figure; a run
	// whose share is far above its neighbours' was measured on a busy host.
	if stat1 := cpuTicks(); len(stat0) > 7 && len(stat1) > 7 {
		var total float64
		for i := range stat1 {
			total += stat1[i] - stat0[i]
		}
		if total > 0 {
			r.detail["host_steal_share"] = (stat1[7] - stat0[7]) / total
		}
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "dftspbench: failed:", e)
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("workload %s attempted nothing", cfg.workload)
	}
	if !cfg.trace {
		r.put("ok_share", 1-float64(r.failed)/float64(r.attempted), "share")
	}
	var want []string
	if cfg.trace {
		for _, d := range layerDefs() {
			want = append(want, d.Name)
		}
	} else {
		for _, m := range endToEndMetrics {
			want = append(want, m.name)
		}
	}
	for _, name := range want {
		if _, ok := r.metrics[name]; !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, name)
		}
	}
	detail, err := json.Marshal(map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"trace":       cfg.trace,
		"fingerprint": fingerprint(root),
		"detail":      r.detail,
	})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(detail))
	return &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, nil
}

// cpuTicks reads the aggregate CPU line of /proc/stat (user, nice, system,
// idle, iowait, irq, softirq, steal, ...); nil where it is unavailable.
func cpuTicks() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var out []float64
	for _, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// deadline is when a workload's measurement window closes.
func (r *run) deadline() time.Time {
	return time.Now().Add(time.Duration(r.cfg.seconds) * time.Second)
}
