// Command fig4 regenerates Figure 4 of the paper: logical error rate versus
// physical error rate for the |0>_L preparation protocols of every catalog
// code, under circuit-level depolarizing noise (E1_1), with a perfect final
// error-correction round and destructive Z-basis readout. It is a thin flag
// wrapper over the public dftsp package.
//
// Output is CSV: series,p,pL. The "Linear" series is the pL = p reference
// line of the figure. Use -mcshots to add Monte-Carlo cross-check rows with
// a fixed budget, or -target-rse to sample each of those points adaptively
// until the requested relative standard error (capped by -max-shots). The
// sampling method follows -method: the default "auto" switches per rate
// between direct sampling and the rare-event conditional estimator, which
// extends adaptive sweeps far below the direct-sampling floor — with
// -pmin 1e-5 the full curve resolves in seconds; "direct" restores the
// old behaviour of sampling only at p >= 1e-2.
//
// The noise model generalizes beyond the paper's uniform E1_1 via -bias2q
// and -biasmeas (per-class rate multipliers relative to the one-qubit rate)
// and the two-qubit Z-bias eta. -bias switches the command into the
// protocol-ranking-under-bias mode: instead of the p sweep it evaluates
// every code at one physical rate (-bias-rate) across a comma-separated
// list of eta values, cross-checks the rare-event conditional estimate
// against direct Monte-Carlo at each point, and emits the ranking artifact
// CSV eta,code,p,pl,pl_rare,pl_direct,sigma,rank — rank 1 is the best
// (lowest pl_rare) protocol at that eta, and sigma is the two-estimator
// discrepancy in standard deviations (the suite's acceptance bound is 5).
//
// Usage:
//
//	fig4 > fig4.csv
//	fig4 -codes Steane,Carbon -samples 50000 -mcshots 20000
//	fig4 -codes Steane -target-rse 0.05
//	fig4 -codes Steane -target-rse 0.1 -pmin 1e-5   # rare-event regime
//	fig4 -bias 1,4,16 -bias-rate 1e-3 > ranking.csv # ranking under Z bias
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/dftsp"
)

func main() {
	var (
		codesFlag = flag.String("codes", "", "comma-separated code names (default: all)")
		samples   = flag.Int("samples", 20000, "samples per fault order (w >= 2)")
		maxW      = flag.Int("maxw", 3, "highest stratified fault order")
		points    = flag.Int("points", 13, "grid points per decade span")
		mcShots   = flag.Int("mcshots", 0, "if > 0, add Monte-Carlo cross-check rows")
		tgtRSE    = flag.Float64("target-rse", 0, "if > 0, sample MC rows adaptively to this relative standard error")
		maxShots  = flag.Int("max-shots", 0, "adaptive sampling cap per rate (0: 10,000,000)")
		method    = flag.String("method", "", "Monte-Carlo method: auto, direct or rare (default: auto)")
		pMin      = flag.Float64("pmin", 1e-4, "lowest physical rate of the sweep")
		pMax      = flag.Float64("pmax", 1e-1, "highest physical rate of the sweep")
		seed      = flag.Int64("seed", 1, "RNG seed")
		bias2Q    = flag.Float64("bias2q", 1, "two-qubit fault rate multiplier relative to the one-qubit rate")
		biasMeas  = flag.Float64("biasmeas", 1, "measurement flip rate multiplier relative to the one-qubit rate")
		biasFlag  = flag.String("bias", "", "comma-separated eta list: emit the protocol-ranking-under-bias artifact instead of the p sweep")
		biasRate  = flag.Float64("bias-rate", 1e-3, "physical rate of the -bias ranking sweep")
	)
	flag.Parse()

	names := []string{}
	for _, c := range dftsp.Codes() {
		names = append(names, c.Name)
	}
	if *codesFlag != "" {
		names = nil
		for _, name := range strings.Split(*codesFlag, ",") {
			names = append(names, strings.TrimSpace(name))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *biasFlag != "" {
		etas := []float64{}
		for _, s := range strings.Split(*biasFlag, ",") {
			eta, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fig4: bad -bias value %q: %v\n", s, err)
				os.Exit(1)
			}
			etas = append(etas, eta)
		}
		cfg := biasConfig{
			rate:     *biasRate,
			bias2Q:   *bias2Q,
			biasMeas: *biasMeas,
			maxW:     *maxW,
			samples:  *samples,
			tgtRSE:   *tgtRSE,
			maxShots: *maxShots,
			mcShots:  *mcShots,
			seed:     *seed,
		}
		if err := runBias(ctx, names, etas, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "fig4:", err)
			os.Exit(1)
		}
		return
	}

	// Direct sampling resolves nothing below this physical rate, so confine
	// it to the top of the sweep; auto and rare sample every grid point.
	mcMinRate := 0.0
	if *method == "direct" {
		mcMinRate = 1e-2
	}

	grid, err := dftsp.LogGrid(*pMin, *pMax, *points)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fig4:", err)
		os.Exit(1)
	}
	fmt.Println("series,p,pL")
	for _, p := range grid {
		fmt.Printf("Linear,%.6g,%.6g\n", p, p)
	}

	// One worker per code: synthesis and sampling are independent, so the
	// sweep parallelizes perfectly; results are printed in catalog order.
	type result struct {
		lines []string
		diag  string
		err   error
	}
	results := make([]chan result, len(names))
	for i, name := range names {
		results[i] = make(chan result, 1)
		go func(i int, name string) {
			var r result
			defer func() { results[i] <- r }()
			proto, err := dftsp.Synthesize(ctx, dftsp.Options{Code: name})
			if err != nil {
				r.err = fmt.Errorf("%s: %v", name, err)
				return
			}
			if err := proto.Certify(); err != nil {
				r.err = fmt.Errorf("%s failed the FT certificate: %v", name, err)
				return
			}
			res, err := proto.Estimate(ctx, dftsp.EstimateOptions{
				Rates:     grid,
				MaxOrder:  *maxW,
				Samples:   *samples,
				MCShots:   *mcShots,
				TargetRSE: *tgtRSE,
				MaxShots:  *maxShots,
				Method:    *method,
				MCMinRate: mcMinRate,
				Seed:      *seed + int64(i),
				Bias2Q:    *bias2Q,
				BiasMeas:  *biasMeas,
				// Codes already run concurrently; keep each MC serial.
				Workers: 1,
			})
			if err != nil {
				r.err = fmt.Errorf("%s: %v", name, err)
				return
			}
			series := csvName(name)
			r.diag = fmt.Sprintf("fig4: %-12s N=%3d f1=%g f2=%.4f", name, res.Locations, res.F[1], res.F[2])
			for _, pt := range res.Points {
				r.lines = append(r.lines, fmt.Sprintf("%s,%.6g,%.6g", series, pt.P, pt.PL))
			}
			for _, pt := range res.Points {
				if pt.Shots > 0 {
					r.lines = append(r.lines, fmt.Sprintf("%s-MC,%.6g,%.6g", series, pt.P, pt.MC))
				}
			}
		}(i, name)
	}
	for i := range names {
		r := <-results[i]
		if r.err != nil {
			fmt.Fprintln(os.Stderr, "fig4:", r.err)
			continue
		}
		fmt.Fprintln(os.Stderr, r.diag)
		for _, line := range r.lines {
			fmt.Println(line)
		}
	}
}

// biasConfig bundles the knobs of the -bias ranking sweep.
type biasConfig struct {
	rate             float64
	bias2Q, biasMeas float64
	maxW, samples    int
	tgtRSE           float64
	maxShots         int
	mcShots          int
	seed             int64
}

// biasPoint is one (code, eta) evaluation of the ranking sweep.
type biasPoint struct {
	code                   string
	pl, plRare, plDirect   float64
	sigma                  float64 // rare-vs-direct discrepancy in std devs; NaN when either saw no failures
	shotsRare, shotsDirect int
}

// runBias evaluates every code at one physical rate across the eta list,
// cross-checking the rare-event estimate against direct Monte-Carlo, and
// prints the ranking artifact CSV (rank 1 = lowest pl_rare at that eta).
func runBias(ctx context.Context, names []string, etas []float64, cfg biasConfig) error {
	// The rare estimator needs enough precision that the 5-sigma band is
	// meaningful; the direct cross-check needs enough shots to observe
	// failures at all. The defaults keep a full catalog sweep under a
	// minute while typically landing both estimates within a few percent.
	if cfg.tgtRSE <= 0 {
		cfg.tgtRSE = 0.05
	}
	if cfg.mcShots <= 0 {
		cfg.mcShots = 1_000_000
	}

	type result struct {
		points []biasPoint // one per eta, in eta order
		err    error
	}
	results := make([]chan result, len(names))
	for i, name := range names {
		results[i] = make(chan result, 1)
		go func(i int, name string) {
			var r result
			defer func() { results[i] <- r }()
			proto, err := dftsp.Synthesize(ctx, dftsp.Options{Code: name})
			if err != nil {
				r.err = fmt.Errorf("%s: %v", name, err)
				return
			}
			for _, eta := range etas {
				base := dftsp.EstimateOptions{
					Rates:     []float64{cfg.rate},
					MaxOrder:  cfg.maxW,
					Samples:   cfg.samples,
					Seed:      cfg.seed + int64(i),
					Bias2Q:    cfg.bias2Q,
					BiasMeas:  cfg.biasMeas,
					Eta:       eta,
					MCMinRate: cfg.rate,
					// Codes already run concurrently; keep each MC serial.
					Workers: 1,
				}
				rare := base
				rare.Method, rare.TargetRSE, rare.MaxShots = "rare", cfg.tgtRSE, cfg.maxShots
				direct := base
				direct.Method, direct.MCShots = "direct", cfg.mcShots

				resR, err := proto.Estimate(ctx, rare)
				if err != nil {
					r.err = fmt.Errorf("%s eta=%g rare: %v", name, eta, err)
					return
				}
				resD, err := proto.Estimate(ctx, direct)
				if err != nil {
					r.err = fmt.Errorf("%s eta=%g direct: %v", name, eta, err)
					return
				}
				ptR, ptD := resR.Points[0], resD.Points[0]
				// Standard errors from the reported relative standard
				// errors; a point with zero observed failures has RSE 0 and
				// yields sigma NaN (no discrepancy measurable).
				seR, seD := ptR.MC*ptR.RSE, ptD.MC*ptD.RSE
				sigma := math.NaN()
				if seR > 0 && seD > 0 {
					sigma = math.Abs(ptR.MC-ptD.MC) / math.Hypot(seR, seD)
				}
				r.points = append(r.points, biasPoint{
					code: name, pl: ptR.PL, plRare: ptR.MC, plDirect: ptD.MC,
					sigma: sigma, shotsRare: ptR.Shots, shotsDirect: ptD.Shots,
				})
			}
		}(i, name)
	}

	perCode := make([][]biasPoint, len(names))
	for i := range names {
		r := <-results[i]
		if r.err != nil {
			return r.err
		}
		perCode[i] = r.points
	}

	fmt.Println("eta,code,p,pl,pl_rare,pl_direct,sigma,rank")
	for e, eta := range etas {
		row := make([]biasPoint, len(names))
		for i := range names {
			row[i] = perCode[i][e]
		}
		// Rank by the rare-event estimate, the measurement the artifact
		// exists to order protocols by; ties keep catalog order.
		order := make([]int, len(row))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return row[order[a]].plRare < row[order[b]].plRare })
		rank := make([]int, len(row))
		for pos, i := range order {
			rank[i] = pos + 1
		}
		for i, pt := range row {
			fmt.Printf("%g,%s,%.6g,%.6g,%.6g,%.6g,%.3g,%d\n",
				eta, csvName(pt.code), cfg.rate, pt.pl, pt.plRare, pt.plDirect, pt.sigma, rank[i])
			fmt.Fprintf(os.Stderr, "fig4: eta=%-6g %-12s pl_rare=%.3g (%d shots) pl_direct=%.3g (%d shots) sigma=%.2f\n",
				eta, pt.code, pt.plRare, pt.shotsRare, pt.plDirect, pt.shotsDirect, pt.sigma)
		}
	}
	return nil
}

// csvName makes a code name safe as an unquoted CSV field.
func csvName(name string) string {
	return strings.ReplaceAll(name, ",", ".")
}
