// Command dftsp synthesizes a deterministic fault-tolerant state preparation
// protocol for |0>_L of a CSS code, prints its structure and Table-I-style
// metrics, optionally certifies fault tolerance exhaustively and exports the
// static part of the circuit as OpenQASM 2.0. It is a thin flag wrapper over
// the public dftsp package.
//
// Usage:
//
//	dftsp -code Steane
//	dftsp -code Carbon -prep opt -verif global -check
//	dftsp -code Surface -qasm surface.qasm
//	dftsp -hx 1110000,0111000 -hz ...   # custom code from check matrices
//	dftsp -code Steane -rate 1e-3 -shots 100000 -workers 8
//	dftsp -code Steane -rate 1e-2 -target-rse 0.05   # adaptive shot count
//	dftsp -code Steane -rate 1e-5 -target-rse 0.1    # auto → rare-event
//	dftsp -code Steane -rate 1e-2 -target-rse 0.02 -cpuprofile rate.pprof
//
// Every Monte-Carlo shot runs on the 64-lane batch engine. -method selects
// the sampling method (auto/direct/rare; auto switches to the rare-event
// >= 1-fault conditional estimator below the crossover rate, which makes
// tiny physical rates tractable). -bias2q, -biasmeas and -eta generalize
// the noise model to per-class rates (two-qubit and measurement multipliers
// relative to the one-qubit rate) and a Z-biased two-qubit operator menu;
// all default to 1, the paper's uniform model. -cpuprofile writes a pprof
// CPU profile
// covering the whole run — synthesis and sampling — for perf hunts on the
// estimation hot path.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/dftsp"
)

func main() {
	var (
		codeName = flag.String("code", "", "catalog code name (default Steane)")
		surfaceD = flag.Int("surface", 0, "use the rotated surface code of this (odd) distance instead of -code")
		hxFlag   = flag.String("hx", "", "custom X check matrix (comma-separated bit rows)")
		hzFlag   = flag.String("hz", "", "custom Z check matrix (comma-separated bit rows)")
		prepM    = flag.String("prep", "heu", "preparation synthesis: heu or opt")
		verifM   = flag.String("verif", "opt", "verification synthesis: opt or global")
		check    = flag.Bool("check", false, "run the exhaustive single-fault FT certificate")
		qasmOut  = flag.String("qasm", "", "write prep+verification as OpenQASM 2.0 to this file")
		rate     = flag.Float64("rate", 0, "if > 0, estimate the logical error rate at this physical rate")
		shots    = flag.Int("shots", 0, "if > 0, add a direct Monte-Carlo cross-check with this many shots")
		workers  = flag.Int("workers", 0, "Monte-Carlo worker count (0: DFTSP_WORKERS or CPU count)")
		tgtRSE   = flag.Float64("target-rse", 0, "if > 0, sample adaptively until this relative standard error (overrides -shots)")
		maxShots = flag.Int("max-shots", 0, "adaptive sampling cap per rate (0: 10,000,000)")
		method   = flag.String("method", "", "Monte-Carlo method: auto, direct or rare (default: auto)")
		bias2Q   = flag.Float64("bias2q", 1, "two-qubit fault rate multiplier relative to the one-qubit rate")
		biasMeas = flag.Float64("biasmeas", 1, "measurement flip rate multiplier relative to the one-qubit rate")
		eta      = flag.Float64("eta", 1, "two-qubit operator menu Z-bias (weight eta per pure-Z slot)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := dftsp.Options{
		Code:            *codeName,
		SurfaceDistance: *surfaceD,
		Prep:            *prepM,
		Verif:           *verifM,
	}
	if *hxFlag != "" {
		opts.Hx = strings.Split(*hxFlag, ",")
	}
	if *hzFlag != "" {
		opts.Hz = strings.Split(*hzFlag, ",")
	}

	// Ctrl-C aborts the SAT solver mid-synthesis instead of being ignored
	// until the next process-level preemption point.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	p, err := dftsp.Synthesize(ctx, opts)
	if err != nil {
		fail(err)
	}
	fmt.Println(p.Summary())
	fmt.Println(p.MetricsRow())
	fmt.Println(p.Describe())

	if *check {
		if err := p.Certify(); err != nil {
			fail(fmt.Errorf("FT check FAILED: %w", err))
		}
		fmt.Printf("FT certificate: all single faults at %d locations leave residual weight <= 1\n", p.FaultLocations())
	}

	if *rate > 0 {
		res, err := p.Estimate(ctx, dftsp.EstimateOptions{
			Rates:     []float64{*rate},
			MCShots:   *shots,
			TargetRSE: *tgtRSE,
			MaxShots:  *maxShots,
			Workers:   *workers,
			Method:    *method,
			Bias2Q:    *bias2Q,
			BiasMeas:  *biasMeas,
			Eta:       *eta,
			// The user asked for exactly this rate, so never let the
			// adaptive mc_min_rate floor skip it.
			MCMinRate: *rate,
		})
		if err != nil {
			fail(err)
		}
		pt := res.Points[0]
		fmt.Printf("logical error rate at p=%g: %.3g (N=%d locations, f2=%.4f)\n",
			pt.P, pt.PL, res.Locations, res.F[2])
		if pt.Shots > 0 {
			fmt.Printf("Monte-Carlo cross-check at p=%g: %.3g (%s, %d shots, rse=%.3g, 95%% CI [%.3g, %.3g])\n",
				pt.P, pt.MC, pt.Method, pt.Shots, pt.RSE, pt.CILo, pt.CIHi)
		}
	}

	if *qasmOut != "" {
		f, err := os.Create(*qasmOut)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := p.WriteQASM(f); err != nil {
			fail(err)
		}
		fmt.Println("wrote", *qasmOut)
	}
}

func fail(err error) {
	// Facade errors already carry the "dftsp:" prefix; don't double it.
	fmt.Fprintln(os.Stderr, "dftsp:", strings.TrimPrefix(err.Error(), "dftsp: "))
	os.Exit(1)
}
