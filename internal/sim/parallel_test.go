package sim

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/code"
	"repro/internal/noise"
)

// mcp runs a fixed-budget direct estimate of the uniform model fanned out
// over workers under a background context and fails the test on error; the
// shared shape of the determinism tests below.
func mcp(t *testing.T, est *Estimator, p float64, shots int, seed int64, workers int) float64 {
	t.Helper()
	res, err := est.AdaptiveModel(context.Background(), MethodDirect, noise.Uniform(p), 0, shots, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	return res.PL
}

func TestAdaptiveModelParallelAgreesWithSerial(t *testing.T) {
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	const pp, shots = 0.03, 40000
	par := mcp(t, est, pp, shots, 5, 0)
	ser := directMC(t, est, pp, shots, rand.New(rand.NewSource(6)))
	if par == 0 || ser == 0 {
		t.Fatalf("no failures sampled: par=%g ser=%g", par, ser)
	}
	ratio := par / ser
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("parallel %.4g vs serial %.4g disagree (ratio %.2f)", par, ser, ratio)
	}
}

func TestAdaptiveModelParallelDeterministicForSeed(t *testing.T) {
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	a := mcp(t, est, 0.05, 5000, 42, 0)
	b := mcp(t, est, 0.05, 5000, 42, 0)
	if a != b {
		t.Fatalf("same seed gave %g and %g", a, b)
	}
}

func TestAdaptiveModelParallelSmallShotCount(t *testing.T) {
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	// Fewer shots than CPUs must still work.
	_ = mcp(t, est, 0.1, 3, 1, 0)
}

func TestAdaptiveModelParallelExplicitWorkers(t *testing.T) {
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	// The result is a pure function of (seed, workers, shots), so a fixed
	// worker count must reproduce exactly regardless of the machine.
	a := mcp(t, est, 0.05, 4000, 7, 3)
	b := mcp(t, est, 0.05, 4000, 7, 3)
	if a != b {
		t.Fatalf("explicit worker count not deterministic: %g vs %g", a, b)
	}
	if c := mcp(t, est, 0.05, 4000, 7, 1); c == 0 && a == 0 {
		t.Fatal("no failures sampled at p=0.05")
	}
}

func TestAdaptiveModelParallelCancellation(t *testing.T) {
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	// A shot count that would take minutes serially must abort promptly
	// once the context is cancelled mid-sampling.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := est.AdaptiveModel(ctx, MethodDirect, noise.Uniform(0.01), 0, 500_000_000, 1, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v, want < 1s", elapsed)
	}
}

func TestFaultOrderCancellation(t *testing.T) {
	p := buildProto(t, code.Steane())
	est := NewEstimator(p)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := est.FaultOrder(ctx, 4, 50_000_000, rand.New(rand.NewSource(1)))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v, want < 1s", elapsed)
	}
}

func TestDefaultWorkersEnv(t *testing.T) {
	t.Setenv(WorkersEnv, "3")
	if got := DefaultWorkers(); got != 3 {
		t.Fatalf("DefaultWorkers with %s=3: got %d", WorkersEnv, got)
	}
	t.Setenv(WorkersEnv, "not-a-number")
	if got := DefaultWorkers(); got < 1 {
		t.Fatalf("DefaultWorkers fallback: got %d", got)
	}
}
