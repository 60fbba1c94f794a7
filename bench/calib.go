package main

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host's CPU speed also drifts, by tens of percent over minutes
// (sibling hyperthreads, other tenants' cache traffic, clock), and CPU time
// drifts with it. So between operations the benchmark runs a fixed
// reference kernel of its own, which calls no repository code and so moves
// with no change to the program, and scales each gated time by refNominal
// over the kernel's CPU time measured around it. A gated time reads as the
// time on a host where the kernel takes exactly refNominal.

// refNominal is the reference kernel's nominal CPU time.
const refNominal = 10 * time.Millisecond

// refRounds sizes the kernel: about refNominal of integer and L1/L2 work
// on the x86-64 host the benchmark was written on.
const refRounds = 120

// refTable is the kernel's working set, 64 KiB per thread.
const refTable = 1 << 13

// refWindow is how many reference samples, the nearest in time, a time is
// scaled by. One sample is short and noisy; the median of several ignores
// the ones a burst on a neighbour stretched, and still follows the drift.
const refWindow = 15

// refKernel runs the reference workload once and returns a checksum, so
// the compiler cannot drop it. It mixes what the program spends its time
// on: word-wide xor/popcount over a table, data-dependent loads and
// stores, and a branch on the data.
func refKernel(seed uint64) uint64 {
	tab := make([]uint64, refTable)
	x := seed | 1
	for i := range tab {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		tab[i] = x
	}
	var acc uint64
	for round := 0; round < refRounds; round++ {
		for i := range tab {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := x & (refTable - 1)
			v := tab[j] ^ tab[i]
			if bits.OnesCount64(v)&1 == 1 {
				acc += v & x
			} else {
				acc ^= v | x
			}
			tab[j] = v
		}
	}
	return acc
}

// refSink keeps kernel checksums alive.
var refSink uint64

// refSample runs the kernel on n threads at once, one per CPU the program
// may use, and returns their mean CPU time.
func refSample(n int) time.Duration {
	var mu sync.Mutex
	var total time.Duration
	var sink uint64
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c := threadCPU()
			v := refKernel(uint64(g) + 0x9e3779b97f4a7c15)
			d := threadCPU() - c
			mu.Lock()
			total += d
			sink ^= v
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	refSink ^= sink
	return total / time.Duration(n)
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration { return schedstatCPU("/proc/thread-self/schedstat") }

// speedo interleaves reference samples with operations: took records an
// operation that just ended and takes a sample after it; mark takes one
// between operations.
type speedo struct {
	n   int
	t0  time.Time
	at  []time.Duration // when each sample was taken
	ref []time.Duration // its CPU time
}

func newSpeedo(n int) *speedo {
	s := &speedo{n: n, t0: time.Now()}
	refSample(n) // warm-up
	s.mark()
	return s
}

func (s *speedo) mark() {
	s.at = append(s.at, time.Since(s.t0))
	s.ref = append(s.ref, refSample(s.n))
}

// took records an operation that just ended, with its wall and CPU time.
func (s *speedo) took(wall, cpu time.Duration) timing {
	tm := timing{wall: wall, cpu: cpu, at: time.Since(s.t0) - wall/2}
	s.mark()
	return tm
}

// boot records a server's boot, start to the first /readyz 200.
func (s *speedo) boot(srv *server) timing { return s.took(srv.ready, srv.readyCPU) }

// scale is refNominal over the median of the refWindow samples nearest in
// time to tm.
func (s *speedo) scale(tm timing) float64 {
	idx := make([]int, len(s.at))
	for i := range idx {
		idx[i] = i
	}
	dist := func(i int) time.Duration { return max(s.at[i]-tm.at, tm.at-s.at[i]) }
	sort.Slice(idx, func(a, b int) bool { return dist(idx[a]) < dist(idx[b]) })
	var near []float64
	for _, i := range idx[:min(refWindow, len(idx))] {
		near = append(near, float64(s.ref[i]))
	}
	return float64(refNominal) / median(near)
}

// cpuMS is tm's CPU time, ms, scaled.
func (s *speedo) cpuMS(tm timing) float64 { return ms(tm.cpu) * s.scale(tm) }

// wallMS is tm's wall time, ms, scaled.
func (s *speedo) wallMS(tm timing) float64 { return ms(tm.wall) * s.scale(tm) }
