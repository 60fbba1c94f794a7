package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark runs on is shared. Between runs its hypervisor
// gives other guests anywhere from none to a quarter of the CPU time
// (steal), which stretches the wall time of every long operation, and a
// run's median cannot average that away. The kernel leaves stolen time
// out of a thread's CPU time, so the gated costs of long operations (a
// Table I row, a Fig. 4 curve, a job, a pass, a boot) are the CPU time the
// program's processes spend on them, scaled for the host's speed (see
// calib.go). Warm hits are short enough that steal touches few of them,
// and their median wall latency is gated, scaled the same way. Every
// unscaled figure stays on the detail line.

// schedstatCPU reads the run time, ns, from a schedstat file; 0 if absent.
func schedstatCPU(path string) time.Duration {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseInt(f[0], 10, 64)
	return time.Duration(v)
}

// timing is one measured interval: its wall time, the CPU time the
// program spent in it, and its midpoint on the speedo's clock.
type timing struct{ wall, cpu, at time.Duration }

func wallMS(tm timing) float64 { return ms(tm.wall) }
func cpuMS(tm timing) float64  { return ms(tm.cpu) }

// kindTiming is one operation of a kind (a code or a Table I row).
type kindTiming struct {
	kind string
	tm   timing
}

// opTimes collects one workload's operations.
type opTimes []kindTiming

func (o *opTimes) add(kind string, tm timing) { *o = append(*o, kindTiming{kind, tm}) }

// wall is every operation's wall time, ms.
func (o opTimes) wall() []float64 {
	var out []float64
	for _, op := range o {
		out = append(out, ms(op.tm.wall))
	}
	return out
}

// byKind groups the operations' times, as f gives them in ms, by kind.
func (o opTimes) byKind(f func(timing) float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, op := range o {
		out[op.kind] = append(out[op.kind], f(op.tm))
	}
	return out
}

// passTimes sums each pass's operations as f gives them, in seconds.
// Without passes, a pass is the sum over kinds of each kind's median.
func passTimes(ops opTimes, passes [][]timing, f func(timing) float64) []float64 {
	if passes == nil {
		var sum float64
		for _, v := range ops.byKind(f) {
			sum += median(v) / 1000
		}
		return []float64{sum}
	}
	var sums []float64
	for _, p := range passes {
		var sum float64
		for _, tm := range p {
			sum += f(tm) / 1000
		}
		sums = append(sums, sum)
	}
	return sums
}

// putTimes reports setup_s (the scaled CPU time of the boots), op_p50_ms
// and op_geomean_ms (the operations as opCost gives them) and pass_s (the
// scaled CPU time of a pass), and the unscaled figures on the detail
// line. Each pass lists the operations whose times add up to it.
func (r *run) putTimes(sp *speedo, ops opTimes, opCost func(timing) float64, setups []timing, passes [][]timing) {
	boots := func(f func(timing) float64) float64 {
		var out []float64
		for _, tm := range setups {
			out = append(out, f(tm)/1000)
		}
		return median(out)
	}
	r.put("setup_s", boots(sp.cpuMS), "s")
	r.put("op_p50_ms", kindMedian(ops.byKind(opCost)), "ms")
	r.put("op_geomean_ms", kindGeomean(ops.byKind(opCost)), "ms")
	r.put("pass_s", median(passTimes(ops, passes, sp.cpuMS)), "s")
	for name, f := range map[string]func(timing) float64{"wall": wallMS, "cpu": cpuMS} {
		r.detail[name] = map[string]float64{
			"setup_s":       boots(f),
			"op_p50_ms":     kindMedian(ops.byKind(f)),
			"op_geomean_ms": kindGeomean(ops.byKind(f)),
			"pass_s":        median(passTimes(ops, passes, f)),
		}
	}
	var refs []float64
	for _, d := range sp.ref {
		refs = append(refs, ms(d))
	}
	r.detail["ref_cpu_ms_p50"] = median(refs)
	r.detail["ref_samples"] = len(refs)
	r.detail["setup_boots"] = len(setups)
	if passes != nil {
		r.detail["passes"] = len(passes)
	}
}
