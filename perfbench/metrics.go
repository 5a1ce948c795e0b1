package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef names one reported metric. For per-layer metrics, moves
// names the end-to-end metric the layer should move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. An operation is one faulted solve
// (solve-*), one checked chaos scenario (campaign) or one HTTP request
// (serve-zipf); see README.md for the per-workload reading.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "throughput_per_s", unit: "1/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_tail_ms", unit: "ms"},
}

// perLayer are the traced run's metrics, reported by every workload. A
// layer the workload never calls reports 0.
var perLayer = []metricDef{
	{"matgen.generate_s", "s", "setup_s"},
	{"core.ff_anchor_s", "s", "latency_p50_ms"},
	{"core.faulted_run_s", "s", "latency_p50_ms"},
	{"solver.iters", "count", "latency_p50_ms"},
	{"solver.iters_ff", "count", "latency_p50_ms"},
	{"recovery.extra_iters", "count", "latency_p50_ms"},
	{"checkpoint.writes", "count", "latency_p50_ms"},
	{"solver.seqcg_s", "s", "baseline"},
	{"solver.sim_overhead_x", "x", "baseline"},
	{"sparse.spmv_ns_per_nnz", "ns", "latency_p50_ms"},
	{"sparse.spmv_flops_per_byte", "flop/B", "latency_p50_ms"},
	{"solver.mulvecdist_us", "us", "latency_p50_ms"},
	{"solver.gatherhalo_us", "us", "latency_p50_ms"},
	{"solver.newlocalop_us", "us", "throughput_per_s"},
	{"cluster.allreduce_us", "us", "throughput_per_s"},
	{"cluster.run_empty_us", "us", "throughput_per_s"},
	{"cluster.msgs_per_iter", "count", "latency_p50_ms"},
	{"cluster.bytes_per_iter", "B", "latency_p50_ms"},
	{"cluster.collectives_per_iter", "count", "latency_p50_ms"},
	{"chaos.scenario_at_us", "us", "throughput_per_s"},
	{"chaos.solve_ms", "ms", "throughput_per_s"},
	{"chaos.invariants_us", "us", "throughput_per_s"},
	{"chaos.run_ms", "ms", "throughput_per_s"},
	{"chaos.runs_per_scenario", "count", "throughput_per_s"},
	{"service.canonical_key_us", "us", "latency_p50_ms"},
	{"service.hit_rtt_ms", "ms", "latency_p50_ms"},
	{"cache.hit_ratio", "ratio", "throughput_per_s"},
	{"cache.evictions", "count", "throughput_per_s"},
	{"service.coalesced", "count", "throughput_per_s"},
	{"service.rejected", "count", "throughput_per_s"},
	{"service.runjob_ms", "ms", "latency_tail_ms"},
	{"router.hop_ms", "ms", "latency_p50_ms"},
	{"router.max_share", "ratio", "throughput_per_s"},
	{"go.alloc_bytes_per_op", "B", "peak_rss_mb"},
	{"go.gc_cycles_per_op", "count", "throughput_per_s"},
	{"trace.overhead_pct", "%", "all"},
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// residentMB returns the memory the Go runtime holds from the OS and has
// not released back, in MiB: the process's resident set as the runtime
// accounts it.
func residentMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// memSampler samples residentMB every 10 ms and keeps the highest value
// of each one-second slice of the window.
type memSampler struct {
	stop, done chan struct{}
	peaks      []float64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		sliceEnd := time.Now().Add(time.Second)
		peak := residentMB()
		for {
			select {
			case <-m.stop:
				m.peaks = append(m.peaks, peak)
				return
			case now := <-tick.C:
				if now.After(sliceEnd) {
					m.peaks = append(m.peaks, peak)
					peak, sliceEnd = 0, sliceEnd.Add(time.Second)
				}
				peak = math.Max(peak, residentMB())
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the per-slice peaks.
func (m *memSampler) finish() []float64 {
	close(m.stop)
	<-m.done
	return m.peaks
}

// memDelta measures allocation and GC cycles across a region.
type memDelta struct{ bytes, gcs uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC)}
}

// perOp sets go.alloc_bytes_per_op and go.gc_cycles_per_op from the
// change since m0 over ops operations.
func (b *bench) perOp(m0 memDelta, ops int) {
	if ops <= 0 {
		return
	}
	m1 := memNow()
	b.set("go.alloc_bytes_per_op", float64(m1.bytes-m0.bytes)/float64(ops))
	b.set("go.gc_cycles_per_op", float64(m1.gcs-m0.gcs)/float64(ops))
}
