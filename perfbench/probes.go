package main

import (
	"time"
	"unsafe"

	"resilience/internal/cluster"
	"resilience/internal/platform"
	"resilience/internal/power"
	"resilience/internal/solver"
	"resilience/internal/sparse"
)

// probeBudget is the wall time each repeated layer probe runs for.
func (b *bench) probeBudget() float64 {
	if b.smoke {
		return 0.02
	}
	return 0.3
}

// timed runs fn at least once and until budget seconds have passed, each
// repetition inside a span of the given name, and returns the
// per-repetition durations in seconds.
func (b *bench) timed(name string, budget float64, fn func()) []float64 {
	var ds []float64
	start := time.Now()
	for len(ds) == 0 || time.Since(start).Seconds() < budget {
		id := b.tr.begin(name, 0, -1)
		t0 := time.Now()
		fn()
		ds = append(ds, time.Since(t0).Seconds())
		b.tr.end(id)
	}
	return ds
}

// probeSystem measures the kernel and rank layers on one linear system:
// a sequential CG baseline, a warm CSR.MulVec loop, and the P-rank
// distributed operator and collectives. ffAnchor (seconds) is the
// simulated fault-free solve time the baseline is compared with.
func (b *bench) probeSystem(a *sparse.CSR, rhs []float64, ranks int, tol float64, ffAnchor float64) error {
	seq := b.timed("probe.seqcg", b.probeBudget(), func() {
		x := make([]float64, a.Rows)
		solver.SeqCGMatrix(a, rhs, x, tol, 10*a.Rows)
	})
	b.set("solver.seqcg_s", median(seq))
	b.set("solver.sim_overhead_x", ffAnchor/median(seq))

	// SpMV: batches of k products, so one batch is long enough to time.
	k := 1 + 2_000_000/a.NNZ()
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1
	}
	a.MulVec(y, x)
	mv := b.timed("probe.spmv", b.probeBudget(), func() {
		for j := 0; j < k; j++ {
			a.MulVec(y, x)
		}
	})
	b.set("sparse.spmv_ns_per_nnz", median(mv)/float64(k)/float64(a.NNZ())*1e9)
	// Bytes one product streams: values, column indices, row pointers,
	// x and y, each touched once.
	word := float64(unsafe.Sizeof(int(0)))
	bytes := 8*float64(a.NNZ()) + word*float64(a.NNZ()) + word*float64(a.Rows+1) + 8*float64(a.Cols+a.Rows)
	b.set("sparse.spmv_flops_per_byte", 2*float64(a.NNZ())/bytes)

	return b.probeCluster(a, ranks)
}

// probeCluster times the distributed operator and the runtime on p
// simulated ranks: NewLocalOp per rank, then loops of MulVecDist,
// GatherHalo and AllreduceSum2 timed on rank 0 between barriers, and
// Runtime.Run with an empty body.
func (b *bench) probeCluster(a *sparse.CSR, p int) error {
	part := sparse.NewPartition(a.Rows, p)
	k := 30_000_000 / a.NNZ()
	if k < 20 {
		k = 20
	}
	if k > 2000 {
		k = 2000
	}
	if b.smoke {
		k = 10
	}
	plat := platform.Default()
	newOp := make([]float64, p)
	var mulvec, gather, allreduce float64
	id := b.tr.begin("probe.cluster", 0, -1)
	_, err := cluster.Run(p, plat, power.NewMeter(false), func(c *cluster.Comm) error {
		t0 := time.Now()
		op := solver.NewLocalOp(c, a, part)
		newOp[c.Rank()] = time.Since(t0).Seconds()
		x := make([]float64, op.N)
		y := make([]float64, op.N)
		for i := range x {
			x[i] = 1
		}
		phase := func(fn func()) float64 {
			c.Barrier()
			t0 := time.Now()
			for j := 0; j < k; j++ {
				fn()
			}
			c.Barrier()
			return time.Since(t0).Seconds() / float64(k)
		}
		mv := phase(func() { op.MulVecDist(c, y, x) })
		gh := phase(func() { op.GatherHalo(c, x) })
		ar := phase(func() { c.AllreduceSum2(1, 2) })
		if c.Rank() == 0 {
			mulvec, gather, allreduce = mv, gh, ar
		}
		return nil
	})
	b.tr.end(id)
	if err != nil {
		return err
	}
	b.set("solver.newlocalop_us", median(newOp)*1e6)
	b.set("solver.mulvecdist_us", mulvec*1e6)
	b.set("solver.gatherhalo_us", gather*1e6)
	b.set("cluster.allreduce_us", allreduce*1e6)

	empty := b.timed("probe.cluster_run_empty", b.probeBudget()/3, func() {
		cluster.Run(p, plat, power.NewMeter(false), func(*cluster.Comm) error { return nil })
	})
	b.set("cluster.run_empty_us", median(empty)*1e6)
	return nil
}
