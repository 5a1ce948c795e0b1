package main

import (
	"fmt"
	"math"
	"time"

	"resilience"
	"resilience/internal/chaos"
	"resilience/internal/core"
	"resilience/internal/fault"
	"resilience/internal/matgen"
	"resilience/internal/obs"
	"resilience/internal/sparse"
)

// solveSpec is one solve workload: the paper's Section 5.2 protocol
// (faults evenly spaced over the fault-free iteration count) on one
// catalog analog through the public facade.
type solveSpec struct {
	matrix string
	scheme string
	ranks  int
	faults int
	tol    float64
}

var (
	// nd24k: ~390 nnz/row, so CSR.MulVec dominates the solve.
	solveND24K = solveSpec{matrix: "nd24k", scheme: "LI-DVFS", ranks: 32, faults: 10, tol: 1e-12}
	// x104: every rank exchanges halo with all others, so messaging
	// dominates; CR-M adds checkpoint and rollback work.
	solveX104 = solveSpec{matrix: "x104", scheme: "CR-M", ranks: 32, faults: 10, tol: 1e-12}
)

// setupReps is how many times each workload's set-up is repeated for
// the setup_s median.
const setupReps = 5

// faultSeed is the fault seed of solve i of a run with workload seed s.
func faultSeed(s int64, i int) int64 { return s*1_000_003 + int64(i) }

// solveDigest is the exact outcome of one solve: what the golden files
// pin and the tracing purity check compares.
func solveDigest(rep *core.RunReport) string {
	return fmt.Sprintf("iters=%d restarts=%d ckpts=%d time=%s energy=%s x=%s",
		rep.Iters, rep.Restarts, rep.Checkpoints,
		chaos.HexFloat(rep.Time), chaos.HexFloat(rep.Energy), chaos.HashFloats(rep.Solution))
}

// trueRelRes recomputes ||b - A x|| / ||b|| from scratch.
func trueRelRes(a *sparse.CSR, b, x []float64) float64 {
	ax := make([]float64, a.Rows)
	a.MulVec(ax, x)
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb)
}

func runSolve(b *bench, sp solveSpec) error {
	scale := matgen.CI
	if b.smoke {
		scale, sp.ranks, sp.faults = matgen.Tiny, 8, 3
	}
	spec, err := matgen.Lookup(sp.matrix)
	if err != nil {
		return err
	}
	var a *sparse.CSR
	var rhs []float64
	var gen []float64
	for r := 0; r < setupReps; r++ {
		settle()
		t0 := time.Now()
		a = spec.Generate(scale)
		rhs, _ = matgen.RHS(a)
		gen = append(gen, time.Since(t0).Seconds())
	}
	b.setupTimes(gen, fmt.Sprintf("catalog %s at %s scale, %d rows, %d nnz, plus RHS", sp.matrix, scale, a.Rows, a.NNZ()))
	b.set("matgen.generate_s", median(gen))

	// Warm-up: one untimed fault-free solve through the facade.
	if _, err := resilience.Solve(a, rhs, resilience.SolveOptions{Scheme: "FF", Ranks: sp.ranks, Tol: sp.tol}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	gold, err := loadGoldens(b)
	if err != nil {
		return err
	}
	opts := func(i int) resilience.SolveOptions {
		return resilience.SolveOptions{Scheme: sp.scheme, Ranks: sp.ranks, Faults: sp.faults, Tol: sp.tol, Seed: faultSeed(b.seed, i)}
	}
	// check verifies one solve and returns its digest.
	check := func(i int, rep *core.RunReport) string {
		d := solveDigest(rep)
		rr := trueRelRes(a, rhs, rep.Solution)
		golden := "none"
		if i < len(gold) {
			golden = gold[i]
		}
		ok := rep.Converged && rr <= sp.tol && (golden == "none" || golden == d)
		b.op(ok, "solve %d: converged=%v true relative residual %.3e (tol %.0e); digest %q, golden %q",
			i, rep.Converged, rr, sp.tol, d, golden)
		return d
	}
	untraced := func(seconds float64, maxOps int) ([]float64, []string, float64, error) {
		var digests []string
		lat, el, err := loop(seconds, maxOps, func(i int) (float64, error) {
			t0 := time.Now()
			rep, err := resilience.Solve(a, rhs, opts(i))
			d := time.Since(t0).Seconds()
			if err != nil {
				return 0, err
			}
			digests = append(digests, check(i, rep))
			b.note("solve %d: %.4f s, %d iterations", i, d, rep.Iters)
			return d, nil
		})
		return lat, digests, el, err
	}

	if !b.traced {
		mem := startMemSampler()
		lat, digests, el, err := untraced(b.seconds, 0)
		if err != nil {
			return err
		}
		b.window(len(lat), el, lat, mem.finish(), "solves", "faulted solves")
		b.note("tts_s %.6f s (median of %d faulted solves)", median(lat), len(lat))
		return writeGoldens(b, digests)
	}

	// Traced run: an untraced pass over half the window, then the same
	// solves again with spans around each layer call.
	uLat, uDigests, _, err := untraced(b.seconds/2, 0)
	if err != nil {
		return err
	}
	b.tr = newTracer()
	var tDigests []string
	var iters, itersFF, ckpts float64
	var tot obs.Metrics
	m0 := memNow()
	tLat, _, err := loop(0, len(uLat), func(i int) (float64, error) {
		root := b.tr.begin("op", 0, int64(i))
		t0 := time.Now()
		rep, ff, rec, err := tracedSolve(b.tr, root, int64(i), a, rhs, opts(i))
		d := time.Since(t0).Seconds()
		if err != nil {
			return 0, err
		}
		b.tr.do("check", root, int64(i), func(int32) { tDigests = append(tDigests, check(i, rep)) })
		b.tr.end(root)
		iters += float64(rep.Iters)
		itersFF += float64(ff.Iters)
		ckpts += float64(rep.Checkpoints)
		m := obs.Total(rec.Metrics())
		tot.MsgsSent += m.MsgsSent
		tot.BytesSent += m.BytesSent
		tot.Collectives += m.Collectives
		return d, nil
	})
	if err != nil {
		return err
	}
	n := float64(len(tLat))
	b.perOp(m0, len(tLat))
	b.purity("solve digests", uDigests, tDigests)
	b.overhead(uLat, tLat)
	b.set("core.ff_anchor_s", b.tr.median("core.ff_anchor"))
	b.set("core.faulted_run_s", b.tr.median("core.faulted_run"))
	b.set("solver.iters", iters/n)
	b.set("solver.iters_ff", itersFF/n)
	b.set("recovery.extra_iters", (iters-itersFF)/n)
	b.set("checkpoint.writes", ckpts/n)
	b.set("cluster.msgs_per_iter", float64(tot.MsgsSent)/iters)
	b.set("cluster.bytes_per_iter", float64(tot.BytesSent)/iters)
	b.set("cluster.collectives_per_iter", float64(tot.Collectives)/iters)
	return b.probeSystem(a, rhs, sp.ranks, sp.tol, b.values["core.ff_anchor_s"])
}

// tracedSolve is resilience.Solve taken apart into its two core.Run
// calls, the fault-free anchor and the faulted run, built exactly as the
// facade builds them, so each gets its own span. A recorder is attached
// to the faulted run for the message counts. The purity check holds its
// digests to the facade's.
func tracedSolve(tr *tracer, parent int32, op int64, a *sparse.CSR, rhs []float64, o resilience.SolveOptions) (rep, ff *core.RunReport, rec *obs.Recorder, err error) {
	spec, err := resilience.ParseScheme(o.Scheme)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := core.RunConfig{A: a, B: rhs, Ranks: o.Ranks, Scheme: spec, Tol: o.Tol, Seed: o.Seed}
	solve := tr.begin("resilience.solve", parent, op)
	defer tr.end(solve)
	ffCfg := cfg
	ffCfg.Scheme = core.SchemeSpec{Kind: core.FF}
	tr.do("core.ff_anchor", solve, op, func(int32) { ff, err = core.Run(ffCfg) })
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.InjectorFactory = func() fault.Injector {
		return fault.NewSchedule(o.Faults, ff.Iters, o.Ranks, o.FaultClass, o.Seed)
	}
	switch spec.Kind {
	case core.CRM, core.CRD, core.CR2L, core.LCR:
		cfg.Scheme.CkptMTBF = ff.Time / float64(o.Faults)
	}
	rec = obs.NewRecorder()
	cfg.Obs = rec
	tr.do("core.faulted_run", solve, op, func(int32) { rep, err = core.Run(cfg) })
	return rep, ff, rec, err
}
