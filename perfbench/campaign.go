package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"resilience/internal/chaos"
	"resilience/internal/chaos/fleet"
	"resilience/internal/core"
	"resilience/internal/obs"
)

// campaignTol is the chaos generator's default solver tolerance.
const campaignTol = 1e-10

// chunkOptions names chunk k of a run: scenarios [k*n, (k+1)*n) of the
// one campaign seeded by the workload seed. Scenario i of a campaign is
// generated from Seed + i*SeedStride, so shifting the seed by k*n strides
// makes fleet.Run's scenario 0 the campaign's scenario k*n.
func chunkOptions(seed int64, k, n int) chaos.Options {
	return chaos.Options{N: n, Seed: seed + int64(k*n)*chaos.SeedStride}
}

// shapeScenarios returns one fault-free scenario per system shape the
// generator can draw (grid 6..10, 1..6 ranks, with and without Jacobi),
// so evaluating them fills the runner's fault-free baseline cache.
func shapeScenarios() []*chaos.Scenario {
	var out []*chaos.Scenario
	for g := 6; g <= 10; g++ {
		for r := 1; r <= 6; r++ {
			for _, j := range []bool{false, true} {
				out = append(out, &chaos.Scenario{Grid: g, Ranks: r, Scheme: "LI", Tol: campaignTol, Jacobi: j, Seed: 1})
			}
		}
	}
	return out
}

// tracedEval wraps an evaluator so each batch gets a span.
type tracedEval struct {
	ev     fleet.Evaluator
	tr     *tracer
	parent int32
	op     int64
}

func (t tracedEval) Evaluate(ctx context.Context, sc []*chaos.Scenario) ([]string, error) {
	id := t.tr.begin("fleet.oracle.evaluate", t.parent, t.op)
	defer t.tr.end(id)
	return t.ev.Evaluate(ctx, sc)
}

func runCampaign(b *bench) error {
	ctx := context.Background()
	chunk := 256
	if b.smoke {
		chunk = 16
	}
	workers := runtime.NumCPU()
	var oracle *fleet.Oracle
	var setups []float64
	for r := 0; r < setupReps; r++ {
		settle()
		t0 := time.Now()
		oracle = fleet.NewOracle("", workers)
		if _, err := oracle.Evaluate(ctx, shapeScenarios()); err != nil {
			return fmt.Errorf("oracle precompute: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.setupTimes(setups, "fleet.NewOracle plus the fault-free baseline of all 60 scenario shapes")

	// Warm-up: one untimed chunk of a campaign disjoint from the timed one.
	if _, err := fleet.Run(ctx, fleet.Options{Campaign: chunkOptions(b.seed^0x3a7f_1c0d, 0, chunk), Workers: workers}, oracle); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	gold, err := loadGoldens(b)
	if err != nil {
		return err
	}
	// chunkRun runs and checks chunk k and returns its outcome line: the
	// FNV-1a hash of the verdict stream and the verdict counts.
	chunkRun := func(k int, ev fleet.Evaluator) (string, error) {
		rep, err := fleet.Run(ctx, fleet.Options{Campaign: chunkOptions(b.seed, k, chunk), Workers: workers}, ev)
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		if err := fleet.WriteVerdicts(&buf, rep.Lines); err != nil {
			return "", err
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		out := fmt.Sprintf("verdicts=%016x ok=%d expected=%d failed=%d", h.Sum64(), rep.OK, rep.Expected, rep.Failed)
		golden := "none"
		if k < len(gold) {
			golden = gold[k]
		}
		failed := 0
		for i, v := range rep.Verdicts {
			if v.Status == chaos.StatusFail {
				failed++
				b.note("FAILED: campaign scenario %d: %s", k*chunk+i, rep.Lines[i])
			}
		}
		if golden != "none" && golden != out {
			failed = chunk
			b.note("FAILED: campaign chunk %d: %s, golden %s", k, out, golden)
		}
		b.ops(chunk, failed)
		return out, nil
	}
	untraced := func(seconds float64) ([]float64, []string, float64, error) {
		var outs []string
		lat, el, err := loop(seconds, 0, func(k int) (float64, error) {
			t0 := time.Now()
			out, err := chunkRun(k, oracle)
			d := time.Since(t0).Seconds()
			outs = append(outs, out)
			return d, err
		})
		return lat, outs, el, err
	}

	if !b.traced {
		mem := startMemSampler()
		lat, outs, el, err := untraced(b.seconds)
		if err != nil {
			return err
		}
		b.window(len(lat)*chunk, el, lat, mem.finish(), "scenarios", fmt.Sprintf("campaign chunks of %d scenarios", chunk))
		b.note("scenarios_per_s %.4f (%d checked scenarios)", float64(len(lat)*chunk)/el, len(lat)*chunk)
		return writeGoldens(b, outs)
	}

	uLat, uOuts, _, err := untraced(b.seconds / 2)
	if err != nil {
		return err
	}
	b.tr = newTracer()
	var tOuts []string
	m0 := memNow()
	tLat, _, err := loop(0, len(uLat), func(k int) (float64, error) {
		root := b.tr.begin("op", 0, int64(k))
		defer b.tr.end(root)
		t0 := time.Now()
		id := b.tr.begin("fleet.run", root, int64(k))
		out, err := chunkRun(k, tracedEval{ev: oracle, tr: b.tr, parent: id, op: int64(k)})
		b.tr.end(id)
		tOuts = append(tOuts, out)
		return time.Since(t0).Seconds(), err
	})
	if err != nil {
		return err
	}
	b.perOp(m0, len(tLat)*chunk)
	b.purity("campaign chunk verdict streams", uOuts, tOuts)
	b.overhead(uLat, tLat)

	sample := make([]*chaos.Scenario, 64)
	for i := range sample {
		sample[i] = chaos.ScenarioAt(chunkOptions(b.seed, 0, chunk), i)
	}
	if err := b.probeScenarios(chunkOptions(b.seed, 0, chunk), sample, true); err != nil {
		return err
	}
	return b.probeSmallSystem()
}

// probeScenarios measures the chaos and core layers on a sample of the
// workload's own scenarios: scenario generation, system generation, the
// fault-free anchor, the plain and the recorded faulted core.Run and,
// with battery set, the invariant battery and the campaign runner.
func (b *bench) probeScenarios(opts chaos.Options, sample []*chaos.Scenario, battery bool) error {
	budget := b.probeBudget()
	at := b.timed("probe.chaos.scenario_at", budget, func() {
		for i := range sample {
			chaos.ScenarioAt(opts, i)
		}
	})
	b.set("chaos.scenario_at_us", median(at)/float64(len(sample))*1e6)
	gen := b.timed("probe.matgen", budget, func() {
		for g := 6; g <= 10; g++ {
			(&chaos.Scenario{Grid: g}).System()
		}
	})
	b.set("matgen.generate_s", median(gen)/5)

	var ffT, runT, solveT, invT []float64
	var iters, itersFF, ckpts float64
	var tot obs.Metrics
	timeRun := func(name string, cfg core.RunConfig) (*core.RunReport, float64, error) {
		id := b.tr.begin(name, 0, -1)
		t0 := time.Now()
		rep, err := core.Run(cfg)
		d := time.Since(t0).Seconds()
		b.tr.end(id)
		return rep, d, err
	}
	for _, s := range sample {
		a, rhs := s.System()
		ffS := &chaos.Scenario{Grid: s.Grid, Ranks: s.Ranks, Scheme: "LI", Tol: s.Tol, Jacobi: s.Jacobi, Seed: 1}
		ffCfg, err := ffS.RunConfig(a, rhs, false)
		if err != nil {
			return err
		}
		ffCfg.Scheme = core.SchemeSpec{Kind: core.FF}
		ff, d, err := timeRun("probe.core.ff_anchor", ffCfg)
		if err != nil {
			return err
		}
		ffT = append(ffT, d)
		cfg, err := s.RunConfig(a, rhs, false)
		if err != nil {
			return err
		}
		rep, d, err := timeRun("probe.core.faulted_run", cfg)
		if err != nil {
			return err
		}
		runT = append(runT, d)
		// The recorded run, as the campaign runner and the service run it.
		cfg, _ = s.RunConfig(a, rhs, battery)
		rec := obs.NewRecorder()
		cfg.Obs = rec
		rrep, d, err := timeRun("probe.chaos.solve", cfg)
		if err != nil {
			return err
		}
		solveT = append(solveT, d)
		if battery {
			id := b.tr.begin("probe.chaos.invariants", 0, -1)
			t0 := time.Now()
			chaos.CheckInvariants(s, rrep, ff, rec)
			invT = append(invT, time.Since(t0).Seconds())
			b.tr.end(id)
		}
		iters += float64(rep.Iters)
		itersFF += float64(ff.Iters)
		ckpts += float64(rep.Checkpoints)
		m := obs.Total(rec.Metrics())
		tot.MsgsSent += m.MsgsSent
		tot.BytesSent += m.BytesSent
		tot.Collectives += m.Collectives
	}
	n := float64(len(sample))
	b.set("core.ff_anchor_s", median(ffT))
	b.set("core.faulted_run_s", median(runT))
	b.set("chaos.solve_ms", median(solveT)*1e3)
	b.set("chaos.invariants_us", median(invT)*1e6)
	b.set("solver.iters", iters/n)
	b.set("solver.iters_ff", itersFF/n)
	b.set("recovery.extra_iters", (iters-itersFF)/n)
	b.set("checkpoint.writes", ckpts/n)
	b.set("cluster.msgs_per_iter", float64(tot.MsgsSent)/iters)
	b.set("cluster.bytes_per_iter", float64(tot.BytesSent)/iters)
	b.set("cluster.collectives_per_iter", float64(tot.Collectives)/iters)
	if !battery {
		return nil
	}

	// The campaign runner, cold: its core.Run calls per scenario are the
	// main run plus one fault-free baseline per new system shape.
	rn := chaos.NewRunner(chaos.Options{})
	shapes := map[[3]int]bool{}
	for i, s := range sample {
		if r := rn.Run(i, s); r.Failed() {
			return fmt.Errorf("probe scenario %s: %v %v", s.Args(), r.Err, r.Violations)
		}
		j := 0
		if s.Jacobi {
			j = 1
		}
		shapes[[3]int{s.Grid, s.Ranks, j}] = true
	}
	b.set("chaos.runs_per_scenario", (n+float64(len(shapes)))/n)
	var runs []float64
	for i, s := range sample {
		id := b.tr.begin("probe.chaos.runner_run", 0, -1)
		t0 := time.Now()
		rn.Run(i, s)
		runs = append(runs, time.Since(t0).Seconds())
		b.tr.end(id)
	}
	b.set("chaos.run_ms", median(runs)*1e3)
	return nil
}

// probeSmallSystem runs the kernel and rank probes on the chaos
// generator's middle shape: a 2-D Laplacian on an 8x8 grid over 4 ranks.
func (b *bench) probeSmallSystem() error {
	s := &chaos.Scenario{Grid: 8, Ranks: 4, Scheme: "LI", Tol: campaignTol, Seed: 1}
	a, rhs := s.System()
	cfg, err := s.RunConfig(a, rhs, false)
	if err != nil {
		return err
	}
	cfg.Scheme = core.SchemeSpec{Kind: core.FF}
	ff := b.timed("probe.core.ff_small", b.probeBudget(), func() { core.Run(cfg) })
	return b.probeSystem(a, rhs, s.Ranks, s.Tol, median(ff))
}
