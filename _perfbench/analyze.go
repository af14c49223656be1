package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/solve"
)

// analyze-cold: closed loop, in process. A fresh Solver per batch
// analyses a batch of seeded random configurations of one system (160
// or 320 processes) with Solver.AnalyzeAll. The configurations share
// almost no analysis stage, so the analysis core does nearly all the
// work and the delta memo sees almost only misses.

const analyzeBatch = 4

// analyzeInput is one system of the workload with its random
// configuration stream.
type analyzeInput struct {
	sys  *model.System
	cfgs *configGen
}

// solver builds the fresh Solver each batch runs on (default options,
// workers = nproc, delta on), so no memo outlives its batch.
func (in *analyzeInput) solver(c config) (*solve.Solver, error) {
	return solve.New(in.sys.Application, in.sys.Architecture, solve.WithWorkers(c.workers))
}

// analyzeSystems builds the round-robin order: 208 systems in rounds of
// four, three of 160 processes (4 nodes) then one of 320 processes (8
// nodes), so a run's averages span many system structures.
func analyzeSystems(c config) ([]*analyzeInput, error) {
	var specs []gen.Spec
	for i := range 208 {
		nodes, ppn := 4, 40
		if i%4 == 3 {
			nodes = 8
		}
		if c.tiny {
			ppn = 10
		}
		specs = append(specs, gen.Spec{
			Seed: c.seed*100000 + int64(i), TTNodes: nodes / 2, ETNodes: nodes / 2,
			ProcsPerNode: ppn, WCETDist: gen.Dist(i / 4 % 2),
		})
	}
	if c.tiny {
		specs = specs[2:4]
	}
	systems, err := generate(specs)
	if err != nil {
		return nil, err
	}
	out := make([]*analyzeInput, len(systems))
	for i, sys := range systems {
		in := &analyzeInput{sys: sys, cfgs: newConfigGen(sys, c.seed*7919+int64(i))}
		if _, err := in.solver(c); err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// batch draws the next batch of random configurations.
func (in *analyzeInput) batch() ([]*core.Config, error) {
	cfgs := make([]*core.Config, analyzeBatch)
	for i := range cfgs {
		cfg, err := in.cfgs.next()
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// analyzeChecker verifies batch results: a seeded sample of every batch
// must equal a serial cold core.Analyze, and on a smaller sample the
// simulator with WCET execution must never observe a graph response
// above its analysed bound (the paper's safety property).
type analyzeChecker struct {
	rng     *rand.Rand
	batches int
	simmed  int
}

func (ck *analyzeChecker) check(r *report, in *analyzeInput, evals []engine.Evaluation) {
	ck.batches++
	r.attempt(len(evals))
	for _, ev := range evals {
		if ev.Err != nil {
			r.fail("%s: analysis error: %v", in.sys.Architecture.Name, ev.Err)
		}
	}
	ev := evals[ck.rng.Intn(len(evals))]
	if ev.Err != nil {
		return
	}
	app, arch := in.sys.Application, in.sys.Architecture
	cold, err := core.Analyze(app, arch, ev.Config)
	if err != nil || !reflect.DeepEqual(cold, ev.Analysis) {
		r.fail("%s: batch analysis differs from serial core.Analyze (err %v)", arch.Name, err)
		return
	}
	if ck.batches%8 != 1 || !cold.Converged || !cold.Schedule.WithinCycle {
		return
	}
	ck.simmed++
	res, err := sim.Run(app, arch, ev.Config, cold, sim.Options{Cycles: 1, Exec: sim.WorstCase})
	if err != nil {
		r.fail("%s: simulation: %v", arch.Name, err)
		return
	}
	for g, bound := range cold.GraphResp {
		if res.GraphWorstResp[g] > bound {
			r.fail("%s: graph %d simulated response %d exceeds analysed bound %d", arch.Name, g, res.GraphWorstResp[g], bound)
		}
	}
}

func runAnalyze(ctx context.Context, c config, r *report) error {
	setup, inputs, err := timeSetup(9, func() ([]*analyzeInput, error) { return analyzeSystems(c) })
	if err != nil {
		return err
	}
	ck := &analyzeChecker{rng: rand.New(rand.NewSource(c.seed))}
	var (
		lat, cpu, peaks []float64
		busy            time.Duration
		n               int
		ds              delta.Stats
	)
	// Rounds of four systems (three small, one large), cycling through
	// the corpus, until the time budget is spent; every run weighs the
	// two sizes alike.
	for i := 0; ; i++ {
		if c.tiny && i == len(inputs) || !c.tiny && i%4 == 0 && busy >= c.seconds {
			break
		}
		in := inputs[i%len(inputs)]
		cfgs, err := in.batch()
		if err != nil {
			return err
		}
		s, err := in.solver(c)
		if err != nil {
			return err
		}
		if err := resetPeakRSS(); err != nil {
			return err
		}
		cpu0, t0 := cpuTime(), time.Now()
		evals, err := s.AnalyzeAll(ctx, cfgs)
		d := time.Since(t0)
		busy += d
		cpu = append(cpu, ms(cpuTime()-cpu0)/float64(len(cfgs)))
		lat = append(lat, ms(d)/float64(len(cfgs)))
		if err != nil {
			return err
		}
		peak, err := peakRSSMB(0)
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
		addStats(&ds, s.DeltaStats())
		n += len(cfgs)
		ck.check(r, in, evals)
	}
	r.set("setup_s", setup, "s")
	r.set("peak_rss_mb", median(peaks), "MB")
	r.set("throughput_per_s", float64(n)/busy.Seconds(), "1/s")
	r.set("cpu_ms_per_op", median(cpu), "ms")
	r.detail("analyze-cold: %d configurations in %d batches of %d over %d systems, workers=%d",
		n, len(lat), analyzeBatch, len(inputs), c.workers)
	r.detail("analyses_per_s %.4f 1/s (n=%d)", float64(n)/busy.Seconds(), n)
	r.detail("analyze_p50_ms %.4f ms, analyze_p90_ms %.4f ms (per configuration, amortised over each batch; n=%d batches)",
		median(lat), percentile(lat, 90), len(lat))
	r.detail("checked %d batches against serial core.Analyze, %d simulated; delta %s", ck.batches, ck.simmed, ds)
	return nil
}

// traceAnalyze is the traced analyze-cold run: a fixed number of
// batches untraced, then the same batches on fresh Solvers traced and
// profiled, with the per-layer probes on each batch's first
// configuration.
func traceAnalyze(ctx context.Context, c config, r *report) error {
	batches := 48
	if c.tiny {
		batches = 2
	}
	pass := func(tr *tracer, probes *probeStats) (time.Duration, delta.Stats, error) {
		inputs, err := analyzeSystems(c)
		if err != nil {
			return 0, delta.Stats{}, err
		}
		ck := &analyzeChecker{rng: rand.New(rand.NewSource(c.seed))}
		var (
			busy time.Duration
			ds   delta.Stats
		)
		for i := range batches {
			in := inputs[i%len(inputs)]
			cfgs, err := in.batch()
			if err != nil {
				return 0, delta.Stats{}, err
			}
			group := fmt.Sprintf("batch-%d", i)
			var root int
			endRoot := func() time.Duration { return 0 }
			if tr != nil {
				root, endRoot = tr.begin("solve.AnalyzeAll", group, 0)
			}
			s, err := in.solver(c)
			if err != nil {
				return 0, delta.Stats{}, err
			}
			t0 := time.Now()
			evals, err := s.AnalyzeAll(ctx, cfgs)
			busy += time.Since(t0)
			endRoot()
			if err != nil {
				return 0, delta.Stats{}, err
			}
			addStats(&ds, s.DeltaStats())
			if tr != nil {
				ck.check(r, in, evals)
				if err := probes.runConfig(tr, group, root, in.sys.Application, in.sys.Architecture, cfgs[0]); err != nil {
					return 0, delta.Stats{}, err
				}
			}
		}
		return busy, ds, nil
	}

	untraced, _, err := pass(nil, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	em := newEngineMetrics()
	prof, err := startProfile(c.workDir, fmt.Sprintf("analyze-cold-%d", c.seed))
	if err != nil {
		return err
	}
	var probes probeStats
	traced, ds, err := pass(tr, &probes)
	if err != nil {
		return err
	}
	gcShare, err := prof.stop()
	if err != nil {
		return err
	}
	em.uninstall()

	setLayerDefaults(r)
	if err := layerShares(r, prof, gcShare); err != nil {
		return err
	}
	probes.report(r, tr)
	setDeltaStats(r, ds)
	em.report(r)
	inputs, err := analyzeSystems(c)
	if err != nil {
		return err
	}
	var systems []*model.System
	for _, in := range inputs[:min(4, len(inputs))] {
		systems = append(systems, in.sys)
	}
	if err := probeOpt(ctx, c, r, tr, systems[:1]); err != nil {
		return err
	}
	if err := probeExplore(ctx, c, r, tr, systems[:1]); err != nil {
		return err
	}
	if err := probeService(ctx, c, r, tr, systems); err != nil {
		return err
	}
	r.setLayer("trace.overhead_share", traced.Seconds()/untraced.Seconds()-1)
	r.detail("analyze-cold traced: %d batches; AnalyzeAll untraced %.1f ms, traced %.1f ms", batches, ms(untraced), ms(traced))
	return tr.write(filepath.Join(c.workDir, fmt.Sprintf("spans-analyze-cold-%d.jsonl", c.seed)))
}
