package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/cruise"
	"repro/internal/delta"
	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/tsched"
)

// synth-or: closed loop, in process. Each system gets a fresh Solver
// with the mcs-synth defaults (strategy or, workers = nproc, delta on)
// and one Synthesize call.

// synthSystems is the seeded corpus: the cruise controller, then 160
// balanced 80/160-process systems in blocks of corpusBlock.
func synthSystems(c config) ([]*model.System, error) {
	n, ppn := 20*corpusBlock, 40
	if c.tiny {
		n, ppn = 3, 10
	}
	systems, err := generate(corpusSpecs(n, c.seed, ppn))
	if err != nil {
		return nil, err
	}
	cc, err := cruise.System()
	if err != nil {
		return nil, err
	}
	return append([]*model.System{cc}, systems...), nil
}

func newSynthSolver(sys *model.System, c config, strat solve.Strategy) (*solve.Solver, error) {
	return solve.New(sys.Application, sys.Architecture, solve.WithStrategy(strat), solve.WithWorkers(c.workers))
}

// synthOutcome is what a synthesis run must reproduce on every pass.
type synthOutcome struct {
	key         string
	delta       model.Time
	buffers     int
	schedulable bool
	evaluations int
}

func outcomeOf(r *solve.Result) synthOutcome {
	return synthOutcome{
		key: delta.ConfigKey(r.Config), delta: r.Analysis.Delta, buffers: r.Analysis.Buffers.Total,
		schedulable: r.Analysis.Schedulable, evaluations: r.Evaluations,
	}
}

// checkSynth re-analyses a synthesized configuration cold and reports a
// mismatch with what synthesis returned (a stale memo would show here).
func checkSynth(r *report, sys *model.System, res *solve.Result) {
	a, err := core.Analyze(sys.Application, sys.Architecture, res.Config)
	switch {
	case err != nil:
		r.fail("%s: cold re-analysis: %v", sys.Architecture.Name, err)
	case a.Delta != res.Analysis.Delta || a.Buffers.Total != res.Analysis.Buffers.Total ||
		a.Schedulable != res.Analysis.Schedulable:
		r.fail("%s: synthesis reported delta=%d buffers=%d schedulable=%v, cold analysis gives %d/%d/%v",
			sys.Architecture.Name, res.Analysis.Delta, res.Analysis.Buffers.Total, res.Analysis.Schedulable,
			a.Delta, a.Buffers.Total, a.Schedulable)
	}
}

func runSynth(ctx context.Context, c config, r *report) error {
	setup, systems, err := timeSetup(9, func() ([]*model.System, error) {
		systems, err := synthSystems(c)
		if err != nil {
			return nil, err
		}
		for _, sys := range systems {
			if _, err := newSynthSolver(sys, c, solve.OptimizeResources); err != nil {
				return nil, err
			}
		}
		return systems, nil
	})
	if err != nil {
		return err
	}

	// Synthesize until the time budget is spent, stopping at a block
	// boundary of the corpus so every run weighs the systems alike; a
	// system met again must give the same result.
	first := make([]*synthOutcome, len(systems))
	var (
		lat, cpu, peaks []float64
		busy            time.Duration
		evals           int
	)
	for i := 0; ; i++ {
		j := i % len(systems)
		if c.tiny && i == len(systems) || !c.tiny && j%corpusBlock == 1 && busy >= c.seconds {
			break
		}
		sys := systems[j]
		s, err := newSynthSolver(sys, c, solve.OptimizeResources)
		if err != nil {
			return err
		}
		if err := resetPeakRSS(); err != nil {
			return err
		}
		r.attempt(1)
		cpu0, t0 := cpuTime(), time.Now()
		res, err := s.Synthesize(ctx)
		d := time.Since(t0)
		busy += d
		cpu = append(cpu, ms(cpuTime()-cpu0))
		lat = append(lat, ms(d))
		peak, rssErr := peakRSSMB(0)
		if rssErr != nil {
			return rssErr
		}
		peaks = append(peaks, peak)
		if err != nil {
			r.fail("%s: synthesize: %v", sys.Architecture.Name, err)
			continue
		}
		evals += res.Evaluations
		out := outcomeOf(res)
		if first[j] == nil {
			first[j] = &out
			checkSynth(r, sys, res)
		} else if out != *first[j] {
			r.fail("%s: result %+v differs from the first run %+v", sys.Architecture.Name, out, *first[j])
		}
	}
	sched, distinct, stotal := 0, 0, 0.0
	for _, o := range first {
		if o == nil {
			continue
		}
		distinct++
		if o.schedulable {
			sched++
		}
		stotal += float64(o.buffers)
	}
	r.set("setup_s", setup, "s")
	r.set("peak_rss_mb", median(peaks), "MB")
	r.set("throughput_per_s", float64(len(lat))/busy.Seconds(), "1/s")
	r.set("cpu_ms_per_op", median(cpu), "ms")
	r.detail("synth-or: %d syntheses over %d distinct systems (%d processes max), workers=%d", len(lat), distinct, maxProcs(systems), c.workers)
	r.detail("synth_per_s %.4f 1/s (n=%d); %d analysis evaluations in all", float64(len(lat))/busy.Seconds(), len(lat), evals)
	r.detail("synth_p50_s %.4f s, synth_p75_s %.4f s (n=%d)", median(lat)/1000, percentile(lat, 75)/1000, len(lat))
	r.detail("schedulable_share %.6f, s_total_mean %.4f (over the n=%d distinct systems synthesized)",
		float64(sched)/float64(distinct), stotal/float64(distinct), distinct)
	return nil
}

func maxProcs(systems []*model.System) int {
	m := 0
	for _, s := range systems {
		m = max(m, len(s.Application.Procs))
	}
	return m
}

// traceSynth is the traced synth-or run: an untraced pass over the first
// systems of the corpus, then a traced, profiled pass over the same
// systems that calls each layer's public entry point under a span.
func traceSynth(ctx context.Context, c config, r *report) error {
	systems, err := synthSystems(c)
	if err != nil {
		return err
	}
	k := 12
	if c.tiny {
		k = 3
	}
	systems = systems[:min(k, len(systems))]

	var untraced time.Duration
	for _, sys := range systems {
		s, err := newSynthSolver(sys, c, solve.OptimizeResources)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := s.Synthesize(ctx); err != nil {
			return err
		}
		untraced += time.Since(t0)
	}

	tr := newTracer()
	em := newEngineMetrics()
	prof, err := startProfile(c.workDir, fmt.Sprintf("synth-or-%d", c.seed))
	if err != nil {
		return err
	}
	var (
		probes  probeStats
		quality optQuality
		traced  time.Duration
	)
	for i, sys := range systems {
		group := fmt.Sprintf("system-%d", i)
		root, endRoot := tr.begin("system", group, 0)
		if err := benchSide(ctx, func(context.Context) error { return probes.run(tr, group, root, sys) }); err != nil {
			return err
		}
		osSolver, err := newSynthSolver(sys, c, solve.OptimizeSchedule)
		if err != nil {
			return err
		}
		_, end := tr.begin("opt.OptimizeSchedule", group, root)
		if _, err := osSolver.OptimizeSchedule(ctx); err != nil {
			return err
		}
		end()
		orSolver, err := newSynthSolver(sys, c, solve.OptimizeResources)
		if err != nil {
			return err
		}
		_, end = tr.begin("opt.OptimizeResources", group, root)
		res, err := orSolver.OptimizeResources(ctx)
		if err != nil {
			return err
		}
		traced += end()
		endRoot()
		r.attempt(1)
		benchSide(ctx, func(context.Context) error {
			checkSynth(r, sys, &solve.Result{Config: res.Best.Config, Analysis: res.Best.Analysis})
			return nil
		})
		quality.add(res.Evaluations, res.Best.Analysis.Schedulable, res.Best.Analysis.Buffers.Total)
	}
	gcShare, err := prof.stop()
	if err != nil {
		return err
	}
	em.uninstall()
	ds, err := serialDeltaStats(ctx, systems)
	if err != nil {
		return err
	}

	setLayerDefaults(r)
	if err := layerShares(r, prof, gcShare); err != nil {
		return err
	}
	probes.report(r, tr)
	setDeltaStats(r, ds)
	em.report(r)
	quality.report(r, tr)
	if err := probeExplore(ctx, c, r, tr, systems[:1]); err != nil {
		return err
	}
	if err := probeService(ctx, c, r, tr, systems[:min(4, len(systems))]); err != nil {
		return err
	}
	r.setLayer("trace.overhead_share", traced.Seconds()/untraced.Seconds()-1)
	r.detail("synth-or traced: %d systems; OR untraced %.1f ms, traced %.1f ms", len(systems), ms(untraced), ms(traced))
	return tr.write(filepath.Join(c.workDir, fmt.Sprintf("spans-synth-or-%d.jsonl", c.seed)))
}

// probeStats accumulates the per-system layer probes shared by the
// in-process traced runs: a cold core.AnalyzeWith (no memo) and a
// tsched.Build of the system's default configuration, then a
// delta.Evaluator miss followed by a repeat hit.
type probeStats struct {
	analyses, unconverged int
	allocs, bytes         uint64
	iterations            int
}

func (p *probeStats) run(tr *tracer, group string, parent int, sys *model.System) error {
	app, arch := sys.Application, sys.Architecture
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		return err
	}
	return p.runConfig(tr, group, parent, app, arch, cfg)
}

func (p *probeStats) runConfig(tr *tracer, group string, parent int, app *model.Application, arch *model.Architecture, cfg *core.Config) error {
	var a *core.Analysis
	_, end := tr.begin("core.AnalyzeWith", group, parent)
	allocs, bytes, err := memDelta(func() (err error) {
		a, err = core.AnalyzeWith(app, arch, cfg, core.AnalyzeOptions{})
		return err
	})
	end()
	if err != nil {
		return fmt.Errorf("core.AnalyzeWith: %w", err)
	}
	p.analyses++
	p.allocs += allocs
	p.bytes += bytes
	p.iterations += a.Iterations
	if !a.Converged {
		p.unconverged++
	}

	_, end = tr.begin("tsched.Build", group, parent)
	_, err = tsched.Build(tsched.Input{App: app, Arch: arch, Round: cfg.Round})
	end()
	if err != nil {
		return fmt.Errorf("tsched.Build: %w", err)
	}

	ev := delta.New(app, arch)
	_, end = tr.begin("delta.miss", group, parent)
	_, err = ev.Analyze(cfg)
	end()
	if err != nil {
		return err
	}
	_, end = tr.begin("delta.hit", group, parent)
	_, err = ev.Analyze(cfg)
	end()
	return err
}

func (p *probeStats) report(r *report, tr *tracer) {
	n := float64(p.analyses)
	r.setLayer("core.analyze_ms", tr.meanMS("core.AnalyzeWith"))
	r.setLayer("core.allocs_per_analysis", ratio(float64(p.allocs), n))
	r.setLayer("core.bytes_per_analysis", ratio(float64(p.bytes), n))
	r.setLayer("core.mcs_iterations", ratio(float64(p.iterations), n))
	r.setLayer("core.unconverged_share", ratio(float64(p.unconverged), n))
	r.setLayer("tsched.build_us", tr.meanMS("tsched.Build")*1000)
	r.setLayer("delta.hit_us", tr.meanMS("delta.hit")*1000)
}

// serialDeltaStats replays the OR synthesis of each system on a
// one-worker Solver and sums its evaluator counters. At nproc workers two
// evaluations that need the same configuration or stage at once may both
// miss, so those counters vary between runs of one seed; the serial
// replay's counters repeat exactly.
func serialDeltaStats(ctx context.Context, systems []*model.System) (delta.Stats, error) {
	var ds delta.Stats
	for _, sys := range systems {
		s, err := solve.New(sys.Application, sys.Architecture,
			solve.WithStrategy(solve.OptimizeResources), solve.WithWorkers(1))
		if err != nil {
			return ds, err
		}
		if _, err := s.OptimizeResources(ctx); err != nil {
			return ds, err
		}
		addStats(&ds, s.DeltaStats())
	}
	return ds, nil
}

// addStats sums evaluator counters across Solvers.
func addStats(dst *delta.Stats, s delta.Stats) {
	dst.ConfigHits += s.ConfigHits
	dst.ConfigMisses += s.ConfigMisses
	m := &dst.Memo
	m.ScheduleHits += s.Memo.ScheduleHits
	m.ScheduleMisses += s.Memo.ScheduleMisses
	m.RTAHits += s.Memo.RTAHits
	m.RTAMisses += s.Memo.RTAMisses
	m.QueueHits += s.Memo.QueueHits
	m.QueueMisses += s.Memo.QueueMisses
	m.RTAWarmStarts += s.Memo.RTAWarmStarts
}

func setDeltaStats(r *report, s delta.Stats) {
	r.setLayer("delta.config_hit_rate", s.HitRate())
	r.setLayer("delta.stage_hit_rate", s.StageHitRate())
	r.setLayer("delta.rta_warm_starts", float64(s.Memo.RTAWarmStarts))
}
