// Package solve is the session layer of the reproduction: a Solver is
// created once per (Application, Architecture) pair and owns what every
// search shares — the evaluation pool and the analyzer (the incremental
// delta evaluator, or cold core.Analyze under WithDelta(false)). The
// optimizers (packages opt, hopa, sa, dse) take both as parameters and
// never build their own, so one session decides where and how every
// analysis of a run executes.
//
// Every operation is context-first and cancellable at evaluation
// granularity: a cancelled Synthesize returns the best configuration
// found so far together with the context's error, so callers (the CLIs
// wire SIGINT into this) never lose finished work. Progress flows to an
// optional Observer as a serialized event stream.
//
// The root package repro re-exports this API; internal consumers
// (package expt) use it directly.
package solve

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/sa"
	"repro/internal/sim"
)

// Result couples the configuration chosen by a synthesis run with its
// analysis.
type Result struct {
	Config   *core.Config
	Analysis *core.Analysis
	// Evaluations counts the schedulability analyses performed.
	Evaluations int
}

// Solver is a reusable synthesis session for one (application,
// architecture) pair. It is safe for concurrent use; all methods are
// deterministic per seed and worker-count independent.
type Solver struct {
	app  *model.Application
	arch *model.Architecture
	opts Options
	pool *engine.Pool
	// ev is the system's incremental evaluator. It carries only
	// configuration-keyed, seed-independent state, so derived sessions
	// (Observed, Derive) share it across seeds, strategies and worker
	// counts without perturbing results; sessions built with
	// WithDelta(false) bypass it.
	ev *delta.Evaluator

	obsMu *sync.Mutex // serializes Observer delivery across SA chains
}

// New builds a Solver. Options normalize exactly here (worker count,
// seeds, iteration budgets); see Options.Normalize.
func New(app *model.Application, arch *model.Architecture, options ...Option) (*Solver, error) {
	if app == nil || arch == nil {
		return nil, fmt.Errorf("solve: nil application or architecture")
	}
	s := &Solver{app: app, arch: arch, ev: delta.New(app, arch), obsMu: &sync.Mutex{}}
	for _, o := range options {
		if o != nil {
			o(&s.opts)
		}
	}
	s.opts.Normalize()
	s.pool = engine.New(s.opts.Workers)
	return s, nil
}

// Observed returns a derived session that shares this solver's pool and
// evaluator but streams progress to obs instead. Since the evaluator
// carries only seed-independent state, results from a derived session
// are bit-identical to the parent's.
func (s *Solver) Observed(obs Observer) *Solver {
	d := *s
	d.opts.Observer = obs
	d.obsMu = &sync.Mutex{}
	return &d
}

// Derive returns a session for the same system with a fresh option set
// (applied to zero Options and normalized exactly like New's), sharing
// the parent's incremental evaluator — and its pool, when the worker
// counts agree. The service layer uses it to serve every option variant
// (strategy, seed, budgets, per-job observers) of one cached system
// from one warm evaluator; results are bit-identical to a cold Solver
// built with the same options.
func (s *Solver) Derive(options ...Option) *Solver {
	d := &Solver{app: s.app, arch: s.arch, ev: s.ev, obsMu: &sync.Mutex{}}
	for _, o := range options {
		if o != nil {
			o(&d.opts)
		}
	}
	d.opts.Normalize()
	if d.opts.Workers == s.opts.Workers {
		d.pool = s.pool
	} else {
		d.pool = engine.New(d.opts.Workers)
	}
	return d
}

// Application returns the session's application.
func (s *Solver) Application() *model.Application { return s.app }

// Architecture returns the session's architecture.
func (s *Solver) Architecture() *model.Architecture { return s.arch }

// Options returns a copy of the solver's normalized options.
func (s *Solver) Options() Options { return s.opts }

// eval is the session's analyzer, the one every search of the session
// runs on: the incremental evaluator when delta-eval is on (the
// default), the cold core.Analyze otherwise. Results are bit-identical
// either way.
func (s *Solver) eval() engine.Analyzer {
	if s.opts.NoDelta {
		return func(cfg *core.Config) (*core.Analysis, error) {
			return core.Analyze(s.app, s.arch, cfg)
		}
	}
	return s.ev.Analyze
}

// DeltaStats reports the incremental evaluator's cache counters (the
// zero Stats when the session runs with WithDelta(false)). Derived
// sessions share the evaluator, so the counters aggregate over every
// session of the system.
func (s *Solver) DeltaStats() delta.Stats {
	if s.opts.NoDelta {
		return delta.Stats{}
	}
	return s.ev.Stats()
}

// emit serializes an event to the observer, if any.
func (s *Solver) emit(p Progress) {
	obs := s.opts.Observer
	if obs == nil {
		return
	}
	s.obsMu.Lock()
	obs.OnProgress(p)
	s.obsMu.Unlock()
}

// observeOpt adapts the observer to the opt package's progress hook.
func (s *Solver) observeOpt(strat Strategy) func(opt.Progress) {
	if s.opts.Observer == nil {
		return nil
	}
	return func(p opt.Progress) {
		ev := Progress{Strategy: strat, Phase: p.Phase, Step: p.Step, Evaluations: p.Evaluations}
		if p.Best != nil {
			ev.BestDelta = p.Best.Delta()
			ev.BestBuffers = p.Best.STotal()
			ev.Schedulable = p.Best.Schedulable()
		}
		s.emit(ev)
	}
}

// observeSA adapts the observer to the sa package's progress hook.
func (s *Solver) observeSA(strat Strategy) func(sa.Progress) {
	if s.opts.Observer == nil {
		return nil
	}
	return func(p sa.Progress) {
		ev := Progress{Strategy: strat, Phase: "sa", Chain: p.Chain, Step: p.Iteration, Evaluations: p.Evaluations}
		if p.Best != nil {
			ev.BestDelta = p.Best.Delta()
			ev.BestBuffers = p.Best.STotal()
			ev.Schedulable = p.Best.Schedulable()
		}
		s.emit(ev)
	}
}

// orOptions assembles the OR/OS options of one run: the session's
// heuristic options with progress routed to the observer.
func (s *Solver) orOptions(strat Strategy) opt.OROptions {
	o := s.opts.OR
	o.OnProgress = s.observeOpt(strat)
	return o
}

// Analyze runs the MultiClusterScheduling fixed point (Fig. 5) for one
// configuration.
func (s *Solver) Analyze(ctx context.Context, cfg *core.Config) (*core.Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.eval()(cfg)
}

// AnalyzeAll analyzes a batch of independent candidate configurations
// across the session pool, in input order (identical to analyzing them
// serially); per-configuration failures are captured per item.
func (s *Solver) AnalyzeAll(ctx context.Context, cfgs []*core.Config) ([]engine.Evaluation, error) {
	return engine.EvaluateAll(ctx, s.pool, s.eval(), cfgs)
}

// Simulate executes a configuration in the discrete-event simulator.
// a may be nil, in which case the configuration is analyzed first (one
// extra evaluation).
func (s *Solver) Simulate(ctx context.Context, cfg *core.Config, a *core.Analysis, opts sim.Options) (*sim.Result, error) {
	if a == nil {
		var err error
		if a, err = s.Analyze(ctx, cfg); err != nil {
			return nil, err
		}
	}
	return sim.RunContext(ctx, s.app, s.arch, cfg, a, opts)
}

// Straightforward evaluates the SF baseline.
func (s *Solver) Straightforward(ctx context.Context) (*opt.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return opt.Straightforward(s.app, s.arch, s.eval())
}

// OptimizeSchedule runs the Fig. 8 slot search with the session's
// options, pool and analyzer, exposing the full internal result (seeds
// included) for experiment sweeps.
func (s *Solver) OptimizeSchedule(ctx context.Context) (*opt.OSResult, error) {
	o := s.opts.OR.OS
	o.OnProgress = s.observeOpt(OptimizeSchedule)
	return opt.OptimizeSchedule(ctx, s.app, s.arch, s.pool, s.eval(), o)
}

// OptimizeResources runs the Fig. 7 two-step optimization with the
// session's options, pool and analyzer, exposing the full internal
// result (the OS sub-result included) for experiment sweeps.
func (s *Solver) OptimizeResources(ctx context.Context) (*opt.ORResult, error) {
	return opt.OptimizeResources(ctx, s.app, s.arch, s.pool, s.eval(), s.orOptions(OptimizeResources))
}

// Anneal runs one simulated-annealing chain set from initial under the
// session's options; seed 0 uses the session seed. Experiment sweeps
// use this to build the paper's best-ever SA yardsticks.
func (s *Solver) Anneal(ctx context.Context, obj sa.Objective, initial *core.Config, seed int64, strat Strategy) (*sa.Result, error) {
	if seed == 0 {
		seed = s.opts.Seed
	}
	return sa.RunRestarts(ctx, s.app, s.arch, s.pool, s.eval(), initial, sa.Options{
		Objective: obj, Iterations: s.opts.SAIterations, Seed: seed,
		Restarts: s.opts.SARestarts, OnProgress: s.observeSA(strat),
	})
}

// Synthesize finds a system configuration with the session's configured
// strategy. Cancelling ctx returns promptly — within one evaluation
// granule — with the best configuration found so far (when one exists)
// and the context's error.
func (s *Solver) Synthesize(ctx context.Context) (*Result, error) {
	return s.SynthesizeWith(ctx, s.opts.Strategy)
}

// SynthesizeWith is Synthesize with an explicit strategy, letting one
// session compare algorithms on one warm evaluator.
func (s *Solver) SynthesizeWith(ctx context.Context, strat Strategy) (*Result, error) {
	switch strat {
	case Straightforward:
		r, err := s.Straightforward(ctx)
		if err != nil {
			return nil, err
		}
		res := &Result{Config: r.Config, Analysis: r.Analysis, Evaluations: 1}
		s.emit(Progress{Strategy: strat, Phase: "sf", Step: 1, Evaluations: 1,
			BestDelta: r.Delta(), BestBuffers: r.STotal(), Schedulable: r.Schedulable()})
		return res, nil

	case OptimizeSchedule:
		r, err := s.OptimizeSchedule(ctx)
		if r == nil || r.Best == nil {
			if err == nil {
				err = fmt.Errorf("solve: OptimizeSchedule found no evaluable configuration")
			}
			return nil, err
		}
		return &Result{Config: r.Best.Config, Analysis: r.Best.Analysis, Evaluations: r.Evaluations}, err

	case OptimizeResources:
		r, err := s.OptimizeResources(ctx)
		if r == nil || r.Best == nil {
			if err == nil {
				err = fmt.Errorf("solve: OptimizeResources found no evaluable configuration")
			}
			return nil, err
		}
		return &Result{Config: r.Best.Config, Analysis: r.Best.Analysis, Evaluations: r.Evaluations}, err

	case SAS, SAR:
		obj := sa.MinimizeDelta
		if strat == SAR {
			obj = sa.MinimizeBuffers
		}
		initial := core.DefaultConfig(s.app, s.arch)
		if err := initial.Normalize(s.app); err != nil {
			return nil, err
		}
		r, aerr := s.Anneal(ctx, obj, initial, s.opts.Seed, strat)
		if r == nil || r.Best == nil {
			if aerr == nil {
				aerr = fmt.Errorf("solve: annealing found no evaluable configuration")
			}
			return nil, aerr
		}
		return &Result{Config: r.Best.Config, Analysis: r.Best.Analysis, Evaluations: r.Evaluations}, aerr
	}
	return nil, fmt.Errorf("repro: unknown strategy %v", strat)
}
