package solve

import (
	"repro/internal/opt"
)

// Options is the normalized configuration of a Solver. Zero values are
// filled in by Normalize — exactly once, in New — so every consumer
// (heuristics, annealers, experiment sweeps) sees the same defaults.
type Options struct {
	// Strategy selects the algorithm run by Synthesize (default
	// Straightforward).
	Strategy Strategy
	// Seed drives every randomized path: the annealing chains and the
	// OR neighbourhood sampling (default 1).
	Seed int64
	// SAIterations bounds each annealing chain (default 300).
	SAIterations int
	// SARestarts is the number of independent annealing chains for the
	// SAS/SAR strategies (default 1); the best-ever solution wins.
	SARestarts int
	// Workers bounds the solver's shared evaluation pool (default 1 =
	// serial; results are identical for every value). It is the one
	// concurrency knob: every search of the session runs on that pool.
	Workers int
	// OR tunes the OptimizeSchedule/OptimizeResources heuristics. An
	// unset RandSeed inherits Seed.
	OR opt.OROptions
	// NoDelta disables the incremental delta-evaluation engine
	// (internal/delta): every analysis then runs the cold
	// core.Analyze path. The zero value keeps delta-eval ON — it is
	// bit-identical to the cold path (the differential harness proves
	// it), so the escape hatch exists for benchmarking and debugging,
	// not correctness (the CLIs expose it as -delta=false).
	NoDelta bool
	// Observer, when non-nil, receives progress events.
	Observer Observer
}

// Normalize fills defaults and resolves the nested OR seed from the
// top-level one. New calls it, so constructed Solvers always see
// normalized options.
func (o *Options) Normalize() {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SAIterations <= 0 {
		o.SAIterations = 300
	}
	if o.SARestarts <= 0 {
		o.SARestarts = 1
	}
	if o.OR.RandSeed == 0 {
		o.OR.RandSeed = o.Seed
	}
}

// Option mutates the Options of a Solver under construction.
type Option func(*Options)

// WithStrategy selects the algorithm run by Synthesize.
func WithStrategy(s Strategy) Option { return func(o *Options) { o.Strategy = s } }

// WithSeed seeds every randomized path (0 keeps the default of 1).
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithSAIterations bounds each annealing chain.
func WithSAIterations(n int) Option { return func(o *Options) { o.SAIterations = n } }

// WithSARestarts sets the number of independent annealing chains.
func WithSARestarts(n int) Option { return func(o *Options) { o.SARestarts = n } }

// WithWorkers bounds the solver's shared evaluation pool; the
// synthesized configurations are identical for every value.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithObserver streams progress events to obs.
func WithObserver(obs Observer) Option { return func(o *Options) { o.Observer = obs } }

// WithDelta toggles the incremental delta-evaluation engine (on by
// default; results are bit-identical either way).
func WithDelta(on bool) Option { return func(o *Options) { o.NoDelta = !on } }

// WithOROptions tunes the OS/OR heuristics (iteration caps, seed
// limits, neighbour budgets). Their analyses run on the session's pool
// (see WithWorkers) and analyzer.
func WithOROptions(or opt.OROptions) Option { return func(o *Options) { o.OR = or } }
