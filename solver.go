package repro

import (
	"repro/internal/delta"
	"repro/internal/opt"
	"repro/internal/solve"
)

// Solver is a reusable synthesis session for one (application,
// architecture) pair: it owns the evaluation pool and the analyzer
// (an incremental evaluator that remembers the system's analyses) every
// search of the session runs on, so repeated Analyze/Synthesize/Simulate
// calls reuse earlier work. Create one with NewSolver; it is safe for
// concurrent use, and every operation is context-first:
//
//	solver, _ := repro.NewSolver(sys.Application, sys.Architecture,
//	    repro.WithStrategy(repro.StrategyOptimizeResources),
//	    repro.WithWorkers(runtime.NumCPU()))
//	res, err := solver.Synthesize(ctx)
//
// Cancelling ctx mid-run returns promptly with the best configuration
// found so far (when one exists) alongside the context's error, so a
// SIGINT never loses finished work. WithObserver streams progress
// (phase, step, evaluations, incumbent quality) while a run executes.
type Solver = solve.Solver

// Option is a functional option for NewSolver.
type Option = solve.Option

// Observer receives synthesis progress events; see WithObserver.
type Observer = solve.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = solve.ObserverFunc

// Progress is one synthesis progress event.
type Progress = solve.Progress

// SolverOptions is the normalized option set of a Solver (inspectable
// via Solver.Options).
type SolverOptions = solve.Options

// DeltaStats reports the incremental delta-evaluation engine's cache
// counters (see Solver.DeltaStats and WithDelta).
type DeltaStats = delta.Stats

// NewSolver builds a synthesis session for the application/architecture
// pair. Options normalize exactly once, here: WithWorkers sizes the
// one evaluation pool every search of the session runs on, and the
// seed defaults to 1 for every randomized path.
func NewSolver(app *Application, arch *Architecture, opts ...Option) (*Solver, error) {
	return solve.New(app, arch, opts...)
}

// WithStrategy selects the algorithm run by Solver.Synthesize.
func WithStrategy(s Strategy) Option { return solve.WithStrategy(s) }

// WithSeed seeds every randomized path: the annealing chains and the
// OR neighbourhood sampling (0 keeps the default of 1).
func WithSeed(seed int64) Option { return solve.WithSeed(seed) }

// WithSAIterations bounds each annealing chain (default 300).
func WithSAIterations(n int) Option { return solve.WithSAIterations(n) }

// WithSARestarts sets the number of independent annealing chains for
// the SAS/SAR strategies (default 1); the best-ever solution wins.
func WithSARestarts(n int) Option { return solve.WithSARestarts(n) }

// WithWorkers bounds the solver's shared evaluation pool (default 1 =
// serial). The synthesized configurations are identical for every
// value.
func WithWorkers(n int) Option { return solve.WithWorkers(n) }

// WithObserver streams progress events to obs while operations run.
func WithObserver(obs Observer) Option { return solve.WithObserver(obs) }

// WithOROptions tunes the OS/OR heuristics (iteration caps, seed
// limits, neighbour budgets). Their analyses run on the session's pool
// and analyzer; an unset RandSeed inherits WithSeed.
func WithOROptions(or opt.OROptions) Option { return solve.WithOROptions(or) }

// WithDelta toggles the incremental delta-evaluation engine (on by
// default). Synthesis results are bit-identical either way — the
// differential harness proves it — so turning it off is an escape
// hatch for benchmarking and debugging, not correctness. The CLIs
// expose this as -delta=false.
func WithDelta(on bool) Option { return solve.WithDelta(on) }
