// Package sa implements the simulated-annealing reference optimizers of
// §6: SA Schedule (SAS), tuned to minimize the degree of schedulability
// delta_Gamma, and SA Resources (SAR), tuned to minimize the total
// buffer need s_total. Both walk the same §5.1 move space as
// OptimizeResources; with long schedules their best-ever solutions serve
// as the near-optimal yardsticks of the paper's evaluation.
package sa

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/opt"
)

// Objective selects the cost function.
type Objective int

const (
	// MinimizeDelta is SAS: cost = delta_Gamma.
	MinimizeDelta Objective = iota
	// MinimizeBuffers is SAR: cost = s_total for schedulable systems,
	// with a large schedulability penalty otherwise.
	MinimizeBuffers
)

// Options tunes the annealer.
type Options struct {
	Objective Objective
	// Iterations is the total number of evaluated moves (default 300).
	Iterations int
	// InitialTemp and Cooling control the acceptance schedule
	// (defaults 1000 and 0.95; one cooling step every Epoch moves).
	InitialTemp float64
	Cooling     float64
	Epoch       int
	// Seed drives all randomness (default 1).
	Seed int64
	// MoveBudget is how many candidate moves are generated per step;
	// one is drawn at random (default 16).
	MoveBudget int
	// Restarts is the number of independent annealing chains run by
	// RunRestarts, seeded Seed, Seed+1, ... (default 1). An annealing
	// chain is inherently sequential, so restarts are the unit of
	// parallelism.
	Restarts int
	// OnProgress, when non-nil, receives one event per evaluated move.
	// With several restart chains the callback runs concurrently and
	// must be safe for concurrent use; Chain tells the events apart.
	OnProgress func(Progress)
}

// Progress is one annealing progress event.
type Progress struct {
	Chain       int
	Iteration   int
	Evaluations int
	Accepted    int
	Best        *opt.Result
}

func (o *Options) defaults() {
	if o.Iterations <= 0 {
		o.Iterations = 300
	}
	if o.InitialTemp <= 0 {
		o.InitialTemp = 1000
	}
	if o.Cooling <= 0 || o.Cooling >= 1 {
		o.Cooling = 0.95
	}
	if o.Epoch <= 0 {
		o.Epoch = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MoveBudget <= 0 {
		o.MoveBudget = 16
	}
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
}

// Result is the annealing outcome.
type Result struct {
	// Best is the best-ever configuration under the chosen objective.
	Best *opt.Result
	// Evaluations counts the analyses performed.
	Evaluations int
	// Accepted counts accepted moves (diagnostics).
	Accepted int
}

// unschedulablePenalty dominates every realistic s_total so that SAR
// never trades schedulability for buffers.
const unschedulablePenalty = 1 << 40

// cost maps an analysis to the annealing cost.
func cost(obj Objective, r *opt.Result) float64 {
	switch obj {
	case MinimizeDelta:
		return float64(r.Delta())
	default:
		if !r.Schedulable() {
			return unschedulablePenalty + float64(r.Delta())
		}
		return float64(r.STotal())
	}
}

// Run anneals from the given initial configuration, analyzing every
// step through eval. The initial configuration must be normalized and
// valid. Results and Evaluations counts do not depend on the analyzer;
// an incremental one lets successive steps share the parent's state.
//
// Cancelling ctx stops the chain at the next iteration: the returned
// Result then carries the best-ever solution found so far, together
// with ctx's error.
func Run(ctx context.Context, app *model.Application, arch *model.Architecture,
	eval engine.Analyzer, initial *core.Config, opts Options) (*Result, error) {
	return runChain(ctx, app, arch, eval, initial, opts, 0)
}

func runChain(ctx context.Context, app *model.Application, arch *model.Architecture,
	eval engine.Analyzer, initial *core.Config, opts Options, chain int) (*Result, error) {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	curA, err := eval(initial)
	if err != nil {
		return nil, err
	}
	cur := &opt.Result{Config: initial, Analysis: curA}
	best := cur
	res := &Result{Best: best, Evaluations: 1}
	temp := opts.InitialTemp
	for it := 0; it < opts.Iterations; it++ {
		if ctx.Err() != nil {
			res.Best = best
			return res, ctx.Err()
		}
		moves := opt.GenerateMoves(app, arch, cur.Config, cur.Analysis, opt.MoveBudget{Max: opts.MoveBudget, Rand: rng})
		if len(moves) == 0 {
			break
		}
		mv := moves[rng.Intn(len(moves))]
		cfg, err := mv.Apply(app, arch, cur.Config)
		if err != nil {
			continue // impossible move: try another
		}
		a, err := eval(cfg)
		if err != nil {
			continue
		}
		res.Evaluations++
		cand := &opt.Result{Config: cfg, Analysis: a}
		dc := cost(opts.Objective, cand) - cost(opts.Objective, cur)
		if dc <= 0 || rng.Float64() < math.Exp(-dc/temp) {
			cur = cand
			res.Accepted++
		}
		if cost(opts.Objective, cand) < cost(opts.Objective, best) {
			best = cand
		}
		if (it+1)%opts.Epoch == 0 {
			temp *= opts.Cooling
			if temp < 1e-6 {
				temp = 1e-6
			}
		}
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{Chain: chain, Iteration: it + 1, Evaluations: res.Evaluations, Accepted: res.Accepted, Best: best})
		}
	}
	res.Best = best
	return res, nil
}

// RunRestarts anneals opts.Restarts independent chains from the same
// initial configuration, seeded opts.Seed, opts.Seed+1, ..., across
// pool, analyzing through eval, and returns the best-ever result over
// all chains (ties broken by the lowest chain index, so the outcome is
// deterministic for every pool size). Evaluations and Accepted are
// summed over the chains.
//
// Cancelling ctx stops every chain at its next iteration; the returned
// Result aggregates the chains' best-so-far solutions and carries
// ctx's error (Best is nil only when no chain completed a single
// analysis).
func RunRestarts(ctx context.Context, app *model.Application, arch *model.Architecture,
	pool *engine.Pool, eval engine.Analyzer, initial *core.Config, opts Options) (*Result, error) {
	opts.defaults()
	if opts.Restarts == 1 {
		return Run(ctx, app, arch, eval, initial, opts)
	}
	jobs := make([]func(context.Context) (*Result, error), opts.Restarts)
	for i := range jobs {
		i := i
		chainOpts := opts
		chainOpts.Seed = opts.Seed + int64(i)
		chainOpts.Restarts = 1
		jobs[i] = func(ctx context.Context) (*Result, error) {
			return runChain(ctx, app, arch, eval, initial, chainOpts, i)
		}
	}
	chains, _ := engine.Sweep(ctx, pool, jobs)
	out := &Result{}
	for _, c := range chains {
		r := c.Value
		if c.Err != nil {
			if ctx.Err() != nil && errors.Is(c.Err, ctx.Err()) {
				if r == nil {
					continue // chain never started
				}
				// Aggregate the chain's best-so-far below.
			} else {
				return nil, c.Err
			}
		}
		out.Evaluations += r.Evaluations
		out.Accepted += r.Accepted
		if out.Best == nil || cost(opts.Objective, r.Best) < cost(opts.Objective, out.Best) {
			out.Best = r.Best
		}
	}
	return out, ctx.Err()
}

// RunSAS anneals for the degree of schedulability from the SF starting
// point (the paper's SA Schedule baseline).
func RunSAS(ctx context.Context, app *model.Application, arch *model.Architecture,
	pool *engine.Pool, eval engine.Analyzer, opts Options) (*Result, error) {
	opts.Objective = MinimizeDelta
	return runFromSF(ctx, app, arch, pool, eval, opts)
}

// RunSAR anneals for the total buffer need (the paper's SA Resources
// baseline).
func RunSAR(ctx context.Context, app *model.Application, arch *model.Architecture,
	pool *engine.Pool, eval engine.Analyzer, opts Options) (*Result, error) {
	opts.Objective = MinimizeBuffers
	return runFromSF(ctx, app, arch, pool, eval, opts)
}

func runFromSF(ctx context.Context, app *model.Application, arch *model.Architecture,
	pool *engine.Pool, eval engine.Analyzer, opts Options) (*Result, error) {
	sf, err := opt.Straightforward(app, arch, eval)
	if err != nil {
		return nil, err
	}
	res, err := RunRestarts(ctx, app, arch, pool, eval, sf.Config, opts)
	if res != nil {
		// Count the SF starting analysis even when the anneal was
		// canceled, so partial and completed runs report comparable
		// evaluation totals.
		res.Evaluations += sf.Analysis.Iterations
	}
	return res, err
}
