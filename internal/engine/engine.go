package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Pool bounds the concurrency of the batch primitives. The zero value
// and New(0) size the pool to runtime.NumCPU(); New(1) runs batches
// serially on the calling goroutine. The optimizers never build a pool
// of their own: the synthesis session (package solve) sizes one from
// its Workers option and hands it to every search it runs.
type Pool struct {
	workers int
}

// New returns a pool running at most workers evaluations concurrently.
// workers <= 0 selects runtime.NumCPU().
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers}
}

// Serial returns a single-worker pool: batches run on the calling
// goroutine in index order, with no goroutines spawned.
func Serial() *Pool { return &Pool{workers: 1} }

// Workers reports the concurrency bound.
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return runtime.NumCPU()
	}
	return p.workers
}

// Result is one item of a batch: the value produced for Index, or the
// error that item ran into. Items never fail the whole batch — callers
// decide per item, in index order.
type Result[T any] struct {
	Index int
	Value T
	Err   error
}

// FirstError returns the error of the lowest-indexed failed item, which
// is the error a serial loop aborting on first failure would have seen.
func FirstError[T any](results []Result[T]) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}

// Map runs fn(ctx, i) for every i in [0, n) with at most p.Workers()
// concurrent calls and returns the n results in index order. Each
// item's error is captured in its Result; the returned error is non-nil
// only when ctx was cancelled, in which case items that never started
// carry ctx.Err().
//
// fn must be safe for concurrent invocation and must not depend on the
// completion of other indices; under those conditions the returned
// slice is identical to a serial loop's, regardless of the worker
// count.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]Result[T], error) {
	out := make([]Result[T], n)
	for i := range out {
		out[i].Index = i
	}
	if n == 0 {
		return out, ctx.Err()
	}
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	observeBatch(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				for ; i < n; i++ {
					out[i].Err = err
				}
				return out, err
			}
			out[i].Value, out[i].Err = fn(ctx, i)
		}
		return out, ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					out[i].Err = err
					continue
				}
				out[i].Value, out[i].Err = fn(ctx, i)
			}
		}()
	}
	wg.Wait()
	return out, ctx.Err()
}

// Sweep runs a list of self-contained jobs — typically whole experiment
// cells, each generating and synthesizing its own system — across the
// pool, returning their results in job order.
func Sweep[T any](ctx context.Context, p *Pool, jobs []func(ctx context.Context) (T, error)) ([]Result[T], error) {
	return Map(ctx, p, len(jobs), func(ctx context.Context, i int) (T, error) {
		return jobs[i](ctx)
	})
}

// Evaluation couples one candidate configuration with its analysis (or
// the analysis error).
type Evaluation struct {
	Config   *core.Config
	Analysis *core.Analysis
	Err      error
}

// Schedulable reports the analysis verdict (false when the analysis
// failed).
func (e *Evaluation) Schedulable() bool { return e.Err == nil && e.Analysis.Schedulable }

// Analyzer evaluates one configuration (application and architecture
// are captured by the closure). core.Analyze partially applied is the
// cold implementation; delta.(*Evaluator).Analyze is the incremental
// one. The synthesis session picks which one every search runs on.
// Analyzers must be safe for concurrent use and must return identical
// results for identical configurations, so batches stay worker-count
// independent.
type Analyzer func(cfg *core.Config) (*core.Analysis, error)

// EvaluateAll analyzes every candidate configuration through az across
// the pool and returns the evaluations in candidate order. Each
// configuration must be an independent value (as produced by
// Config.Clone or Move.Apply).
func EvaluateAll(ctx context.Context, p *Pool, az Analyzer, cfgs []*core.Config) ([]Evaluation, error) {
	results, err := Map(ctx, p, len(cfgs), func(_ context.Context, i int) (*core.Analysis, error) {
		return az(cfgs[i])
	})
	out := make([]Evaluation, len(cfgs))
	for i, r := range results {
		out[i] = Evaluation{Config: cfgs[i], Analysis: r.Value, Err: r.Err}
	}
	return out, err
}

// EvaluateAllDelta is the batch API of the incremental evaluator: n
// candidates, each derived from the shared parent configuration by the
// derive callback (typically applying one typed opt.Move), are analyzed
// across the pool in index order. A derivation error (a structurally
// impossible move) is captured in that item's Evaluation with a nil
// Config, never failing the batch; callers skip those items exactly
// like a serial loop would. derive must be pure: it runs concurrently
// and must not mutate parent.
func EvaluateAllDelta(ctx context.Context, p *Pool, az Analyzer, parent *core.Config, n int,
	derive func(i int, parent *core.Config) (*core.Config, error)) ([]Evaluation, error) {
	out := make([]Evaluation, n)
	results, err := Map(ctx, p, n, func(_ context.Context, i int) (*core.Analysis, error) {
		cfg, derr := derive(i, parent)
		if derr != nil {
			return nil, derr
		}
		out[i].Config = cfg
		return az(cfg)
	})
	for i, r := range results {
		out[i].Analysis, out[i].Err = r.Value, r.Err
	}
	return out, err
}
