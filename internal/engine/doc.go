// Package engine is the concurrent evaluation engine of the synthesis
// flow: a bounded worker pool that fans independent (configuration ->
// analysis) evaluations out across goroutines while keeping every result
// bit-identical to a serial run.
//
// The paper's algorithms spend almost all of their time in
// core.Analyze, and every call site evaluates *batches* of independent
// candidates: OptimizeSchedule tries slot owners and lengths (Fig. 8),
// OptimizeResources scores neighbourhood moves (Fig. 7 / §5.1), the
// simulated-annealing baselines of §6 run independent restart chains,
// and the evaluation sweeps of §6 analyze hundreds of generated
// applications. Such design-space sweeps are embarrassingly parallel
// (cf. parametric schedulability analysis, Sun et al.), so the engine
// exposes batch primitives over one pool type:
//
//   - Map: run fn(i) for i in [0, n) across the pool and return the
//     results in index order, one captured error per item;
//   - Sweep: Map over a list of self-contained jobs (whole experiments);
//   - EvaluateAll: Map over candidate configurations through an
//     Analyzer (cold core.Analyze or the incremental delta evaluator);
//   - EvaluateAllDelta: EvaluateAll over candidates derived from one
//     shared parent configuration inside the batch.
//
// The engine does not choose the pool or the Analyzer: the synthesis
// session (package solve) owns one pool and one Analyzer and passes
// both to every optimizer it runs.
//
// Determinism is the contract that makes the engine safe to drop into
// the published heuristics: callers generate the full candidate batch
// up front (fixing every random draw before the fan-out), the engine
// writes each result into its own slot, and callers reduce in index
// order. The outcome is therefore identical to the serial loop for a
// fixed seed, regardless of GOMAXPROCS or the -workers setting.
//
// Cancellation is cooperative via context.Context: once the context is
// cancelled, unstarted items complete immediately with ctx.Err() as
// their per-item error and the batch call reports the context error.
package engine
