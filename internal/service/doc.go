// Package service is the serving layer of the reproduction: it wraps
// the Solver session API (package solve) in a wire-level
// request/response surface so the paper's synthesis loop can run behind
// a network daemon instead of in-process struct literals.
//
// Three pieces compose:
//
//   - Wire messages (wire.go): SynthesisRequest, AnalysisRequest,
//     JobStatus, JobResult and ProgressEvent are plain JSON structs
//     whose payloads reuse the repository's existing stable encodings —
//     systems travel in the model.System JSON written by SaveSystem,
//     configurations in the core.Config.Save encoding.
//
//   - A Solver cache (cache.go): Solvers are cached in an LRU keyed by
//     the canonical System.Fingerprint content hash plus the normalized
//     solver options. Because a Solver caches only seed-independent
//     derived state, a cache hit produces configurations bit-identical
//     to a cold Solver (asserted by tests); the hit merely serves
//     analyses its incremental evaluator has already computed.
//
//   - A bounded job queue (service.go): Submit enqueues an asynchronous
//     synthesis job (rejecting when the queue is full), runner
//     goroutines execute jobs on cached Solvers with a per-job
//     context, and every job streams Observer progress events to any
//     number of subscribers. Drain stops intake, lets in-flight jobs
//     finish within a grace period, then cancels them so they return
//     their best-so-far configurations — nothing finished is lost.
//
// http.go exposes the whole surface over HTTP (submit/poll/SSE/batch
// analyze); cmd/mcs-serve is the daemon around it and the root facade
// re-exports the types plus NewService for embedding.
package service
