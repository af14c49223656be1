package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/solve"
	"repro/internal/store"
)

// Errors returned by Submit.
var (
	// ErrQueueFull rejects a submit when the bounded job queue is at
	// capacity; clients retry with backoff (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects a submit during shutdown (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrUnknownJob reports a job ID the service has never issued.
	ErrUnknownJob = errors.New("service: unknown job")
)

// errDrainCanceled is the cancel cause handed to in-flight jobs when
// the drain grace period expires; they return best-so-far results.
var errDrainCanceled = errors.New("service: drain grace period expired")

// Options tunes a Service. Zero values select the documented defaults.
type Options struct {
	// Workers bounds each Solver's evaluation pool (default
	// runtime.NumCPU()). Results are identical for every value.
	Workers int
	// JobWorkers is the number of jobs synthesized concurrently
	// (default 2).
	JobWorkers int
	// QueueDepth bounds the backlog of accepted-but-not-running jobs
	// (default 64); Submit returns ErrQueueFull beyond it.
	QueueDepth int
	// CacheSize bounds the Solver LRU (default 128 sessions).
	CacheSize int
	// Retention bounds how many terminal jobs stay pollable (default
	// 1024): beyond it the oldest-finished jobs are forgotten, so a
	// long-lived daemon's memory is bounded by its configuration, not
	// by its traffic history.
	Retention int
	// Store is the durability layer: every job state transition is
	// journaled to it before being acknowledged on the wire, finished
	// results are persisted under the request key, and New replays its
	// journal — unfinished jobs are re-enqueued, finished ones become
	// pollable again with their durable results. Nil (the default)
	// keeps today's purely in-memory behavior.
	Store store.Store
	// Clock stamps journal records and drives result TTL expiry
	// (default store.SystemClock). Tests inject a fake clock;
	// synthesis results never depend on it. The same clock feeds every
	// observability timestamp (trace spans, latency histograms), so the
	// service adds no wall-clock read of its own.
	Clock store.Clock
	// Metrics is the registry the service registers its instruments on;
	// nil (the default) disables metrics at zero cost — the nil
	// instruments compile to no-ops on the hot paths.
	Metrics *obs.Registry
	// Tracing records a per-job span tree (queue wait, solver
	// acquisition, run phases, persistence) served on
	// GET /v1/jobs/{id}/trace.
	Tracing bool
	// Logger receives structured job lifecycle logs with job, kind and
	// fingerprint attributes; nil discards them.
	Logger *slog.Logger
}

func (o *Options) normalize() {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 128
	}
	if o.Retention <= 0 {
		o.Retention = 1024
	}
}

// Service owns the job queue, the runner goroutines and the Solver
// cache. Create one with New, serve it over HTTP with NewHandler, stop
// it with Drain (graceful) or Close (immediate best-so-far).
type Service struct {
	opts    Options
	cache   *solverCache
	clock   store.Clock
	queue   chan *job
	runners sync.WaitGroup

	baseCtx    context.Context
	cancelBase context.CancelFunc

	// Observability plane: obsReg is nil when metrics are off (every
	// derived instrument is then a no-op), obsClock adapts the injected
	// store clock for trace timestamps, sseDropped is the pre-registered
	// fan-out drop counter shared by every job.
	obsReg     *obs.Registry
	obsClock   obs.Clock
	tracing    bool
	log        *slog.Logger
	sseDropped *obs.Counter

	storeErrs atomic.Int64 // non-fatal journal/result-store write failures

	mu       sync.Mutex
	st       store.Store // nil = in-memory only; tests clear it to simulate a crash
	jobs     map[string]*job
	terminal []string // finished job IDs, oldest first, for retention
	nextID   int
	draining bool
	replayed int // jobs reconstructed from the journal at startup
	requeued int // replayed jobs that were re-enqueued to run again
}

// New starts a Service: JobWorkers runner goroutines draw from the
// bounded queue until Drain/Close. With a Store configured, New first
// replays the journal: terminal jobs become pollable again (done
// results load from the persistent result store), unfinished jobs are
// re-enqueued ahead of new traffic, and the journal is compacted down
// to the surviving state before the runners start.
func New(opts Options) *Service {
	opts.normalize()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		opts:       opts,
		cache:      newSolverCache(opts.CacheSize),
		clock:      opts.Clock,
		st:         opts.Store,
		baseCtx:    ctx,
		cancelBase: cancel,
		jobs:       make(map[string]*job),
	}
	if s.clock == nil {
		s.clock = store.SystemClock()
	}
	// Observability timestamps ride the same injected clock as the
	// journal, so enabling metrics or tracing introduces no new
	// wall-clock read site.
	s.obsReg = opts.Metrics
	s.obsClock = obs.ClockFunc(s.clock.Now)
	s.tracing = opts.Tracing
	s.log = opts.Logger
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	pending := s.restore()
	depth := opts.QueueDepth
	if len(pending) > depth {
		depth = len(pending) // every replayed job must be accepted back
	}
	s.queue = make(chan *job, depth)
	for _, j := range pending {
		s.queue <- j
	}
	if s.st != nil {
		if _, rep := s.st.Replay(); rep.Records > 0 || rep.Segments > 1 || len(rep.Torn) > 0 {
			s.compact() // rewrite replayed history down to live state
		}
	}
	if s.replayed > 0 {
		s.log.Info("journal replayed", "jobs", s.replayed, "requeued", s.requeued)
	}
	s.registerMetrics()
	s.runners.Add(opts.JobWorkers)
	for i := 0; i < opts.JobWorkers; i++ {
		// Job runners are the service's long-lived queue consumers, not
		// per-request fan-out; the per-job parallelism inside a runner
		// rides engine.Pool via the Solver sessions.
		//mcs:allow poolonly long-lived job-queue runners; per-job fan-out rides engine.Pool inside the Solver
		go func() {
			defer s.runners.Done()
			for j := range s.queue {
				s.run(j)
			}
		}()
	}
	return s
}

// job is the service-side state of one asynchronous request (a
// synthesis or an exploration, per kind).
type job struct {
	id          string
	kind        JobKind
	req         SynthesisRequest
	exploreReq  ExploreRequest
	strategy    solve.Strategy
	fingerprint string
	// strategyName is the display name of strategy; replayed terminal
	// jobs only have the name (the typed strategy died with the request).
	strategyName string
	// key is the persistent result cache key (fingerprint + option
	// digest); rawReq is the journaled wire request, kept until the job
	// is terminal so compaction can re-emit it.
	key    string
	rawReq json.RawMessage

	ctx    context.Context
	cancel context.CancelCauseFunc

	// Observability state, written before the job is visible to runners
	// (enqueue) or under mu (startedAt): trace/queueSpan are nil unless
	// tracing is on, sseDropped is nil unless metrics are on — nil
	// instruments are no-ops, so publish and run never branch on
	// configuration. enqueuedAt/startedAt feed the latency histograms
	// from the injected clock; replayed jobs carry zero times and are
	// skipped.
	trace      *obs.Trace
	queueSpan  *obs.Span
	sseDropped *obs.Counter
	enqueuedAt time.Time
	startedAt  time.Time

	mu       sync.Mutex
	state    JobState
	errMsg   string
	events   []ProgressEvent
	subs     map[chan ProgressEvent]struct{}
	result   *JobResult
	progress *ProgressEvent
	done     chan struct{}
	// final is the decided terminal outcome, set once by the claim in
	// terminate. state, errMsg and result above are the visible copy,
	// written only when the outcome is published.
	final *outcome
}

// outcome is a job's decided terminal state. It stays private to the
// service until its commit is durable, then terminate publishes it.
type outcome struct {
	state  JobState
	errMsg string
	result *JobResult
	// recorded is set under j.mu once the result is persisted, just
	// before the finish record is appended. From then on compaction
	// snapshots the job as finished; before it, as a live full submit,
	// so a crash re-runs the job rather than replaying a done job whose
	// result was never written.
	recorded bool
}

// Submit validates and enqueues an asynchronous synthesis job. The
// request's system is finalized in place; the job is rejected when the
// service is draining or the queue is full.
func (s *Service) Submit(req SynthesisRequest) (*SubmitResponse, error) {
	strat, fp, err := req.normalize()
	if err != nil {
		return nil, err
	}
	j := &job{
		kind:         KindSynthesize,
		req:          req,
		strategy:     strat,
		strategyName: strat.String(),
		fingerprint:  fp,
		key:          req.key(strat, fp),
	}
	if err := s.encodeRequest(j, &req); err != nil {
		return nil, err
	}
	return s.enqueue(j)
}

// SubmitExplore validates and enqueues an asynchronous design-space
// exploration job. It shares Submit's queue, backpressure, Solver
// cache and lifecycle; only the executed operation (Solver.Explore)
// and the result shape (a Pareto front) differ.
func (s *Service) SubmitExplore(req ExploreRequest) (*SubmitResponse, error) {
	fp, err := req.normalize()
	if err != nil {
		return nil, err
	}
	j := &job{
		kind:         KindExplore,
		exploreReq:   req,
		strategy:     solve.Explore,
		strategyName: solve.Explore.String(),
		fingerprint:  fp,
		key:          req.key(fp),
	}
	if err := s.encodeRequest(j, &req); err != nil {
		return nil, err
	}
	return s.enqueue(j)
}

// encodeRequest captures the wire request for the journal. Only needed
// with a store: the encoding is what a crash-restarted service decodes
// to re-run the job.
func (s *Service) encodeRequest(j *job, req any) error {
	if s.storeRef() == nil {
		return nil
	}
	raw, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("service: encoding request for the journal: %w", err)
	}
	j.rawReq = raw
	return nil
}

// enqueue assigns an ID and a context to a validated job, journals the
// submission, and offers it to the bounded queue under the intake
// lock. The journal append happens after the capacity check but before
// the acknowledgement: a rejected job leaves no record, an accepted
// one is durable before its 202 exists.
func (s *Service) enqueue(j *job) (*SubmitResponse, error) {
	j.state = StateQueued
	j.subs = make(map[chan ProgressEvent]struct{})
	j.done = make(chan struct{})

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.nextID++
	j.id = fmt.Sprintf("j%06d-%s", s.nextID, j.fingerprint[:8])
	j.ctx, j.cancel = context.WithCancelCause(s.baseCtx)
	// Every send happens under s.mu and runners only drain, so a
	// length check cannot race another producer.
	if len(s.queue) == cap(s.queue) {
		j.cancel(ErrQueueFull) // release the context before rejecting
		return nil, ErrQueueFull
	}
	if err := s.appendRecord(s.st, store.Record{
		Op:          store.OpSubmit,
		Job:         j.id,
		Kind:        string(j.kind),
		Fingerprint: j.fingerprint,
		Key:         j.key,
		Strategy:    j.strategyName,
		Request:     j.rawReq,
	}); err != nil {
		j.cancel(err)
		return nil, fmt.Errorf("service: journaling submit: %w", err)
	}
	// Observability fields must be in place before the queue send: a
	// runner may claim the job the instant it lands.
	j.enqueuedAt = s.clock.Now()
	j.sseDropped = s.sseDropped
	s.startTrace(j)
	s.queue <- j
	s.jobs[j.id] = j
	s.log.Info("job accepted",
		"job", j.id, "kind", string(j.kind), "fingerprint", j.fingerprint, "strategy", j.strategyName)
	return &SubmitResponse{
		ID:          j.id,
		Kind:        j.kind,
		Fingerprint: j.fingerprint,
		StatusURL:   "/v1/jobs/" + j.id,
		EventsURL:   "/v1/jobs/" + j.id + "/events",
	}, nil
}

// run executes one job on a cached (or freshly built) Solver session.
func (s *Service) run(j *job) {
	j.mu.Lock()
	if j.final != nil { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.startedAt = s.clock.Now()
	sys := j.req.System
	if j.kind == KindExplore {
		sys = j.exploreReq.System
	}
	j.mu.Unlock()

	s.jobStarted(j)
	st := s.storeRef()
	s.appendRecord(st, store.Record{Op: store.OpStart, Job: j.id})
	// Idempotent execution: an identical request that already finished
	// — a duplicate client submission, or this very job replayed after
	// a crash that hit between its completion and the finish record —
	// is served from the persistent result store, byte-identical to
	// the cold run that produced it.
	acquire := j.trace.Root().Start("solver")
	if st != nil && j.key != "" {
		if data, ok := st.GetResult(j.key); ok {
			var res JobResult
			if err := json.Unmarshal(data, &res); err == nil {
				res.PersistentHit = true
				acquire.SetAttr("source", "persistent")
				acquire.End()
				s.terminate(j, StateRunning, &res, nil)
				return
			}
		}
	}

	base, hit, err := s.cache.getOrCreate(j.fingerprint, func() (*solve.Solver, error) {
		return solve.New(sys.Application, sys.Architecture,
			solve.WithWorkers(s.opts.Workers))
	})
	if err != nil {
		acquire.End()
		s.terminate(j, StateRunning, nil, err)
		return
	}
	if hit {
		acquire.SetAttr("source", "lru")
	} else {
		acquire.SetAttr("source", "build")
	}
	acquire.End()
	// One base session per system serves every option variant and both
	// job kinds: Derive re-normalizes the request options from scratch
	// while sharing the seed-independent caches, so a whole
	// seed/strategy/exploration sweep over one system rides a single
	// cache entry. The phase tracker forwards progress to the fan-out
	// and times the run phases at this (non-deterministic-layer)
	// boundary.
	tracker := &phaseTracker{svc: s, job: j, span: j.trace.Root().Start("run")}
	observe := tracker.observer()
	var result *JobResult
	switch j.kind {
	case KindExplore:
		session := base.Derive(solve.WithWorkers(s.opts.Workers), observe)
		var res *dse.Result
		res, err = session.Explore(j.ctx, j.exploreReq.dseOptions()...)
		result, err = exploreResult(res, err, hit)
	default:
		session := base.Derive(append(j.req.solverOptions(j.strategy, s.opts.Workers), observe)...)
		var res *solve.Result
		res, err = session.Synthesize(j.ctx)
		result, err = synthesisResult(res, err, hit)
	}
	tracker.close()
	tracker.span.End()
	s.terminate(j, StateRunning, result, err)
}

// errCanceledQueued ends a job canceled before a runner claimed it.
var errCanceledQueued = errors.New("canceled before running")

// terminate is the one terminal transition of a job, whichever path
// ends it: the run finished, failed or was canceled, a persistent-store
// hit, a cancel while queued, or a replayed request that no longer
// decodes. It claims the job only while the job is still in state from
// and no one else has claimed it, and reports whether it did.
//
// It commits first: a full done result is persisted (a canceled job's
// best-so-far is not byte-identical to a cold run and must never be
// served as one), then the finish record is journaled, the trace
// closes, and the terminal is counted and logged. The result is stored
// before the finish record, so a crash between the two re-runs (or
// persistent-hits) the job instead of leaving a done job with no
// loadable result. It publishes last (settle), so an observer woken by
// Done, a closed Subscribe channel or a terminal Status always finds
// the commit complete. Retirement follows.
func (s *Service) terminate(j *job, from JobState, result *JobResult, err error) bool {
	out := j.claim(from, result, err)
	if out == nil {
		return false
	}
	if st := s.storeRef(); st != nil {
		persist := j.trace.Root().Start("persist")
		if res := out.result; out.state == StateDone && res != nil && !res.Partial && !res.PersistentHit && j.key != "" {
			if blob, encErr := canonicalResult(res); encErr != nil {
				s.storeErrs.Add(1)
				s.log.Warn("result encoding failed", "job", j.id, "error", encErr)
			} else if putErr := st.PutResult(j.key, blob); putErr != nil {
				s.storeErrs.Add(1)
				s.log.Warn("result persist failed", "job", j.id, "error", putErr)
			}
		}
		j.mu.Lock()
		out.recorded = true
		j.mu.Unlock()
		s.appendRecord(st, store.Record{
			Op:    store.OpFinish,
			Job:   j.id,
			Key:   j.key,
			State: string(out.state),
			Error: out.errMsg,
		})
		persist.End()
	}

	j.trace.End() // ends any still-open spans
	var dur time.Duration
	if !j.startedAt.IsZero() {
		dur = s.clock.Now().Sub(j.startedAt)
	}
	if r := s.obsReg; r != nil {
		r.Counter("mcs_jobs_total", "Terminal job transitions by kind and state.",
			obs.L("kind", string(j.kind)), obs.L("state", string(out.state))).Inc()
		if !j.startedAt.IsZero() {
			s.obsHist("mcs_job_duration_seconds", "Running time of finished jobs.",
				obs.L("kind", string(j.kind))).Observe(dur.Seconds())
		}
	}
	log := s.log.Info
	if out.state == StateFailed {
		log = s.log.Warn
	}
	log("job finished",
		"job", j.id, "kind", string(j.kind), "fingerprint", j.fingerprint,
		"state", string(out.state), "duration", dur, "error", out.errMsg)

	j.settle()
	s.retire(j)
	return true
}

// claim decides the job's outcome under j.mu. Exactly one caller gets
// it, and only while the job is still in state from: the runner claims
// from running, Cancel and replay from queued. A non-nil result
// arriving with an error is a best-so-far outcome and is marked
// Partial.
func (j *job) claim(from JobState, result *JobResult, err error) *outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.final != nil || j.state != from {
		return nil
	}
	out := &outcome{result: result}
	if result != nil {
		result.Partial = err != nil
	}
	switch {
	case err == nil:
		out.state = StateDone
	case errors.Is(err, context.Canceled) || errors.Is(err, errCanceledQueued):
		// Only genuine cancellations (client cancel or drain) land
		// here; a real failure racing the drain deadline stays failed.
		out.state = StateCanceled
		out.errMsg = cancelMessage(j.ctx, err)
	default:
		out.state = StateFailed
		out.errMsg = err.Error()
	}
	j.final = out
	return out
}

// settle publishes the decided outcome: the visible state, result and
// error flip, every subscriber channel and done close, and the job
// context is released. It is the only place any of them happens.
func (j *job) settle() {
	j.mu.Lock()
	out := j.final
	j.state, j.errMsg, j.result = out.state, out.errMsg, out.result
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	close(j.done)
	j.mu.Unlock()
	j.cancel(nil)
}

// canonicalResult encodes a result for the persistent store with the
// per-run flags cleared, so cached serves do not depend on how the
// first run happened to execute (Solver-LRU hit or not).
func canonicalResult(res *JobResult) ([]byte, error) {
	c := *res
	c.CacheHit = false
	c.PersistentHit = false
	return json.Marshal(&c)
}

// synthesisResult projects a synthesis outcome onto the wire result; a
// result encoding failure surfaces as the job error when the run
// itself succeeded.
func synthesisResult(res *solve.Result, err error, cacheHit bool) (*JobResult, error) {
	if res == nil || res.Config == nil {
		return nil, err
	}
	cfgJSON, encErr := encodeConfig(res.Config)
	if encErr != nil && err == nil {
		err = encErr
	}
	return &JobResult{
		Config:      cfgJSON,
		Analysis:    summarize(res.Analysis),
		Evaluations: res.Evaluations,
		CacheHit:    cacheHit,
	}, err
}

// exploreResult projects an exploration outcome (possibly a canceled
// job's best-so-far front) onto the wire result.
func exploreResult(res *dse.Result, err error, cacheHit bool) (*JobResult, error) {
	if res == nil || len(res.Front) == 0 {
		return nil, err
	}
	front, encErr := summarizeFront(res.Front)
	if encErr != nil && err == nil {
		err = encErr
	}
	return &JobResult{
		Front:       front,
		Hypervolume: res.Hypervolume,
		Evaluations: res.Evaluations,
		CacheHit:    cacheHit,
	}, err
}

// retire frees a terminal job's request payload (the decoded system is
// the bulk of its footprint; the Solver cache keeps its own reference)
// and applies the retention bound. With a store, it also triggers
// journal compaction once the segment count reaches its bound, so the
// journal footprint tracks live state rather than traffic history.
func (s *Service) retire(j *job) {
	j.mu.Lock()
	j.req = SynthesisRequest{}
	j.exploreReq = ExploreRequest{}
	j.rawReq = nil // terminal jobs compact to slim records; the payload is dead weight
	j.mu.Unlock()
	s.retain(j.id)
	if st := s.storeRef(); st != nil && st.Stats().Segments >= compactAtSegments {
		s.compact()
	}
}

// retain records a terminal job and forgets the oldest-finished jobs
// beyond the retention bound. Live terminations and journal replay
// share it.
func (s *Service) retain(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.terminal = append(s.terminal, id)
	for len(s.terminal) > s.opts.Retention {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
}

// publish fans a progress event out to the job's subscribers. Sends are
// non-blocking: a slow subscriber misses events (the Seq field reveals
// the gap) rather than stalling the synthesis.
func (j *job) publish(p solve.Progress) {
	ev := ProgressEvent{
		Strategy:    p.Strategy.String(),
		Phase:       p.Phase,
		Chain:       p.Chain,
		Step:        p.Step,
		Evaluations: p.Evaluations,
		BestDelta:   p.BestDelta,
		BestBuffers: p.BestBuffers,
		Schedulable: p.Schedulable,
		FrontSize:   p.FrontSize,
		Hypervolume: p.Hypervolume,
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.final != nil {
		return
	}
	ev.Seq = len(j.events) + 1
	j.events = append(j.events, ev)
	j.progress = &ev
	//mcs:allow maporder every subscriber receives the same event and channels are independent, so delivery order across subscribers cannot affect any output
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
			j.sseDropped.Inc() // the subscriber sees the gap via Seq
		}
	}
}

// cancelMessage prefers the cancellation cause (client cancel vs drain)
// over the bare context error.
func cancelMessage(ctx context.Context, err error) string {
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
		return cause.Error()
	}
	return err.Error()
}

// Status returns the polling view of a job.
func (s *Service) Status(id string) (*JobStatus, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	name := j.strategyName
	if name == "" {
		name = j.strategy.String()
	}
	st := &JobStatus{
		ID:          j.id,
		Kind:        j.kind,
		State:       j.state,
		Fingerprint: j.fingerprint,
		Strategy:    name,
		Progress:    j.progress,
		Result:      j.result,
		Error:       j.errMsg,
	}
	return st, nil
}

// Subscribe returns a channel of the job's progress events: the history
// so far is replayed first, live events follow, and the channel closes
// when the job reaches a terminal state. The returned cancel function
// detaches the subscriber early.
func (s *Service) Subscribe(id string) (<-chan ProgressEvent, func(), error) {
	j, err := s.job(id)
	if err != nil {
		return nil, nil, err
	}
	j.mu.Lock()
	// Size for the whole history plus a live tail; live sends beyond
	// the buffer are dropped, not blocked on.
	ch := make(chan ProgressEvent, len(j.events)+256)
	for _, ev := range j.events {
		ch <- ev
	}
	if j.state.Terminal() {
		close(ch)
		j.mu.Unlock()
		return ch, func() {}, nil
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()

	unsubscribe := func() {
		j.mu.Lock()
		if _, live := j.subs[ch]; live {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
	return ch, unsubscribe, nil
}

// Done returns a channel closed when the job reaches a terminal state.
func (s *Service) Done(id string) (<-chan struct{}, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, err
	}
	return j.done, nil
}

// Cancel cancels a job: queued jobs terminate immediately, running jobs
// stop at the next evaluation granule and keep their best-so-far
// configuration.
func (s *Service) Cancel(id string) error {
	j, err := s.job(id)
	if err != nil {
		return err
	}
	// The queued claim fails once a runner has started the job; the
	// running path below takes over then.
	if s.terminate(j, StateQueued, nil, errCanceledQueued) {
		return nil
	}
	j.mu.Lock()
	decided := j.final != nil
	j.mu.Unlock()
	if !decided {
		// Journal the cancellation intent before delivering it: if the
		// process dies before the job winds down, replay resolves the
		// job to canceled instead of re-running work nobody wants.
		s.appendRecord(s.storeRef(), store.Record{Op: store.OpCancel, Job: j.id})
		s.log.Info("job cancel requested", "job", j.id, "kind", string(j.kind))
	}
	j.cancel(context.Canceled)
	return nil
}

func (s *Service) job(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Analyze runs a synchronous batch analysis on a cached Solver session.
// Per-configuration decode and analysis failures land in the matching
// outcome; the call fails only for an invalid system or a canceled ctx.
func (s *Service) Analyze(ctx context.Context, req AnalysisRequest) (*AnalysisResponse, error) {
	sreq := SynthesisRequest{System: req.System}
	_, fp, err := sreq.normalize()
	if err != nil {
		return nil, err
	}
	solver, hit, err := s.cache.getOrCreate(fp, func() (*solve.Solver, error) {
		return solve.New(req.System.Application, req.System.Architecture, solve.WithWorkers(s.opts.Workers))
	})
	if err != nil {
		return nil, err
	}
	app, arch := solver.Application(), solver.Architecture()

	resp := &AnalysisResponse{Fingerprint: fp, CacheHit: hit}
	if len(req.Configs) == 0 {
		r, err := solver.Straightforward(ctx)
		if err != nil {
			return nil, err
		}
		resp.Results = []AnalysisOutcome{{Analysis: summarize(r.Analysis)}}
		return resp, nil
	}

	resp.Results = make([]AnalysisOutcome, len(req.Configs))
	var cfgs []*core.Config
	var idx []int
	for i, raw := range req.Configs {
		cfg, err := core.LoadConfig(bytes.NewReader(raw), app, arch)
		if err != nil {
			resp.Results[i].Error = err.Error()
			continue
		}
		cfgs = append(cfgs, cfg)
		idx = append(idx, i)
	}
	evals, err := solver.AnalyzeAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	for k, ev := range evals {
		if ev.Err != nil {
			resp.Results[idx[k]].Error = ev.Err.Error()
			continue
		}
		resp.Results[idx[k]].Analysis = summarize(ev.Analysis)
	}
	return resp, nil
}

// Drain gracefully shuts the service down: intake stops (Submit returns
// ErrDraining), queued and running jobs are given until ctx expires to
// finish, then the stragglers are canceled so they terminate with their
// best-so-far configurations. Drain returns once every runner has
// exited; it is safe to call more than once.
func (s *Service) Drain(ctx context.Context) {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	if first {
		close(s.queue) // Submit sends under s.mu with draining false, so this cannot race
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	//mcs:allow poolonly drain bridges the runners WaitGroup into a select against the grace ctx
	go func() {
		s.runners.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		s.cancelJobs(errDrainCanceled)
		<-finished
	}
	if first {
		s.cancelJobs(errDrainCanceled) // flush jobs canceled while queued
		s.cancelBase()
	}
}

// cancelJobs cancels every non-terminal job with the given cause.
func (s *Service) cancelJobs(cause error) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, id := range slices.Sorted(maps.Keys(s.jobs)) {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		decided := j.final != nil
		j.mu.Unlock()
		if !decided {
			j.cancel(cause)
		}
	}
}

// Close shuts down immediately: like Drain with an expired grace
// period, so in-flight jobs return best-so-far results.
func (s *Service) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
}

// Stats is a point-in-time snapshot for health endpoints.
type Stats struct {
	Jobs        map[JobState]int `json:"jobs"`
	CacheHits   int              `json:"cacheHits"`
	CacheMisses int              `json:"cacheMisses"`
	CacheSize   int              `json:"cacheSize"`
	Draining    bool             `json:"draining"`
	// Store reports the durability layer's counters; nil when the
	// service runs purely in memory.
	Store *StoreStats `json:"store,omitempty"`
}

// StoreStats merges the store's own counters with the service-level
// replay outcome for /healthz.
type StoreStats struct {
	store.Stats
	// ReplayedJobs counts jobs reconstructed from the journal at
	// startup; RequeuedJobs of those were unfinished and re-enqueued.
	ReplayedJobs int `json:"replayedJobs"`
	RequeuedJobs int `json:"requeuedJobs"`
	// Errors counts non-fatal store write failures since startup.
	Errors int64 `json:"errors,omitempty"`
}

// Stats snapshots the job, cache and durability counters.
func (s *Service) Stats() Stats {
	st := Stats{Jobs: make(map[JobState]int)}
	st.CacheHits, st.CacheMisses, st.CacheSize = s.cache.stats()
	s.mu.Lock()
	st.Draining = s.draining
	dst, replayed, requeued := s.st, s.replayed, s.requeued
	jobs := make([]*job, 0, len(s.jobs))
	for _, id := range slices.Sorted(maps.Keys(s.jobs)) {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		st.Jobs[j.state]++
		j.mu.Unlock()
	}
	if dst != nil {
		st.Store = &StoreStats{
			Stats:        dst.Stats(),
			ReplayedJobs: replayed,
			RequeuedJobs: requeued,
			Errors:       s.storeErrs.Load(),
		}
	}
	return st
}
