package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/solve"
)

// testSystem generates a fresh small two-cluster system. Distinct calls
// with the same seed return distinct pointers with identical content —
// exactly what a service sees when two clients submit the same system.
func testSystem(t testing.TB, seed int64) *model.System {
	t.Helper()
	sys, err := gen.Generate(gen.Spec{Seed: seed, TTNodes: 1, ETNodes: 1, ProcsPerNode: 6, ProcsPerGraph: 6})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// waitDone blocks until the job is terminal and returns its status.
func waitDone(t testing.TB, s *Service, id string) *JobStatus {
	t.Helper()
	done, err := s.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestConcurrentJobsWithProgress is the serving half of the acceptance
// criteria: several synthesize jobs run concurrently, every job streams
// progress to its subscriber, and every result decodes into a valid
// configuration.
func TestConcurrentJobsWithProgress(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 3, QueueDepth: 16})
	defer s.Close()

	type sub struct {
		id  string
		ch  <-chan ProgressEvent
		sys *model.System
	}
	var subs []sub
	for i := 0; i < 6; i++ {
		sys := testSystem(t, int64(i%3)+1)
		resp, err := s.Submit(SynthesisRequest{System: sys, Strategy: "or"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ch, _, err := s.Subscribe(resp.ID)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{id: resp.ID, ch: ch, sys: sys})
	}
	for _, sb := range subs {
		st := waitDone(t, s, sb.id)
		if st.State != StateDone {
			t.Fatalf("job %s: state %s (error %q)", sb.id, st.State, st.Error)
		}
		if st.Result == nil || len(st.Result.Config) == 0 {
			t.Fatalf("job %s: no result config", sb.id)
		}
		cfg, err := core.LoadConfig(bytes.NewReader(st.Result.Config), sb.sys.Application, sb.sys.Architecture)
		if err != nil {
			t.Fatalf("job %s: result config does not decode: %v", sb.id, err)
		}
		if cfg == nil {
			t.Fatalf("job %s: nil config", sb.id)
		}
		var events []ProgressEvent
		for ev := range sb.ch {
			events = append(events, ev)
		}
		if len(events) == 0 {
			t.Errorf("job %s: subscriber saw no progress events", sb.id)
		}
		for k := 1; k < len(events); k++ {
			if events[k].Seq <= events[k-1].Seq {
				t.Errorf("job %s: event seq not increasing: %d after %d", sb.id, events[k].Seq, events[k-1].Seq)
			}
		}
	}
}

// TestCacheHitBitIdentical is the cache half of the acceptance
// criteria: a second submission of the same system (a distinct decoded
// instance) must hit the Solver cache and return a configuration
// bit-identical to both the cold job and a direct cold Solver run.
func TestCacheHitBitIdentical(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1})
	defer s.Close()

	req := func() SynthesisRequest {
		return SynthesisRequest{System: testSystem(t, 2), Strategy: "or", Seed: 7}
	}
	r1, err := s.Submit(req())
	if err != nil {
		t.Fatal(err)
	}
	cold := waitDone(t, s, r1.ID)
	if cold.State != StateDone {
		t.Fatalf("cold job: state %s (error %q)", cold.State, cold.Error)
	}
	if cold.Result.CacheHit {
		t.Fatal("first job reported a cache hit")
	}

	r2, err := s.Submit(req())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Fingerprint != r1.Fingerprint {
		t.Fatalf("fingerprints differ for identical systems: %s vs %s", r1.Fingerprint, r2.Fingerprint)
	}
	hit := waitDone(t, s, r2.ID)
	if hit.State != StateDone {
		t.Fatalf("cached job: state %s (error %q)", hit.State, hit.Error)
	}
	if !hit.Result.CacheHit {
		t.Fatal("second identical job missed the cache")
	}
	if !bytes.Equal(cold.Result.Config, hit.Result.Config) {
		t.Error("cache-hit config is not bit-identical to the cold job's")
	}
	if !reflect.DeepEqual(cold.Result.Analysis, hit.Result.Analysis) {
		t.Error("cache-hit analysis differs from the cold job's")
	}
	if cold.Result.Evaluations != hit.Result.Evaluations {
		t.Errorf("evaluation counts differ: cold %d, cached %d", cold.Result.Evaluations, hit.Result.Evaluations)
	}

	// A direct cold Solver run outside the service must agree too.
	sys := testSystem(t, 2)
	solver, err := solve.New(sys.Application, sys.Architecture,
		solve.WithStrategy(solve.OptimizeResources), solve.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Synthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := encodeConfig(res.Config)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, cold.Result.Config) {
		t.Error("service config is not bit-identical to a direct Solver run")
	}

	// Option variants of the same system share the cache entry: a
	// different strategy and seed still hit, since jobs derive their
	// sessions from the fingerprint-keyed base Solver.
	r3, err := s.Submit(SynthesisRequest{System: testSystem(t, 2), Strategy: "sas", Seed: 9, SAIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	variant := waitDone(t, s, r3.ID)
	if variant.State != StateDone {
		t.Fatalf("variant job: state %s (error %q)", variant.State, variant.Error)
	}
	if !variant.Result.CacheHit {
		t.Error("option variant of a cached system missed the cache")
	}
}

// TestDrainReturnsBestSoFar is the shutdown half of the acceptance
// criteria: draining with an expired grace period cancels an in-flight
// annealing job, which terminates with its best-so-far configuration
// instead of losing finished work.
func TestDrainReturnsBestSoFar(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1})
	// An annealing budget far beyond what the test allows to complete:
	// without cancellation this would run for minutes.
	resp, err := s.Submit(SynthesisRequest{System: testSystem(t, 3), Strategy: "sas", SAIterations: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	ch, unsubscribe, err := s.Subscribe(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch: // the job is provably mid-synthesis
	case <-time.After(30 * time.Second):
		t.Fatal("no progress event before drain")
	}
	unsubscribe()

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(expired)

	st, err := s.Status(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("drained job state %s, want %s (error %q)", st.State, StateCanceled, st.Error)
	}
	if st.Result == nil || len(st.Result.Config) == 0 {
		t.Fatal("drained job lost its best-so-far configuration")
	}
	if !st.Result.Partial {
		t.Error("drained job result not marked partial")
	}
	if _, err := s.Submit(SynthesisRequest{System: testSystem(t, 3)}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: err %v, want ErrDraining", err)
	}
}

// TestQueueBoundsAndCancel exercises the bounded queue and per-job
// cancellation: a full queue rejects with ErrQueueFull, a queued job
// cancels immediately, and a running job cancels at evaluation
// granularity keeping its best-so-far result.
func TestQueueBoundsAndCancel(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1, QueueDepth: 1})
	defer s.Close()

	long := func() SynthesisRequest {
		return SynthesisRequest{System: testSystem(t, 4), Strategy: "sas", SAIterations: 50_000_000}
	}
	running, err := s.Submit(long())
	if err != nil {
		t.Fatal(err)
	}
	chRunning, _, err := s.Subscribe(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-chRunning: // runner busy: the queue slot is free again
	case <-time.After(30 * time.Second):
		t.Fatal("first job never started")
	}

	queued, err := s.Submit(SynthesisRequest{System: testSystem(t, 5), SAIterations: 123})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(long()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err %v, want ErrQueueFull", err)
	}

	// Cancel the queued job: it must terminate without ever running.
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, queued.ID)
	if st.State != StateCanceled {
		t.Fatalf("queued job state %s, want canceled", st.State)
	}
	if st.Result != nil {
		t.Error("never-run job has a result")
	}

	// Cancel the running job: best-so-far must survive.
	if err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, running.ID)
	if st.State != StateCanceled {
		t.Fatalf("running job state %s, want canceled (error %q)", st.State, st.Error)
	}
	if st.Result == nil || !st.Result.Partial {
		t.Error("canceled running job lost its best-so-far result")
	}

	if _, err := s.Status("j999999-deadbeef"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job: err %v, want ErrUnknownJob", err)
	}
}

// TestAnalyzeBatchMatchesDirect checks the synchronous endpoint: the
// batch outcomes equal direct core.Analyze runs, decode failures stay
// per-item, and the second request hits the session cache.
func TestAnalyzeBatchMatchesDirect(t *testing.T) {
	s := New(Options{Workers: 2, JobWorkers: 1})
	defer s.Close()
	ctx := context.Background()

	sys := testSystem(t, 6)
	base := core.DefaultConfig(sys.Application, sys.Architecture)
	if err := base.Normalize(sys.Application); err != nil {
		t.Fatal(err)
	}
	variant := base.Clone()
	variant.Round.Slots[0].Length += 8
	if err := variant.Normalize(sys.Application); err != nil {
		t.Fatal(err)
	}
	rawBase, err := encodeConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	rawVariant, err := encodeConfig(variant)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := s.Analyze(ctx, AnalysisRequest{
		System:  testSystem(t, 6),
		Configs: []json.RawMessage{rawBase, []byte(`{"not":"a config"}`), rawVariant},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	if resp.Results[1].Error == "" || resp.Results[1].Analysis != nil {
		t.Error("malformed config did not produce a per-item error")
	}
	for i, cfg := range map[int]*core.Config{0: base, 2: variant} {
		want, err := core.Analyze(sys.Application, sys.Architecture, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Results[i]
		if got.Error != "" {
			t.Fatalf("config %d: %s", i, got.Error)
		}
		if !reflect.DeepEqual(got.Analysis, summarize(want)) {
			t.Errorf("config %d: batch analysis differs from direct Analyze", i)
		}
	}

	// Same system again: the analysis session must be a cache hit, with
	// identical outcomes.
	again, err := s.Analyze(ctx, AnalysisRequest{System: testSystem(t, 6), Configs: []json.RawMessage{rawBase}})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("repeat analysis missed the session cache")
	}
	if !reflect.DeepEqual(again.Results[0], resp.Results[0]) {
		t.Error("cache-hit analysis differs from the cold one")
	}

	// An empty batch analyzes the default (SF) configuration.
	def, err := s.Analyze(ctx, AnalysisRequest{System: testSystem(t, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Results) != 1 || def.Results[0].Analysis == nil {
		t.Fatal("empty batch did not analyze the default configuration")
	}
	if !reflect.DeepEqual(def.Results[0], resp.Results[0]) {
		t.Error("default-config analysis differs from the explicit default config")
	}
}

// TestLRUEviction pins the cache bound: with capacity 2, a third system
// evicts the least-recently-used session.
func TestLRUEviction(t *testing.T) {
	c := newSolverCache(2)
	build := func(seed int64) func() (*solve.Solver, error) {
		return func() (*solve.Solver, error) {
			sys := testSystem(t, seed)
			return solve.New(sys.Application, sys.Architecture)
		}
	}
	for _, key := range []string{"a", "b", "a", "c"} { // use of "a" keeps it warm
		if _, _, err := c.getOrCreate(key, build(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, hit, _ := c.getOrCreate("a", build(1)); !hit {
		t.Error("recently used entry was evicted")
	}
	if _, hit, _ := c.getOrCreate("b", build(1)); hit {
		t.Error("least recently used entry was not evicted")
	}
	hits, misses, size := c.stats()
	if size != 2 {
		t.Errorf("cache size %d, want 2", size)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("stats not tracked: hits=%d misses=%d", hits, misses)
	}
}

// TestRetentionEvictsOldestTerminal bounds the job map: beyond the
// retention cap, the oldest-finished jobs stop being pollable while
// recent ones survive, so a long-lived daemon's memory is bounded.
func TestRetentionEvictsOldestTerminal(t *testing.T) {
	s := New(Options{Workers: 1, JobWorkers: 1, Retention: 2})
	defer s.Close()
	var ids []string
	for i := 0; i < 4; i++ {
		resp, err := s.Submit(SynthesisRequest{System: testSystem(t, 2), Strategy: "sf"})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, resp.ID)
		ids = append(ids, resp.ID)
	}
	// Done fires when a job is published; its retirement (the
	// retention loop) follows on the runner. Draining waits for the
	// runners, so every retirement has happened before the checks.
	s.Drain(context.Background())
	for _, old := range ids[:2] {
		if _, err := s.Status(old); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("job %s: err %v, want ErrUnknownJob after eviction", old, err)
		}
	}
	for _, recent := range ids[2:] {
		st, err := s.Status(recent)
		if err != nil {
			t.Fatalf("job %s evicted within the retention bound: %v", recent, err)
		}
		if st.State != StateDone || st.Result == nil {
			t.Errorf("job %s: retained status incomplete", recent)
		}
	}
}
