package service

// The durability glue between the Service and its store.Store: journal
// appends, startup replay, and compaction snapshots. The rules that
// keep replay honest live here:
//
//   - a submit is journaled before its 202 exists (enqueue), so every
//     acknowledged job survives a crash;
//   - every job ends in terminate, which commits before it publishes:
//     the result is persisted before the finish record, so a "done"
//     record always has a loadable result (a crash between the two
//     re-runs the job, which is merely wasteful), and both are durable
//     before Done, Subscribe or Status can report the job terminal;
//   - compaction snapshots a job from its decided outcome, not its
//     visible state, so a finish record journaled before the rewrite
//     is never lost to it;
//   - replayed unfinished jobs re-enter the queue ahead of new traffic
//     with their original IDs, and re-running them is idempotent: the
//     synthesis is deterministic and the persistent result cache
//     short-circuits work that actually finished. Replayed terminal
//     jobs are published as they are, without a second finish record.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/solve"
	"repro/internal/store"
)

// compactAtSegments triggers a journal rewrite once the segment count
// reaches this bound; together with the segment size cap it bounds the
// journal footprint by live state, not by traffic history.
const compactAtSegments = 4

// storeRef returns the current store under the intake lock. It is the
// only store accessor outside New: tests clear s.st mid-run to make
// post-"crash" activity invisible to the journal.
func (s *Service) storeRef() store.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// appendRecord stamps and appends one journal record; a nil store is a
// no-op. The caller decides whether a failure gates the state
// transition (enqueue rejects the submit) or is merely counted (start,
// cancel and finish records: the in-memory truth stays correct, and at
// worst a replay re-runs deterministic work).
func (s *Service) appendRecord(st store.Store, rec store.Record) error {
	if st == nil {
		return nil
	}
	rec.Unix = s.clock.Now().Unix()
	if err := st.Append(rec); err != nil {
		s.storeErrs.Add(1)
		return err
	}
	return nil
}

// restore replays the journal into the in-memory job table and returns
// the unfinished jobs to re-enqueue, in original submit order. It runs
// inside New before the runners start.
func (s *Service) restore() []*job {
	if s.st == nil {
		return nil
	}
	recs, _ := s.st.Replay()
	var pending []*job
	var failed []func()
	for _, snap := range store.Reduce(recs) {
		j := &job{
			id:           snap.ID,
			kind:         JobKind(snap.Kind),
			strategyName: snap.Strategy,
			fingerprint:  snap.Fingerprint,
			key:          snap.Key,
			state:        StateQueued,
			subs:         make(map[chan ProgressEvent]struct{}),
			done:         make(chan struct{}),
		}
		j.ctx, j.cancel = context.WithCancelCause(s.baseCtx)
		if seq := jobSeq(snap.ID); seq > s.nextID {
			s.nextID = seq // new IDs continue past every replayed one
		}
		s.replayed++
		s.jobs[j.id] = j
		if snap.State != store.StateQueued {
			// Terminal in the journal already: publish it as it is,
			// without journaling the finish a second time.
			j.final = s.restoredOutcome(snap)
			j.settle()
			s.retain(j.id)
			continue
		}
		if err := j.restoreRequest(snap.Request); err != nil {
			// The journaled request no longer decodes: fail the job
			// visibly instead of dropping it, and journal the finish so
			// the next restart agrees.
			failed = append(failed, func() { s.terminate(j, StateQueued, nil, err) })
			continue
		}
		pending = append(pending, j)
		s.requeued++
	}
	// terminate may compact the journal, so it runs only once the job
	// table is complete.
	for _, fail := range failed {
		fail()
	}
	return pending
}

// restoredOutcome rebuilds a terminal job's outcome from its snapshot:
// state and error come from the journal, a done job's result loads from
// the persistent result store under its request key.
func (s *Service) restoredOutcome(snap *store.JobSnapshot) *outcome {
	out := &outcome{state: JobState(snap.State), errMsg: snap.Error, recorded: true}
	if snap.State != store.StateDone {
		return out
	}
	if snap.Key != "" {
		if data, ok := s.st.GetResult(snap.Key); ok {
			if res, err := decodeStoredResult(data); err == nil {
				out.result = res
			}
		}
	}
	if out.result == nil {
		// The finish record outlived its result (TTL expiry, or the
		// results directory was lost separately). The job stays done —
		// silently re-running would betray the recorded outcome — but
		// the missing result is reported, not hidden.
		out.errMsg = "store: persisted result expired or missing; resubmit to recompute"
	}
	return out
}

// decodeStoredResult decodes canonical result bytes from the
// persistent store and marks them as a persistent serve.
func decodeStoredResult(data []byte) (*JobResult, error) {
	var res JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	res.PersistentHit = true
	return &res, nil
}

// restoreRequest decodes and re-normalizes a journaled wire request so
// the replayed job re-runs exactly like a fresh submission of the same
// body: normalization is deterministic, so the fingerprint and request
// key it recomputes match the journaled ones.
func (j *job) restoreRequest(raw []byte) error {
	if len(raw) == 0 {
		return errors.New(store.ErrPayloadMissing)
	}
	switch j.kind {
	case KindExplore:
		var req ExploreRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return fmt.Errorf("service: decoding journaled explore request: %w", err)
		}
		fp, err := req.normalize()
		if err != nil {
			return fmt.Errorf("service: re-normalizing journaled request: %w", err)
		}
		j.exploreReq = req
		j.strategy = solve.Explore
		j.fingerprint = fp
		j.key = req.key(fp)
	default:
		var req SynthesisRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return fmt.Errorf("service: decoding journaled synthesis request: %w", err)
		}
		strat, fp, err := req.normalize()
		if err != nil {
			return fmt.Errorf("service: re-normalizing journaled request: %w", err)
		}
		j.req = req
		j.strategy = strat
		j.fingerprint = fp
		j.key = req.key(strat, fp)
	}
	j.rawReq = raw
	if j.strategyName == "" {
		j.strategyName = j.strategy.String()
	}
	return nil
}

// jobSeq parses the numeric sequence out of a job ID ("j%06d-<fp8>");
// 0 for anything that does not look like one.
func jobSeq(id string) int {
	var seq int
	var fp string
	if n, _ := fmt.Sscanf(id, "j%d-%s", &seq, &fp); n < 1 {
		return 0
	}
	return seq
}

// compact rewrites the journal down to the live records. Errors are
// counted, not surfaced: an uncompacted journal is bigger, never wrong.
func (s *Service) compact() {
	st := s.storeRef()
	if st == nil {
		return
	}
	if err := st.Compact(s.liveRecords); err != nil {
		s.storeErrs.Add(1)
	}
}

// liveRecords snapshots the jobs the journal must remember: jobs whose
// outcome is recorded as slim submit+finish pairs (their results live
// in the result store), every other job as a full submit so a crash can
// still re-run it. It reads the decided outcome, never the visible
// state: a job between its finish record and its publish is already
// finished here. The store calls it after sealing the active segment,
// so transitions journaled concurrently land in later segments and
// survive the rewrite regardless of what this snapshot captures.
func (s *Service) liveRecords() []store.Record {
	now := s.clock.Now().Unix()
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, id := range slices.Sorted(maps.Keys(s.jobs)) {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	recs := make([]store.Record, 0, 2*len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		out, raw := j.final, j.rawReq
		finished := out != nil && out.recorded
		j.mu.Unlock()
		sub := store.Record{
			Op:          store.OpSubmit,
			Job:         j.id,
			Kind:        string(j.kind),
			Fingerprint: j.fingerprint,
			Key:         j.key,
			Strategy:    j.strategyName,
			Unix:        now,
		}
		if finished {
			recs = append(recs, sub, store.Record{
				Op:    store.OpFinish,
				Job:   j.id,
				Key:   j.key,
				State: string(out.state),
				Error: out.errMsg,
				Unix:  now,
			})
			continue
		}
		sub.Request = raw
		recs = append(recs, sub)
	}
	return recs
}
