// Package delta is the incremental delta-evaluation engine: an
// Evaluator wraps core.AnalyzeWith with caches that exploit how the
// synthesis loops work — thousands of candidate configurations per run,
// each differing from a parent by a single §5.1 move — so that the
// unchanged parts of the analysis are reused instead of recomputed.
//
// Three layers stack up, all provably bit-identical to the cold path:
//
//  1. A full-configuration memo: the canonical encoding of psi =
//     <phi, beta, pi> keys completed analyses, so re-visited
//     configurations (hill climbers circling, HOPA re-deriving the same
//     priorities, DSE offspring colliding) cost a map lookup.
//  2. Stage caches inside core.AnalyzeWith (see core.Memo): the static
//     TTC schedule, the per-resource response-time fixed points and the
//     gateway OutTTP queue are each keyed by an exact encoding of their
//     own inputs. A move that touches one cluster changes exactly that
//     cluster's keys; every other resource's entries keep hitting.
//     Stale reuse is impossible by construction, so nothing is ever
//     invalidated: exact keys plus whole-map clears on overflow bound
//     the memory.
//  3. Warm starts: RTA stage misses whose task set is identical to a
//     cached one except for pointwise larger jitters start their
//     first-pass fixed point from the parent's converged values
//     (rta.Options.Pass1Warm); monotonicity makes the trajectory's
//     result identical, and core.AnalyzeOptions.SelfCheck re-proves it
//     per fixed point in tests.
//
// Because every cache is exact-keyed, an Evaluator can be shared across
// seeds, strategies and worker counts without breaking the repo-wide
// determinism invariants; the differential harness (differential_test.go
// at the repository root) replays every strategy with the engine on and
// off and asserts byte-identical results.
package delta

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
)

// configCap bounds the full-configuration memo; on overflow the map is
// dropped whole (the memo only affects speed, never results).
const configCap = 8192

// Evaluator is the incremental evaluator for one (application,
// architecture, analysis-options) triple. It is safe for concurrent use
// by an evaluation pool. Returned *core.Analysis values are shared
// across callers and must be treated as read-only, which every consumer
// in this repository already does.
type Evaluator struct {
	app   *model.Application
	arch  *model.Architecture
	aopts core.AnalyzeOptions

	mu      sync.Mutex
	configs map[string]*core.Analysis
	hits    int64
	misses  int64
}

// New builds an Evaluator with default analysis options.
func New(app *model.Application, arch *model.Architecture) *Evaluator {
	return NewWith(app, arch, core.AnalyzeOptions{})
}

// NewWith builds an Evaluator for explicit analysis options (the Memo
// field is ignored; the Evaluator installs its own).
func NewWith(app *model.Application, arch *model.Architecture, aopts core.AnalyzeOptions) *Evaluator {
	aopts.Memo = core.NewMemo()
	return &Evaluator{
		app: app, arch: arch, aopts: aopts,
		configs: make(map[string]*core.Analysis),
	}
}

// Analyze runs (or recalls) the multi-cluster analysis of cfg. The
// result is bit-identical to core.AnalyzeWith with the same options and
// Memo == nil. Errors are never cached.
func (ev *Evaluator) Analyze(cfg *core.Config) (*core.Analysis, error) {
	key := ConfigKey(cfg)
	ev.mu.Lock()
	if a, ok := ev.configs[key]; ok {
		ev.hits++
		ev.mu.Unlock()
		return a, nil
	}
	ev.misses++
	ev.mu.Unlock()

	a, err := core.AnalyzeWith(ev.app, ev.arch, cfg, ev.aopts)
	if err != nil {
		return nil, err
	}
	ev.mu.Lock()
	if len(ev.configs) >= configCap {
		ev.configs = make(map[string]*core.Analysis)
	}
	ev.configs[key] = a
	ev.mu.Unlock()
	return a, nil
}

// Stats reports the evaluator's cache traffic.
type Stats struct {
	// ConfigHits/ConfigMisses count full-configuration memo traffic.
	ConfigHits, ConfigMisses int64
	// Memo holds the stage-cache counters (schedule, RTA, queue).
	Memo core.MemoStats
}

// HitRate is the fraction of Analyze calls served from the
// full-configuration memo (0 when nothing ran yet).
func (s Stats) HitRate() float64 {
	total := s.ConfigHits + s.ConfigMisses
	if total == 0 {
		return 0
	}
	return float64(s.ConfigHits) / float64(total)
}

// StageHitRate is the fraction of stage lookups served from the stage
// caches (0 when nothing ran yet).
func (s Stats) StageHitRate() float64 {
	total := s.Memo.Hits() + s.Memo.Misses()
	if total == 0 {
		return 0
	}
	return float64(s.Memo.Hits()) / float64(total)
}

// String renders the stats for diagnostics.
func (s Stats) String() string {
	return fmt.Sprintf("config %d/%d (%.0f%%), stages %d/%d (%.0f%%), warm starts %d",
		s.ConfigHits, s.ConfigHits+s.ConfigMisses, 100*s.HitRate(),
		s.Memo.Hits(), s.Memo.Hits()+s.Memo.Misses(), 100*s.StageHitRate(),
		s.Memo.RTAWarmStarts)
}

// Stats returns a snapshot of the counters.
func (ev *Evaluator) Stats() Stats {
	ev.mu.Lock()
	s := Stats{ConfigHits: ev.hits, ConfigMisses: ev.misses}
	ev.mu.Unlock()
	s.Memo = ev.aopts.Memo.Stats()
	return s
}

// ConfigKey returns the canonical binary encoding of a configuration:
// the TDMA round, then the priority and pin maps in sorted key order.
// Two configurations get the same key exactly when core.AnalyzeWith
// cannot tell them apart.
func ConfigKey(cfg *core.Config) string {
	b := make([]byte, 0, 64+8*(len(cfg.ProcPriority)+len(cfg.MsgPriority)))
	b = binary.AppendVarint(b, int64(len(cfg.Round.Slots)))
	for _, s := range cfg.Round.Slots {
		b = binary.AppendVarint(b, int64(s.Node))
		b = binary.AppendVarint(b, s.Length)
	}
	b = binary.AppendVarint(b, cfg.Round.Padding)
	b = appendSortedProcs(b, cfg.ProcPriority, func(v int) int64 { return int64(v) })
	b = appendSortedEdges(b, cfg.MsgPriority, func(v int) int64 { return int64(v) })
	b = appendSortedProcs(b, cfg.PinnedProc, func(v model.Time) int64 { return v })
	b = appendSortedEdges(b, cfg.PinnedEdge, func(v model.Time) int64 { return v })
	return string(b)
}

func appendSortedProcs[V any](b []byte, m map[model.ProcID]V, enc func(V) int64) []byte {
	ids := make([]model.ProcID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b = binary.AppendVarint(b, int64(len(ids)))
	for _, id := range ids {
		b = binary.AppendVarint(b, int64(id))
		b = binary.AppendVarint(b, enc(m[id]))
	}
	return b
}

func appendSortedEdges[V any](b []byte, m map[model.EdgeID]V, enc func(V) int64) []byte {
	ids := make([]model.EdgeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b = binary.AppendVarint(b, int64(len(ids)))
	for _, id := range ids {
		b = binary.AppendVarint(b, int64(id))
		b = binary.AppendVarint(b, enc(m[id]))
	}
	return b
}
