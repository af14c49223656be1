package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/gateway"
	"repro/internal/model"
	"repro/internal/rta"
	"repro/internal/tsched"
)

// Memo caches the intermediate results of AnalyzeWith across the many
// near-identical configurations that synthesis loops evaluate. One Memo
// serves exactly one (application, architecture) pair — the keys cover
// only the configuration-dependent inputs — and is safe for concurrent
// use by an evaluation pool.
//
// Every cache is keyed by an exact binary encoding of the stage's full
// input, so a hit returns a result that is bit-identical to recomputing
// it; stale reuse is impossible by construction and "invalidation" is
// implicit — a move that touches a cluster changes that cluster's key
// and misses, while untouched clusters keep hitting. The three stages
// are:
//
//   - the static TTC schedule (tsched.Build), keyed by round, pins and
//     the current ET->TT release offsets;
//   - the per-resource response-time fixed points (rta.AnalyzeStable),
//     keyed per CPU/bus by that resource's task vector — tasks on
//     different resources never interfere and the lingering-window
//     feedback stays within one resource, so the global fixed point
//     decomposes exactly (the one coupling, the all-unconverged marking
//     when the pass budget is exhausted, is reapplied by the caller);
//   - the gateway OutTTP queue analysis (gateway.AnalyzeOutTTP), keyed
//     by the message vector and the queue parameters.
//
// Misses of the RTA stage additionally warm-start the first-pass fixed
// point from the converged values of a previously analyzed task set
// that is identical except for pointwise smaller jitters (see
// rta.Options.Pass1Warm for the monotonicity argument).
type Memo struct {
	mu    sync.Mutex
	sched map[string]*tsched.Schedule
	rta   map[string]rtaMemoEntry
	shape map[string][]rtaShapeEntry
	queue map[string][]gateway.TTPResult
	stats MemoStats
}

// rtaMemoEntry is the cached outcome of one resource's fixed point.
type rtaMemoEntry struct {
	res    []rta.Result
	stable bool
}

// rtaShapeEntry seeds warm starts: the jitter vector a task-set shape
// was analyzed with and the first-pass interference delays it produced.
type rtaShapeEntry struct {
	j     []model.Time
	pass1 []model.Time
}

// MemoStats counts stage-cache traffic. Hits mean the stage was served
// without recomputation; WarmStarts counts RTA misses that reused a
// dominated parent's converged values as the iteration starting point.
type MemoStats struct {
	ScheduleHits, ScheduleMisses int64
	RTAHits, RTAMisses           int64
	RTAWarmStarts                int64
	QueueHits, QueueMisses       int64
}

// Hits sums the stage hits.
func (s MemoStats) Hits() int64 { return s.ScheduleHits + s.RTAHits + s.QueueHits }

// Misses sums the stage misses.
func (s MemoStats) Misses() int64 { return s.ScheduleMisses + s.RTAMisses + s.QueueMisses }

// memo cache bounds: when a map reaches its cap it is dropped whole —
// the caches only affect speed, never results, so the simplest policy
// wins (no LRU bookkeeping on the hot path).
const (
	memoSchedCap = 4096
	memoRTACap   = 16384
	memoShapeCap = 4096
	memoQueueCap = 8192
	// memoShapeRing bounds the warm-start seeds kept per task-set shape.
	memoShapeRing = 4
)

// NewMemo builds an empty stage cache for one (application,
// architecture) pair.
func NewMemo() *Memo {
	return &Memo{
		sched: make(map[string]*tsched.Schedule),
		rta:   make(map[string]rtaMemoEntry),
		shape: make(map[string][]rtaShapeEntry),
		queue: make(map[string][]gateway.TTPResult),
	}
}

// Stats returns a snapshot of the stage-cache counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// --- key encoding -----------------------------------------------------
//
// Keys are exact binary encodings of the stage inputs. Map-typed inputs
// are serialized in sorted key order; diagnostic-only fields (names)
// are excluded because results do not depend on them.

func appendTime(b []byte, t model.Time) []byte { return binary.AppendVarint(b, t) }
func appendInt(b []byte, v int) []byte         { return binary.AppendVarint(b, int64(v)) }

// schedKey encodes a tsched.Build input (round + pins + releases).
func schedKey(in *tsched.Input) string {
	b := make([]byte, 0, 64)
	b = appendInt(b, len(in.Round.Slots))
	for _, s := range in.Round.Slots {
		b = appendInt(b, int(s.Node))
		b = appendTime(b, s.Length)
	}
	b = appendTime(b, in.Round.Padding)
	b = appendProcTimes(b, in.ReleaseOffset)
	b = appendProcTimes(b, in.PinnedProc)
	b = appendEdgeTimes(b, in.PinnedEdge)
	return string(b)
}

func appendProcTimes(b []byte, m map[model.ProcID]model.Time) []byte {
	ids := make([]model.ProcID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sortProcIDs(ids)
	b = appendInt(b, len(ids))
	for _, id := range ids {
		b = appendInt(b, int(id))
		b = appendTime(b, m[id])
	}
	return b
}

func appendEdgeTimes(b []byte, m map[model.EdgeID]model.Time) []byte {
	ids := make([]model.EdgeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sortEdgeIDs(ids)
	b = appendInt(b, len(ids))
	for _, id := range ids {
		b = appendInt(b, int(id))
		b = appendTime(b, m[id])
	}
	return b
}

func sortProcIDs(ids []model.ProcID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

func sortEdgeIDs(ids []model.EdgeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// rtaKeys encodes one resource's task vector: the exact key (all
// analysis inputs) and the J-blind shape key that indexes the
// warm-start seeds. Both lead with the resource id, which keeps each
// resource's entries apart.
func rtaKeys(resource int, tasks []rta.Task, horizon model.Time) (exact, shape string) {
	b := make([]byte, 0, 16+24*len(tasks))
	b = binary.AppendVarint(b, int64(resource))
	b = appendTime(b, horizon)
	b = appendInt(b, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		b = appendInt(b, t.Priority)
		b = appendTime(b, t.C)
		b = appendTime(b, t.T)
		b = appendTime(b, t.O)
		b = appendTime(b, t.B)
		b = appendInt(b, t.Trans)
		if t.NonPreemptive {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	shape = string(b)
	for i := range tasks {
		b = appendTime(b, tasks[i].J)
	}
	return string(b), shape
}

// queueKey encodes an OutTTP analysis input.
func queueKey(msgs []gateway.QueueMsg, p *gateway.TTPQueueParams) string {
	b := make([]byte, 0, 32+24*len(msgs))
	b = appendInt(b, len(p.Round.Slots))
	for _, s := range p.Round.Slots {
		b = appendInt(b, int(s.Node))
		b = appendTime(b, s.Length)
	}
	b = appendTime(b, p.Round.Padding)
	b = appendInt(b, p.GatewaySlot)
	b = appendTime(b, p.TickPerByte)
	b = appendTime(b, p.Horizon)
	b = appendInt(b, len(msgs))
	for i := range msgs {
		m := &msgs[i]
		b = appendInt(b, m.Size)
		b = appendTime(b, m.T)
		b = appendTime(b, m.O)
		b = appendTime(b, m.J)
		b = appendInt(b, m.Priority)
		b = appendInt(b, m.Trans)
	}
	return string(b)
}

// --- stage lookups ----------------------------------------------------

// buildSchedule serves tsched.Build through the schedule cache. Build
// errors are structural (invalid round, oversized message) and are not
// cached; they abort the analysis exactly like the uncached path.
func (m *Memo) buildSchedule(in tsched.Input) (*tsched.Schedule, error) {
	key := schedKey(&in)
	m.mu.Lock()
	if s, ok := m.sched[key]; ok {
		m.stats.ScheduleHits++
		m.mu.Unlock()
		return s, nil
	}
	m.stats.ScheduleMisses++
	m.mu.Unlock()
	s, err := tsched.Build(in)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if len(m.sched) >= memoSchedCap {
		m.sched = make(map[string]*tsched.Schedule)
	}
	m.sched[key] = s
	m.mu.Unlock()
	return s, nil
}

// analyzeRTA serves the response-time analysis through the per-resource
// cache. tasks must already carry their blocking factors and must come
// in (resource, priority) order, as etTaskSet builds them: each resource
// is then one contiguous run, served as a subslice without grouping or
// copying. Input whose resources are not ascending is rejected. The
// returned slice is parallel to tasks and freshly allocated (callers may
// mark it unconverged in place). The bool result mirrors
// rta.AnalyzeStable's stability: false when any resource exhausted the
// pass budget, which the caller must translate into the
// all-unconverged marking exactly like the monolithic rta.Analyze
// would. opt.Pass1Warm is ignored; the memo chooses the warm starts.
func (m *Memo) analyzeRTA(tasks []rta.Task, opt rta.Options) ([]rta.Result, bool, error) {
	out := make([]rta.Result, len(tasks))
	stable := true
	for lo := 0; lo < len(tasks); {
		r := tasks[lo].Resource
		hi := lo + 1
		for hi < len(tasks) && tasks[hi].Resource == r {
			hi++
		}
		if hi < len(tasks) && tasks[hi].Resource < r {
			return nil, false, fmt.Errorf("core: RTA tasks not grouped by ascending resource (%d after %d)", tasks[hi].Resource, r)
		}
		res, ok, err := m.analyzeResource(r, tasks[lo:hi], opt)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			stable = false
		}
		copy(out[lo:hi], res)
		lo = hi
	}
	if !stable {
		for i := range out {
			out[i].Converged = false
		}
	}
	return out, stable, nil
}

// analyzeResource runs (or recalls) one resource's fixed point.
func (m *Memo) analyzeResource(resource int, group []rta.Task, opt rta.Options) ([]rta.Result, bool, error) {
	exact, shape := rtaKeys(resource, group, opt.Horizon)
	m.mu.Lock()
	if e, ok := m.rta[exact]; ok {
		m.stats.RTAHits++
		m.mu.Unlock()
		return e.res, e.stable, nil
	}
	m.stats.RTAMisses++
	var warm []model.Time
	for _, se := range m.shape[shape] {
		if len(se.j) != len(group) {
			continue
		}
		dominated := true
		for i := range group {
			if se.j[i] > group[i].J {
				dominated = false
				break
			}
		}
		if dominated {
			warm = se.pass1
			m.stats.RTAWarmStarts++
			break
		}
	}
	m.mu.Unlock()

	opt.Pass1Warm = warm
	res, stable, pass1, err := rta.AnalyzeStable(group, opt)
	if err != nil {
		return nil, false, err
	}

	m.mu.Lock()
	if len(m.rta) >= memoRTACap {
		m.rta = make(map[string]rtaMemoEntry)
	}
	m.rta[exact] = rtaMemoEntry{res: res, stable: stable}
	if len(m.shape) >= memoShapeCap {
		m.shape = make(map[string][]rtaShapeEntry)
	}
	ring := m.shape[shape]
	if len(ring) >= memoShapeRing {
		ring = ring[1:]
	}
	j := make([]model.Time, len(group))
	for i := range group {
		j[i] = group[i].J
	}
	m.shape[shape] = append(ring, rtaShapeEntry{j: j, pass1: pass1})
	m.mu.Unlock()
	return res, stable, nil
}

// analyzeQueue serves gateway.AnalyzeOutTTP through the queue cache.
func (m *Memo) analyzeQueue(msgs []gateway.QueueMsg, p gateway.TTPQueueParams) ([]gateway.TTPResult, error) {
	key := queueKey(msgs, &p)
	m.mu.Lock()
	if r, ok := m.queue[key]; ok {
		m.stats.QueueHits++
		m.mu.Unlock()
		return r, nil
	}
	m.stats.QueueMisses++
	m.mu.Unlock()
	res, err := gateway.AnalyzeOutTTP(msgs, p)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if len(m.queue) >= memoQueueCap {
		m.queue = make(map[string][]gateway.TTPResult)
	}
	m.queue[key] = res
	m.mu.Unlock()
	return res, nil
}
