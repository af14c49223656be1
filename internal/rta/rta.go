// Package rta implements the offset-based response-time analysis used on
// the event-triggered cluster (§4.1 of the paper, after Tindell [14, 15]
// and Palencia/González Harbour [10]).
//
// Activities (preemptable processes on ET CPUs, non-preemptable messages
// on the CAN bus) are modelled as Tasks. The worst-case response time of
// task i is
//
//	r_i = J_i + w_i + C_i
//
// where the interference term w_i is the smallest solution of
//
//	w_i = B_i + sum over j in hp(i) of ceil0((win + J_j - O_ij)/T_j) * C_j
//
// with win = w_i for non-preemptable tasks (queuing delay) and
// win = w_i + C_i for preemptable tasks (level-i busy window, so that
// preemptions landing during the task's own execution are counted).
// O_ij is the relative offset of j with respect to i, meaningful only
// when both belong to the same transaction (process graph); unrelated
// tasks have unknown phasing and O_ij = 0. ceil0 clamps at zero.
//
// For non-preemptable tasks the arrival count uses the inclusive form
// floor(x/T)+1 instead of ceil(x/T) (see CountArrivals): a
// higher-priority message entering the queue at the same instant is
// transmitted ahead, which the plain ceil form of the paper would miss
// when offsets are equal and jitters zero.
//
// The analysis works on the priority order of the task set (see
// PriorityOrder): sorted by (resource, priority), each resource is one
// contiguous run, hp(i) is the part of i's run before i, and the
// blocking factor is a suffix maximum over the same run.
//
// The kernel evaluates the closed form above without recomputing its
// invariants. When a task's fixed point starts, every interferer's
// combined numerator offset (jitter, relative offset, the
// exclusive/inclusive shift and the lingering bound) goes into a reused
// buffer, so an iteration costs one division per interferer. Across
// the response passes (see AnalyzeStable) a task is recomputed only
// when the response of a same-transaction interferer changed in the
// previous pass; every other task keeps its result, which is exact.
// RelOffset and CountArrivals remain the closed form for other
// callers and tests.
package rta

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
)

// Task is one analyzable activity on a shared resource.
type Task struct {
	// Name is used in diagnostics only.
	Name string
	// Resource identifies the CPU or bus; tasks interfere only within
	// one resource.
	Resource int
	// Priority orders tasks on the resource: smaller value = higher
	// priority (CAN identifier convention). Priorities must be unique
	// per resource.
	Priority int
	// C is the WCET (processes) or worst-case transmission time
	// (messages).
	C model.Time
	// T is the period, inherited from the process graph.
	T model.Time
	// O is the offset: the earliest activation relative to the release
	// of the task's transaction.
	O model.Time
	// J is the release jitter: the activation happens in
	// [O, O+J] relative to the transaction release.
	J model.Time
	// B is the blocking factor from lower-priority non-preemptable work.
	B model.Time
	// Trans identifies the transaction (process graph). Offsets are
	// related only inside one transaction; use distinct values (or -1)
	// for independent tasks.
	Trans int
	// NonPreemptive marks CAN messages: once started they cannot be
	// interfered with, so the interference window excludes C.
	NonPreemptive bool
}

// Result is the analysis outcome for one task.
type Result struct {
	// W is the interference/queuing delay w_i.
	W model.Time
	// R is the worst-case response time J_i + w_i + C_i, measured from
	// the earliest activation O_i (i.e. the completion happens no later
	// than transaction release + O_i + R_i).
	R model.Time
	// Converged is false when the fixed point exceeded the horizon
	// (resource overload); W and R are then clamped at the horizon and
	// must be treated as "much too large" rather than exact.
	Converged bool
}

// Options tunes the analysis.
type Options struct {
	// Horizon caps every fixed point; a diverging w is clamped here.
	// Required, must be positive.
	Horizon model.Time
	// Pass1Warm, when non-nil, warm-starts the first-pass interference
	// fixed point of task i at Pass1Warm[i] instead of B_i. Callers must
	// pass a proven lower bound of the first-pass fixed point — e.g. the
	// first-pass W of a task set identical except for pointwise smaller
	// jitters (interference is monotone in J, so the smaller system's
	// fixed point bounds the larger one's from below). Under that
	// contract the results are bit-identical to a cold start; SelfCheck
	// verifies it.
	Pass1Warm []model.Time
	// SelfCheck, when true, recomputes every warm-started interference
	// fixed point (Pass1Warm and the cross-pass warm starts alike) and
	// every fixed point a later pass skips as clean from its cold
	// starting point and panics on any mismatch — the
	// proof-of-equivalence check of the incremental evaluator. Tests
	// enable it; it is off in production because it undoes the warm
	// starts' and the skips' savings.
	SelfCheck bool
}

// RelOffset returns O_ij, the phase of task j relative to task i within
// j's period, when both belong to the same transaction; unrelated tasks
// get 0 (unknown phasing, worst case).
func RelOffset(oi, oj, tj model.Time, sameTrans bool) model.Time {
	if !sameTrans {
		return 0
	}
	if d := oj - oi; d >= 0 && d < tj {
		return d
	}
	d := (oj - oi) % tj
	if d < 0 {
		d += tj
	}
	return d
}

// CountArrivals is the general interference count used by the analysis:
// the number of instances of an interfering task j (jitter jj, relative
// offset oij, period tj) that can delay a window of length win starting
// at the analyzed task's activation.
//
// For unrelated tasks (sameTrans false) it reduces to the classic
// critical-instant counts: ceil0((win + jj - oij)/tj) when inclusive is
// false, and floor((win + jj - oij)/tj) + 1 when inclusive is true and
// the window is non-negative (an activation at the very first instant
// counts, as it does in a priority queue).
//
// For tasks of the same transaction the relative offset anchors j's
// releases, and an instance released *before* the window can still be
// pending when the window opens (it lingers for up to back ticks after
// its release, where back is j's response time from the previous
// analysis pass). The paper's single forward window misses such
// lingering instances; the simulator exposed the resulting optimism, so
// the window is extended backward by jj + back.
func CountArrivals(win, jj, oij, tj, back model.Time, inclusive, sameTrans bool) model.Time {
	num := win + jj - oij
	var kmax model.Time
	if inclusive {
		kmax = floorDiv(num, tj)
	} else {
		kmax = ceilDiv(num, tj) - 1
	}
	var kmin model.Time
	if sameTrans {
		// Earliest instance that can still be pending when the window
		// opens; never above 0, because whether the k=0 instance lands
		// inside the window is decided by the forward bound alone.
		kmin = floorDiv(-oij-jj-back, tj) + 1
		if kmin > 0 {
			kmin = 0
		}
	}
	if kmax < kmin {
		return 0
	}
	return kmax - kmin + 1
}

// floorDiv returns floor(a/b) for b > 0 (Go's / truncates toward zero).
func floorDiv(a, b model.Time) model.Time {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ceilDiv returns ceil(a/b) for b > 0.
func ceilDiv(a, b model.Time) model.Time {
	return floorDiv(a+b-1, b)
}

// maxResponsePasses caps the outer iteration that feeds response times
// back into the lingering-instance windows of same-transaction tasks.
const maxResponsePasses = 64

// Analyze computes the response times of all tasks. The jitters J are
// taken as inputs (the holistic propagation of jitters along process
// graphs is driven by the caller, see internal/core). The returned slice
// is parallel to tasks.
//
// Internally the analysis runs to a global fixed point: the lingering
// window of same-transaction interference (see CountArrivals) needs the
// interferers' response times, which start at zero and grow
// monotonically across passes until stable.
func Analyze(tasks []Task, opt Options) ([]Result, error) {
	res, _, _, err := AnalyzeStable(tasks, opt)
	return res, err
}

// AnalyzeStable is Analyze, additionally reporting whether the global
// fixed point stabilized within the pass budget (stable == false is the
// condition that marks every task unconverged) and the first-pass
// interference delays. The incremental evaluator (internal/core's memo,
// driven by internal/delta) uses the extras: stable keeps the
// all-unconverged marking exact when the task set is analyzed per
// resource, and pass1 seeds the Pass1Warm warm start of near-identical
// task sets.
//
// The per-pass interference fixed points are themselves warm-started
// from the previous pass's values: the response vector grows
// monotonically across passes and the interference count is monotone in
// it, so each pass's least fixed point bounds the next one's from
// below. A task none of whose same-transaction interferers changed its
// response in the previous pass is not recomputed at all: its inputs
// are unchanged (see dependsOnChange). The pass trajectory — and with
// it every W/R value, every convergence flag and the pass budget — is
// identical to a cold iteration.
//
// Interference is read off PriorityOrder, so callers that hand in tasks
// already sorted by (resource, priority) skip the sort; the results do
// not depend on the input order.
func AnalyzeStable(tasks []Task, opt Options) (res []Result, stable bool, pass1 []model.Time, err error) {
	if opt.Horizon <= 0 {
		return nil, false, nil, fmt.Errorf("rta: positive horizon required, got %d", opt.Horizon)
	}
	ord, longest, err := validOrder(tasks)
	if err != nil {
		return nil, false, nil, err
	}
	if opt.Pass1Warm != nil && len(opt.Pass1Warm) != len(tasks) {
		return nil, false, nil, fmt.Errorf("rta: Pass1Warm has %d entries for %d tasks", len(opt.Pass1Warm), len(tasks))
	}
	n := len(tasks)
	res = make([]Result, n)
	// One allocation holds the pass in which each response last changed
	// and the offsets of the fixed point under way (one per task in
	// hp(i), which is at most a run less one task).
	scratch := make([]model.Time, n+max(longest-1, 0))
	changedIn, offsets := scratch[:n], scratch[n:]
	for pass := 0; pass < maxResponsePasses; pass++ {
		changed := false
		// Each run is walked from its lowest priority up. hp(i) is the
		// part of the run before i, so while task i is analyzed res still
		// holds its interferers' responses from the previous pass (zero
		// in pass 0): res doubles as the response vector.
		for end := len(ord); end > 0; {
			start := end - 1
			for start > 0 && tasks[ord[start-1]].Resource == tasks[ord[end-1]].Resource {
				start--
			}
			for p := end - 1; p >= start; p-- {
				i := ord[p]
				me, hp := &tasks[i], ord[start:p]
				if pass > 0 && !dependsOnChange(tasks, i, hp, changedIn, model.Time(pass-1)) {
					// Clean: the inputs of the fixed point are those of
					// the previous pass, so res[i] stands.
					if opt.SelfCheck {
						cold := analyzeOne(tasks, i, hp, fillOffsets(offsets, tasks, i, hp, res), opt.Horizon, me.B)
						if cold != res[i] {
							panic(fmt.Sprintf("rta: skipped task %s differs from its cold start: kept %+v, cold %+v", name(*me, i), res[i], cold))
						}
					}
					continue
				}
				// Warm start: the previous pass's W, or Pass1Warm in pass 0.
				warm := res[i].W
				if pass == 0 && opt.Pass1Warm != nil {
					warm = opt.Pass1Warm[i]
				}
				a := fillOffsets(offsets, tasks, i, hp, res)
				r := analyzeOne(tasks, i, hp, a, opt.Horizon, warm)
				if opt.SelfCheck && warm > me.B {
					if cold := analyzeOne(tasks, i, hp, a, opt.Horizon, me.B); cold != r {
						panic(fmt.Sprintf("rta: warm start of task %s diverged from cold start: warm %+v, cold %+v", name(*me, i), r, cold))
					}
				}
				if r.R != res[i].R {
					changedIn[i] = model.Time(pass)
					changed = true
				}
				res[i] = r
			}
			end = start
		}
		if pass == 0 {
			pass1 = make([]model.Time, n)
			for i := range res {
				pass1[i] = res[i].W
			}
		}
		if !changed {
			return res, true, pass1, nil
		}
	}
	for i := range res {
		res[i].Converged = false
	}
	return res, false, pass1, nil
}

// dependsOnChange reports whether the fixed point of task i has to be
// recomputed in the pass after pass prev. analyzeOne reads the response
// vector only through the lingering windows of the same-transaction
// tasks in hp(i), and any warm start at or below the fixed point gives
// the same result, so task i is clean unless one of those tasks changed
// its response in pass prev. changedIn starts at zero, which marks every
// task as changed in pass 0; that is exact, because every response
// starts at 0 and ends pass 0 at R >= C > 0.
func dependsOnChange(tasks []Task, i int, hp []int, changedIn []model.Time, prev model.Time) bool {
	trans := tasks[i].Trans
	if trans < 0 {
		return false
	}
	for _, j := range hp {
		if tasks[j].Trans == trans && changedIn[j] == prev {
			return true
		}
	}
	return false
}

// PriorityOrder returns the task indices sorted by (Resource,
// Priority): each resource is one contiguous run, highest priority
// first, so the tasks that can interfere with a task are exactly those
// before it in its run. Input that is already in this order is
// recognized in one pass and not sorted. Tasks sharing a resource and a
// priority end up adjacent, in index order.
func PriorityOrder(tasks []Task) []int {
	ord := make([]int, len(tasks))
	sorted := true
	for i := range ord {
		ord[i] = i
		if i > 0 && comparePriority(&tasks[i-1], &tasks[i]) > 0 {
			sorted = false
		}
	}
	if !sorted {
		slices.SortStableFunc(ord, func(a, b int) int { return comparePriority(&tasks[a], &tasks[b]) })
	}
	return ord
}

func comparePriority(a, b *Task) int {
	if c := cmp.Compare(a.Resource, b.Resource); c != 0 {
		return c
	}
	return cmp.Compare(a.Priority, b.Priority)
}

// Blocking returns, per task, the blocking factor of the paper's CAN
// analysis: the largest C among the lower-priority tasks on the same
// resource (0 for the lowest). It is one suffix-maximum walk over
// PriorityOrder; priorities must be unique per resource (ValidateTasks).
func Blocking(tasks []Task) []model.Time {
	ord := PriorityOrder(tasks)
	b := make([]model.Time, len(tasks))
	var lower model.Time
	for p := len(ord) - 1; p >= 0; p-- {
		i := ord[p]
		if p == len(ord)-1 || tasks[ord[p+1]].Resource != tasks[i].Resource {
			lower = 0
		}
		b[i] = lower
		lower = max(lower, tasks[i].C)
	}
	return b
}

// validOrder is ValidateTasks followed by PriorityOrder without
// ValidateTasks' lookup map: duplicate priorities are adjacent in the
// order. On any violation it returns ValidateTasks' error, so the text
// and the choice of the reported task are the same. It also returns the
// length of the longest resource run.
func validOrder(tasks []Task) (ord []int, longest int, err error) {
	for i := range tasks {
		t := &tasks[i]
		if t.C <= 0 || t.T <= 0 || t.J < 0 || t.B < 0 || t.O < 0 {
			return nil, 0, ValidateTasks(tasks)
		}
	}
	ord = PriorityOrder(tasks)
	run := 0
	for p := 1; p <= len(ord); p++ {
		if p == len(ord) || tasks[ord[p]].Resource != tasks[ord[run]].Resource {
			longest = max(longest, p-run)
			run = p
			continue
		}
		if comparePriority(&tasks[ord[p-1]], &tasks[ord[p]]) == 0 {
			return nil, 0, ValidateTasks(tasks)
		}
	}
	return ord, longest, nil
}

// ValidateTasks checks the structural requirements: positive C and T,
// non-negative J/B/O, unique priorities per resource.
func ValidateTasks(tasks []Task) error {
	type key struct{ res, prio int }
	seen := make(map[key]string, len(tasks))
	for i, t := range tasks {
		if t.C <= 0 {
			return fmt.Errorf("rta: task %s has non-positive C %d", name(t, i), t.C)
		}
		if t.T <= 0 {
			return fmt.Errorf("rta: task %s has non-positive T %d", name(t, i), t.T)
		}
		if t.J < 0 || t.B < 0 || t.O < 0 {
			return fmt.Errorf("rta: task %s has negative J/B/O", name(t, i))
		}
		k := key{t.Resource, t.Priority}
		if prev, dup := seen[k]; dup {
			return fmt.Errorf("rta: tasks %s and %s share priority %d on resource %d", prev, name(t, i), t.Priority, t.Resource)
		}
		seen[k] = name(t, i)
	}
	return nil
}

func name(t Task, i int) string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("#%d", i)
}

// fillOffsets writes the loop invariant of task i's fixed point for
// every j in hp(i) into buf, under the responses resp, and returns the
// filled prefix, parallel to hp. The arrival count of CountArrivals is
// max(0, floorDiv(x, T_j) - kmin + 1) with x = win + J_j - O_ij, less one
// for a preemptable task i (the exclusive count ceil(y/T) - 1 equals
// floorDiv(y - 1, T)), and kmin the lingering bound of a
// same-transaction j (0 for any other j). Folding the integer -kmin + 1
// into the numerator as whole periods gives
//
//	a_ij = J_j - O_ij [- 1] + (1 - kmin) * T_j
//	count = (win + a_ij) / T_j if win + a_ij >= 0, else 0
//
// so every iteration does one truncating division per interferer.
func fillOffsets(buf []model.Time, tasks []Task, i int, hp []int, resp []Result) []model.Time {
	me := &tasks[i]
	buf = buf[:len(hp)]
	for k, j := range hp {
		o := &tasks[j]
		a, kmin := o.J, model.Time(0)
		if o.Trans == me.Trans && o.Trans >= 0 {
			oij := RelOffset(me.O, o.O, o.T, true)
			a -= oij
			// Above -T_j the floor is -1 or 0 and kmin clamps to 0.
			if x := -oij - o.J - resp[j].R; x <= -o.T {
				kmin = floorDiv(x, o.T) + 1
			}
		}
		if !me.NonPreemptive {
			a--
		}
		buf[k] = a + (1-kmin)*o.T
	}
	return buf
}

// analyzeOne solves the interference fixed point of task i against the
// tasks hp with the offsets a (see fillOffsets), iterating from the
// warm starting point (warm <= B for a cold start). Any warm value at or
// below the least fixed point yields the identical result: the
// iteration is monotone non-decreasing and every iterate stays bounded
// by the fixed point, so the horizon test and the converged flag cannot
// trigger differently.
func analyzeOne(tasks []Task, i int, hp []int, a []model.Time, horizon, warm model.Time) Result {
	me, a := &tasks[i], a[:len(hp)]
	w := max(me.B, warm)
	// Termination needs no iteration guard: below the least fixed point
	// every iterate strictly increases (f(w) <= w would make w a prefix
	// point below the least fixed point), so the loop either reaches the
	// fixed point or crosses the horizon within horizon steps.
	for {
		win := w
		if !me.NonPreemptive {
			win += me.C
		}
		next := me.B
		for k, j := range hp {
			if x := win + a[k]; x >= 0 {
				o := &tasks[j]
				next += x / o.T * o.C
			}
		}
		if next == w {
			return Result{W: w, R: me.J + w + me.C, Converged: true}
		}
		if next > horizon {
			return Result{W: horizon, R: me.J + horizon + me.C, Converged: false}
		}
		w = next
	}
}
