package rta

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

const hz = 1 << 40

func analyze(t *testing.T, tasks []Task) []Result {
	t.Helper()
	res, err := Analyze(tasks, Options{Horizon: hz})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

// TestClassicRateMonotonic reproduces the textbook Liu/Layland style
// example: three tasks on one CPU, no offsets, no jitter.
func TestClassicRateMonotonic(t *testing.T) {
	tasks := []Task{
		{Name: "t1", Resource: 0, Priority: 0, C: 1, T: 4, Trans: -1},
		{Name: "t2", Resource: 0, Priority: 1, C: 2, T: 6, Trans: -1},
		{Name: "t3", Resource: 0, Priority: 2, C: 3, T: 12, Trans: -1},
	}
	res := analyze(t, tasks)
	// Different transactions: all offsets treated as 0.
	// r1 = 1; r2 = 2 + 1 = 3; r3: w=3+... classic busy window: 3+1+2=6, then
	// arrivals of t1 in 6: 2 -> w=3+2*1+1*2=7, t1:2,t2:2 -> 3+2+4=9, t1:3 ->
	// 3+3+4=10, -> 3+3+4=10 stable. r3=10.
	wants := []model.Time{1, 3, 10}
	for i, want := range wants {
		if !res[i].Converged || res[i].R != want {
			t.Errorf("r%d = %d (conv=%v), want %d", i+1, res[i].R, res[i].Converged, want)
		}
	}
}

// TestPreemptiveBoundaryRelease checks the exclusive count of a
// preemptable task: hp runs in [0,2), lo in [2,5), and hp's next
// release at 5 coincides with lo's completion, so it does not
// interfere (r = 5). Counting it, as the inclusive form of a message
// queue would, gives r = 7.
func TestPreemptiveBoundaryRelease(t *testing.T) {
	tasks := []Task{
		{Name: "hp", Resource: 0, Priority: 0, C: 2, T: 5, Trans: -1},
		{Name: "lo", Resource: 0, Priority: 1, C: 3, T: 20, Trans: -1},
	}
	res := analyze(t, tasks)
	if res[1].W != 2 || res[1].R != 5 {
		t.Errorf("lo: w=%d r=%d, want w=2 r=5", res[1].W, res[1].R)
	}
}

// TestFig4aProcesses checks P2/P3 of the paper's §4.2 example on node N2:
// priorityP3 > priorityP2, O2=O3=80, J2=15, J3=25, C2=C3=20, T=240.
// Expected: w2 = 20 (one preemption by P3), r2 = 55; w3 = 0, r3 = 45.
func TestFig4aProcesses(t *testing.T) {
	tasks := []Task{
		{Name: "P2", Resource: 0, Priority: 2, C: 20, T: 240, O: 80, J: 15, Trans: 1},
		{Name: "P3", Resource: 0, Priority: 1, C: 20, T: 240, O: 80, J: 25, Trans: 1},
	}
	res := analyze(t, tasks)
	if res[0].W != 20 || res[0].R != 55 {
		t.Errorf("P2: w=%d r=%d, want w=20 r=55", res[0].W, res[0].R)
	}
	if res[1].W != 0 || res[1].R != 45 {
		t.Errorf("P3: w=%d r=%d, want w=0 r=45", res[1].W, res[1].R)
	}
}

// TestFig4aMessages checks m1/m2 on the CAN bus: Jm1=Jm2=5 (the gateway
// transfer process response), Cm=10, T=240, equal offsets 80.
// Expected: wm1 = 0, rm1 = 15 (=J2); wm2 = 10, rm2 = 25 (=J3).
func TestFig4aMessages(t *testing.T) {
	tasks := []Task{
		{Name: "m1", Resource: 1, Priority: 1, C: 10, T: 240, O: 80, J: 5, Trans: 1, NonPreemptive: true},
		{Name: "m2", Resource: 1, Priority: 2, C: 10, T: 240, O: 80, J: 5, Trans: 1, NonPreemptive: true},
	}
	res := analyze(t, tasks)
	if res[0].W != 0 || res[0].R != 15 {
		t.Errorf("m1: w=%d r=%d, want w=0 r=15", res[0].W, res[0].R)
	}
	if res[1].W != 10 || res[1].R != 25 {
		t.Errorf("m2: w=%d r=%d, want w=10 r=25", res[1].W, res[1].R)
	}
}

// TestFig4cPrioritySwap swaps the priorities of P2 and P3 (Figure 4c):
// P2 becomes the high-priority process, so it runs free of interference.
func TestFig4cPrioritySwap(t *testing.T) {
	tasks := []Task{
		{Name: "P2", Resource: 0, Priority: 1, C: 20, T: 240, O: 80, J: 15, Trans: 1},
		{Name: "P3", Resource: 0, Priority: 2, C: 20, T: 240, O: 80, J: 25, Trans: 1},
	}
	res := analyze(t, tasks)
	if res[0].W != 0 || res[0].R != 35 {
		t.Errorf("P2: w=%d r=%d, want w=0 r=35", res[0].W, res[0].R)
	}
	// P3 is preempted by P2 (whose activation window overlaps): w3 = 20.
	if res[1].W != 20 || res[1].R != 65 {
		t.Errorf("P3: w=%d r=%d, want w=20 r=65", res[1].W, res[1].R)
	}
}

// TestOffsetsReduceInterference verifies that a large relative offset
// inside a transaction removes interference that unrelated tasks would
// suffer (the point of the offset-based analysis, §4 of the paper).
func TestOffsetsReduceInterference(t *testing.T) {
	base := []Task{
		{Name: "hi", Resource: 0, Priority: 0, C: 10, T: 100, O: 90, Trans: 7},
		{Name: "lo", Resource: 0, Priority: 1, C: 10, T: 100, O: 0, Trans: 7},
	}
	res := analyze(t, base)
	// "hi" is released 90 after "lo"; lo's busy window of 10 never sees it.
	if res[1].W != 0 {
		t.Errorf("same transaction: w(lo) = %d, want 0", res[1].W)
	}
	// Different transactions: phasing unknown, interference counted.
	base[0].Trans = 8
	res = analyze(t, base)
	if res[1].W != 10 {
		t.Errorf("different transactions: w(lo) = %d, want 10", res[1].W)
	}
}

func TestBlockingTerm(t *testing.T) {
	tasks := []Task{
		{Name: "m", Resource: 0, Priority: 0, C: 5, T: 100, B: 7, Trans: -1, NonPreemptive: true},
	}
	res := analyze(t, tasks)
	if res[0].W != 7 || res[0].R != 12 {
		t.Errorf("w=%d r=%d, want 7, 12", res[0].W, res[0].R)
	}
}

// TestMaxLowerC checks the blocking oracle and Blocking on a
// hand-computed case, with the input out of priority order.
func TestMaxLowerC(t *testing.T) {
	tasks := []Task{
		{Resource: 0, Priority: 1, C: 9, T: 100},
		{Resource: 1, Priority: 0, C: 50, T: 100}, // other resource: ignored
		{Resource: 0, Priority: 2, C: 3, T: 100},
		{Resource: 0, Priority: 0, C: 5, T: 100},
	}
	want := []model.Time{3, 0, 0, 9}
	got := Blocking(tasks)
	for i, w := range want {
		if b := maxLowerC(tasks, i); b != w {
			t.Errorf("maxLowerC(task%d) = %d, want %d", i, b, w)
		}
		if got[i] != w {
			t.Errorf("Blocking(task%d) = %d, want %d", i, got[i], w)
		}
	}
}

func TestDivergenceClampsAtHorizon(t *testing.T) {
	tasks := []Task{
		{Name: "hp1", Resource: 0, Priority: 0, C: 60, T: 100, Trans: -1},
		{Name: "hp2", Resource: 0, Priority: 1, C: 50, T: 100, Trans: -1},
		{Name: "lp", Resource: 0, Priority: 2, C: 10, T: 100, Trans: -1},
	}
	res, err := Analyze(tasks, Options{Horizon: 1000})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res[2].Converged {
		t.Error("overloaded resource must not converge")
	}
	if res[2].W != 1000 {
		t.Errorf("diverged W = %d, want clamped at 1000", res[2].W)
	}
	u := utilization(tasks)
	if u[0] <= 1.0 {
		t.Errorf("utilization = %v, want > 1", u[0])
	}
}

func TestValidateTasks(t *testing.T) {
	bad := [][]Task{
		{{C: 0, T: 10}},
		{{C: 1, T: 0}},
		{{C: 1, T: 10, J: -1}},
		{{C: 1, T: 10, Priority: 3}, {C: 1, T: 10, Priority: 3}}, // duplicate prio
	}
	for i, tasks := range bad {
		if _, err := Analyze(tasks, Options{Horizon: 100}); err == nil {
			t.Errorf("case %d: invalid tasks accepted", i)
		}
	}
	if _, err := Analyze(nil, Options{}); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestRelOffset(t *testing.T) {
	if got := RelOffset(80, 80, 240, true); got != 0 {
		t.Errorf("RelOffset same = %d", got)
	}
	if got := RelOffset(0, 90, 100, true); got != 90 {
		t.Errorf("RelOffset = %d, want 90", got)
	}
	if got := RelOffset(90, 0, 100, true); got != 10 {
		t.Errorf("RelOffset wrap = %d, want 10", got)
	}
	if got := RelOffset(0, 90, 100, false); got != 0 {
		t.Errorf("RelOffset unrelated = %d, want 0", got)
	}
}

func TestNumArrivals(t *testing.T) {
	cases := []struct{ win, j, o, T, want model.Time }{
		{0, 0, 0, 10, 0},
		{1, 0, 0, 10, 1},
		{10, 0, 0, 10, 1},
		{11, 0, 0, 10, 2},
		{5, 0, 20, 10, 0}, // offset pushes the first arrival out of the window
		{5, 18, 20, 10, 1},
	}
	for _, c := range cases {
		if got := numArrivals(c.win, c.j, c.o, c.T); got != c.want {
			t.Errorf("numArrivals(%d,%d,%d,%d) = %d, want %d", c.win, c.j, c.o, c.T, got, c.want)
		}
		// Unrelated tasks, exclusive count: CountArrivals is the ceil form.
		if got := CountArrivals(c.win, c.j, c.o, c.T, 0, false, false); got != c.want {
			t.Errorf("CountArrivals(%d,%d,%d,%d, exclusive) = %d, want %d", c.win, c.j, c.o, c.T, got, c.want)
		}
	}
}

func randomTaskSet(r *rand.Rand) []Task {
	n := 2 + r.Intn(6)
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			Resource: r.Intn(2),
			Priority: i, // unique
			C:        1 + model.Time(r.Intn(5)),
			T:        model.Time(50 * (1 + r.Intn(4))),
			O:        model.Time(r.Intn(40)),
			J:        model.Time(r.Intn(10)),
			B:        model.Time(r.Intn(5)),
			Trans:    r.Intn(2),
		}
	}
	return tasks
}

// Response time must never decrease when C, J or B of any task grows
// (monotonicity of the fixed point).
func TestPropertyMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tasks := randomTaskSet(r)
		res, err := Analyze(tasks, Options{Horizon: hz})
		if err != nil {
			return false
		}
		grown := make([]Task, len(tasks))
		copy(grown, tasks)
		k := r.Intn(len(grown))
		switch r.Intn(3) {
		case 0:
			grown[k].C++
		case 1:
			grown[k].J += 3
		case 2:
			grown[k].B += 2
		}
		res2, err := Analyze(grown, Options{Horizon: hz})
		if err != nil {
			return false
		}
		for i := range res {
			if res2[i].R < res[i].R {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// The response of every task is at least B + C + J, and the highest
// priority preemptable task on a resource has w = B.
func TestPropertyLowerBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tasks := randomTaskSet(r)
		res, err := Analyze(tasks, Options{Horizon: hz})
		if err != nil {
			return false
		}
		for i, task := range tasks {
			if res[i].R < task.B+task.C+task.J {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Fixed point check: plugging W back into the interference sum
// reproduces W exactly (for converged results).
func TestPropertyFixedPoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tasks := randomTaskSet(r)
		res, err := Analyze(tasks, Options{Horizon: hz})
		if err != nil {
			return false
		}
		for i, me := range tasks {
			if !res[i].Converged {
				continue
			}
			win := res[i].W
			if !me.NonPreemptive {
				win += me.C
			}
			sum := me.B
			for j, o := range tasks {
				if j == i || o.Resource != me.Resource || o.Priority >= me.Priority {
					continue
				}
				same := o.Trans == me.Trans && o.Trans >= 0
				oij := RelOffset(me.O, o.O, o.T, same)
				sum += CountArrivals(win, o.J, oij, o.T, res[j].R, me.NonPreemptive, same) * o.C
			}
			if sum != res[i].W {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestNumQueued(t *testing.T) {
	cases := []struct{ win, j, o, T, want model.Time }{
		{0, 0, 0, 10, 1},  // simultaneous arrival counts
		{9, 0, 0, 10, 1},  // still within the first period
		{10, 0, 0, 10, 2}, // the boundary instance counts too
		{0, 0, 5, 10, 0},  // offset pushes the arrival out
		{-1, 0, 0, 10, 0}, // empty window
	}
	for _, c := range cases {
		if got := numQueued(c.win, c.j, c.o, c.T); got != c.want {
			t.Errorf("numQueued(%d,%d,%d,%d) = %d, want %d", c.win, c.j, c.o, c.T, got, c.want)
		}
		// Unrelated tasks, inclusive count: CountArrivals is the queue form.
		if got := CountArrivals(c.win, c.j, c.o, c.T, 0, true, false); got != c.want {
			t.Errorf("CountArrivals(%d,%d,%d,%d, inclusive) = %d, want %d", c.win, c.j, c.o, c.T, got, c.want)
		}
	}
}

func TestCountArrivalsLingering(t *testing.T) {
	// Same transaction, the interferer released 90 ticks earlier
	// (oij = 10 means "j fires 10 after me"... use oij near T for an
	// earlier phase). j at relative offset 90 of a 100-period: its
	// previous instance fired at -10. With back (response) 15 it can
	// still be pending at my activation, so it must be counted even
	// though the forward window (5) never reaches offset 90.
	if got := CountArrivals(5, 0, 90, 100, 15, false, true); got != 1 {
		t.Errorf("lingering instance not counted: %d", got)
	}
	// With a response of at most 10 it finished exactly at my release.
	if got := CountArrivals(5, 0, 90, 100, 10, false, true); got != 0 {
		t.Errorf("finished instance counted: %d", got)
	}
	// Unrelated tasks: classic count, no backward extension.
	if got := CountArrivals(5, 0, 0, 100, 1000, false, false); got != 1 {
		t.Errorf("unrelated count = %d, want 1", got)
	}
}

func TestFloorCeilDiv(t *testing.T) {
	if floorDiv(-1, 10) != -1 || floorDiv(1, 10) != 0 || floorDiv(-10, 10) != -1 {
		t.Error("floorDiv wrong on negatives")
	}
	if ceilDiv(1, 10) != 1 || ceilDiv(-1, 10) != 0 || ceilDiv(10, 10) != 1 {
		t.Error("ceilDiv wrong")
	}
}

// --- reference implementations ----------------------------------------
//
// The oracles below are the straightforward forms the analysis used to
// run: an O(n²) per-task index of higher-priority tasks, an O(n) scan
// per blocking factor, and the closed-form arrival counts. The property
// tests pin the production code to them.

// higherPriorityIndex lists, per task, the indices of the tasks on the
// same resource with a strictly higher priority, in index order.
func higherPriorityIndex(tasks []Task) [][]int {
	hp := make([][]int, len(tasks))
	for i := range tasks {
		for j := range tasks {
			if j == i || tasks[j].Resource != tasks[i].Resource {
				continue
			}
			if tasks[j].Priority < tasks[i].Priority {
				hp[i] = append(hp[i], j)
			}
		}
	}
	return hp
}

// analyzeReference is AnalyzeStable as it was first written: every
// task's fixed point recomputed in every pass by analyzeOneReference,
// driven by higherPriorityIndex over the tasks in index order.
func analyzeReference(tasks []Task, opt Options) ([]Result, bool, []model.Time, error) {
	if opt.Horizon <= 0 {
		return nil, false, nil, fmt.Errorf("rta: positive horizon required, got %d", opt.Horizon)
	}
	if err := ValidateTasks(tasks); err != nil {
		return nil, false, nil, err
	}
	res := make([]Result, len(tasks))
	resp := make([]model.Time, len(tasks))
	warm := make([]model.Time, len(tasks))
	for i := range tasks {
		warm[i] = tasks[i].B
		if opt.Pass1Warm != nil && opt.Pass1Warm[i] > warm[i] {
			warm[i] = opt.Pass1Warm[i]
		}
	}
	var pass1 []model.Time
	hp := higherPriorityIndex(tasks)
	for pass := 0; pass < maxResponsePasses; pass++ {
		for i := range tasks {
			res[i] = analyzeOneReference(tasks, i, opt.Horizon, resp, hp[i], warm[i])
			warm[i] = res[i].W
		}
		if pass == 0 {
			pass1 = make([]model.Time, len(tasks))
			for i := range res {
				pass1[i] = res[i].W
			}
		}
		changed := false
		for i := range res {
			if res[i].R != resp[i] {
				resp[i] = res[i].R
				changed = true
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

// analyzeOneReference is the interference fixed point of task i in its
// closed form: RelOffset and CountArrivals for every interferer in every
// iteration.
func analyzeOneReference(tasks []Task, i int, horizon model.Time, resp []model.Time, hp []int, warm model.Time) Result {
	me := &tasks[i]
	w := max(me.B, warm)
	for {
		win := w
		if !me.NonPreemptive {
			win += me.C
		}
		next := me.B
		for _, j := range hp {
			o := &tasks[j]
			same := o.Trans == me.Trans && o.Trans >= 0
			oij := RelOffset(me.O, o.O, o.T, same)
			next += CountArrivals(win, o.J, oij, o.T, resp[j], me.NonPreemptive, same) * o.C
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

// maxLowerC is the blocking factor by definition: the largest C among
// the strictly lower-priority tasks on the same resource.
func maxLowerC(tasks []Task, i int) model.Time {
	var b model.Time
	for j := range tasks {
		if j != i && tasks[j].Resource == tasks[i].Resource && tasks[j].Priority > tasks[i].Priority {
			b = max(b, tasks[j].C)
		}
	}
	return b
}

// numArrivals is ceil0((win + jj - oij)/tj), the paper's arrival count.
func numArrivals(win, jj, oij, tj model.Time) model.Time {
	num := win + jj - oij
	if num <= 0 {
		return 0
	}
	return (num + tj - 1) / tj
}

// numQueued is floor((win + jj - oij)/tj) + 1 for a non-negative
// window, else 0: the arrival count of a priority queue, where an
// activation at the first instant counts.
func numQueued(win, jj, oij, tj model.Time) model.Time {
	num := win + jj - oij
	if num < 0 {
		return 0
	}
	return num/tj + 1
}

// utilization returns the load of each resource as sum(C/T).
func utilization(tasks []Task) map[int]float64 {
	u := make(map[int]float64)
	for _, t := range tasks {
		u[t.Resource] += float64(t.C) / float64(t.T)
	}
	return u
}

// oracleTaskSet draws a valid task set over several resources in a
// shuffled input order: priorities are unique per resource but repeat
// across resources, transactions are shared, distinct or -1, and
// preemptive and non-preemptive tasks mix on one resource. Blocking
// factors come from the maxLowerC oracle for non-preemptive tasks.
func oracleTaskSet(r *rand.Rand) []Task {
	resources := 1 + r.Intn(4)
	n := 1 + r.Intn(14)
	tasks := make([]Task, n)
	prios := make([][]int, resources)
	for k := range prios {
		prios[k] = r.Perm(3 * n)
	}
	for i := range tasks {
		res := r.Intn(resources)
		prio := prios[res][0]
		prios[res] = prios[res][1:]
		tasks[i] = Task{
			Name:          fmt.Sprintf("t%d", i),
			Resource:      res,
			Priority:      prio,
			C:             1 + model.Time(r.Intn(12)),
			T:             model.Time(40 * (1 + r.Intn(5))),
			O:             model.Time(r.Intn(60)),
			J:             model.Time(r.Intn(30)),
			Trans:         r.Intn(4) - 1,
			NonPreemptive: r.Intn(3) == 0,
		}
	}
	r.Shuffle(n, func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	for i := range tasks {
		if tasks[i].NonPreemptive {
			tasks[i].B = maxLowerC(tasks, i)
		}
	}
	return tasks
}

// longRunTaskSet draws one long resource run: 40 to 80 tasks on a
// single resource at roughly 50-100% load, at most two transactions (each
// with its own period) next to unrelated -1 tasks, and mixed
// preemption. Long runs with shared transactions need several response
// passes, in which most tasks are clean and skipped.
func longRunTaskSet(r *rand.Rand) []Task {
	n := 40 + r.Intn(41)
	periods := []model.Time{model.Time(100 * (2 + r.Intn(6))), model.Time(100 * (2 + r.Intn(6)))}
	transactions := 1 + r.Intn(2)
	tasks := make([]Task, n)
	for i, prio := range r.Perm(n) {
		trans := r.Intn(transactions+1) - 1
		period := model.Time(100 * (2 + r.Intn(6)))
		if trans >= 0 {
			period = periods[trans]
		}
		tasks[i] = Task{
			Name:          fmt.Sprintf("t%d", i),
			Priority:      prio,
			C:             1 + model.Time(r.Intn(8)),
			T:             period,
			O:             model.Time(r.Int63n(int64(period))),
			J:             model.Time(r.Int63n(int64(period / 4))),
			Trans:         trans,
			NonPreemptive: r.Intn(3) == 0,
		}
	}
	for i, b := range Blocking(tasks) {
		if tasks[i].NonPreemptive {
			tasks[i].B = b
		}
	}
	return tasks
}

// requireReference fails the test unless AnalyzeStable and
// analyzeReference agree on tasks under opt: the same results,
// stability flag and first-pass delays. It returns the results.
func requireReference(t *testing.T, label string, tasks []Task, opt Options) []Result {
	t.Helper()
	got, gotStable, gotPass1, err := AnalyzeStable(tasks, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, wantStable, wantPass1, _ := analyzeReference(tasks, opt)
	if !reflect.DeepEqual(got, want) || gotStable != wantStable || !reflect.DeepEqual(gotPass1, wantPass1) {
		t.Fatalf("%s: got %+v stable %v pass1 %v, reference %+v stable %v pass1 %v",
			label, got, gotStable, gotPass1, want, wantStable, wantPass1)
	}
	return got
}

// checkOracle runs requireReference on tasks cold and warm-started from
// a copy with pointwise smaller jitters (which satisfies the Pass1Warm
// contract) with the self-check armed. It returns the cold results.
func checkOracle(t *testing.T, r *rand.Rand, label string, tasks []Task, horizon model.Time) []Result {
	t.Helper()
	smaller := slices.Clone(tasks)
	for i := range smaller {
		smaller[i].J = model.Time(r.Intn(int(smaller[i].J) + 1))
	}
	_, _, warm, err := AnalyzeStable(smaller, Options{Horizon: horizon})
	if err != nil {
		t.Fatalf("%s: smaller jitters: %v", label, err)
	}
	res := requireReference(t, label+" cold", tasks, Options{Horizon: horizon})
	requireReference(t, label+" warm", tasks, Options{Horizon: horizon, Pass1Warm: warm, SelfCheck: true})
	return res
}

// TestPriorityOrderOracle pins AnalyzeStable and Blocking to the
// reference implementations on random task sets: the same results,
// stability flag and first-pass delays, cold and warm-started (with the
// self-check armed), under a generous and a tight horizon. The long-run
// trials make sure the multi-pass, skip and horizon-clamp paths all run.
func TestPriorityOrderOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		tasks := oracleTaskSet(r)
		blocking := Blocking(tasks)
		for i := range tasks {
			if want := maxLowerC(tasks, i); blocking[i] != want {
				t.Fatalf("trial %d: Blocking(%s) = %d, maxLowerC = %d", trial, tasks[i].Name, blocking[i], want)
			}
		}
		horizon := model.Time(hz)
		if trial%3 == 0 {
			horizon = model.Time(50 + r.Intn(200))
		}
		checkOracle(t, r, fmt.Sprintf("trial %d", trial), tasks, horizon)
	}

	multiPass, clamped := 0, 0
	for trial := 0; trial < 60; trial++ {
		tasks := longRunTaskSet(r)
		horizon := model.Time(hz)
		if trial%3 == 0 {
			horizon = model.Time(400 + r.Intn(400))
		}
		res := checkOracle(t, r, fmt.Sprintf("long run %d", trial), tasks, horizon)
		_, _, pass1, _ := AnalyzeStable(tasks, Options{Horizon: horizon})
		for i := range res {
			if res[i].W != pass1[i] {
				multiPass++
				break
			}
		}
		if slices.ContainsFunc(res, func(r Result) bool { return !r.Converged }) {
			clamped++
		}
	}
	if multiPass < 10 || clamped < 5 {
		t.Errorf("long runs: %d multi-pass and %d clamped trials of 60, want >= 10 and >= 5", multiPass, clamped)
	}
	t.Logf("long runs: %d multi-pass, %d clamped trials of 60", multiPass, clamped)
}

// TestDuplicatePriorityError checks that AnalyzeStable reports a
// duplicate priority with ValidateTasks' exact error, naming the first
// duplicate in index order even when a later pair sorts first.
func TestDuplicatePriorityError(t *testing.T) {
	tasks := []Task{
		{Name: "a", Resource: 0, Priority: 5, C: 1, T: 10},
		{Name: "b", Resource: 0, Priority: 1, C: 1, T: 10},
		{Name: "c", Resource: 0, Priority: 5, C: 1, T: 10},
		{Name: "d", Resource: 0, Priority: 1, C: 1, T: 10},
	}
	const want = "rta: tasks a and c share priority 5 on resource 0"
	if _, _, _, err := AnalyzeStable(tasks, Options{Horizon: hz}); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}

	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		tasks := oracleTaskSet(r)
		if len(tasks) < 2 {
			continue
		}
		i, j := r.Intn(len(tasks)), r.Intn(len(tasks))
		if i == j {
			continue
		}
		tasks[j].Resource, tasks[j].Priority = tasks[i].Resource, tasks[i].Priority
		if trial%4 == 0 {
			tasks[r.Intn(len(tasks))].C = 0 // a field error may come first
		}
		want := ValidateTasks(tasks)
		if want == nil {
			t.Fatalf("trial %d: ValidateTasks accepted a duplicate", trial)
		}
		_, _, _, err := AnalyzeStable(tasks, Options{Horizon: hz})
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("trial %d: err = %v, want %v", trial, err, want)
		}
	}
}
