package core

import (
	"fmt"

	"repro/internal/can"
	"repro/internal/gateway"
	"repro/internal/model"
	"repro/internal/rta"
	"repro/internal/tsched"
)

// ProcResult holds the analysis outcome of one process, relative to its
// graph release: the activation window starts at O, spreads over J, and
// the process completes no later than O + R (R = J + W + C).
// TT processes have deterministic starts: W is 0 and J is the envelope
// spread across hyper-period instances.
type ProcResult struct {
	O, J, W, R model.Time
	Converged  bool
}

// Completion returns the worst-case completion offset O + R.
func (p ProcResult) Completion() model.Time { return p.O + p.R }

// EdgeResult holds the per-leg analysis of a message.
type EdgeResult struct {
	Route model.Route
	// TTPArrival is the worst-case in-period delivery offset of the
	// statically scheduled TTP leg (routes TT->TT and TT->ET).
	TTPArrival model.Time
	// CANO/CANJ/CANW/CANR describe the CAN leg (routes using the bus):
	// entry offset, entry jitter, arbitration delay and response.
	CANO, CANJ, CANW, CANR model.Time
	// QueueJ/QueueW/QueueI describe the OutTTP FIFO leg (route ET->TT):
	// entry jitter (relative to CANO), queuing delay and bytes ahead.
	QueueJ, QueueW model.Time
	QueueI         int
	// Delivery is the worst-case offset at which the message is
	// available at the destination node, relative to the graph release.
	Delivery model.Time
	// Converged is false if any leg's fixed point hit the horizon.
	Converged bool
}

// Buffers reports the gateway/ETC queue bounds of §4.1 and their sum,
// the optimization objective s_total of §5. The Critical* fields name
// the message attaining each bound (-1 when the queue is unused); the
// OptimizeResources neighbourhood focuses its moves there.
type Buffers struct {
	OutCAN  int
	OutTTP  int
	OutNode map[model.NodeID]int
	Total   int

	CriticalOutCAN  model.EdgeID
	CriticalOutTTP  model.EdgeID
	CriticalOutNode map[model.NodeID]model.EdgeID
}

// Analysis is the outcome of MultiClusterScheduling for one system
// configuration.
type Analysis struct {
	Schedule *tsched.Schedule
	Proc     map[model.ProcID]ProcResult
	Edge     map[model.EdgeID]EdgeResult
	// GraphResp is R_Gi per process graph: the worst-case offset of the
	// sink completions relative to the graph release.
	GraphResp []model.Time
	// Schedulable is true when every graph meets its deadline, every
	// local process deadline holds, the static table fits its cycle and
	// all fixed points converged.
	Schedulable bool
	// Delta is the degree of schedulability delta_Gamma (§5): when
	// positive it is f1 = sum of deadline overruns (smaller is better);
	// when every deadline holds it is f2 = sum of (R_Gi - D_Gi), a
	// negative number measuring aggregate slack (more negative is
	// better). Delta never mixes the two regimes: f1 > 0 implies
	// Delta = f1 > 0 >= any schedulable f2.
	Delta model.Time
	// Buffers holds the queue bounds; Buffers.Total is s_total.
	Buffers Buffers
	// Iterations counts the outer MultiClusterScheduling loops;
	// Converged reports whether the offsets stabilized before the cap.
	Iterations int
	Converged  bool
}

// horizonFactor scales the hyper-period into the divergence cap of all
// fixed points.
const horizonFactor = 8

// maxMCSIterations caps the outer loop of Fig. 5; maxHolisticIterations
// caps the inner jitter-propagation loop.
const (
	maxMCSIterations      = 32
	maxHolisticIterations = 100
)

// AnalyzeOptions tunes Analyze variants.
type AnalyzeOptions struct {
	// OffsetBlind disables the offset-based interference reduction of
	// §4: every activity is treated as phase-unrelated (classic
	// critical-instant analysis). Used by the ablation experiments to
	// quantify the value of the paper's offset refinement.
	OffsetBlind bool
	// Memo, when non-nil, serves the analysis stages (static schedule,
	// per-resource RTA fixed points, OutTTP queue) through exact-input
	// caches shared across configurations (see Memo). Results are
	// bit-identical to Memo == nil; the nil path remains the reference
	// implementation. One Memo must only ever see one (app, arch) pair
	// and one OffsetBlind setting — internal/delta enforces this.
	Memo *Memo
	// SelfCheck recomputes every warm-started RTA fixed point from its
	// cold start and panics on a mismatch (rta.Options.SelfCheck). Tests
	// of the incremental evaluator enable it; it costs the warm starts'
	// savings.
	SelfCheck bool
}

// Analyze runs MultiClusterScheduling (Fig. 5): starting from a static
// schedule that ignores the ETC, it alternates the ETC response-time
// analysis with the TTC static scheduling until the ET->TT arrival
// offsets stabilize. The release constraints only grow across iterations
// (monotone envelope), which guarantees termination; configurations that
// fail to stabilize within the cap are flagged unconverged and carry
// clamped response times, so optimization cost functions can still rank
// them.
func Analyze(app *model.Application, arch *model.Architecture, cfg *Config) (*Analysis, error) {
	return AnalyzeWith(app, arch, cfg, AnalyzeOptions{})
}

// AnalyzeOffsetBlind runs the analysis with the offset refinement
// disabled (see AnalyzeOptions.OffsetBlind).
func AnalyzeOffsetBlind(app *model.Application, arch *model.Architecture, cfg *Config) (*Analysis, error) {
	return AnalyzeWith(app, arch, cfg, AnalyzeOptions{OffsetBlind: true})
}

// AnalyzeWith is Analyze with explicit options.
func AnalyzeWith(app *model.Application, arch *model.Architecture, cfg *Config, aopts AnalyzeOptions) (*Analysis, error) {
	if err := cfg.Validate(app, arch); err != nil {
		return nil, err
	}
	hyper, err := app.Hyperperiod()
	if err != nil {
		return nil, err
	}
	if cfg.Round.Period() <= 0 || hyper%cfg.Round.Period() != 0 {
		return nil, errRoundNotNormalized(cfg.Round.Period(), hyper)
	}
	horizon := hyper * horizonFactor
	// Cyclic graphs fail here with the error tsched.Build would return.
	tasks, err := newETTaskSet(app, arch, cfg, aopts.OffsetBlind)
	if err != nil {
		return nil, err
	}

	release := make(map[model.ProcID]model.Time)
	var (
		sched *tsched.Schedule
		state *etState
	)
	iterations := 0
	converged := false
	for iterations < maxMCSIterations {
		iterations++
		in := tsched.Input{
			App: app, Arch: arch, Round: cfg.Round,
			ReleaseOffset: release,
			PinnedProc:    cfg.PinnedProc,
			PinnedEdge:    cfg.PinnedEdge,
		}
		if aopts.Memo != nil {
			sched, err = aopts.Memo.buildSchedule(in)
		} else {
			sched, err = tsched.Build(in)
		}
		if err != nil {
			return nil, err
		}
		state = analyzeET(app, arch, cfg, sched, tasks, horizon, aopts)
		changed := false
		for _, e := range app.Edges {
			if state.edge[e.ID].Route != model.RouteETtoTT {
				continue
			}
			dst := e.Dst
			d := state.edge[e.ID].Delivery
			if d > horizon {
				d = horizon
			}
			if d > release[dst] {
				release[dst] = d
				changed = true
			}
		}
		if !changed {
			converged = true
			break
		}
	}

	a := &Analysis{
		Schedule:   sched,
		Proc:       make(map[model.ProcID]ProcResult, len(state.proc)),
		Edge:       make(map[model.EdgeID]EdgeResult, len(state.edge)),
		Iterations: iterations,
		Converged:  converged && state.converged,
	}
	for p, pr := range state.proc {
		if state.hasProc[p] {
			a.Proc[model.ProcID(p)] = pr
		}
	}
	for e, er := range state.edge {
		a.Edge[model.EdgeID(e)] = er
	}
	a.finishMetrics(app, arch, cfg, state)
	return a, nil
}

func errRoundNotNormalized(period, hyper model.Time) error {
	return fmt.Errorf("core: round period %d does not divide hyper-period %d (call Config.Normalize)", period, hyper)
}

// finishMetrics computes graph responses, delta and buffer bounds.
func (a *Analysis) finishMetrics(app *model.Application, arch *model.Architecture, cfg *Config, state *etState) {
	a.GraphResp = make([]model.Time, len(app.Graphs))
	var f1, f2 model.Time
	allConverged := a.Converged
	for g := range app.Graphs {
		var resp model.Time
		for _, p := range app.Graphs[g].Procs {
			if !state.hasProc[p] {
				continue
			}
			pr := &state.proc[p]
			if !pr.Converged {
				allConverged = false
			}
			if len(app.OutEdges(p)) == 0 && pr.Completion() > resp {
				resp = pr.Completion()
			}
			if d := app.Procs[p].Deadline; d > 0 && pr.Completion() > d {
				f1 += pr.Completion() - d
			}
		}
		a.GraphResp[g] = resp
		d := app.Graphs[g].Deadline
		if resp > d {
			f1 += resp - d
		}
		f2 += resp - d
	}
	if f1 > 0 {
		a.Delta = f1
	} else {
		a.Delta = f2
	}
	a.Schedulable = f1 == 0 && a.Schedule.WithinCycle && allConverged
	a.Converged = allConverged
	a.Buffers = computeBuffers(app, arch, cfg, state)
}

// etTaskSet is the ET side of one configuration as an RTA task set: one
// task per ET process (resource: its node) and per CAN leg (resource:
// the bus), in (resource, priority) order (rta.PriorityOrder) with the
// non-preemptive blocking factors filled in, plus the topological
// process order the holistic traversal follows. Everything except the
// offsets and jitters is fixed by the configuration, so AnalyzeWith
// builds the set once and each holistic iteration refreshes O and J in
// place.
type etTaskSet struct {
	tasks []rta.Task
	refs  []etTaskRef
	order []model.ProcID
}

// etTaskRef names the process or the CAN leg behind one task.
type etTaskRef struct {
	proc model.ProcID
	edge model.EdgeID
	msg  bool // edge is set, proc is not
}

func newETTaskSet(app *model.Application, arch *model.Architecture, cfg *Config, offsetBlind bool) (*etTaskSet, error) {
	order, err := app.TopoOrderAll()
	if err != nil {
		return nil, err
	}
	canBus := len(arch.Nodes) // resource id for the CAN bus
	var (
		tasks []rta.Task
		refs  []etTaskRef
	)
	for _, p := range app.Procs {
		if arch.Kind(p.Node) != model.EventTriggered {
			continue
		}
		tasks = append(tasks, rta.Task{
			Name: p.Name, Resource: int(p.Node), Priority: cfg.ProcPriority[p.ID],
			C: p.WCET, T: app.PeriodOf(p.ID), Trans: transOf(p.Graph, offsetBlind),
		})
		refs = append(refs, etTaskRef{proc: p.ID})
	}
	for _, e := range app.Edges {
		if !app.RouteOf(e.ID, arch).UsesCAN() {
			continue
		}
		tasks = append(tasks, rta.Task{
			Name: e.Name, Resource: canBus, Priority: cfg.MsgPriority[e.ID],
			C: canTimeOf(app, arch, e.ID), T: app.EdgePeriod(e.ID),
			Trans: transOf(e.Graph, offsetBlind), NonPreemptive: true,
		})
		refs = append(refs, etTaskRef{edge: e.ID, msg: true})
	}
	ts := &etTaskSet{tasks: make([]rta.Task, len(tasks)), refs: make([]etTaskRef, len(refs)), order: order}
	for k, i := range rta.PriorityOrder(tasks) {
		ts.tasks[k], ts.refs[k] = tasks[i], refs[i]
	}
	// Non-preemptive blocking on the CAN bus: B = max lower-priority C.
	for i, b := range rta.Blocking(ts.tasks) {
		if ts.tasks[i].NonPreemptive {
			ts.tasks[i].B = b
		}
	}
	return ts, nil
}

// etState is the mutable state of the holistic ET-side analysis,
// indexed by ProcID and EdgeID. Every edge has a result; a process has
// one when hasProc is set (ET processes, and TT processes the static
// schedule gives an offset).
type etState struct {
	proc        []ProcResult
	hasProc     []bool
	edge        []EdgeResult
	tasks       *etTaskSet
	converged   bool
	offsetBlind bool
	selfCheck   bool
	memo        *Memo
}

// analyzeET runs the holistic inner loop: offsets are fixed by the
// static schedule and the graph structure; jitters propagate along the
// graphs and grow monotonically until the response times stabilize.
func analyzeET(app *model.Application, arch *model.Architecture, cfg *Config, sched *tsched.Schedule, tasks *etTaskSet, horizon model.Time, aopts AnalyzeOptions) *etState {
	st := &etState{
		proc:        make([]ProcResult, len(app.Procs)),
		hasProc:     make([]bool, len(app.Procs)),
		edge:        make([]EdgeResult, len(app.Edges)),
		tasks:       tasks,
		converged:   true,
		offsetBlind: aopts.OffsetBlind,
		selfCheck:   aopts.SelfCheck,
		memo:        aopts.Memo,
	}
	rT := arch.GatewayCost
	poll := arch.GatewayPoll

	// Static facts: TT process results and TTP-leg arrivals.
	for _, p := range app.Procs {
		if arch.Kind(p.Node) != model.TimeTriggered {
			continue
		}
		off, spread, ok := sched.OffsetOf(app, p.ID)
		if !ok {
			continue
		}
		st.proc[p.ID] = ProcResult{O: off, J: spread, W: 0, R: spread + p.WCET, Converged: true}
		st.hasProc[p.ID] = true
	}
	for _, e := range app.Edges {
		route := app.RouteOf(e.ID, arch)
		er := EdgeResult{Route: route, Converged: true}
		if route.UsesTTP() {
			if worst, ok := sched.WorstArrivalOffset(app, e.ID); ok {
				er.TTPArrival = worst
				if route == model.RouteTTP {
					er.Delivery = worst
				}
			}
		}
		st.edge[e.ID] = er
	}

	// Holistic loop: traverse graphs to refresh O/J from current
	// responses, then run the per-resource fixed points.
	for it := 0; it < maxHolisticIterations; it++ {
		st.traverse(app, arch, cfg, sched, tasks.order, rT, poll)
		changed := st.runRTA(horizon)
		changed = st.runQueue(app, arch, cfg, rT, horizon) || changed
		if !changed {
			return st
		}
	}
	st.converged = false
	return st
}

// traverse recomputes activation offsets and jitters along every graph,
// using the current leg responses.
func (st *etState) traverse(app *model.Application, arch *model.Architecture, cfg *Config, sched *tsched.Schedule, order []model.ProcID, rT, poll model.Time) {
	for _, pid := range order {
		p := &app.Procs[pid]
		// Refresh the legs of the incoming edges first, then the
		// process itself.
		if arch.Kind(p.Node) == model.EventTriggered {
			var o, worst model.Time
			first := true
			for _, e := range app.InEdges(pid) {
				er := st.edge[e]
				var co, cd model.Time // contribution offset, worst delivery
				switch er.Route {
				case model.RouteLocal:
					src := st.proc[app.Edges[e].Src]
					co, cd = src.O, src.Completion()
				case model.RouteCAN, model.RouteTTtoET:
					co, cd = er.CANO, er.CANO+er.CANR
				default:
					continue
				}
				if first || co > o {
					o = co
				}
				if first || cd > worst {
					worst = cd
				}
				first = false
			}
			pr := &st.proc[pid]
			pr.O = o
			pr.J = max(worst-o, 0)
			// W, R filled by runRTA; keep current values meanwhile.
			pr.R = max(pr.R, pr.J+p.WCET)
			st.hasProc[pid] = true
		}
		// Outgoing edges: set the entry offset/jitter of their legs.
		src := &st.proc[pid]
		for _, e := range app.OutEdges(pid) {
			er := &st.edge[e]
			switch er.Route {
			case model.RouteCAN, model.RouteETtoTT:
				er.CANO = src.O
				er.CANJ = src.R // completion worst = O + R
				if er.Route == model.RouteETtoTT {
					er.QueueJ = er.CANJ + er.CANW + canTimeOf(app, arch, e) + rT
				}
			case model.RouteTTtoET:
				off, spread, ok := sched.ArrivalOffsetOf(app, e)
				if ok {
					er.CANO = off
					er.CANJ = spread + rT + poll
				}
			}
		}
	}
}

func canTimeOf(app *model.Application, arch *model.Architecture, e model.EdgeID) model.Time {
	return can.TimeOf(&app.Edges[e], arch.CAN)
}

// runRTA refreshes the offsets and jitters of the task set from the
// current state and runs the fixed points. It returns whether any W or
// R changed.
func (st *etState) runRTA(horizon model.Time) bool {
	tasks, refs := st.tasks.tasks, st.tasks.refs
	if len(tasks) == 0 {
		return false
	}
	for k, ref := range refs {
		if ref.msg {
			er := &st.edge[ref.edge]
			tasks[k].O, tasks[k].J = er.CANO, er.CANJ
		} else {
			pr := &st.proc[ref.proc]
			tasks[k].O, tasks[k].J = pr.O, pr.J
		}
	}
	var (
		res []rta.Result
		err error
	)
	opt := rta.Options{Horizon: horizon, SelfCheck: st.selfCheck}
	if st.memo != nil {
		// Per-resource memoized path: bit-identical to the monolithic
		// call because interference never crosses resources and the memo
		// reapplies the all-unconverged marking of an exhausted pass
		// budget globally (see Memo.analyzeRTA).
		res, _, err = st.memo.analyzeRTA(tasks, opt)
	} else {
		res, err = rta.Analyze(tasks, opt)
	}
	if err != nil {
		st.converged = false
		return false
	}
	changed := false
	for k, r := range res {
		if !refs[k].msg {
			pr := &st.proc[refs[k].proc]
			if pr.W != r.W || pr.R != r.R {
				changed = true
			}
			pr.W, pr.R, pr.Converged = r.W, r.R, r.Converged
		} else {
			er := &st.edge[refs[k].edge]
			if er.CANW != r.W || er.CANR != r.R {
				changed = true
			}
			er.CANW, er.CANR = r.W, r.R
			er.Converged = r.Converged
			if er.Route == model.RouteCAN || er.Route == model.RouteTTtoET {
				er.Delivery = er.CANO + er.CANR
			}
		}
	}
	return changed
}

// runQueue analyzes the OutTTP FIFO for the ET->TT messages.
func (st *etState) runQueue(app *model.Application, arch *model.Architecture, cfg *Config, rT, horizon model.Time) bool {
	msgs, ids := st.outTTPMsgs(app, arch, cfg)
	if len(msgs) == 0 {
		return false
	}
	slot := cfg.Round.SlotIndexOf(arch.Gateway)
	params := gateway.TTPQueueParams{
		Round: cfg.Round, GatewaySlot: slot,
		TickPerByte: arch.TTP.TickPerByte, Horizon: horizon,
	}
	var (
		res []gateway.TTPResult
		err error
	)
	if st.memo != nil {
		res, err = st.memo.analyzeQueue(msgs, params)
	} else {
		res, err = gateway.AnalyzeOutTTP(msgs, params)
	}
	if err != nil {
		st.converged = false
		return false
	}
	changed := false
	for i, r := range res {
		er := &st.edge[ids[i]]
		delivery := er.CANO + er.QueueJ + r.W + cfg.Round.Slots[slot].Length
		if er.QueueW != r.W || er.QueueI != r.I || er.Delivery != delivery {
			changed = true
		}
		er.QueueW, er.QueueI = r.W, r.I
		er.Delivery = delivery
		if !r.Converged {
			er.Converged = false
		}
	}
	return changed
}

// transOf maps a graph index to the transaction id used by the
// analysis: -1 (pairwise unrelated) in offset-blind mode.
func transOf(graph int, offsetBlind bool) int {
	if offsetBlind {
		return -1
	}
	return graph
}

// outTTPMsgs collects the ET->TT messages as OutTTP queue entries.
func (st *etState) outTTPMsgs(app *model.Application, arch *model.Architecture, cfg *Config) ([]gateway.QueueMsg, []model.EdgeID) {
	var msgs []gateway.QueueMsg
	var ids []model.EdgeID
	for _, e := range app.Edges {
		er := st.edge[e.ID]
		if er.Route != model.RouteETtoTT {
			continue
		}
		msgs = append(msgs, gateway.QueueMsg{
			Name: e.Name, Size: e.Size, T: app.EdgePeriod(e.ID),
			O: er.CANO, J: er.QueueJ,
			Priority: cfg.MsgPriority[e.ID], Trans: transOf(e.Graph, st.offsetBlind),
		})
		ids = append(ids, e.ID)
	}
	return msgs, ids
}

// computeBuffers evaluates the §4.1 queue bounds for the final state.
func computeBuffers(app *model.Application, arch *model.Architecture, cfg *Config, st *etState) Buffers {
	b := Buffers{
		OutNode:         make(map[model.NodeID]int),
		CriticalOutCAN:  -1,
		CriticalOutTTP:  -1,
		CriticalOutNode: make(map[model.NodeID]model.EdgeID),
	}
	// OutCAN: TT->ET messages forwarded by the gateway.
	var outCAN []gateway.CANQueueMsg
	var outCANIDs []model.EdgeID
	// OutN_i: per ET node, the CAN messages its processes send.
	outNode := make(map[model.NodeID][]gateway.CANQueueMsg)
	outNodeIDs := make(map[model.NodeID][]model.EdgeID)
	for _, e := range app.Edges {
		er := st.edge[e.ID]
		qm := gateway.CANQueueMsg{
			QueueMsg: gateway.QueueMsg{
				Name: e.Name, Size: e.Size, T: app.EdgePeriod(e.ID),
				O: er.CANO, J: er.CANJ, Priority: cfg.MsgPriority[e.ID], Trans: transOf(e.Graph, st.offsetBlind),
			},
			W: er.CANW,
		}
		switch er.Route {
		case model.RouteTTtoET:
			outCAN = append(outCAN, qm)
			outCANIDs = append(outCANIDs, e.ID)
		case model.RouteCAN, model.RouteETtoTT:
			n := app.Procs[e.Src].Node
			outNode[n] = append(outNode[n], qm)
			outNodeIDs[n] = append(outNodeIDs[n], e.ID)
		}
	}
	var crit int
	b.OutCAN, crit = gateway.CANQueueBufferBound(outCAN)
	if crit >= 0 {
		b.CriticalOutCAN = outCANIDs[crit]
	}
	for n, msgs := range outNode {
		b.OutNode[n], crit = gateway.CANQueueBufferBound(msgs)
		if crit >= 0 {
			b.CriticalOutNode[n] = outNodeIDs[n][crit]
		}
	}
	msgs, ids := st.outTTPMsgs(app, arch, cfg)
	if len(msgs) > 0 {
		res := make([]gateway.TTPResult, len(ids))
		for i, id := range ids {
			er := st.edge[id]
			res[i] = gateway.TTPResult{W: er.QueueW, I: er.QueueI}
		}
		b.OutTTP, crit = gateway.OutTTPBufferBound(msgs, res)
		if crit >= 0 {
			b.CriticalOutTTP = ids[crit]
		}
	}
	b.Total = b.OutCAN + b.OutTTP
	for _, v := range b.OutNode {
		b.Total += v
	}
	return b
}
