// Package hopa implements the "heuristic optimized priority assignment"
// of Gutiérrez García and González Harbour (reference [7] of the paper),
// which OptimizeSchedule uses to pick the ET process and CAN message
// priorities for a candidate bus configuration.
//
// The approach follows HOPA's structure: distribute each graph's
// end-to-end deadline over the activities along its paths as local
// deadlines (an ALAP backward pass weighted by execution and
// communication costs), assign priorities deadline-monotonically per
// resource (per ET CPU and over the CAN bus), then iteratively
// redistribute the local deadlines guided by the worst-case completions
// observed in the full multi-cluster analysis, keeping the assignment
// with the best degree of schedulability.
package hopa

import (
	"fmt"
	"sort"

	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/ttp"
)

// Result is the best priority assignment found.
type Result struct {
	ProcPriority map[model.ProcID]int
	MsgPriority  map[model.EdgeID]int
	// Delta is the degree of schedulability achieved with the returned
	// priorities (smaller is better, negative = schedulable).
	Delta model.Time
	// Schedulable mirrors the analysis verdict for the best assignment.
	Schedulable bool
	// Evaluations counts the multi-cluster analyses performed.
	Evaluations int
}

// DefaultIterations is the number of redistribution rounds
// OptimizeSchedule runs per candidate when its options leave the count
// unset. It is the one default of the flow; Assign itself takes an
// explicit count.
const DefaultIterations = 2

// Assign computes priorities for the given TDMA round, analyzing every
// redistribution round through eval. The round is not modified; it
// only parameterizes the analysis. iterations must be positive.
// Evaluations counts every analysis the loop requests, whether or not
// eval served it from a cache, so reports stay comparable across
// analyzers.
func Assign(app *model.Application, arch *model.Architecture, round ttp.Round, iterations int, eval engine.Analyzer) (*Result, error) {
	if iterations <= 0 {
		return nil, fmt.Errorf("hopa: %d iterations, want at least 1", iterations)
	}
	ld, err := initialLocalDeadlines(app, arch, round)
	if err != nil {
		return nil, err
	}
	best := &Result{}
	for it := 0; it < iterations; it++ {
		procPrio, msgPrio := deadlineMonotonic(app, arch, ld)
		cfg := &core.Config{Round: round.Clone(), ProcPriority: procPrio, MsgPriority: msgPrio}
		if err := cfg.Normalize(app); err != nil {
			return nil, err
		}
		a, err := eval(cfg)
		if err != nil {
			return nil, err
		}
		best.Evaluations++
		if best.ProcPriority == nil || a.Delta < best.Delta {
			best.ProcPriority = procPrio
			best.MsgPriority = msgPrio
			best.Delta = a.Delta
			best.Schedulable = a.Schedulable
		}
		if it < iterations-1 {
			redistribute(app, arch, a, ld)
		}
	}
	return best, nil
}

// activityKey addresses both kinds of prioritized activities.
type activityKey struct {
	proc   model.ProcID // valid when isProc
	edge   model.EdgeID
	isProc bool
}

// initialLocalDeadlines runs the ALAP backward pass: the local deadline
// of an activity is the latest completion that still lets every
// downstream path meet the graph deadline, using WCETs and rough
// communication latencies (CAN frame time; one TDMA round per TTP leg;
// both plus the gateway cost for inter-cluster routes).
func initialLocalDeadlines(app *model.Application, arch *model.Architecture, round ttp.Round) (map[activityKey]model.Time, error) {
	ld := make(map[activityKey]model.Time)
	commCost := func(e model.EdgeID) model.Time {
		switch app.RouteOf(e, arch) {
		case model.RouteLocal:
			return 0
		case model.RouteTTP:
			return round.Period()
		case model.RouteCAN:
			return can.TimeOf(&app.Edges[e], arch.CAN)
		case model.RouteTTtoET:
			return round.Period() + arch.GatewayCost + can.TimeOf(&app.Edges[e], arch.CAN)
		default: // RouteETtoTT
			return can.TimeOf(&app.Edges[e], arch.CAN) + arch.GatewayCost + round.Period()
		}
	}
	for g := range app.Graphs {
		order, err := app.TopoOrder(g)
		if err != nil {
			return nil, err
		}
		d := app.Graphs[g].Deadline
		procLD := make(map[model.ProcID]model.Time)
		for i := len(order) - 1; i >= 0; i-- {
			p := order[i]
			pd := d
			for _, e := range app.OutEdges(p) {
				dst := app.Edges[e].Dst
				edgeLD := procLD[dst] - app.Procs[dst].WCET
				if edgeLD < 1 {
					edgeLD = 1
				}
				ld[activityKey{edge: e, isProc: false}] = edgeLD
				if t := edgeLD - commCost(e); t < pd {
					pd = t
				}
			}
			if pd < 1 {
				pd = 1
			}
			procLD[p] = pd
			ld[activityKey{proc: p, isProc: true}] = pd
		}
	}
	return ld, nil
}

// deadlineMonotonic turns local deadlines into unique priorities per
// resource: smaller local deadline = higher priority (smaller number).
// Ties break on the creation order, which keeps the assignment
// deterministic.
func deadlineMonotonic(app *model.Application, arch *model.Architecture, ld map[activityKey]model.Time) (map[model.ProcID]int, map[model.EdgeID]int) {
	procPrio := make(map[model.ProcID]int)
	byNode := make(map[model.NodeID][]model.ProcID)
	for _, p := range app.Procs {
		if arch.Kind(p.Node) == model.EventTriggered {
			byNode[p.Node] = append(byNode[p.Node], p.ID)
		}
	}
	next := 0
	var nodes []model.NodeID
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		ids := byNode[n]
		sort.Slice(ids, func(i, j int) bool {
			a, b := ids[i], ids[j]
			la := ld[activityKey{proc: a, isProc: true}]
			lb := ld[activityKey{proc: b, isProc: true}]
			if la != lb {
				return la < lb
			}
			return a < b
		})
		for _, id := range ids {
			procPrio[id] = next
			next++
		}
	}
	msgPrio := make(map[model.EdgeID]int)
	var msgs []model.EdgeID
	for _, e := range app.Edges {
		if app.RouteOf(e.ID, arch).UsesCAN() {
			msgs = append(msgs, e.ID)
		}
	}
	sort.Slice(msgs, func(i, j int) bool {
		la := ld[activityKey{edge: msgs[i]}]
		lb := ld[activityKey{edge: msgs[j]}]
		if la != lb {
			return la < lb
		}
		return msgs[i] < msgs[j]
	})
	for i, e := range msgs {
		msgPrio[e] = i
	}
	return procPrio, msgPrio
}

// redistribute moves the local deadlines toward the completion pattern
// observed in the analysis: each activity's target deadline is its
// worst-case completion offset rescaled so the whole graph would just
// meet its deadline; the new local deadline is the average of old and
// target (HOPA's damped redistribution).
func redistribute(app *model.Application, arch *model.Architecture, a *core.Analysis, ld map[activityKey]model.Time) {
	for g := range app.Graphs {
		resp := a.GraphResp[g]
		if resp <= 0 {
			continue
		}
		d := app.Graphs[g].Deadline
		scale := float64(d) / float64(resp)
		for _, p := range app.Graphs[g].Procs {
			if arch.Kind(app.Procs[p].Node) != model.EventTriggered {
				continue
			}
			pr, ok := a.Proc[p]
			if !ok {
				continue
			}
			key := activityKey{proc: p, isProc: true}
			target := model.Time(float64(pr.Completion()) * scale)
			ld[key] = damp(ld[key], target)
		}
		for _, e := range app.Graphs[g].Edges {
			if !app.RouteOf(e, arch).UsesCAN() {
				continue
			}
			er, ok := a.Edge[e]
			if !ok {
				continue
			}
			key := activityKey{edge: e}
			target := model.Time(float64(er.Delivery) * scale)
			ld[key] = damp(ld[key], target)
		}
	}
}

func damp(old, target model.Time) model.Time {
	v := (old + target) / 2
	if v < 1 {
		return 1
	}
	return v
}
