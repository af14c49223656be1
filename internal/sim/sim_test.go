package sim

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/ttp"
)

// fig4d builds the paper's Figure 4 system in the schedulable panel-(d)
// configuration (S_1 first, P2 high priority).
func fig4d(t *testing.T) (*model.Application, *model.Architecture, *core.Config, *core.Analysis) {
	t.Helper()
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{
		TTNodes: 1, ETNodes: 1, TickPerByte: 1, CANBitTime: 1, GatewayCost: 5,
	})
	if err != nil {
		t.Fatalf("arch: %v", err)
	}
	app := model.NewApplication("fig4")
	g := app.AddGraph("G1", 240, 200)
	n1 := arch.TTNodes()[0]
	n2 := arch.ETNodes()[0]
	p1 := app.AddProcess(g, "P1", 30, n1)
	p2 := app.AddProcess(g, "P2", 20, n2)
	p3 := app.AddProcess(g, "P3", 20, n2)
	p4 := app.AddProcess(g, "P4", 30, n1)
	m1 := app.AddEdge("m1", p1, p2, 8)
	m2 := app.AddEdge("m2", p1, p3, 8)
	m3 := app.AddEdge("m3", p2, p4, 4)
	for _, e := range []model.EdgeID{m1, m2, m3} {
		app.Edges[e].CANTime = 10
	}
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	cfg := &core.Config{
		Round: ttp.Round{Slots: []ttp.Slot{
			{Node: n1, Length: 20}, {Node: arch.Gateway, Length: 20},
		}},
		ProcPriority: map[model.ProcID]int{p2: 1, p3: 2},
		MsgPriority:  map[model.EdgeID]int{m1: 1, m2: 2, m3: 3},
	}
	if err := cfg.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	a, err := core.Analyze(app, arch, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !a.Schedulable {
		t.Fatalf("panel (d) must be schedulable, delta=%d", a.Delta)
	}
	return app, arch, cfg, a
}

func TestFig4dTrace(t *testing.T) {
	app, arch, cfg, a := fig4d(t)
	res, err := Run(app, arch, cfg, a, Options{Cycles: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.DeadlineMisses != 0 {
		t.Errorf("deadline misses: %d", res.DeadlineMisses)
	}
	// The exact WCET trace: P4 completes at 190 (the analysis bound is
	// tight here), P3 at 115.
	if got := res.GraphWorstResp[0]; got != 190 {
		t.Errorf("simulated R_G1 = %d, want 190", got)
	}
	if got := res.ProcWorstResp[2]; got != 115 {
		t.Errorf("simulated response(P3) = %d, want 115", got)
	}
	// All instances of the two cycles completed: 4 procs x 2 cycles.
	if res.Completed != 8 {
		t.Errorf("completed = %d, want 8", res.Completed)
	}
	// Queue peaks match the hand-computed trace.
	if res.PeakOutCAN != 16 {
		t.Errorf("peak OutCAN = %d, want 16", res.PeakOutCAN)
	}
	if res.PeakOutTTP != 4 {
		t.Errorf("peak OutTTP = %d, want 4", res.PeakOutTTP)
	}
}

// TestAnalysisDominatesSimulationFig4 is E7 on the worked example:
// every simulated observable stays within its analysed bound.
func TestAnalysisDominatesSimulationFig4(t *testing.T) {
	app, arch, cfg, a := fig4d(t)
	for _, mode := range []ExecMode{WorstCase, BestCase, RandomCase} {
		res, err := Run(app, arch, cfg, a, Options{Cycles: 3, Exec: mode, Seed: 11})
		if err != nil {
			t.Fatalf("Run(%v): %v", mode, err)
		}
		checkDominance(t, app, a, res)
	}
}

func checkDominance(t *testing.T, app *model.Application, a *core.Analysis, res *Result) {
	t.Helper()
	for g := range app.Graphs {
		if res.GraphWorstResp[g] > a.GraphResp[g] {
			t.Errorf("graph %d: simulated %d exceeds analysed %d", g, res.GraphWorstResp[g], a.GraphResp[g])
		}
	}
	for p, simResp := range res.ProcWorstResp {
		if pr, ok := a.Proc[p]; ok && simResp > pr.Completion() {
			t.Errorf("process %s: simulated %d exceeds analysed %d", app.Procs[p].Name, simResp, pr.Completion())
		}
	}
	for e, simDel := range res.EdgeWorstDelivery {
		er, ok := a.Edge[e]
		if !ok || er.Route == model.RouteLocal {
			continue
		}
		if simDel > er.Delivery {
			t.Errorf("edge %s (%v): simulated delivery %d exceeds analysed %d", app.Edges[e].Name, er.Route, simDel, er.Delivery)
		}
	}
	if res.PeakOutCAN > a.Buffers.OutCAN {
		t.Errorf("OutCAN peak %d exceeds bound %d", res.PeakOutCAN, a.Buffers.OutCAN)
	}
	if res.PeakOutTTP > a.Buffers.OutTTP {
		t.Errorf("OutTTP peak %d exceeds bound %d", res.PeakOutTTP, a.Buffers.OutTTP)
	}
	for n, peak := range res.PeakOutNode {
		if peak > a.Buffers.OutNode[n] {
			t.Errorf("OutN_%d peak %d exceeds bound %d", n, peak, a.Buffers.OutNode[n])
		}
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
}

func TestDeterminism(t *testing.T) {
	app, arch, cfg, a := fig4d(t)
	r1, err := Run(app, arch, cfg, a, Options{Cycles: 2, Exec: RandomCase, Seed: 5})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r2, err := Run(app, arch, cfg, a, Options{Cycles: 2, Exec: RandomCase, Seed: 5})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r1.GraphWorstResp[0] != r2.GraphWorstResp[0] || r1.Completed != r2.Completed ||
		r1.PeakOutCAN != r2.PeakOutCAN || r1.PeakOutTTP != r2.PeakOutTTP {
		t.Error("same seed produced different traces")
	}
}

func TestRejectsOverflowingSchedule(t *testing.T) {
	// Panel (a) of Figure 4 does not fit the cycle (P4 at 220+30 > 240):
	// the simulator must refuse it.
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{
		TTNodes: 1, ETNodes: 1, TickPerByte: 1, CANBitTime: 1, GatewayCost: 5,
	})
	if err != nil {
		t.Fatalf("arch: %v", err)
	}
	app := model.NewApplication("fig4")
	g := app.AddGraph("G1", 240, 200)
	n1 := arch.TTNodes()[0]
	n2 := arch.ETNodes()[0]
	p1 := app.AddProcess(g, "P1", 30, n1)
	p2 := app.AddProcess(g, "P2", 20, n2)
	p3 := app.AddProcess(g, "P3", 20, n2)
	p4 := app.AddProcess(g, "P4", 30, n1)
	m1 := app.AddEdge("m1", p1, p2, 8)
	m2 := app.AddEdge("m2", p1, p3, 8)
	m3 := app.AddEdge("m3", p2, p4, 4)
	for _, e := range []model.EdgeID{m1, m2, m3} {
		app.Edges[e].CANTime = 10
	}
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	cfg := &core.Config{
		Round: ttp.Round{Slots: []ttp.Slot{
			{Node: arch.Gateway, Length: 20}, {Node: n1, Length: 20},
		}},
		ProcPriority: map[model.ProcID]int{p2: 2, p3: 1},
		MsgPriority:  map[model.EdgeID]int{m1: 1, m2: 2, m3: 3},
	}
	if err := cfg.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	a, err := core.Analyze(app, arch, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if a.Schedulable {
		t.Fatal("panel (a) should be unschedulable")
	}
	if _, err := Run(app, arch, cfg, a, Options{}); err == nil {
		t.Fatal("simulator accepted a non-cyclic schedule")
	}
	if _, err := Run(app, arch, cfg, nil, Options{}); err == nil {
		t.Fatal("simulator accepted a nil analysis")
	}
}

// TestAnalysisDominatesSimulationGenerated is E7 on synthesized random
// systems: synthesize with OptimizeSchedule, then confirm the analysis
// bounds dominate simulated traces under worst-case and random
// execution times.
func TestAnalysisDominatesSimulationGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis + simulation sweep")
	}
	checked := 0
	for seed := int64(1); seed <= 6; seed++ {
		sys, err := gen.Generate(gen.Spec{
			Seed: seed, TTNodes: 1, ETNodes: 1, ProcsPerNode: 8, ProcsPerGraph: 8,
		})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		app, arch := sys.Application, sys.Architecture
		osres, err := opt.OptimizeSchedule(context.Background(), app, arch, engine.Serial(), coldAnalyzer(app, arch), opt.OSOptions{HOPAIterations: 2, SlotCandidates: 2})
		if err != nil {
			t.Fatalf("OptimizeSchedule: %v", err)
		}
		if osres.Best == nil || !osres.Best.Schedulable() {
			continue
		}
		checked++
		cfg, a := osres.Best.Config, osres.Best.Analysis
		for _, mode := range []ExecMode{WorstCase, RandomCase} {
			res, err := Run(app, arch, cfg, a, Options{Cycles: 2, Exec: mode, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d Run(%v): %v", seed, mode, err)
			}
			if res.DeadlineMisses != 0 {
				t.Errorf("seed %d mode %v: %d deadline misses in a schedulable system", seed, mode, res.DeadlineMisses)
			}
			checkDominance(t, app, a, res)
		}
	}
	if checked == 0 {
		t.Fatal("no schedulable synthesized system; generator or OS parameters need retuning")
	}
}

func TestBestCaseNeverSlower(t *testing.T) {
	app, arch, cfg, a := fig4d(t)
	worst, err := Run(app, arch, cfg, a, Options{Cycles: 2, Exec: WorstCase})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Give the processes real best-case times.
	for i := range app.Procs {
		app.Procs[i].BCET = app.Procs[i].WCET / 2
	}
	best, err := Run(app, arch, cfg, a, Options{Cycles: 2, Exec: BestCase})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range app.Procs {
		app.Procs[i].BCET = 0
	}
	if best.GraphWorstResp[0] > worst.GraphWorstResp[0] {
		t.Errorf("best-case response %d exceeds worst-case %d", best.GraphWorstResp[0], worst.GraphWorstResp[0])
	}
	if len(best.Violations) != 0 {
		t.Errorf("best-case violations: %v", best.Violations)
	}
}

// coldAnalyzer is the cold analyzer the tests of this package run the
// optimizers on.
func coldAnalyzer(app *model.Application, arch *model.Architecture) engine.Analyzer {
	return func(cfg *core.Config) (*core.Analysis, error) { return core.Analyze(app, arch, cfg) }
}
