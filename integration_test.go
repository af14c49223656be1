package repro

import (
	"bytes"
	"context"
	"testing"
)

// synthesizeOS runs the OS heuristic on a fresh Solver session, which
// the tests below reuse for simulation.
func synthesizeOS(t *testing.T, app *Application, arch *Architecture) (*Solver, *SynthesisResult) {
	t.Helper()
	solver, err := NewSolver(app, arch, WithStrategy(StrategyOptimizeSchedule))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	res, err := solver.Synthesize(context.Background())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	return solver, res
}

// TestConfigRoundTrip synthesizes a configuration, serializes it, loads
// it back and verifies the re-analysis is bit-identical (the whole
// pipeline is deterministic).
func TestConfigRoundTrip(t *testing.T) {
	sys, err := Generate(GenSpec{Seed: 6, TTNodes: 1, ETNodes: 1, ProcsPerNode: 8, ProcsPerGraph: 8})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	app, arch := sys.Application, sys.Architecture
	_, res := synthesizeOS(t, app, arch)
	var buf bytes.Buffer
	if err := SaveConfig(res.Config, &buf); err != nil {
		t.Fatalf("SaveConfig: %v", err)
	}
	loaded, err := LoadConfig(bytes.NewReader(buf.Bytes()), app, arch)
	if err != nil {
		t.Fatalf("LoadConfig: %v", err)
	}
	a1 := res.Analysis
	cold, err := NewSolver(app, arch, WithDelta(false)) // a true re-analysis, not a memo hit
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	a2, err := cold.Analyze(context.Background(), loaded)
	if err != nil {
		t.Fatalf("Analyze(loaded): %v", err)
	}
	if a1.Delta != a2.Delta || a1.Schedulable != a2.Schedulable || a1.Buffers.Total != a2.Buffers.Total {
		t.Errorf("round trip changed the analysis: delta %d/%d buffers %d/%d",
			a1.Delta, a2.Delta, a1.Buffers.Total, a2.Buffers.Total)
	}
	for g := range app.Graphs {
		if a1.GraphResp[g] != a2.GraphResp[g] {
			t.Errorf("graph %d response differs: %d vs %d", g, a1.GraphResp[g], a2.GraphResp[g])
		}
	}
	// Serialization is stable: saving again yields identical bytes.
	var buf2 bytes.Buffer
	if err := SaveConfig(loaded, &buf2); err != nil {
		t.Fatalf("SaveConfig(loaded): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("config serialization is not stable")
	}
}

// TestLoadConfigRejectsForeignSystem: a configuration saved for one
// application must not validate against a different one.
func TestLoadConfigRejectsForeignSystem(t *testing.T) {
	sysA, err := Generate(GenSpec{Seed: 6, TTNodes: 1, ETNodes: 1, ProcsPerNode: 8, ProcsPerGraph: 8})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	solver, err := NewSolver(sysA.Application, sysA.Architecture)
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	res, err := solver.Synthesize(context.Background()) // the default strategy is SF
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	var buf bytes.Buffer
	if err := SaveConfig(res.Config, &buf); err != nil {
		t.Fatalf("SaveConfig: %v", err)
	}
	sysB, err := Generate(GenSpec{Seed: 7, TTNodes: 2, ETNodes: 2, ProcsPerNode: 8, ProcsPerGraph: 8})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if _, err := LoadConfig(bytes.NewReader(buf.Bytes()), sysB.Application, sysB.Architecture); err == nil {
		t.Error("foreign configuration accepted")
	}
}

// TestMultiRateEndToEnd runs the complete pipeline on a multi-rate
// application (two periods): synthesis, analysis and simulation with
// bound checking across two hyper-periods.
func TestMultiRateEndToEnd(t *testing.T) {
	sys, err := Generate(GenSpec{
		Seed: 5, TTNodes: 1, ETNodes: 1, ProcsPerNode: 8, ProcsPerGraph: 8, MultiRate: true,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	app, arch := sys.Application, sys.Architecture
	h, err := app.Hyperperiod()
	if err != nil {
		t.Fatalf("Hyperperiod: %v", err)
	}
	if h == app.Graphs[len(app.Graphs)-1].Period && len(app.Graphs) > 1 {
		t.Log("note: all graphs ended up with the hyperperiod-period")
	}
	solver, res := synthesizeOS(t, app, arch)
	if !res.Analysis.Schedulable {
		t.Skipf("multi-rate seed 5 unschedulable (delta=%d)", res.Analysis.Delta)
	}
	simRes, err := solver.Simulate(context.Background(), res.Config, res.Analysis, SimOptions{Cycles: 2})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if len(simRes.Violations) != 0 {
		t.Fatalf("violations: %v", simRes.Violations)
	}
	for g := range app.Graphs {
		if simRes.GraphWorstResp[g] > res.Analysis.GraphResp[g] {
			t.Errorf("graph %d: simulated %d exceeds analysed %d", g, simRes.GraphWorstResp[g], res.Analysis.GraphResp[g])
		}
	}
}

// TestSimulationTrace exercises the textual trace output end to end.
func TestSimulationTrace(t *testing.T) {
	sys, err := CruiseController()
	if err != nil {
		t.Fatalf("CruiseController: %v", err)
	}
	solver, res := synthesizeOS(t, sys.Application, sys.Architecture)
	var trace bytes.Buffer
	if _, err := solver.Simulate(context.Background(), res.Config, res.Analysis, SimOptions{Cycles: 1, Trace: &trace}); err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	out := trace.String()
	for _, want := range []string{"TT start", "finish", "CAN start", "deliver", "S_G drain"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("trace misses %q", want)
		}
	}
}
