package repro

import (
	"context"
	"path/filepath"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	sys, err := Generate(GenSpec{Seed: 4, TTNodes: 1, ETNodes: 1, ProcsPerNode: 8, ProcsPerGraph: 8})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ctx := context.Background()
	solver, err := NewSolver(sys.Application, sys.Architecture, WithStrategy(StrategyOptimizeSchedule))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	res, err := solver.Synthesize(ctx)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if res.Analysis == nil || res.Config == nil || res.Evaluations <= 0 {
		t.Fatal("incomplete synthesis result")
	}
	if !res.Analysis.Schedulable {
		t.Skipf("seed 4 not schedulable by OS (delta=%d)", res.Analysis.Delta)
	}
	simRes, err := solver.Simulate(ctx, res.Config, res.Analysis, SimOptions{Cycles: 2})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if len(simRes.Violations) != 0 {
		t.Fatalf("violations: %v", simRes.Violations)
	}
	if simRes.DeadlineMisses != 0 {
		t.Errorf("deadline misses: %d", simRes.DeadlineMisses)
	}
}

func TestFacadeStrategies(t *testing.T) {
	sys, err := Generate(GenSpec{Seed: 2, TTNodes: 1, ETNodes: 1, ProcsPerNode: 6, ProcsPerGraph: 6})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	ctx := context.Background()
	solver, err := NewSolver(sys.Application, sys.Architecture, WithSAIterations(30))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	for _, s := range []Strategy{StrategyStraightforward, StrategyOptimizeSchedule, StrategySAS, StrategySAR} {
		res, err := solver.SynthesizeWith(ctx, s)
		if err != nil {
			t.Fatalf("SynthesizeWith(%v): %v", s, err)
		}
		if res.Analysis == nil {
			t.Errorf("%v: no analysis", s)
		}
	}
	if _, err := solver.SynthesizeWith(ctx, Strategy(99)); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]Strategy{
		"sf": StrategyStraightforward, "SF": StrategyStraightforward,
		"os": StrategyOptimizeSchedule, "or": StrategyOptimizeResources,
		"SAS": StrategySAS, "sar": StrategySAR,
		"optimize-resources": StrategyOptimizeResources,
	}
	for in, want := range cases {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Error("invalid strategy accepted")
	}
	// String and ParseStrategy round-trip over every strategy.
	for _, s := range Strategies() {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("round trip: ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if Strategy(42).String() == "" {
		t.Error("empty name for out-of-range strategy")
	}
}

// TestSolverObserverFacade exercises the WithObserver stream through
// the facade aliases.
func TestSolverObserverFacade(t *testing.T) {
	sys, err := Generate(GenSpec{Seed: 2, TTNodes: 1, ETNodes: 1, ProcsPerNode: 6, ProcsPerGraph: 6})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var events []Progress
	solver, err := NewSolver(sys.Application, sys.Architecture,
		WithStrategy(StrategyOptimizeSchedule),
		WithObserver(ObserverFunc(func(p Progress) { events = append(events, p) })))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	if _, err := solver.Synthesize(context.Background()); err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events reached the facade observer")
	}
	for _, e := range events {
		if e.Phase != "os" {
			t.Errorf("unexpected phase %q for the OS strategy", e.Phase)
		}
	}
}

func TestFacadeCruiseAndIO(t *testing.T) {
	sys, err := CruiseController()
	if err != nil {
		t.Fatalf("CruiseController: %v", err)
	}
	if len(sys.Application.Procs) != 40 {
		t.Errorf("cruise has %d processes", len(sys.Application.Procs))
	}
	path := filepath.Join(t.TempDir(), "cruise.json")
	if err := SaveSystem(sys, path); err != nil {
		t.Fatalf("SaveSystem: %v", err)
	}
	loaded, err := LoadSystem(path)
	if err != nil {
		t.Fatalf("LoadSystem: %v", err)
	}
	if loaded.Application.Name != sys.Application.Name {
		t.Error("round trip lost the name")
	}
	cfg := DefaultConfig(loaded.Application, loaded.Architecture)
	if err := cfg.Normalize(loaded.Application); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	solver, err := NewSolver(loaded.Application, loaded.Architecture)
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	if _, err := solver.Analyze(context.Background(), cfg); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
}

func TestFacadeBuilderFlow(t *testing.T) {
	arch, err := NewTwoClusterArchitecture(ArchSpec{TTNodes: 1, ETNodes: 1})
	if err != nil {
		t.Fatalf("NewTwoClusterArchitecture: %v", err)
	}
	app := NewApplication("mini")
	g := app.AddGraph("G", 1000, 900)
	a := app.AddProcess(g, "A", 10, arch.TTNodes()[0])
	b := app.AddProcess(g, "B", 10, arch.ETNodes()[0])
	app.AddEdge("ab", a, b, 8)
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	solver, err := NewSolver(app, arch, WithStrategy(StrategyOptimizeSchedule))
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	res, err := solver.Synthesize(context.Background())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !res.Analysis.Schedulable {
		t.Errorf("trivial system unschedulable: delta=%d", res.Analysis.Delta)
	}
}
