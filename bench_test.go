package repro

import (
	"context"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expt"
	"repro/internal/opt"
	"repro/internal/sa"
)

// The benchmarks below regenerate every evaluation artifact of the paper
// (see DESIGN.md §2 for the experiment index):
//
//	E1 Fig 4  -> BenchmarkFigure4
//	E2 Fig 9a -> BenchmarkFig9a
//	E3 Fig 9b -> BenchmarkFig9b
//	E4 Fig 9c -> BenchmarkFig9c
//	E5 §6 run times -> BenchmarkOptimizeSchedule / BenchmarkOptimizeResources
//	                   vs BenchmarkSimulatedAnnealing (the two-orders-of-
//	                   magnitude claim is the ratio of these numbers at
//	                   equal solution counts)
//	E6 cruise -> BenchmarkCruiseSynthesis
//	E7 validation -> BenchmarkSimulation
//
// plus per-size benchmarks of the core analysis. The experiment
// benchmarks use scaled-down parameters (the full-scale sweeps live in
// cmd/mcs-experiments).

// benchOpts keeps the figure benchmarks affordable inside testing.B.
func benchOpts() expt.Options {
	return expt.Options{
		Sizes:        []int{2},
		Seeds:        2,
		Inter:        []int{10},
		SAIterations: 60,
		OR:           opt.OROptions{MaxIterations: 6, NeighborBudget: 8, Seeds: 2},
	}
}

// BenchmarkFigure4 regenerates the Fig. 4 worked example (E1).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 || rows[3].Response != 190 {
			b.Fatalf("unexpected Fig 4 outcome: %+v", rows)
		}
	}
}

// BenchmarkFig9a regenerates the degree-of-schedulability figure (E2).
func BenchmarkFig9a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig9a(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		expt.PrintFig9a(io.Discard, rows)
	}
}

// BenchmarkFig9b regenerates the buffer-need-vs-size figure (E3).
func BenchmarkFig9b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig9b(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		expt.PrintFig9b(io.Discard, rows)
	}
}

// BenchmarkFig9c regenerates the buffer-vs-traffic figure (E4).
func BenchmarkFig9c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig9c(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		expt.PrintFig9c(io.Discard, rows)
	}
}

// BenchmarkCruiseSynthesis regenerates the cruise-controller case study
// table (E6): SF, OS and OR on the 40-process model.
func BenchmarkCruiseSynthesis(b *testing.B) {
	sys, err := CruiseController()
	if err != nil {
		b.Fatal(err)
	}
	app, arch := sys.Application, sys.Architecture
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sf, err := opt.Straightforward(app, arch, cold(app, arch))
		if err != nil {
			b.Fatal(err)
		}
		orres, err := opt.OptimizeResources(context.Background(), app, arch, engine.Serial(), cold(app, arch), opt.OROptions{})
		if err != nil {
			b.Fatal(err)
		}
		if sf.Schedulable() || !orres.Best.Schedulable() {
			b.Fatal("cruise shape regressed: SF must miss, OR must meet")
		}
	}
}

// benchSystem caches one generated application per size class.
func benchSystem(b testing.TB, nodes int) (*Application, *Architecture) {
	b.Helper()
	sys, err := Generate(GenSpec{Seed: 1, TTNodes: nodes / 2, ETNodes: nodes / 2})
	if err != nil {
		b.Fatal(err)
	}
	return sys.Application, sys.Architecture
}

// BenchmarkAnalyze measures one MultiClusterScheduling analysis per
// application size (80 and 160 processes).
func BenchmarkAnalyze80(b *testing.B)  { benchAnalyze(b, 2) }
func BenchmarkAnalyze160(b *testing.B) { benchAnalyze(b, 4) }

func benchAnalyze(b *testing.B, nodes int) {
	solver, cfg := analyzeSetup(b, nodes)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Analyze(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// analyzeSetup returns the benchmark system's normalized default
// configuration and a Solver with delta evaluation off, so every
// analysis is a full cold one, not a config-memo hit.
func analyzeSetup(tb testing.TB, nodes int) (*Solver, *Config) {
	tb.Helper()
	app, arch := benchSystem(tb, nodes)
	cfg := DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		tb.Fatal(err)
	}
	solver, err := NewSolver(app, arch, WithDelta(false))
	if err != nil {
		tb.Fatal(err)
	}
	return solver, cfg
}

// maxAnalyzeAllocs bounds the allocations of one BenchmarkAnalyze160
// analysis: a tenth of the 22 754 it took while the analysis rebuilt
// its interference index on every fixed-point call.
const maxAnalyzeAllocs = 2275

// TestAnalyzeAllocs pins the allocation count of the analysis core on
// the BenchmarkAnalyze160 system. Allocation counts are deterministic,
// so the bound is exact; the race detector allocates on its own, so the
// test only runs without it.
func TestAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	solver, cfg := analyzeSetup(t, 4)
	ctx := context.Background()
	var err error
	allocs := testing.AllocsPerRun(10, func() {
		if _, aerr := solver.Analyze(ctx, cfg); aerr != nil {
			err = aerr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > maxAnalyzeAllocs {
		t.Fatalf("%.0f allocations per analysis, want <= %d", allocs, maxAnalyzeAllocs)
	}
	t.Logf("%.0f allocations per analysis (bound %d)", allocs, maxAnalyzeAllocs)
}

// cold is the cold analyzer the optimizer benchmarks run on.
func cold(app *Application, arch *Architecture) engine.Analyzer {
	return func(cfg *Config) (*Analysis, error) { return core.Analyze(app, arch, cfg) }
}

// BenchmarkOptimizeSchedule measures the OS heuristic (E5, heuristic
// side) on an 80-process application.
func BenchmarkOptimizeSchedule(b *testing.B) {
	app, arch := benchSystem(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.OptimizeSchedule(context.Background(), app, arch, engine.Serial(), cold(app, arch), opt.OSOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeResources measures the full OS+OR pipeline (E5).
func BenchmarkOptimizeResources(b *testing.B) {
	app, arch := benchSystem(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.OptimizeResources(context.Background(), app, arch, engine.Serial(), cold(app, arch), opt.OROptions{MaxIterations: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedAnnealing measures 300 SA iterations on the same
// application (E5, baseline side): compare the per-solution cost with
// the heuristics above.
func BenchmarkSimulatedAnnealing(b *testing.B) {
	app, arch := benchSystem(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sa.RunSAS(context.Background(), app, arch, engine.Serial(), cold(app, arch), sa.Options{Iterations: 300, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulation measures the discrete-event simulator on the
// synthesized cruise controller (E7).
func BenchmarkSimulation(b *testing.B) {
	sys, err := CruiseController()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	solver, err := NewSolver(sys.Application, sys.Architecture, WithStrategy(StrategyOptimizeSchedule))
	if err != nil {
		b.Fatal(err)
	}
	res, err := solver.Synthesize(ctx)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Analysis.Schedulable {
		b.Fatal("cruise OS result unschedulable")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simRes, err := solver.Simulate(ctx, res.Config, res.Analysis, SimOptions{Cycles: 4, Exec: ExecRandom, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(simRes.Violations) != 0 {
			b.Fatalf("violations: %v", simRes.Violations)
		}
	}
}
