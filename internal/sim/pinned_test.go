package sim

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/opt"
)

// TestAnalysisDominatesSimulationWithPins validates the pinned-offset
// path: OptimizeResources configurations carry PinnedProc/PinnedEdge
// constraints, which route through a different branch of the static
// scheduler than plain OS configurations. The analysed bounds must
// still dominate the simulation.
func TestAnalysisDominatesSimulationWithPins(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis + simulation sweep")
	}
	validated := 0
	pinned := 0
	for seed := int64(1); seed <= 5; seed++ {
		sys, err := gen.Generate(gen.Spec{
			Seed: seed, TTNodes: 1, ETNodes: 1, ProcsPerNode: 8, ProcsPerGraph: 8,
		})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		app, arch := sys.Application, sys.Architecture
		orres, err := opt.OptimizeResources(context.Background(), app, arch, engine.Serial(), coldAnalyzer(app, arch), opt.OROptions{
			MaxIterations: 12, NeighborBudget: 16, Seeds: 2,
		})
		if err != nil {
			t.Fatalf("OptimizeResources: %v", err)
		}
		best := orres.Best
		if best == nil || !best.Schedulable() {
			continue
		}
		validated++
		if len(best.Config.PinnedProc)+len(best.Config.PinnedEdge) > 0 {
			pinned++
		}
		for _, mode := range []ExecMode{WorstCase, RandomCase} {
			res, err := Run(app, arch, best.Config, best.Analysis, Options{Cycles: 2, Exec: mode, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d: Run: %v", seed, err)
			}
			if res.DeadlineMisses != 0 {
				t.Errorf("seed %d mode %v: %d deadline misses", seed, mode, res.DeadlineMisses)
			}
			checkDominance(t, app, best.Analysis, res)
		}
	}
	if validated == 0 {
		t.Fatal("no schedulable OR result to validate")
	}
	t.Logf("validated %d OR configurations (%d carrying pins)", validated, pinned)
}
