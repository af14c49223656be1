package repro_test

import (
	"context"
	"reflect"
	"testing"

	"repro"
)

// batchSystem builds the shared fixture of the batch tests: a small
// system plus a handful of normalized slot-length variants.
func batchSystem(t *testing.T) (*repro.System, []*repro.Config) {
	t.Helper()
	sys, err := repro.Generate(repro.GenSpec{Seed: 5, TTNodes: 1, ETNodes: 1, ProcsPerNode: 6})
	if err != nil {
		t.Fatal(err)
	}
	base := repro.DefaultConfig(sys.Application, sys.Architecture)
	var cfgs []*repro.Config
	for i := 0; i < 6; i++ {
		cfg := base.Clone()
		cfg.Round.Slots[i%len(cfg.Round.Slots)].Length += int64(4 * i)
		if err := cfg.Normalize(sys.Application); err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	return sys, cfgs
}

// TestSolverAnalyzeAllMatchesAnalyze checks the session batch entry
// point: evaluations come back in input order and equal one-at-a-time
// Analyze calls, for serial and parallel pools alike.
func TestSolverAnalyzeAllMatchesAnalyze(t *testing.T) {
	sys, cfgs := batchSystem(t)
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		solver, err := repro.NewSolver(sys.Application, sys.Architecture, repro.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		evals, err := solver.AnalyzeAll(ctx, cfgs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(evals) != len(cfgs) {
			t.Fatalf("workers=%d: %d evaluations for %d configs", workers, len(evals), len(cfgs))
		}
		for i, cfg := range cfgs {
			want, err := solver.Analyze(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if evals[i].Err != nil {
				t.Fatalf("workers=%d cfg %d: %v", workers, i, evals[i].Err)
			}
			if !reflect.DeepEqual(evals[i].Analysis, want) {
				t.Errorf("workers=%d cfg %d: batch analysis differs from Analyze", workers, i)
			}
		}
	}
}
