package solve

import (
	"context"
	"testing"

	"repro/internal/core"
)

// The benchmarks below compare the cold-start path (a fresh Solver per
// operation, with a fresh incremental evaluator) with the session path
// (one Solver reused), for the analyze and synthesize entry points. CI collects
// them into the BENCH_solver.json artifact.

func benchSolver(b *testing.B) *Solver {
	b.Helper()
	app, arch := system(b, 1)
	s, err := New(app, arch)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSolverAnalyzeCold builds a fresh session per analysis.
func BenchmarkSolverAnalyzeCold(b *testing.B) {
	app, arch := system(b, 1)
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(app, arch)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Analyze(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverAnalyzeCached reuses one session for every analysis.
func BenchmarkSolverAnalyzeCached(b *testing.B) {
	s := benchSolver(b)
	cfg := core.DefaultConfig(s.Application(), s.Architecture())
	if err := cfg.Normalize(s.Application()); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Analyze(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverSynthesizeCold runs the OS heuristic on a fresh
// session per call: every call starts with an empty evaluator.
func BenchmarkSolverSynthesizeCold(b *testing.B) {
	app, arch := system(b, 1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(app, arch)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.SynthesizeWith(ctx, OptimizeSchedule); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverSynthesizeCached runs the OS heuristic on one session:
// from the second call on, the analyses come from the warm evaluator.
func BenchmarkSolverSynthesizeCached(b *testing.B) {
	s := benchSolver(b)
	ctx := context.Background()
	if _, err := s.SynthesizeWith(ctx, OptimizeSchedule); err != nil {
		b.Fatal(err) // warm the caches outside the timer
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SynthesizeWith(ctx, OptimizeSchedule); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSynthesizeDelta runs the full OS+OR pipeline on a fresh session
// per iteration with the incremental delta evaluator off/on. A fresh
// session isolates the intra-run reuse (the slot scan and hill climber
// revisiting configurations and stages) from session-level caching,
// which the Cold/Cached pair above measures. Results are bit-identical
// either way; scripts/benchjson.py pairs the *DeltaOff/*DeltaOn
// results into the delta_speedup section of BENCH_solver.json, with
// the delta_hit_rate metric alongside.
func benchSynthesizeDelta(b *testing.B, useDelta bool) {
	app, arch := system(b, 1)
	ctx := context.Background()
	var stats string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(app, arch, WithDelta(useDelta))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.SynthesizeWith(ctx, OptimizeResources); err != nil {
			b.Fatal(err)
		}
		if useDelta {
			ds := s.DeltaStats()
			b.ReportMetric(ds.HitRate(), "delta_hit_rate")
			b.ReportMetric(ds.StageHitRate(), "delta_stage_hit_rate")
			stats = ds.String()
		}
	}
	if useDelta && testing.Verbose() {
		b.Log(stats)
	}
}

// BenchmarkSolverSynthesizeDeltaOff is the cold reference leg.
func BenchmarkSolverSynthesizeDeltaOff(b *testing.B) { benchSynthesizeDelta(b, false) }

// BenchmarkSolverSynthesizeDeltaOn is the delta-evaluated leg.
func BenchmarkSolverSynthesizeDeltaOn(b *testing.B) { benchSynthesizeDelta(b, true) }
