package opt

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// TestOptimizeScheduleParallelEqualsSerial checks the engine contract
// on the OS heuristic: the full result (best, seeds, evaluation count)
// of a parallel run is identical to the serial run's.
func TestOptimizeScheduleParallelEqualsSerial(t *testing.T) {
	app, arch := small(t, 7)
	serial, err := OptimizeSchedule(context.Background(), app, arch, engine.New(1), coldAnalyzer(app, arch), OSOptions{})
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, workers := range []int{2, 8} {
		par, err := OptimizeSchedule(context.Background(), app, arch, engine.New(workers), coldAnalyzer(app, arch), OSOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Evaluations != serial.Evaluations {
			t.Errorf("workers=%d: %d evaluations, serial did %d", workers, par.Evaluations, serial.Evaluations)
		}
		if !reflect.DeepEqual(par.Best.Config, serial.Best.Config) {
			t.Errorf("workers=%d: best config differs from serial", workers)
		}
		if !reflect.DeepEqual(par.Best.Analysis, serial.Best.Analysis) {
			t.Errorf("workers=%d: best analysis differs from serial", workers)
		}
		if len(par.Seeds) != len(serial.Seeds) {
			t.Fatalf("workers=%d: %d seeds, serial found %d", workers, len(par.Seeds), len(serial.Seeds))
		}
		for i := range par.Seeds {
			if !reflect.DeepEqual(par.Seeds[i].Config, serial.Seeds[i].Config) {
				t.Errorf("workers=%d: seed %d differs from serial", workers, i)
			}
		}
	}
}

// TestOptimizeResourcesParallelEqualsSerial checks that the
// hill-climbing outcome (including the rng-driven neighbourhood walk)
// does not depend on the worker count.
func TestOptimizeResourcesParallelEqualsSerial(t *testing.T) {
	app, arch := small(t, 3)
	opts := OROptions{MaxIterations: 6, NeighborBudget: 12, RandSeed: 5}
	serial, err := OptimizeResources(context.Background(), app, arch, engine.New(1), coldAnalyzer(app, arch), opts)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, workers := range []int{2, 8} {
		par, err := OptimizeResources(context.Background(), app, arch, engine.New(workers), coldAnalyzer(app, arch), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Evaluations != serial.Evaluations || par.Improved != serial.Improved {
			t.Errorf("workers=%d: evals=%d improved=%v, serial evals=%d improved=%v",
				workers, par.Evaluations, par.Improved, serial.Evaluations, serial.Improved)
		}
		if !reflect.DeepEqual(par.Best.Config, serial.Best.Config) {
			t.Errorf("workers=%d: best config differs from serial", workers)
		}
		if par.Best.STotal() != serial.Best.STotal() || par.Best.Delta() != serial.Best.Delta() {
			t.Errorf("workers=%d: best (s_total=%d, delta=%d), serial (%d, %d)",
				workers, par.Best.STotal(), par.Best.Delta(), serial.Best.STotal(), serial.Best.Delta())
		}
	}
}

// TestOptimizeResourcesOneAnalyzer checks that both steps of the
// two-step optimization run on the analyzer and the progress hook the
// caller passed: every analysis the run reports went through eval, and
// the OS step streams its events to OROptions.OnProgress too.
func TestOptimizeResourcesOneAnalyzer(t *testing.T) {
	app, arch := small(t, 3)
	var calls atomic.Int64
	cold := coldAnalyzer(app, arch)
	eval := func(cfg *core.Config) (*core.Analysis, error) {
		calls.Add(1)
		return cold(cfg)
	}
	phases := map[string]int{}
	res, err := OptimizeResources(context.Background(), app, arch, engine.New(2), eval, OROptions{
		MaxIterations: 4, NeighborBudget: 8, RandSeed: 5,
		OnProgress: func(p Progress) { phases[p.Phase]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(res.Evaluations) {
		t.Errorf("eval called %d times, run reports %d evaluations", got, res.Evaluations)
	}
	if phases["os"] == 0 {
		t.Errorf("no OS progress events reached OROptions.OnProgress: %v", phases)
	}
}
