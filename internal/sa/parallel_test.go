package sa

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// TestRunRestartsParallelEqualsSerial checks that the multi-chain
// annealer returns the same best-ever solution and the same counters
// for every worker count.
func TestRunRestartsParallelEqualsSerial(t *testing.T) {
	app, arch := fig4(t)
	initial := core.DefaultConfig(app, arch)
	if err := initial.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	opts := Options{Objective: MinimizeBuffers, Iterations: 60, Seed: 2, Restarts: 4}
	serial, err := RunRestarts(context.Background(), app, arch, engine.New(1), coldAnalyzer(app, arch), initial, opts)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, workers := range []int{2, 8} {
		par, err := RunRestarts(context.Background(), app, arch, engine.New(workers), coldAnalyzer(app, arch), initial, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Evaluations != serial.Evaluations || par.Accepted != serial.Accepted {
			t.Errorf("workers=%d: evals=%d accepted=%d, serial evals=%d accepted=%d",
				workers, par.Evaluations, par.Accepted, serial.Evaluations, serial.Accepted)
		}
		if !reflect.DeepEqual(par.Best.Config, serial.Best.Config) {
			t.Errorf("workers=%d: best config differs from serial", workers)
		}
	}
}

// TestRunRestartsImprovesOnSingleChain checks the point of restarts:
// with several chains the best-ever cost is never worse than the first
// chain's, and the evaluation counter aggregates all chains.
func TestRunRestartsImprovesOnSingleChain(t *testing.T) {
	app, arch := fig4(t)
	initial := core.DefaultConfig(app, arch)
	if err := initial.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	one, err := RunRestarts(context.Background(), app, arch, engine.New(1), coldAnalyzer(app, arch), initial,
		Options{Objective: MinimizeBuffers, Iterations: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunRestarts(context.Background(), app, arch, engine.New(4), coldAnalyzer(app, arch), initial,
		Options{Objective: MinimizeBuffers, Iterations: 60, Seed: 2, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cost(MinimizeBuffers, many.Best) > cost(MinimizeBuffers, one.Best) {
		t.Errorf("4 restarts cost %v, single chain %v", cost(MinimizeBuffers, many.Best), cost(MinimizeBuffers, one.Best))
	}
	if many.Evaluations <= one.Evaluations {
		t.Errorf("4 restarts did %d evaluations, single chain %d", many.Evaluations, one.Evaluations)
	}
}
