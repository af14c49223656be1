package dse

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/opt"
)

// system generates a small two-cluster application for the explorer
// tests.
func system(t testing.TB, seed int64) (*model.Application, *model.Architecture) {
	t.Helper()
	sys, err := gen.Generate(gen.Spec{Seed: seed, TTNodes: 1, ETNodes: 1, ProcsPerNode: 6, ProcsPerGraph: 6})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return sys.Application, sys.Architecture
}

// coldAnalyzer is the cold analyzer the tests of this package explore
// on.
func coldAnalyzer(app *model.Application, arch *model.Architecture) engine.Analyzer {
	return func(cfg *core.Config) (*core.Analysis, error) { return core.Analyze(app, arch, cfg) }
}

func explore(t testing.TB, app *model.Application, arch *model.Architecture, pool *engine.Pool, opts Options) *Result {
	t.Helper()
	res, err := Explore(context.Background(), app, arch, pool, coldAnalyzer(app, arch), opts)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	return res
}

// TestExploreFrontMutuallyNonDominated: the returned front is the
// archive invariant made visible — no point may weakly dominate
// another.
func TestExploreFrontMutuallyNonDominated(t *testing.T) {
	app, arch := system(t, 3)
	res := explore(t, app, arch, engine.Serial(), Options{Population: 8, Generations: 4, Seed: 5})
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for i, p := range res.Front {
		for j, q := range res.Front {
			if i != j && p.Objectives().WeaklyDominates(q.Objectives()) {
				t.Errorf("front[%d] %v weakly dominates front[%d] %v",
					i, p.Objectives(), j, q.Objectives())
			}
		}
	}
	if res.Evaluations == 0 || res.Generations != 4 {
		t.Errorf("Evaluations=%d Generations=%d", res.Evaluations, res.Generations)
	}
	if res.Hypervolume <= 0 && len(res.Front) > 1 {
		t.Errorf("hypervolume %v for a %d-point front", res.Hypervolume, len(res.Front))
	}
}

// TestExploreFrontWeaklyDominatesSF: the SF template is the first
// evaluated point, so the front can never regress below the baseline
// in every objective at once.
func TestExploreFrontWeaklyDominatesSF(t *testing.T) {
	app, arch := system(t, 4)
	sf, err := opt.Straightforward(app, arch, coldAnalyzer(app, arch))
	if err != nil {
		t.Fatal(err)
	}
	sfObj := Point{Config: sf.Config, Analysis: sf.Analysis}.Objectives()
	res := explore(t, app, arch, engine.Serial(), Options{Population: 8, Generations: 3, Seed: 2})
	found := false
	for _, p := range res.Front {
		if p.Objectives().WeaklyDominates(sfObj) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no front point weakly dominates the SF baseline %v; front objectives:", sfObj)
		for _, p := range res.Front {
			t.Logf("  %v", p.Objectives())
		}
	}
}

// TestExploreWorkerCountIndependence is half the determinism contract:
// the same seed must yield a bit-identical front (objectives AND
// configurations) for every worker count.
func TestExploreWorkerCountIndependence(t *testing.T) {
	app, arch := system(t, 6)
	opts := Options{Population: 8, Generations: 4, Seed: 9}
	serial := explore(t, app, arch, engine.New(1), opts)
	parallel := explore(t, app, arch, engine.New(4), opts)

	if serial.Evaluations != parallel.Evaluations || serial.Generations != parallel.Generations {
		t.Errorf("counters differ: serial (%d evals, %d gens) vs parallel (%d, %d)",
			serial.Evaluations, serial.Generations, parallel.Evaluations, parallel.Generations)
	}
	if serial.Hypervolume != parallel.Hypervolume {
		t.Errorf("hypervolume differs: %v vs %v", serial.Hypervolume, parallel.Hypervolume)
	}
	if len(serial.Front) != len(parallel.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(serial.Front), len(parallel.Front))
	}
	for i := range serial.Front {
		var a, b bytes.Buffer
		if err := serial.Front[i].Config.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := parallel.Front[i].Config.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("front[%d] configs differ between worker counts", i)
		}
	}
}

// TestExploreSeedChangesSearch: different seeds explore differently
// (the rng is actually wired through).
func TestExploreSeedChangesSearch(t *testing.T) {
	app, arch := system(t, 6)
	a := explore(t, app, arch, engine.Serial(), Options{Population: 8, Generations: 4, Seed: 1})
	b := explore(t, app, arch, engine.Serial(), Options{Population: 8, Generations: 4, Seed: 99})
	if a.Evaluations == b.Evaluations && a.Hypervolume == b.Hypervolume && len(a.Front) == len(b.Front) {
		// Identical counters AND volume AND size across seeds would be
		// suspicious; compare the fronts to be sure.
		same := true
		for i := range a.Front {
			if a.Front[i].Objectives() != b.Front[i].Objectives() {
				same = false
				break
			}
		}
		if same {
			t.Error("seeds 1 and 99 produced identical explorations")
		}
	}
}

// TestExploreCancellationReturnsBestSoFar: a cancelled exploration
// surfaces the archive built so far together with ctx's error.
func TestExploreCancellationReturnsBestSoFar(t *testing.T) {
	app, arch := system(t, 3)
	evals := 0
	ctx, cancel := context.WithCancel(context.Background())
	res, err := Explore(ctx, app, arch, engine.Serial(), coldAnalyzer(app, arch), Options{
		Population: 8, Generations: 1000, Seed: 5,
		OnProgress: func(p Progress) {
			evals = p.Evaluations
			if p.Generation >= 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Front) == 0 {
		t.Fatal("cancelled exploration returned no best-so-far front")
	}
	if evals == 0 {
		t.Error("no progress observed before cancellation")
	}
	for i, p := range res.Front {
		for j, q := range res.Front {
			if i != j && p.Objectives().WeaklyDominates(q.Objectives()) {
				t.Errorf("partial front not mutually non-dominated: %v vs %v", p.Objectives(), q.Objectives())
			}
		}
	}
}

// TestExploreSeedPointsEnterArchive: pre-evaluated seed points (the
// Solver's warm start) land in the archive without re-analysis, so the
// front always weakly dominates them.
func TestExploreSeedPointsEnterArchive(t *testing.T) {
	app, arch := system(t, 3)
	osres, err := opt.OptimizeSchedule(context.Background(), app, arch, engine.Serial(), coldAnalyzer(app, arch), opt.OSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seed := Point{Config: osres.Best.Config, Analysis: osres.Best.Analysis}
	res := explore(t, app, arch, engine.Serial(), Options{
		Population: 6, Generations: 2, Seed: 7,
		SeedPoints: []Point{seed},
	})
	found := false
	for _, p := range res.Front {
		if p.Objectives().WeaklyDominates(seed.Objectives()) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("front does not weakly dominate the injected OS point %v", seed.Objectives())
	}
}

// TestExploreImmediateCancel: a context dead on arrival yields an
// empty-front error result, not a panic or a hang.
func TestExploreImmediateCancel(t *testing.T) {
	app, arch := system(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Explore(ctx, app, arch, engine.Serial(), coldAnalyzer(app, arch), Options{Population: 4, Generations: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil && len(res.Front) != 0 {
		t.Errorf("dead-context exploration produced %d front points", len(res.Front))
	}
}
