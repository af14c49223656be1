package delta

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/opt"
)

// selfCheck arms the RTA warm-start proof-of-equivalence: every
// warm-started fixed point (cross-pass and, through an Evaluator's memo,
// cross-configuration) is recomputed cold and must agree exactly.
var selfCheck = core.AnalyzeOptions{SelfCheck: true}

// corpusSystem materializes corpus member i of a small test corpus.
func corpusSystem(t testing.TB, i int) (*model.Application, *model.Architecture) {
	t.Helper()
	specs := gen.Corpus(i+1, 900, 4)
	sys, err := gen.Generate(specs[i])
	if err != nil {
		t.Fatalf("corpus member %d: %v", i, err)
	}
	return sys.Application, sys.Architecture
}

// walkConfigs derives a deterministic chain of configurations from the
// normalized default by applying sampled §5.1 moves, re-analyzing after
// each step (the shape every optimizer's traffic has).
func walkConfigs(t testing.TB, app *model.Application, arch *model.Architecture, steps int, seed int64) []*core.Config {
	t.Helper()
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	out := []*core.Config{cfg}
	for len(out) < steps {
		moves := opt.GenerateMoves(app, arch, cfg, a, opt.MoveBudget{Max: 16, Rand: rng})
		if len(moves) == 0 {
			break
		}
		next, err := moves[rng.Intn(len(moves))].Apply(app, arch, cfg)
		if err != nil {
			continue
		}
		na, err := core.Analyze(app, arch, next)
		if err != nil {
			continue
		}
		cfg, a = next, na
		out = append(out, cfg)
	}
	return out
}

// TestAnalyzeMatchesCold is the package-level bit-identity check: over
// corpus systems and optimizer-shaped move walks, every Evaluator
// analysis — cold-miss, warm-started and memo-hit alike — must deep-
// equal the reference core.Analyze result, with the RTA self-check
// armed so warm starts prove themselves per fixed point.
func TestAnalyzeMatchesCold(t *testing.T) {
	for i := 0; i < 3; i++ {
		app, arch := corpusSystem(t, i)
		ev := NewWith(app, arch, selfCheck)
		for step, cfg := range walkConfigs(t, app, arch, 8, int64(100+i)) {
			want, err := core.AnalyzeWith(app, arch, cfg, selfCheck)
			if err != nil {
				t.Fatalf("system %d step %d: cold: %v", i, step, err)
			}
			got, err := ev.Analyze(cfg)
			if err != nil {
				t.Fatalf("system %d step %d: delta: %v", i, step, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("system %d step %d: delta analysis differs from cold", i, step)
			}
			// Replay: the memo hit must return the identical analysis.
			again, err := ev.Analyze(cfg)
			if err != nil {
				t.Fatalf("system %d step %d: replay: %v", i, step, err)
			}
			if again != got {
				t.Fatalf("system %d step %d: replay did not hit the config memo", i, step)
			}
		}
		s := ev.Stats()
		if s.ConfigHits == 0 || s.ConfigMisses == 0 {
			t.Fatalf("system %d: degenerate traffic: %v", i, s)
		}
	}
}

// TestConfigKey checks the canonical encoding: clones collide, every
// single-field perturbation separates.
func TestConfigKey(t *testing.T) {
	app, arch := corpusSystem(t, 0)
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		t.Fatal(err)
	}
	base := ConfigKey(cfg)
	if got := ConfigKey(cfg.Clone()); got != base {
		t.Fatal("clone keys differ")
	}

	perturb := map[string]func(c *core.Config) *core.Config{
		"slot length": func(c *core.Config) *core.Config { c.Round.Slots[0].Length += 4; return c },
		"slot owner": func(c *core.Config) *core.Config {
			c.Round.Slots[0].Node, c.Round.Slots[1].Node = c.Round.Slots[1].Node, c.Round.Slots[0].Node
			return c
		},
		"padding": func(c *core.Config) *core.Config { c.Round.Padding += 4; return c },
		"proc priority": func(c *core.Config) *core.Config {
			for id := range c.ProcPriority {
				c.ProcPriority[id] += 1000
				break
			}
			return c
		},
		"msg priority": func(c *core.Config) *core.Config {
			for id := range c.MsgPriority {
				c.MsgPriority[id] += 1000
				break
			}
			return c
		},
		"proc pin": func(c *core.Config) *core.Config { return c.PinProc(app.Procs[0].ID, 123) },
	}
	for name, mutate := range perturb {
		if ConfigKey(mutate(cfg.Clone())) == base {
			t.Errorf("%s perturbation did not change the key", name)
		}
	}
}

// TestOSScanDeltaProperty is the satellite property test: over an
// OptimizeSchedule scan, the delta evaluator's caches must actually
// hit (hit rate > 0) while the reported result — the Evaluations
// counter included — stays exactly the full-path one.
func TestOSScanDeltaProperty(t *testing.T) {
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		app, arch := corpusSystem(t, i)

		coldEval := func(cfg *core.Config) (*core.Analysis, error) { return core.Analyze(app, arch, cfg) }
		cold, err := opt.OptimizeSchedule(ctx, app, arch, engine.Serial(), coldEval, opt.OSOptions{})
		if err != nil {
			t.Fatalf("system %d: cold OS: %v", i, err)
		}
		ev := New(app, arch)
		warm, err := opt.OptimizeSchedule(ctx, app, arch, engine.Serial(), ev.Analyze, opt.OSOptions{})
		if err != nil {
			t.Fatalf("system %d: delta OS: %v", i, err)
		}

		if warm.Evaluations != cold.Evaluations {
			t.Errorf("system %d: Evaluations %d with delta, %d without", i, warm.Evaluations, cold.Evaluations)
		}
		if !reflect.DeepEqual(warm.Best, cold.Best) {
			t.Errorf("system %d: OS best differs under delta evaluation", i)
		}
		if !reflect.DeepEqual(warm.Seeds, cold.Seeds) {
			t.Errorf("system %d: OS seeds differ under delta evaluation", i)
		}

		s := ev.Stats()
		if s.ConfigHits+s.Memo.Hits() == 0 {
			t.Errorf("system %d: delta cache never hit over the OS scan: %v", i, s)
		}
		if s.HitRate() < 0 || s.HitRate() > 1 || s.StageHitRate() < 0 || s.StageHitRate() > 1 {
			t.Errorf("system %d: hit rates out of range: %v", i, s)
		}
	}
}

// TestEvaluatorConcurrent drives one Evaluator from a parallel pool the
// way engine.EvaluateAllDelta does; run under -race this is the
// evaluator's data-race coverage.
func TestEvaluatorConcurrent(t *testing.T) {
	app, arch := corpusSystem(t, 2)
	ev := New(app, arch)
	cfgs := walkConfigs(t, app, arch, 6, 55)
	want := make([]*core.Analysis, len(cfgs))
	for i, cfg := range cfgs {
		a, err := core.Analyze(app, arch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			for rep := 0; rep < 3; rep++ {
				for i, cfg := range cfgs {
					a, err := ev.Analyze(cfg)
					if err != nil {
						done <- err
						return
					}
					if !reflect.DeepEqual(a, want[i]) {
						t.Errorf("concurrent analysis %d differs from cold", i)
					}
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := ev.Stats(); s.ConfigHits == 0 {
		t.Errorf("no config hits under concurrent replay: %v", s)
	}
}

// TestResetAndStats: nothing invalidates an Evaluator's caches, so the
// only reset is a fresh Evaluator. It recomputes an analysis identical
// to the cached one, and the first Evaluator's counters keep
// accumulating.
func TestResetAndStats(t *testing.T) {
	app, arch := corpusSystem(t, 0)
	ev := New(app, arch)
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		t.Fatal(err)
	}
	want, err := ev.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := ev.Analyze(cfg); err != nil || again != want {
		t.Fatalf("repeat analysis missed the config memo (err %v)", err)
	}
	got, err := New(app, arch).Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got == want {
		t.Fatal("a fresh Evaluator shared the cached analysis pointer")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fresh-Evaluator analysis differs")
	}
	if s := ev.Stats(); s.ConfigHits != 1 || s.ConfigMisses != 1 {
		t.Errorf("stats = %v, want one config hit and one miss", s)
	}
	if testing.Verbose() {
		t.Log(ev.Stats().String())
	}
}
