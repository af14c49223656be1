package opt

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/model"
)

// fig4 rebuilds the paper's running example (see internal/core).
func fig4(t *testing.T) (*model.Application, *model.Architecture) {
	t.Helper()
	arch, err := model.NewTwoClusterArchitecture(model.ArchSpec{
		TTNodes: 1, ETNodes: 1, TickPerByte: 1, CANBitTime: 1, GatewayCost: 5,
	})
	if err != nil {
		t.Fatalf("arch: %v", err)
	}
	app := model.NewApplication("fig4")
	g := app.AddGraph("G1", 240, 200)
	n1 := arch.TTNodes()[0]
	n2 := arch.ETNodes()[0]
	p1 := app.AddProcess(g, "P1", 30, n1)
	p2 := app.AddProcess(g, "P2", 20, n2)
	p3 := app.AddProcess(g, "P3", 20, n2)
	p4 := app.AddProcess(g, "P4", 30, n1)
	m1 := app.AddEdge("m1", p1, p2, 8)
	m2 := app.AddEdge("m2", p1, p3, 8)
	m3 := app.AddEdge("m3", p2, p4, 4)
	for _, e := range []model.EdgeID{m1, m2, m3} {
		app.Edges[e].CANTime = 10
	}
	if err := app.Finalize(arch); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return app, arch
}

// small generates a compact random system for heuristic tests.
func small(t *testing.T, seed int64) (*model.Application, *model.Architecture) {
	t.Helper()
	sys, err := gen.Generate(gen.Spec{
		Seed: seed, TTNodes: 1, ETNodes: 1, ProcsPerNode: 8, ProcsPerGraph: 8,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return sys.Application, sys.Architecture
}

func TestStraightforward(t *testing.T) {
	app, arch := fig4(t)
	r, err := Straightforward(app, arch, coldAnalyzer(app, arch))
	if err != nil {
		t.Fatalf("Straightforward: %v", err)
	}
	if err := r.Config.Validate(app, arch); err != nil {
		t.Fatalf("SF config invalid: %v", err)
	}
	if r.Analysis == nil {
		t.Fatal("SF result has no analysis")
	}
}

func TestOptimizeScheduleBeatsSF(t *testing.T) {
	app, arch := fig4(t)
	sf, err := Straightforward(app, arch, coldAnalyzer(app, arch))
	if err != nil {
		t.Fatalf("Straightforward: %v", err)
	}
	osres, err := OptimizeSchedule(context.Background(), app, arch, engine.Serial(), coldAnalyzer(app, arch), OSOptions{})
	if err != nil {
		t.Fatalf("OptimizeSchedule: %v", err)
	}
	if osres.Best == nil {
		t.Fatal("OS produced no result")
	}
	if osres.Best.Delta() > sf.Delta() {
		t.Errorf("OS delta %d worse than SF delta %d", osres.Best.Delta(), sf.Delta())
	}
	if !osres.Best.Schedulable() {
		t.Errorf("OS failed to schedule Figure 4 (delta=%d)", osres.Best.Delta())
	}
	if len(osres.Seeds) == 0 {
		t.Error("OS recorded no seed solutions")
	}
	if osres.Evaluations <= 0 {
		t.Error("OS reported no evaluations")
	}
	for _, s := range osres.Seeds {
		if err := s.Config.Validate(app, arch); err != nil {
			t.Errorf("seed config invalid: %v", err)
		}
	}
}

func TestOptimizeResourcesReducesBuffers(t *testing.T) {
	app, arch := small(t, 21)
	orres, err := OptimizeResources(context.Background(), app, arch, engine.Serial(), coldAnalyzer(app, arch), OROptions{
		MaxIterations: 10, NeighborBudget: 12, Seeds: 2,
	})
	if err != nil {
		t.Fatalf("OptimizeResources: %v", err)
	}
	if orres.Best == nil {
		t.Fatal("OR produced no result")
	}
	if orres.OS.Best.Schedulable() {
		if !orres.Best.Schedulable() {
			t.Error("OR lost schedulability")
		}
		if orres.Best.STotal() > orres.OS.Best.STotal() {
			t.Errorf("OR s_total %d exceeds OS best %d", orres.Best.STotal(), orres.OS.Best.STotal())
		}
	}
	if orres.Evaluations < orres.OS.Evaluations {
		t.Error("evaluation accounting lost the OS step")
	}
}

func TestGenerateMovesDeterministicAndBounded(t *testing.T) {
	app, arch := fig4(t)
	sf, err := Straightforward(app, arch, coldAnalyzer(app, arch))
	if err != nil {
		t.Fatalf("Straightforward: %v", err)
	}
	a := sf.Analysis
	m1 := GenerateMoves(app, arch, sf.Config, a, MoveBudget{Max: 10, Rand: rand.New(rand.NewSource(5))})
	m2 := GenerateMoves(app, arch, sf.Config, a, MoveBudget{Max: 10, Rand: rand.New(rand.NewSource(5))})
	if len(m1) == 0 || len(m1) > 10 {
		t.Fatalf("move count %d outside (0,10]", len(m1))
	}
	if len(m1) != len(m2) {
		t.Fatalf("same seed produced %d vs %d moves", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("move %d differs: %v vs %v", i, m1[i], m2[i])
		}
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, m := range m1 {
		if seen[m.String()] {
			t.Errorf("duplicate move %v", m)
		}
		seen[m.String()] = true
	}
}

func TestMovesApplyAndValidate(t *testing.T) {
	app, arch := fig4(t)
	sf, err := Straightforward(app, arch, coldAnalyzer(app, arch))
	if err != nil {
		t.Fatalf("Straightforward: %v", err)
	}
	moves := GenerateMoves(app, arch, sf.Config, sf.Analysis, MoveBudget{Max: 40})
	applied := 0
	for _, m := range moves {
		cfg, err := m.Apply(app, arch, sf.Config)
		if err != nil {
			continue // legitimately impossible (e.g. shrink at minimum)
		}
		applied++
		if err := cfg.Validate(app, arch); err != nil {
			t.Errorf("move %v produced invalid config: %v", m, err)
		}
		if cfg == sf.Config {
			t.Errorf("move %v mutated the original config", m)
		}
	}
	if applied == 0 {
		t.Error("no move could be applied")
	}
}

func TestMoveApplyErrors(t *testing.T) {
	app, arch := fig4(t)
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	cases := []Move{
		{Kind: MoveUnpinProc, Proc: 0},                   // nothing pinned
		{Kind: MoveUnpinEdge, Edge: 0},                   // nothing pinned
		{Kind: MoveResizeSlot, Slot: 0, Delta: -1000000}, // below minimum
		{Kind: MoveSwapSlots, Slot: 0, Slot2: 0},         // same slot
		{Kind: MoveSwapSlots, Slot: 0, Slot2: 99},        // out of range
		{Kind: MoveSwapProcPrio, Proc: 0, Proc2: 0},      // TT process: no priority
		{Kind: MoveKind(99)},                             // unknown
	}
	for _, m := range cases {
		if _, err := m.Apply(app, arch, cfg); err == nil {
			t.Errorf("move %v unexpectedly applied", m)
		}
	}
}

func TestMoveRoundTripSlotSwap(t *testing.T) {
	app, arch := fig4(t)
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	m := Move{Kind: MoveSwapSlots, Slot: 0, Slot2: 1}
	once, err := m.Apply(app, arch, cfg)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	twice, err := m.Apply(app, arch, once)
	if err != nil {
		t.Fatalf("Apply twice: %v", err)
	}
	for i := range cfg.Round.Slots {
		if twice.Round.Slots[i].Node != cfg.Round.Slots[i].Node {
			t.Fatal("double swap did not restore the slot order")
		}
	}
	if once.Round.Slots[0].Node == cfg.Round.Slots[0].Node {
		t.Fatal("swap did not change the slot order")
	}
}

func TestSelectSeedsPrefersSchedulableSmallBuffers(t *testing.T) {
	app, arch := fig4(t)
	mk := func(delta model.Time, stotal int, sched bool) *Result {
		return &Result{
			Config: core.DefaultConfig(app, arch),
			Analysis: &core.Analysis{
				Delta:       delta,
				Schedulable: sched,
				Buffers:     core.Buffers{Total: stotal},
			},
		}
	}
	all := []*Result{
		mk(50, 10, false),
		mk(-5, 100, true),
		mk(-1, 20, true),
		mk(-20, 500, true),
	}
	seeds := selectSeeds(all, 3)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds, want 3", len(seeds))
	}
	// The smallest schedulable s_total (20) must be among the seeds.
	found := false
	for _, s := range seeds {
		if s.STotal() == 20 {
			found = true
		}
	}
	if !found {
		t.Error("seed list misses the best-buffer schedulable solution")
	}
	// The best delta (-20) must be among the seeds.
	found = false
	for _, s := range seeds {
		if s.Delta() == -20 {
			found = true
		}
	}
	if !found {
		t.Error("seed list misses the best-delta solution")
	}
}

func TestMoveKindString(t *testing.T) {
	kinds := []MoveKind{MovePinProc, MovePinEdge, MoveUnpinProc, MoveUnpinEdge,
		MoveSwapProcPrio, MoveSwapMsgPrio, MoveResizeSlot, MoveSwapSlots, MoveKind(42)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty name for kind %d", int(k))
		}
	}
}

// TestORImprovesCruiseBuffers pins the E6 buffer story at the opt level:
// the hill climber must find a schedulable configuration with strictly
// smaller s_total than the best OS seed on the cruise controller.
func TestORImprovesCruiseBuffers(t *testing.T) {
	if testing.Short() {
		t.Skip("cruise OR sweep")
	}
	sys, err := gen.Generate(gen.Spec{Seed: 31, TTNodes: 2, ETNodes: 2, ProcsPerNode: 10, ProcsPerGraph: 10})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	app, arch := sys.Application, sys.Architecture
	orres, err := OptimizeResources(context.Background(), app, arch, engine.Serial(), coldAnalyzer(app, arch), OROptions{MaxIterations: 20, NeighborBudget: 16, Seeds: 3})
	if err != nil {
		t.Fatalf("OptimizeResources: %v", err)
	}
	if !orres.OS.Best.Schedulable() {
		t.Skip("OS could not schedule this seed")
	}
	if orres.Best.STotal() > orres.OS.Best.STotal() {
		t.Errorf("OR worsened buffers: %d > %d", orres.Best.STotal(), orres.OS.Best.STotal())
	}
}

// TestMovePinWithinInterval: a pin inside [ASAP, ALAP] of a schedulable
// system must keep the analysis well-formed and the pin observable.
func TestMovePinWithinInterval(t *testing.T) {
	app, arch := fig4(t)
	osres, err := OptimizeSchedule(context.Background(), app, arch, engine.Serial(), coldAnalyzer(app, arch), OSOptions{})
	if err != nil {
		t.Fatalf("OptimizeSchedule: %v", err)
	}
	best := osres.Best
	if !best.Schedulable() {
		t.Fatal("figure-4 OS result unschedulable")
	}
	var moved bool
	for _, p := range app.Procs {
		iv, ok := best.Analysis.ProcMoveInterval(app, p.ID)
		if !ok || iv.ALAP <= iv.ASAP {
			continue
		}
		mv := Move{Kind: MovePinProc, Proc: p.ID, Offset: iv.ASAP + 1}
		cfg, err := mv.Apply(app, arch, best.Config)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		a, err := core.Analyze(app, arch, cfg)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		if got := a.Proc[p.ID].O; got < iv.ASAP+1 {
			t.Errorf("pinned %s starts at %d, pin was %d", p.Name, got, iv.ASAP+1)
		}
		moved = true
		break
	}
	if !moved {
		t.Skip("no movable TT activity with slack")
	}
}

// coldAnalyzer is the cold analyzer the tests of this package run the
// optimizers on.
func coldAnalyzer(app *model.Application, arch *model.Architecture) engine.Analyzer {
	return func(cfg *core.Config) (*core.Analysis, error) { return core.Analyze(app, arch, cfg) }
}
