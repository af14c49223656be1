package repro_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"testing"

	"repro"
	"repro/internal/expt"
	"repro/internal/opt"
)

// goldenSynthesisDigest is the SHA-256 over the canonical JSON of every
// synthesis and exploration result goldenSynthesis produces, followed by
// the printed experiment tables. It pins the optimizers' outcomes across
// versions: the differential harness compares legs of one build against
// each other, so a change that shifts every strategy the same way passes
// it but fails here. Update the digest only for a deliberate change of
// the search semantics, never for a refactoring.
//
// Like the analysis digest, it is pinned for amd64, where it was
// recorded (the generator scales WCETs in floating point).
const goldenSynthesisDigest = "191a4809b12a9a3028a86a1807953bd299344a33af5cf686d319bfd0d94f0ed6"

// TestGoldenSynthesisDigest runs every strategy and the exploration on
// seeded generated systems for both pool sizes and both evaluator
// modes, then the Figure 4, cruise, ablation and Fig. 9a experiments at
// smoke-test size, and compares the digest with the pinned one.
func TestGoldenSynthesisDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pinned on amd64, running on %s", runtime.GOARCH)
	}
	h := sha256.New()
	n := goldenSynthesis(t, h)
	got := hex.EncodeToString(h.Sum(nil))
	if got != goldenSynthesisDigest {
		t.Fatalf("digest over %d records = %s, want %s", n, got, goldenSynthesisDigest)
	}
}

// goldenRecord is the canonical outcome of one synthesis or exploration.
type goldenRecord struct {
	Config      *repro.Config   `json:",omitempty"`
	Analysis    *repro.Analysis `json:",omitempty"`
	Evaluations int
	Front       []repro.ParetoPoint `json:",omitempty"`
	Hypervolume float64             `json:",omitempty"`
}

// goldenSynthesis writes one labelled record per run into h and returns
// the record count.
func goldenSynthesis(t *testing.T, h hash.Hash) int {
	t.Helper()
	records := 0
	write := func(label string, blob []byte) {
		fmt.Fprintf(h, "%s %d\n", label, len(blob))
		h.Write(blob)
		records++
	}
	writeJSON := func(label string, rec goldenRecord) {
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		write(label, blob)
	}
	ctx := context.Background()
	specs := []repro.GenSpec{
		{Seed: 1401, TTNodes: 1, ETNodes: 1, ProcsPerNode: 6},
		{Seed: 1402, TTNodes: 1, ETNodes: 1, ProcsPerNode: 8, WCETDist: 1, InterClusterMsgs: 3},
		{Seed: 1403, TTNodes: 2, ETNodes: 2, ProcsPerNode: 5, InterClusterMsgs: 6},
	}
	for i, spec := range specs {
		sys, err := repro.Generate(spec)
		if err != nil {
			t.Fatalf("system %d: %v", i, err)
		}
		for _, workers := range []int{1, 2} {
			for _, delta := range []bool{true, false} {
				solver, err := repro.NewSolver(sys.Application, sys.Architecture,
					repro.WithSeed(spec.Seed), repro.WithWorkers(workers), repro.WithDelta(delta),
					repro.WithSAIterations(30), repro.WithSARestarts(2))
				if err != nil {
					t.Fatal(err)
				}
				leg := fmt.Sprintf("sys%d-w%d-delta%v", i, workers, delta)
				for _, strat := range repro.Strategies() {
					res, err := solver.SynthesizeWith(ctx, strat)
					if err != nil {
						t.Fatalf("%s %v: %v", leg, strat, err)
					}
					writeJSON(leg+"-"+strat.String(),
						goldenRecord{Config: res.Config, Analysis: res.Analysis, Evaluations: res.Evaluations})
				}
				ex, err := solver.Explore(ctx, repro.WithPopulation(6), repro.WithGenerations(2))
				if err != nil {
					t.Fatalf("%s explore: %v", leg, err)
				}
				writeJSON(leg+"-explore",
					goldenRecord{Evaluations: ex.Evaluations, Front: ex.Front, Hypervolume: ex.Hypervolume})
			}
		}
	}

	// The experiment tables at the smoke-test size of internal/expt.
	tiny := expt.Options{
		Sizes:        []int{2},
		Seeds:        2,
		Inter:        []int{10},
		SAIterations: 40,
		OR:           opt.OROptions{MaxIterations: 6, NeighborBudget: 8, Seeds: 2},
	}
	var buf bytes.Buffer
	fig4, err := expt.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	expt.PrintFigure4(&buf, fig4)
	write("figure4", buf.Bytes())
	buf.Reset()
	cruise, err := expt.Cruise(ctx, tiny)
	if err != nil {
		t.Fatal(err)
	}
	expt.PrintCruise(&buf, cruise)
	write("cruise", buf.Bytes())
	buf.Reset()
	ablation, err := expt.Ablation(ctx, tiny)
	if err != nil {
		t.Fatal(err)
	}
	expt.PrintAblation(&buf, ablation)
	write("ablation", buf.Bytes())
	buf.Reset()
	fig9a, err := expt.Fig9a(ctx, tiny)
	if err != nil {
		t.Fatal(err)
	}
	expt.PrintFig9a(&buf, fig9a)
	write("fig9a", buf.Bytes())
	return records
}
