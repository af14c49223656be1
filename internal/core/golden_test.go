package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/tsched"
)

// goldenAnalysisDigest is the SHA-256 of the canonical JSON of every
// analysis goldenAnalyses produces. It pins the analysis results across
// versions: the differential harness only compares runs of one build,
// so a kernel change that shifts every result the same way passes it
// but fails here. Update the digest only for a deliberate change of the
// analysis semantics, never for a refactoring or an optimization.
//
// The generator scales WCETs in floating point, which architectures
// with fused multiply-add may round differently, so the digest is
// pinned for amd64, where it was recorded.
const goldenAnalysisDigest = "de3f949a1534eda9d68a009f5a279de9b78deb4ca8a5c317bd83c1bb4a7c8999"

// TestGoldenAnalysisDigest hashes cold offset-aware, cold offset-blind
// and delta-evaluator analyses of seeded generated systems under seeded
// random configurations and compares the digest with the pinned one.
func TestGoldenAnalysisDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pinned on amd64, running on %s", runtime.GOARCH)
	}
	h := sha256.New()
	n := goldenAnalyses(t, h)
	got := hex.EncodeToString(h.Sum(nil))
	if got != goldenAnalysisDigest {
		t.Fatalf("digest over %d analyses = %s, want %s", n, got, goldenAnalysisDigest)
	}
}

// goldenAnalyses writes one labelled canonical-JSON record per analysis
// into h and returns the record count. Systems cover 2/4/8 nodes, both
// WCET distributions and 0–12 inter-cluster messages; each system is
// analyzed under its normalized default configuration and a few random
// ones (shuffled slot order, recommended slot lengths, shuffled
// priorities).
func goldenAnalyses(t *testing.T, h hash.Hash) int {
	t.Helper()
	records := 0
	write := func(label string, a *core.Analysis, err error) {
		var blob []byte
		if err != nil {
			blob = []byte("error: " + err.Error())
		} else {
			var merr error
			if blob, merr = json.Marshal(a); merr != nil {
				t.Fatalf("%s: %v", label, merr)
			}
		}
		fmt.Fprintf(h, "%s %d\n", label, len(blob))
		h.Write(blob)
		records++
	}
	for _, nodes := range []int{2, 4, 8} {
		for _, dist := range []gen.Dist{gen.Uniform, gen.Exponential} {
			for _, inter := range []int{0, 6, 12} {
				seed := int64(100*nodes + 10*int(dist) + inter)
				sys, err := gen.Generate(gen.Spec{
					Seed: seed, TTNodes: nodes / 2, ETNodes: nodes / 2,
					ProcsPerNode: 10, WCETDist: dist, InterClusterMsgs: inter,
				})
				if err != nil {
					t.Fatal(err)
				}
				app, arch := sys.Application, sys.Architecture
				ev := delta.New(app, arch)
				for k, cfg := range goldenConfigs(t, app, arch, seed, 6) {
					label := fmt.Sprintf("n%d-d%d-i%d-c%d", nodes, dist, inter, k)
					a, err := core.AnalyzeWith(app, arch, cfg, core.AnalyzeOptions{})
					write(label+"-cold", a, err)
					a, err = core.AnalyzeWith(app, arch, cfg, core.AnalyzeOptions{OffsetBlind: true})
					write(label+"-blind", a, err)
					a, err = ev.Analyze(cfg)
					write(label+"-delta", a, err)
				}
			}
		}
	}
	return records
}

// goldenConfigs returns the normalized default configuration followed
// by extra seeded random ones.
func goldenConfigs(t *testing.T, app *model.Application, arch *model.Architecture, seed int64, extra int) []*core.Config {
	t.Helper()
	base := core.DefaultConfig(app, arch)
	lengths := map[model.NodeID][]model.Time{}
	for _, s := range base.Round.Slots {
		lengths[s.Node] = tsched.RecommendedSlotLengths(app, arch, s.Node, 8)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []*core.Config
	for k := 0; k <= extra; k++ {
		cfg := base.Clone()
		if k > 0 {
			slots := cfg.Round.Slots
			rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
			for i := range slots {
				if c := lengths[slots[i].Node]; len(c) > 0 {
					slots[i].Length = c[rng.Intn(len(c))]
				}
			}
			shuffleValues(rng, cfg.ProcPriority)
			shuffleValues(rng, cfg.MsgPriority)
		}
		if err := cfg.Normalize(app); err != nil {
			t.Fatal(err)
		}
		out = append(out, cfg)
	}
	return out
}

// shuffleValues permutes the values of m among its keys, visiting the
// keys in ascending order so the draw is deterministic.
func shuffleValues[K ~int](rng *rand.Rand, m map[K]int) {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	vals := make([]int, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for i, k := range keys {
		m[k] = vals[i]
	}
}
