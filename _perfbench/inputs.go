package main

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/tsched"
)

// corpusBlock is the size of a balanced block of corpusSpecs.
const corpusBlock = 8

// corpusSpecs returns n generator specs over the axes gen.Corpus spans
// (node count 2 or 4, CPU and bus utilisation 0.15-0.3, 0/4/8/12
// forced inter-cluster messages, uniform or exponential WCETs). Unlike
// gen.Corpus, every block of corpusBlock consecutive specs holds each
// axis value equally often (each axis is balanced within the block,
// then shuffled independently), so any whole number of blocks has the
// same mix of system sizes whatever the seed, and a run that stops at a
// block boundary weighs the systems alike. Spec i is generated from
// seed*100000+i.
func corpusSpecs(n int, seed int64, procsPerNode int) []gen.Spec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]gen.Spec, 0, n)
	for len(specs) < n {
		k := min(corpusBlock, n-len(specs))
		nodes := balanced(rng, k, []int{2, 4})
		dist := balanced(rng, k, []gen.Dist{gen.Uniform, gen.Exponential})
		cpu := balanced(rng, k, []float64{0.15, 0.2, 0.25, 0.3})
		bus := balanced(rng, k, []float64{0.15, 0.2, 0.25, 0.3})
		inter := balanced(rng, k, []int{0, 4, 8, 12})
		for j := range k {
			specs = append(specs, gen.Spec{
				Seed:             seed*100000 + int64(len(specs)),
				TTNodes:          nodes[j] / 2,
				ETNodes:          nodes[j] / 2,
				ProcsPerNode:     procsPerNode,
				WCETDist:         dist[j],
				CPUUtil:          cpu[j],
				BusUtil:          bus[j],
				InterClusterMsgs: inter[j],
			})
		}
	}
	return specs
}

// balanced returns n values cycling through vals, shuffled.
func balanced[T any](rng *rand.Rand, n int, vals []T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = vals[i%len(vals)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// generate builds the systems of specs.
func generate(specs []gen.Spec) ([]*model.System, error) {
	out := make([]*model.System, len(specs))
	for i, sp := range specs {
		sys, err := gen.Generate(sp)
		if err != nil {
			return nil, fmt.Errorf("generating spec %d: %w", i, err)
		}
		out[i] = sys
	}
	return out, nil
}

// configGen draws seeded random configurations of one system: a random
// TDMA slot order, each slot length drawn from
// tsched.RecommendedSlotLengths, and shuffled process and message
// priorities. Such configurations share almost no analysis stage.
type configGen struct {
	app   *model.Application
	arch  *model.Architecture
	base  *core.Config
	slots map[model.NodeID][]model.Time
	rng   *rand.Rand
}

func newConfigGen(sys *model.System, seed int64) *configGen {
	app, arch := sys.Application, sys.Architecture
	g := &configGen{
		app: app, arch: arch,
		base:  core.DefaultConfig(app, arch),
		slots: map[model.NodeID][]model.Time{},
		rng:   rand.New(rand.NewSource(seed)),
	}
	for _, s := range g.base.Round.Slots {
		g.slots[s.Node] = tsched.RecommendedSlotLengths(app, arch, s.Node, 8)
	}
	return g
}

// next returns the next random configuration, normalized and valid.
func (g *configGen) next() (*core.Config, error) {
	cfg := g.base.Clone()
	slots := cfg.Round.Slots
	g.rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	for i := range slots {
		if cands := g.slots[slots[i].Node]; len(cands) > 0 {
			slots[i].Length = cands[g.rng.Intn(len(cands))]
		}
	}
	shufflePriorities(g.rng, cfg.ProcPriority)
	shufflePriorities(g.rng, cfg.MsgPriority)
	if err := cfg.Normalize(g.app); err != nil {
		return nil, err
	}
	if err := cfg.Validate(g.app, g.arch); err != nil {
		return nil, fmt.Errorf("random configuration invalid: %w", err)
	}
	return cfg, nil
}

// shufflePriorities permutes the priority values among the keys of m.
// The value set is unchanged, so uniqueness per resource is kept.
// Keys are visited in ascending order so the draw is deterministic.
func shufflePriorities[K cmp.Ordered](rng *rand.Rand, m map[K]int) {
	keys := slices.Sorted(maps.Keys(m))
	vals := make([]int, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for i, k := range keys {
		m[k] = vals[i]
	}
}
