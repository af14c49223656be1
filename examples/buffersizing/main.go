// Buffer sizing: the gateway queue analysis of §4.1 in action. A
// generated application is synthesized twice - once for schedulability
// only (OS) and once with the buffer-minimizing hill climber (OR) - and
// the per-queue worst-case bounds are compared, including the critical
// message attaining each bound.
//
//	go run ./examples/buffersizing
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro"
)

func main() {
	sys, err := repro.Generate(repro.GenSpec{
		Seed: 11, TTNodes: 1, ETNodes: 1, ProcsPerNode: 12, ProcsPerGraph: 12,
	})
	if err != nil {
		log.Fatal(err)
	}
	app, arch := sys.Application, sys.Architecture
	fmt.Printf("%s: %d processes, %d gateway messages\n\n",
		app.Name, len(app.Procs), len(app.GatewayEdges(arch)))

	// One Solver session serves both strategies, so the second run
	// reuses the analyses the first one already computed.
	ctx := context.Background()
	solver, err := repro.NewSolver(app, arch)
	if err != nil {
		log.Fatal(err)
	}
	osRes, err := solver.SynthesizeWith(ctx, repro.StrategyOptimizeSchedule)
	if err != nil {
		log.Fatal(err)
	}
	orRes, err := solver.SynthesizeWith(ctx, repro.StrategyOptimizeResources)
	if err != nil {
		log.Fatal(err)
	}

	show := func(name string, res *repro.SynthesisResult) {
		b := res.Analysis.Buffers
		fmt.Printf("%s (schedulable: %v):\n", name, res.Analysis.Schedulable)
		crit := func(e repro.EdgeID) string {
			if e < 0 {
				return "-"
			}
			return app.Edges[e].Name
		}
		fmt.Printf("  OutCAN  %4d B   critical message: %s\n", b.OutCAN, crit(b.CriticalOutCAN))
		fmt.Printf("  OutTTP  %4d B   critical message: %s\n", b.OutTTP, crit(b.CriticalOutTTP))
		var nodes []repro.NodeID
		for n := range b.OutNode {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, n := range nodes {
			fmt.Printf("  OutN%-2d  %4d B   critical message: %s\n", n, b.OutNode[n], crit(b.CriticalOutNode[n]))
		}
		fmt.Printf("  s_total %4d B\n\n", b.Total)
	}
	show("OptimizeSchedule (schedulability only)", osRes)
	show("OptimizeResources (buffer minimization)", orRes)

	if orRes.Analysis.Buffers.Total < osRes.Analysis.Buffers.Total {
		saved := osRes.Analysis.Buffers.Total - orRes.Analysis.Buffers.Total
		fmt.Printf("OR saved %d bytes (%.0f%%) of gateway/queue memory while staying schedulable.\n",
			saved, 100*float64(saved)/float64(osRes.Analysis.Buffers.Total))
	} else {
		fmt.Println("OR found no cheaper schedulable configuration on this instance.")
	}
}
