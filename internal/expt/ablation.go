package expt

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hopa"
	"repro/internal/model"
	"repro/internal/opt"
)

// AblationRow measures how much each design ingredient of the synthesis
// flow contributes to the degree of schedulability (DESIGN.md asks for
// ablation benches of the design choices):
//
//   - Full: OptimizeSchedule as published (slot search + HOPA).
//   - NoHOPA: the slot search with declaration-order priorities.
//   - NoSlotSearch: HOPA priorities on the straightforward ascending
//     minimal-slot round (priority optimization only).
//   - NoOffsets: the full heuristic, but the response-time analysis runs
//     with all offsets forced to zero (classic critical-instant analysis
//     without the paper's offset refinement).
type AblationRow struct {
	Nodes, Procs int
	Count        int
	// Schedulable counts per variant.
	Full, NoHOPA, NoSlotSearch, NoOffsets int
	// Average delta per variant (over all apps; lower is better).
	FullDelta, NoHOPADelta, NoSlotDelta, NoOffsetsDelta float64
}

// Ablation runs the four variants over the generated workloads, with
// the (size, seed) cells fanned out across opts.Workers goroutines.
func Ablation(ctx context.Context, opts Options) ([]AblationRow, error) {
	opts.defaults()
	type cell struct {
		full                     *opt.Result
		aNoHopa, aNoSlot, aNoOff *core.Analysis
	}
	cells, err := gridSweep(ctx, &opts, len(opts.Sizes), func(ctx context.Context, pi int, seed int64) (cell, error) {
		sys, err := gen.Paper(opts.Sizes[pi], seed)
		if err != nil {
			return cell{}, err
		}
		app, arch := sys.Application, sys.Architecture
		sv, err := cellSolver(app, arch, &opts, 1)
		if err != nil {
			return cell{}, err
		}

		// Every stand-alone analysis of the cell runs through the cell
		// session, like the full variant's.
		az := func(cfg *core.Config) (*core.Analysis, error) { return sv.Analyze(ctx, cfg) }

		// Full OptimizeSchedule.
		full, err := sv.OptimizeSchedule(ctx)
		if err != nil {
			return cell{}, err
		}

		// Slot search without HOPA: evaluate the full search's round
		// with declaration-order priorities.
		noHopa := core.DefaultConfig(app, arch)
		noHopa.Round = full.Best.Config.Round.Clone()
		if err := noHopa.Normalize(app); err != nil {
			return cell{}, err
		}
		aNoHopa, err := az(noHopa)
		if err != nil {
			return cell{}, err
		}

		// HOPA without the slot search: ascending minimal round, with
		// the iteration count the full variant used.
		base := core.DefaultConfig(app, arch)
		if err := base.Normalize(app); err != nil {
			return cell{}, err
		}
		pr, err := hopa.Assign(app, arch, base.Round, opts.OR.OS.HOPAIterations, az)
		if err != nil {
			return cell{}, err
		}
		base.ProcPriority = pr.ProcPriority
		base.MsgPriority = pr.MsgPriority
		aNoSlot, err := az(base)
		if err != nil {
			return cell{}, err
		}

		// Full heuristic, offset-blind analysis: zeroing the
		// transaction IDs makes every activity pairwise unrelated,
		// which drops all offset separation (O_ij = 0 everywhere).
		aNoOff, err := analyzeOffsetBlind(app, arch, full.Best.Config)
		if err != nil {
			return cell{}, err
		}
		return cell{full: full.Best, aNoHopa: aNoHopa, aNoSlot: aNoSlot, aNoOff: aNoOff}, nil
	}, func(pi int, seed int64, _ cell) {
		opts.progressf("ablation nodes=%d seed=%d done", opts.Sizes[pi], seed)
	})
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for pi, nodes := range opts.Sizes {
		row := AblationRow{Nodes: nodes, Procs: 40 * nodes}
		for _, c := range cells[pi] {
			row.Count++
			if c.full.Schedulable() {
				row.Full++
			}
			row.FullDelta += float64(c.full.Delta())
			if c.aNoHopa.Schedulable {
				row.NoHOPA++
			}
			row.NoHOPADelta += float64(c.aNoHopa.Delta)
			if c.aNoSlot.Schedulable {
				row.NoSlotSearch++
			}
			row.NoSlotDelta += float64(c.aNoSlot.Delta)
			if c.aNoOff.Schedulable {
				row.NoOffsets++
			}
			row.NoOffsetsDelta += float64(c.aNoOff.Delta)
		}
		if row.Count > 0 {
			n := float64(row.Count)
			row.FullDelta /= n
			row.NoHOPADelta /= n
			row.NoSlotDelta /= n
			row.NoOffsetsDelta /= n
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// analyzeOffsetBlind re-runs the analysis with the offset-based
// interference reduction disabled (core.AnalyzeOffsetBlind): every
// activity is treated as phase-unrelated, the classic critical-instant
// assumption. The gap to the full analysis is the value of §4's offset
// refinement.
func analyzeOffsetBlind(app *model.Application, arch *model.Architecture, cfg *core.Config) (*core.Analysis, error) {
	return core.AnalyzeOffsetBlind(app, arch, cfg)
}

// PrintAblation renders the ablation table.
func PrintAblation(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "Ablation - contribution of each synthesis ingredient (schedulable count | avg delta)")
	fmt.Fprintf(w, "%8s %8s | %16s %16s %16s %16s\n", "procs", "apps", "full OS", "no HOPA", "no slot search", "offset-blind")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8d | %4d %11.0f %4d %11.0f %4d %11.0f %4d %11.0f\n",
			r.Procs, r.Count,
			r.Full, r.FullDelta,
			r.NoHOPA, r.NoHOPADelta,
			r.NoSlotSearch, r.NoSlotDelta,
			r.NoOffsets, r.NoOffsetsDelta)
	}
}
