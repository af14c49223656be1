// Package expt reproduces every table and figure of the paper's
// evaluation (§6): the Fig. 9a degree-of-schedulability comparison, the
// Fig. 9b/9c buffer-need comparisons, the run-time comparison, the
// cruise-controller case study, and the Fig. 4 worked example. Each
// experiment returns structured rows plus a formatted table.
//
// The default parameters are scaled down from the paper's (which used 30
// applications per point and hours of simulated annealing); the cmd
// mcs-experiments tool exposes flags to run at full scale, including
// -workers to fan the sweep cells out across the evaluation engine.
package expt

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hopa"
	"repro/internal/model"
	"repro/internal/opt"
	"repro/internal/sa"
	"repro/internal/solve"
)

// Options parameterizes the experiment sweeps.
type Options struct {
	// Sizes lists the node counts of the Fig. 9a/9b sweeps
	// (default {2, 4}; the paper uses {2, 4, 6, 8, 10}).
	Sizes []int
	// Seeds is the number of random applications per point
	// (default 3; the paper uses 30).
	Seeds int
	// Inter lists the Fig. 9c inter-cluster message counts
	// (default {10, 20, 30}; the paper uses {10, 20, 30, 40, 50}).
	Inter []int
	// SAIterations bounds each simulated-annealing run (default 150;
	// the paper let SA run for hours).
	SAIterations int
	// OR tunes the OptimizeResources runs.
	OR opt.OROptions
	// Workers bounds the concurrently evaluated experiment cells — one
	// cell is one (size or traffic point, seed) pair, generated and
	// synthesized independently (default 1 = serial; mcs-experiments
	// passes runtime.NumCPU() through -workers). Within a cell the
	// optimizers run serially, so the pool is never oversubscribed, and
	// rows and progress output are identical for every worker count.
	Workers int
	// Progress, when non-nil, receives one line per completed step.
	// Lines are emitted during the deterministic reduction, in the same
	// order as a serial run.
	Progress io.Writer
}

func (o *Options) defaults() {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{2, 4}
	}
	if o.Seeds <= 0 {
		o.Seeds = 3
	}
	if len(o.Inter) == 0 {
		o.Inter = []int{10, 20, 30}
	}
	if o.SAIterations <= 0 {
		o.SAIterations = 150
	}
	// Fixed here rather than inside OptimizeSchedule, so the ablation's
	// stand-alone HOPA run uses the count its full variant used.
	if o.OR.OS.HOPAIterations <= 0 {
		o.OR.OS.HOPAIterations = hopa.DefaultIterations
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
}

// cellSolver builds the per-cell synthesis session of a sweep: serial
// (the sweep already parallelizes at cell grain), tuned by the sweep's
// OR options and SA budget, caching the cell system's derived state
// across the several algorithms each cell runs.
func cellSolver(app *model.Application, arch *model.Architecture, opts *Options, workers int) (*solve.Solver, error) {
	return solve.New(app, arch,
		solve.WithWorkers(workers),
		solve.WithOROptions(opts.OR),
		solve.WithSAIterations(opts.SAIterations))
}

// gridSweep fans one job per (point, seed) cell of a sweep out across
// the engine pool and returns the cells as [point][seed-1], failing
// with the first error in cell order (what a serial sweep would have
// hit first). Each cell must be self-contained: it generates its own
// system and synthesizes it, sharing nothing with its neighbours.
// Cancelling ctx aborts the sweep with ctx's error.
//
// onCell, when non-nil, is the live progress hook: it runs once per
// successful cell, in strict cell order, as soon as the cell and all
// its predecessors have finished — so -progress lines appear while the
// sweep is still running, yet read exactly like a serial run's.
func gridSweep[T any](ctx context.Context, opts *Options, points int, fn func(ctx context.Context, point int, seed int64) (T, error), onCell func(point int, seed int64, v T)) ([][]T, error) {
	n := points * opts.Seeds
	type slot struct {
		v   T
		err error
	}
	slots := make([]slot, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	// A failed cell cancels the sweep so unstarted cells are skipped
	// instead of burning hours of compute after a doomed run; the
	// caller's ctx cancels for the same effect from outside.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make([]func(context.Context) (struct{}, error), 0, n)
	for pi := 0; pi < points; pi++ {
		for seed := int64(1); seed <= int64(opts.Seeds); seed++ {
			pi, seed, i := pi, seed, len(jobs)
			jobs = append(jobs, func(jctx context.Context) (struct{}, error) {
				v, err := fn(jctx, pi, seed)
				slots[i] = slot{v: v, err: err}
				if err != nil {
					cancel()
				}
				close(done[i])
				return struct{}{}, nil
			})
		}
	}
	// The streamer walks the cells in order, emitting each as it
	// completes; an errored (or skipped) cell ends the stream where a
	// serial sweep would have aborted. close(done[i]) happens-before
	// <-done[i], so reading slots[i] here is race-free.
	streamed := make(chan struct{})
	// The cell fan-out itself rides engine.Sweep below; this goroutine
	// is the ordered live-progress consumer running beside it, which a
	// job-shaped pool cannot express.
	//mcs:allow poolonly ordered progress streamer consuming cell completions beside the engine.Sweep fan-out
	go func() {
		defer close(streamed)
		for i := 0; i < n; i++ {
			<-done[i]
			if slots[i].err != nil {
				return
			}
			if onCell != nil {
				onCell(i/opts.Seeds, int64(i%opts.Seeds)+1, slots[i].v)
			}
		}
	}()
	res, _ := engine.Sweep(ctx, engine.New(opts.Workers), jobs)
	// A cell the engine skipped after cancellation never ran its job,
	// so its done channel is still open — record the skip and close it
	// here, or the streamer (and this function) would wait forever.
	// Jobs themselves never return an error, so res[i].Err is non-nil
	// exactly for skipped cells.
	for i := range res {
		if res[i].Err != nil {
			slots[i].err = res[i].Err
			close(done[i])
		}
	}
	<-streamed
	// Fail with the first genuine cell error; skipped cells exist only
	// because some cell failed, so one is always found. (When several
	// cells fail in one sweep, which one is first can differ from a
	// serial run if an earlier cell was skipped — every error path
	// aborts the experiment either way.)
	for i := range slots {
		if slots[i].err != nil && res[i].Err == nil {
			return nil, slots[i].err
		}
	}
	for i := range slots {
		if slots[i].err != nil {
			return nil, slots[i].err
		}
	}
	out := make([][]T, points)
	k := 0
	for pi := range out {
		out[pi] = make([]T, opts.Seeds)
		for s := range out[pi] {
			out[pi][s] = slots[k].v
			k++
		}
	}
	return out, nil
}

func (o *Options) progressf(format string, args ...interface{}) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// deviationPct returns 100*(value-best)/max(1,|best|).
func deviationPct(value, best float64) float64 {
	den := best
	if den < 0 {
		den = -den
	}
	if den < 1 {
		den = 1
	}
	return 100 * (value - best) / den
}

// bestSA runs the cell session's annealer twice - from the SF baseline
// and from the OS best - and keeps the better outcome. This stands in
// for the paper's "very long and expensive runs ... the best ever
// solution produced has been considered a close to the optimum value".
// The chains are independent and run across an engine pool of workers
// goroutines (pass 1 from inside an already-parallel sweep cell); the
// reduction keeps chain order, so the outcome does not depend on the
// pool size.
func bestSA(ctx context.Context, sv *solve.Solver, osBest *opt.Result, obj sa.Objective, seed int64, workers int) (*opt.Result, error) {
	sf, err := sv.Straightforward(ctx)
	if err != nil {
		return nil, err
	}
	runs := []*core.Config{sf.Config}
	if osBest != nil {
		runs = append(runs, osBest.Config)
	}
	strat := solve.SAS
	if obj == sa.MinimizeBuffers {
		strat = solve.SAR
	}
	jobs := make([]func(context.Context) (*sa.Result, error), len(runs))
	for i, init := range runs {
		i, init := i, init
		jobs[i] = func(jctx context.Context) (*sa.Result, error) {
			return sv.Anneal(jctx, obj, init, seed+int64(i), strat)
		}
	}
	chains, _ := engine.Sweep(ctx, engine.New(workers), jobs)
	var best *opt.Result
	for _, c := range chains {
		if c.Err != nil {
			return nil, c.Err
		}
		if best == nil || saBetter(obj, c.Value.Best, best) {
			best = c.Value.Best
		}
	}
	return best, nil
}

func saBetter(obj sa.Objective, a, b *opt.Result) bool {
	switch obj {
	case sa.MinimizeDelta:
		return a.Delta() < b.Delta()
	default:
		if a.Schedulable() != b.Schedulable() {
			return a.Schedulable()
		}
		if !a.Schedulable() {
			return a.Delta() < b.Delta()
		}
		return a.STotal() < b.STotal()
	}
}

// Fig9aRow is one point of Fig. 9a: the average percentage deviation of
// the degree of schedulability from the SAS near-optimum, over the
// examples where all three algorithms found schedulable systems.
type Fig9aRow struct {
	Nodes, Procs int
	// Count is the number of generated applications; Usable the number
	// where SF, OS and SAS all produced schedulable systems.
	Count, Usable int
	// SFFail / OSFail / SASFail count unschedulable outcomes.
	SFFail, OSFail, SASFail int
	// SFDev / OSDev are the average percentage deviations from SAS.
	SFDev, OSDev float64
}

// Fig9a runs the degree-of-schedulability experiment. Cells fan out
// across opts.Workers goroutines; the row reduction is serial and in
// cell order. Each cell drives one Solver session, so the three
// algorithms of the cell share the derived state of its system.
func Fig9a(ctx context.Context, opts Options) ([]Fig9aRow, error) {
	opts.defaults()
	type cell struct {
		sf, os, sas *opt.Result
	}
	cells, err := gridSweep(ctx, &opts, len(opts.Sizes), func(ctx context.Context, pi int, seed int64) (cell, error) {
		sys, err := gen.Paper(opts.Sizes[pi], seed)
		if err != nil {
			return cell{}, err
		}
		sv, err := cellSolver(sys.Application, sys.Architecture, &opts, 1)
		if err != nil {
			return cell{}, err
		}
		sf, err := sv.Straightforward(ctx)
		if err != nil {
			return cell{}, err
		}
		osres, err := sv.OptimizeSchedule(ctx)
		if err != nil {
			return cell{}, err
		}
		sas, err := bestSA(ctx, sv, osres.Best, sa.MinimizeDelta, seed, 1)
		if err != nil {
			return cell{}, err
		}
		return cell{sf: sf, os: osres.Best, sas: sas}, nil
	}, func(pi int, seed int64, c cell) {
		opts.progressf("fig9a nodes=%d seed=%d: SF=%d OS=%d SAS=%d", opts.Sizes[pi], seed, c.sf.Delta(), c.os.Delta(), c.sas.Delta())
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig9aRow
	for pi, nodes := range opts.Sizes {
		row := Fig9aRow{Nodes: nodes, Procs: 40 * nodes}
		var sfSum, osSum float64
		for _, c := range cells[pi] {
			row.Count++
			if !c.sf.Schedulable() {
				row.SFFail++
			}
			if !c.os.Schedulable() {
				row.OSFail++
			}
			if !c.sas.Schedulable() {
				row.SASFail++
			}
			if c.sf.Schedulable() && c.os.Schedulable() && c.sas.Schedulable() {
				row.Usable++
				sfSum += deviationPct(float64(c.sf.Delta()), float64(c.sas.Delta()))
				osSum += deviationPct(float64(c.os.Delta()), float64(c.sas.Delta()))
			}
		}
		if row.Usable > 0 {
			row.SFDev = sfSum / float64(row.Usable)
			row.OSDev = osSum / float64(row.Usable)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig9a renders the rows like the paper's Fig. 9a.
func PrintFig9a(w io.Writer, rows []Fig9aRow) {
	fmt.Fprintln(w, "Fig 9a - avg % deviation of delta_Gamma from SAS (lower is better)")
	fmt.Fprintf(w, "%8s %8s %10s %10s %8s %8s %8s %8s\n", "procs", "apps", "SF dev%", "OS dev%", "usable", "SFfail", "OSfail", "SASfail")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8d %10.1f %10.1f %8d %8d %8d %8d\n",
			r.Procs, r.Count, r.SFDev, r.OSDev, r.Usable, r.SFFail, r.OSFail, r.SASFail)
	}
}

// Fig9bRow is one point of Fig. 9b: the average total buffer need.
type Fig9bRow struct {
	Nodes, Procs         int
	Count, Usable        int
	OSAvg, ORAvg, SARAvg float64
}

// Fig9b runs the buffer-need experiment over application sizes, with
// the (size, seed) cells fanned out across opts.Workers goroutines.
func Fig9b(ctx context.Context, opts Options) ([]Fig9bRow, error) {
	opts.defaults()
	type cell struct {
		os, or, sar *opt.Result
	}
	cells, err := gridSweep(ctx, &opts, len(opts.Sizes), func(ctx context.Context, pi int, seed int64) (cell, error) {
		sys, err := gen.Paper(opts.Sizes[pi], seed)
		if err != nil {
			return cell{}, err
		}
		sv, err := cellSolver(sys.Application, sys.Architecture, &opts, 1)
		if err != nil {
			return cell{}, err
		}
		orres, err := sv.OptimizeResources(ctx)
		if err != nil {
			return cell{}, err
		}
		sar, err := bestSA(ctx, sv, orres.OS.Best, sa.MinimizeBuffers, seed, 1)
		if err != nil {
			return cell{}, err
		}
		return cell{os: orres.OS.Best, or: orres.Best, sar: sar}, nil
	}, func(pi int, seed int64, c cell) {
		opts.progressf("fig9b nodes=%d seed=%d: OS=%d OR=%d SAR=%d", opts.Sizes[pi], seed, c.os.STotal(), c.or.STotal(), c.sar.STotal())
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig9bRow
	for pi, nodes := range opts.Sizes {
		row := Fig9bRow{Nodes: nodes, Procs: 40 * nodes}
		var osSum, orSum, sarSum float64
		for _, c := range cells[pi] {
			row.Count++
			if c.os.Schedulable() && c.or.Schedulable() && c.sar.Schedulable() {
				row.Usable++
				osSum += float64(c.os.STotal())
				orSum += float64(c.or.STotal())
				sarSum += float64(c.sar.STotal())
			}
		}
		if row.Usable > 0 {
			row.OSAvg = osSum / float64(row.Usable)
			row.ORAvg = orSum / float64(row.Usable)
			row.SARAvg = sarSum / float64(row.Usable)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig9b renders the rows like the paper's Fig. 9b.
func PrintFig9b(w io.Writer, rows []Fig9bRow) {
	fmt.Fprintln(w, "Fig 9b - average total buffer need s_total (bytes; lower is better)")
	fmt.Fprintf(w, "%8s %8s %10s %10s %10s %8s\n", "procs", "apps", "OS", "OR", "SAR", "usable")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8d %10.0f %10.0f %10.0f %8d\n", r.Procs, r.Count, r.OSAvg, r.ORAvg, r.SARAvg, r.Usable)
	}
}

// Fig9cRow is one point of Fig. 9c: buffer-need deviation from SAR as
// the inter-cluster traffic grows (160-process applications).
type Fig9cRow struct {
	Inter         int
	Count, Usable int
	OSDev, ORDev  float64
}

// Fig9c runs the inter-cluster traffic experiment, with the (traffic,
// seed) cells fanned out across opts.Workers goroutines.
func Fig9c(ctx context.Context, opts Options) ([]Fig9cRow, error) {
	opts.defaults()
	type cell struct {
		os, or, sar *opt.Result
	}
	cells, err := gridSweep(ctx, &opts, len(opts.Inter), func(ctx context.Context, pi int, seed int64) (cell, error) {
		sys, err := gen.Fig9c(opts.Inter[pi], seed)
		if err != nil {
			return cell{}, err
		}
		sv, err := cellSolver(sys.Application, sys.Architecture, &opts, 1)
		if err != nil {
			return cell{}, err
		}
		orres, err := sv.OptimizeResources(ctx)
		if err != nil {
			return cell{}, err
		}
		sar, err := bestSA(ctx, sv, orres.OS.Best, sa.MinimizeBuffers, seed, 1)
		if err != nil {
			return cell{}, err
		}
		return cell{os: orres.OS.Best, or: orres.Best, sar: sar}, nil
	}, func(pi int, seed int64, c cell) {
		opts.progressf("fig9c inter=%d seed=%d: OS=%d OR=%d SAR=%d", opts.Inter[pi], seed, c.os.STotal(), c.or.STotal(), c.sar.STotal())
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig9cRow
	for pi, inter := range opts.Inter {
		row := Fig9cRow{Inter: inter}
		var osSum, orSum float64
		for _, c := range cells[pi] {
			row.Count++
			if c.os.Schedulable() && c.or.Schedulable() && c.sar.Schedulable() {
				row.Usable++
				osSum += deviationPct(float64(c.os.STotal()), float64(c.sar.STotal()))
				orSum += deviationPct(float64(c.or.STotal()), float64(c.sar.STotal()))
			}
		}
		if row.Usable > 0 {
			row.OSDev = osSum / float64(row.Usable)
			row.ORDev = orSum / float64(row.Usable)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig9c renders the rows like the paper's Fig. 9c.
func PrintFig9c(w io.Writer, rows []Fig9cRow) {
	fmt.Fprintln(w, "Fig 9c - avg % deviation of s_total from SAR vs inter-cluster traffic")
	fmt.Fprintf(w, "%8s %8s %10s %10s %8s\n", "msgs", "apps", "OS dev%", "OR dev%", "usable")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8d %10.1f %10.1f %8d\n", r.Inter, r.Count, r.OSDev, r.ORDev, r.Usable)
	}
}

// RuntimeRow reports wall-clock times of the heuristics vs the SA
// baselines on one generated application.
type RuntimeRow struct {
	Nodes, Procs         int
	SF, OS, OR, SAS, SAR time.Duration
}

// timed measures one synthesis step for the run-time comparison. It is
// the only wall-clock site of the package: durations are the
// experiment's *output*, reported in the table and never fed back into
// configs, seeds, or results — keeping the timing audit a one-liner.
func timed(step func() error) (time.Duration, error) {
	t0 := time.Now() //mcs:allow wallclock run-time table reports wall-clock; durations never feed results
	err := step()
	return time.Since(t0), err //mcs:allow wallclock same reporting-only measurement as above
}

// Runtimes measures the §6 execution-time comparison. It deliberately
// ignores opts.Workers and runs everything serially: the point of the
// experiment is the wall-clock cost of each algorithm, which concurrent
// neighbours would distort. One Solver serves all algorithms of a size,
// so the comparison includes the session-cache effect a service would
// see.
func Runtimes(ctx context.Context, opts Options) ([]RuntimeRow, error) {
	opts.defaults()
	var rows []RuntimeRow
	for _, nodes := range opts.Sizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sys, err := gen.Paper(nodes, 1)
		if err != nil {
			return nil, err
		}
		sv, err := cellSolver(sys.Application, sys.Architecture, &opts, 1)
		if err != nil {
			return nil, err
		}
		row := RuntimeRow{Nodes: nodes, Procs: 40 * nodes}
		var osres *opt.OSResult
		steps := []struct {
			d   *time.Duration
			run func() error
		}{
			{&row.SF, func() error { _, err := sv.Straightforward(ctx); return err }},
			{&row.OS, func() error { var err error; osres, err = sv.OptimizeSchedule(ctx); return err }},
			{&row.OR, func() error { _, err := sv.OptimizeResources(ctx); return err }},
			{&row.SAS, func() error {
				_, err := bestSA(ctx, sv, osres.Best, sa.MinimizeDelta, 1, 1)
				return err
			}},
			{&row.SAR, func() error {
				_, err := bestSA(ctx, sv, osres.Best, sa.MinimizeBuffers, 1, 1)
				return err
			}},
		}
		for _, s := range steps {
			d, err := timed(s.run)
			if err != nil {
				return nil, err
			}
			*s.d = d
		}
		opts.progressf("runtime nodes=%d done", nodes)
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintRuntimes renders the run-time comparison.
func PrintRuntimes(w io.Writer, rows []RuntimeRow, saIters int) {
	fmt.Fprintf(w, "Run times (SA limited to %d iterations here; the paper ran SA for hours)\n", saIters)
	fmt.Fprintf(w, "%8s %12s %12s %12s %12s %12s\n", "procs", "SF", "OS", "OR", "SAS", "SAR")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %12v %12v %12v %12v %12v\n",
			r.Procs, r.SF.Round(time.Millisecond), r.OS.Round(time.Millisecond),
			r.OR.Round(time.Millisecond), r.SAS.Round(time.Millisecond), r.SAR.Round(time.Millisecond))
	}
}
