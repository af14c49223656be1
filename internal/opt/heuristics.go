package opt

import (
	"context"
	"errors"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hopa"
	"repro/internal/model"
	"repro/internal/tsched"
)

// Result couples a configuration with its analysis.
type Result struct {
	Config   *core.Config
	Analysis *core.Analysis
}

// Progress is one optimizer progress event: the reduction just
// finished Step (a TDMA position for OptimizeSchedule, a hill-climbing
// iteration for OptimizeResources), Evaluations analyses have been
// spent so far, and Best is the incumbent (nil until a candidate
// survives analysis). Events are emitted from the reducing goroutine,
// in step order, for every worker count.
type Progress struct {
	Phase       string // "os" or "or"
	Step        int
	Evaluations int
	Best        *Result
}

// canceled reports whether err is the batch-wide cancellation of ctx
// (as opposed to a genuine per-candidate analysis failure).
func canceled(ctx context.Context, err error) bool {
	return err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err())
}

// Delta is the degree of schedulability of the result.
func (r *Result) Delta() model.Time { return r.Analysis.Delta }

// STotal is the total buffer need of the result.
func (r *Result) STotal() int { return r.Analysis.Buffers.Total }

// Schedulable reports the analysis verdict.
func (r *Result) Schedulable() bool { return r.Analysis.Schedulable }

// evaluate analyzes a configuration through the run's analyzer.
func evaluate(eval engine.Analyzer, cfg *core.Config) (*Result, error) {
	a, err := eval(cfg)
	if err != nil {
		return nil, err
	}
	return &Result{Config: cfg, Analysis: a}, nil
}

// Straightforward is the SF baseline of §6: nodes allocated to the TDMA
// slots in ascending architecture order, slot lengths fixed at the
// minimum that accommodates the largest message of each node, priorities
// left at their declaration order, and the system scheduled by
// MultiClusterScheduling through eval. Priority optimization (HOPA) is
// part of OptimizeSchedule, not of the baseline (§5.1).
func Straightforward(app *model.Application, arch *model.Architecture, eval engine.Analyzer) (*Result, error) {
	cfg := core.DefaultConfig(app, arch)
	if err := cfg.Normalize(app); err != nil {
		return nil, err
	}
	return evaluate(eval, cfg)
}

// OSOptions tunes OptimizeSchedule.
type OSOptions struct {
	// HOPAIterations per candidate configuration (default
	// hopa.DefaultIterations).
	HOPAIterations int
	// SlotCandidates caps the recommended lengths tried per slot
	// (default 3).
	SlotCandidates int
	// SeedLimit caps the seed_solutions list (default 6).
	SeedLimit int
	// OnProgress, when non-nil, receives one event per slot position.
	OnProgress func(Progress)
}

func (o *OSOptions) defaults() {
	if o.HOPAIterations <= 0 {
		o.HOPAIterations = hopa.DefaultIterations
	}
	if o.SlotCandidates <= 0 {
		o.SlotCandidates = 3
	}
	if o.SeedLimit <= 0 {
		o.SeedLimit = 6
	}
}

func (o *OSOptions) progress(p Progress) {
	if o.OnProgress != nil {
		o.OnProgress(p)
	}
}

// OSResult is the outcome of OptimizeSchedule.
type OSResult struct {
	// Best is the configuration with the smallest delta_Gamma.
	Best *Result
	// Seeds are the recorded seed solutions for OptimizeResources,
	// ordered best-delta first, deduplicated.
	Seeds []*Result
	// Evaluations counts the multi-cluster analyses performed.
	Evaluations int
}

// osCandidate is one (owner, length) candidate of the Fig. 8 slot
// search, described as the typed moves that derive it from the
// position's shared parent configuration (a swap bringing slot j into
// position i, then an absolute length assignment).
type osCandidate struct {
	j     int        // slot index swapped into position i
	l     model.Time // candidate length of position i
	moves []Move
}

// osEval is the evaluation of one candidate: the analyzed result plus
// the analyses HOPA spent finding the priorities.
type osEval struct {
	r         *Result
	hopaEvals int
}

// OptimizeSchedule is the greedy heuristic of Fig. 8: slot by slot it
// chooses the owner and the slot length that maximize the degree of
// schedulability, with HOPA priorities per candidate, recording the best
// configurations (by delta and by s_total) as seeds for the second step.
//
// Every candidate analysis, HOPA's included, runs through eval;
// Evaluations counts the analyses requested, not what eval recomputes,
// so it does not depend on the analyzer. The candidates of each
// position are independent, so they are evaluated across pool; the
// reduction walks them in generation order, which makes the outcome
// identical to the serial walk for any pool size.
//
// Cancelling ctx stops the search at the next evaluation granule: the
// returned OSResult then carries the best configuration and the seeds
// found so far, together with ctx's error.
func OptimizeSchedule(ctx context.Context, app *model.Application, arch *model.Architecture,
	pool *engine.Pool, eval engine.Analyzer, opts OSOptions) (*OSResult, error) {
	opts.defaults()
	base := core.DefaultConfig(app, arch)
	res := &OSResult{}
	var seeds []*Result

	partial := func(best *Result) (*OSResult, error) {
		res.Best = best
		res.Seeds = selectSeeds(seeds, opts.SeedLimit)
		return res, ctx.Err()
	}

	round := base.Round.Clone()
	var best *Result
	for i := range round.Slots {
		if ctx.Err() != nil {
			return partial(best)
		}
		// Generate the full candidate batch for position i up front, as
		// typed moves against the position's shared parent (the running
		// best round on the base template).
		parent := base.Clone()
		parent.Round = round.Clone()
		var cands []osCandidate
		//mcs:allow ctxloop candidate generation is cheap in-memory setup; the position loop checks ctx and the batch evaluation is ctx-aware
		for j := i; j < len(round.Slots); j++ {
			lengths := tsched.RecommendedSlotLengths(app, arch, round.Slots[j].Node, opts.SlotCandidates)
			for _, l := range lengths {
				var mvs []Move
				if j != i {
					mvs = append(mvs, Move{Kind: MoveSwapSlots, Slot: i, Slot2: j})
				}
				mvs = append(mvs, Move{Kind: MoveSetSlotLen, Slot: i, Length: l})
				cands = append(cands, osCandidate{j: j, l: l, moves: mvs})
			}
		}

		// Fan the derivation + HOPA + analysis work out across the pool.
		evals, _ := engine.Map(ctx, pool, len(cands), func(_ context.Context, k int) (osEval, error) {
			cfg := parent
			for _, mv := range cands[k].moves {
				next, err := mv.Apply(app, arch, cfg)
				if err != nil {
					return osEval{}, err
				}
				cfg = next
			}
			pr, err := hopa.Assign(app, arch, cfg.Round, opts.HOPAIterations, eval)
			if err != nil {
				return osEval{}, err
			}
			full := cfg.Clone()
			full.ProcPriority = pr.ProcPriority
			full.MsgPriority = pr.MsgPriority
			if err := full.Normalize(app); err != nil {
				return osEval{hopaEvals: pr.Evaluations}, err
			}
			r, err := evaluate(eval, full)
			if err != nil {
				return osEval{hopaEvals: pr.Evaluations}, err
			}
			return osEval{r: r, hopaEvals: pr.Evaluations}, nil
		})

		// Reduce in candidate order, exactly like the serial loop.
		bestAt := -1
		var bestLen model.Time
		var bestRes *Result
		for k, ev := range evals {
			if ev.Err != nil {
				if canceled(ctx, ev.Err) {
					// Keep what this position already evaluated and
					// stop: best-so-far beats nothing at all.
					if bestRes != nil && (best == nil || better(bestRes, best)) {
						best = bestRes
					}
					return partial(best)
				}
				return nil, ev.Err
			}
			res.Evaluations += ev.Value.hopaEvals + 1
			r := ev.Value.r
			seeds = append(seeds, r)
			if bestRes == nil || better(r, bestRes) {
				bestRes = r
				bestAt = cands[k].j
				bestLen = cands[k].l
			}
		}
		if bestAt >= 0 {
			round.Slots[i], round.Slots[bestAt] = round.Slots[bestAt], round.Slots[i]
			round.Slots[i].Length = bestLen
		}
		if bestRes != nil && (best == nil || better(bestRes, best)) {
			best = bestRes
		}
		opts.progress(Progress{Phase: "os", Step: i + 1, Evaluations: res.Evaluations, Best: best})
	}
	res.Best = best
	res.Seeds = selectSeeds(seeds, opts.SeedLimit)
	return res, nil
}

// better orders results by degree of schedulability, breaking ties with
// the buffer need.
func better(a, b *Result) bool {
	if a.Delta() != b.Delta() {
		return a.Delta() < b.Delta()
	}
	return a.STotal() < b.STotal()
}

// selectSeeds keeps the most promising seed solutions: the best by
// delta (highly schedulable systems survive more hill-climbing moves)
// and, among the schedulable ones, the best by s_total (§5.1).
func selectSeeds(all []*Result, limit int) []*Result {
	if len(all) == 0 {
		return nil
	}
	byDelta := append([]*Result(nil), all...)
	sort.SliceStable(byDelta, func(i, j int) bool { return better(byDelta[i], byDelta[j]) })
	var bySTotal []*Result
	for _, r := range all {
		if r.Schedulable() {
			bySTotal = append(bySTotal, r)
		}
	}
	sort.SliceStable(bySTotal, func(i, j int) bool {
		if bySTotal[i].STotal() != bySTotal[j].STotal() {
			return bySTotal[i].STotal() < bySTotal[j].STotal()
		}
		return bySTotal[i].Delta() < bySTotal[j].Delta()
	})
	var seeds []*Result
	seen := make(map[*core.Config]bool)
	take := func(r *Result) {
		if len(seeds) >= limit || seen[r.Config] {
			return
		}
		seen[r.Config] = true
		seeds = append(seeds, r)
	}
	half := (limit + 1) / 2
	for i := 0; i < len(bySTotal) && i < half; i++ {
		take(bySTotal[i])
	}
	for _, r := range byDelta {
		take(r)
	}
	return seeds
}

// OROptions tunes OptimizeResources.
type OROptions struct {
	OS OSOptions
	// MaxIterations caps the hill-climbing steps per seed (default 40).
	MaxIterations int
	// NeighborBudget caps the moves evaluated per step (default 24).
	NeighborBudget int
	// Seeds caps the number of seed solutions explored (default 4).
	Seeds int
	// RandSeed drives the sampled share of the neighbourhood.
	RandSeed int64
	// OnProgress, when non-nil, receives one event per OS slot position
	// and per hill-climbing step; it replaces OS.OnProgress, so the two
	// phases stream to one observer.
	OnProgress func(Progress)
}

func (o *OROptions) defaults() {
	o.OS.OnProgress = o.OnProgress
	o.OS.defaults()
	if o.MaxIterations <= 0 {
		o.MaxIterations = 40
	}
	if o.NeighborBudget <= 0 {
		o.NeighborBudget = 24
	}
	if o.Seeds <= 0 {
		o.Seeds = 4
	}
	if o.RandSeed == 0 {
		o.RandSeed = 1
	}
}

// ORResult is the outcome of OptimizeResources.
type ORResult struct {
	// Best is the schedulable configuration with the smallest s_total
	// (or the best-effort OS result when nothing schedulable exists).
	Best *Result
	// OS is the first-step result.
	OS *OSResult
	// Evaluations counts all analyses, including the OS step.
	Evaluations int
	// Improved tells whether hill climbing reduced s_total below the
	// best OS seed.
	Improved bool
}

// OptimizeResources is the two-step resource optimization of Fig. 7:
// first OptimizeSchedule finds schedulable seed solutions, then a
// hill-climbing loop performs the §5.1 moves, accepting only schedulable
// neighbours that strictly reduce s_total. Both steps analyze through
// eval across pool.
//
// Cancelling ctx stops the climb at the next evaluation granule: the
// returned ORResult then carries the best configuration found so far,
// together with ctx's error.
func OptimizeResources(ctx context.Context, app *model.Application, arch *model.Architecture,
	pool *engine.Pool, eval engine.Analyzer, opts OROptions) (*ORResult, error) {
	opts.defaults()
	osres, err := OptimizeSchedule(ctx, app, arch, pool, eval, opts.OS)
	if err != nil {
		if osres == nil || osres.Best == nil {
			return nil, err
		}
		// Cancelled mid-OS: surface the best-effort OS result.
		return &ORResult{OS: osres, Best: osres.Best, Evaluations: osres.Evaluations}, err
	}
	out := &ORResult{OS: osres, Best: osres.Best, Evaluations: osres.Evaluations}
	if osres.Best == nil || !osres.Best.Schedulable() {
		// The paper's step 1 failure path ("modify mapping and/or
		// architecture") is outside our scope: report best effort.
		return out, ctx.Err()
	}
	rng := rand.New(rand.NewSource(opts.RandSeed))
	best := osres.Best
	step := 0
	for si, seed := range osres.Seeds {
		if si >= opts.Seeds {
			break
		}
		if !seed.Schedulable() {
			continue
		}
		cur := seed
		for it := 0; it < opts.MaxIterations; it++ {
			if ctx.Err() != nil {
				out.Best = best
				return out, ctx.Err()
			}
			// The neighbourhood is drawn serially (one rng stream, same
			// sequence as the serial climber), then scored in parallel:
			// the typed moves derive each neighbour from the shared
			// incumbent inside the batch.
			moves := GenerateMoves(app, arch, cur.Config, cur.Analysis, MoveBudget{Max: opts.NeighborBudget, Rand: rng})
			evals, _ := engine.EvaluateAllDelta(ctx, pool, eval, cur.Config, len(moves),
				func(k int, parent *core.Config) (*core.Config, error) {
					return moves[k].Apply(app, arch, parent)
				})
			var chosen *Result
			for _, ev := range evals {
				if ev.Err != nil || ev.Analysis == nil {
					continue // impossible move, unanalyzable or cancelled
				}
				r := &Result{Config: ev.Config, Analysis: ev.Analysis}
				out.Evaluations++
				if !r.Schedulable() {
					continue
				}
				if r.STotal() < cur.STotal() && (chosen == nil || r.STotal() < chosen.STotal()) {
					chosen = r
				}
			}
			if chosen == nil {
				break
			}
			cur = chosen
			if cur.STotal() < best.STotal() || (cur.STotal() == best.STotal() && cur.Delta() < best.Delta()) {
				best = cur
				out.Improved = true
			}
			step++
			if opts.OnProgress != nil {
				opts.OnProgress(Progress{Phase: "or", Step: step, Evaluations: out.Evaluations, Best: best})
			}
		}
	}
	out.Best = best
	// A cancellation that lands while a neighbourhood batch is being
	// scored truncates the scan ("no improving neighbour" is then
	// unprovable), so a cancelled climb always reports ctx's error with
	// its best-so-far rather than posing as a completed run.
	return out, ctx.Err()
}
