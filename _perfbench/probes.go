package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/solve"
	"repro/internal/store"
)

// Every traced run prints every per-layer metric as a measurement. A
// layer its workload does not call is measured by a short probe on the
// workload's own systems, run after the profiled phase so that it stays
// out of the workload's CPU split.

// probeOpt runs OptimizeSchedule and OptimizeResources on fresh Solvers
// for each system and reports the opt metrics.
func probeOpt(ctx context.Context, c config, r *report, tr *tracer, systems []*model.System) error {
	var q optQuality
	for i, sys := range systems {
		group := fmt.Sprintf("opt-probe-%d", i)
		osSolver, err := newSynthSolver(sys, c, solve.OptimizeSchedule)
		if err != nil {
			return err
		}
		_, end := tr.begin("opt.OptimizeSchedule", group, 0)
		_, err = osSolver.OptimizeSchedule(ctx)
		end()
		if err != nil {
			return err
		}
		orSolver, err := newSynthSolver(sys, c, solve.OptimizeResources)
		if err != nil {
			return err
		}
		_, end = tr.begin("opt.OptimizeResources", group, 0)
		res, err := orSolver.OptimizeResources(ctx)
		end()
		if err != nil {
			return err
		}
		q.add(res.Evaluations, res.Best.Analysis.Schedulable, res.Best.Analysis.Buffers.Total)
	}
	q.report(r, tr)
	return nil
}

// optQuality sums the OR results of a traced run.
type optQuality struct {
	systems, evaluations, schedulable int
	buffers                           float64
}

func (q *optQuality) add(evaluations int, schedulable bool, buffers int) {
	q.systems++
	q.evaluations += evaluations
	if schedulable {
		q.schedulable++
	}
	q.buffers += float64(buffers)
}

func (q *optQuality) report(r *report, tr *tracer) {
	n := float64(q.systems)
	r.setLayer("opt.evaluations", float64(q.evaluations))
	r.setLayer("opt.os_ms", tr.meanMS("opt.OptimizeSchedule"))
	r.setLayer("opt.or_ms", tr.meanMS("opt.OptimizeResources"))
	r.setLayer("opt.schedulable_share", ratio(float64(q.schedulable), n))
	r.setLayer("opt.s_total_mean", ratio(q.buffers, n))
}

// probeExplore runs Solver.Explore with the fixed population and
// generation count on each system and reports the dse metrics.
func probeExplore(ctx context.Context, c config, r *report, tr *tracer, systems []*model.System) error {
	var hv, evals []float64
	for i, sys := range systems {
		sol, err := solve.New(sys.Application, sys.Architecture, solve.WithWorkers(c.workers))
		if err != nil {
			return err
		}
		_, end := tr.begin("dse.Explore", fmt.Sprintf("explore-probe-%d", i), 0)
		res, err := sol.Explore(ctx, solve.WithPopulation(explorePopulation), solve.WithGenerations(exploreGenerations))
		end()
		if err != nil {
			return err
		}
		hv = append(hv, res.Hypervolume)
		evals = append(evals, float64(res.Evaluations))
	}
	r.setLayer("dse.generation_ms", tr.meanMS("dse.Explore")/exploreGenerations)
	r.setLayer("dse.evaluations", mean(evals))
	r.setLayer("dse.hypervolume", mean(hv))
	return nil
}

// probeService hosts the service in process and sends it a short open
// loop of requests built from the systems: per system one analyze batch
// and one straightforward (sf) synthesize, the whole list twice, ten
// requests per second. The second synthesize of each system is served
// from the persisted results. It reports the service, store and loadgen
// metrics and checks the responses like serve-mixed does.
func probeService(ctx context.Context, c config, r *report, tr *tracer, systems []*model.System) error {
	var reqs []*request
	for round := range 2 {
		for i, sys := range systems {
			cfgs := newConfigGen(sys, c.seed*7919+int64(i))
			for _, kind := range []string{"analyze", "synthesize"} {
				q := &request{sys: sys, seed: 1, strategy: solve.Straightforward}
				if kind == "analyze" {
					for range analyzeBatchSize {
						cfg, err := cfgs.next()
						if err != nil {
							return err
						}
						q.cfgs = append(q.cfgs, cfg)
					}
				}
				q.due = time.Duration(len(reqs)) * 100 * time.Millisecond
				q.high = round == 1
				if err := q.encode(); err != nil {
					return err
				}
				reqs = append(reqs, q)
			}
		}
	}
	var ts *timedStore
	h, err := hostService(c, fmt.Sprintf("service-probe-%d", c.seed), func(s store.Store) store.Store {
		ts = &timedStore{Store: s, tr: tr}
		return ts
	})
	if err != nil {
		return err
	}
	outs := loadgen(ctx, h.base, c.workers, reqs, tr)
	storeStats := h.st.Stats()
	expo, err := h.stop()
	if err != nil {
		return err
	}
	var lags []float64
	for _, o := range outs {
		r.attempt(1)
		lags = append(lags, ms(o.sent-o.req.due))
		if o.err != nil {
			r.fail("service probe %s: %v", o.req.path, o.err)
		}
	}
	if err := checkServe(ctx, c, r, outs); err != nil {
		return err
	}
	return reportService(r, tr, outs, ts, storeStats, expo, lags)
}

// reportService sets the service, store and loadgen metrics of one
// hosted-service run. Completion and hit rates come from what the client
// observed; the histograms from the registry, read after the drain.
func reportService(r *report, tr *tracer, outs []*outcome, ts *timedStore, st store.Stats, expo string, lags []float64) error {
	sums, buckets := promSums(expo)
	waits, waitCount := buckets["mcs_job_queue_wait_seconds_bucket"], sums["mcs_job_queue_wait_seconds_count"]
	r.setLayer("service.queue_wait_p50_ms", 1000*histQuantile(0.5, waits, waitCount))
	r.setLayer("service.queue_wait_p99_ms", 1000*histQuantile(0.99, waits, waitCount))
	r.setLayer("service.run_p50_ms", 1000*histQuantile(0.5, buckets["mcs_job_duration_seconds_bucket"], sums["mcs_job_duration_seconds_count"]))

	var jobs, cacheHits, persistentHits, rejected int
	for _, o := range outs {
		if o.refused {
			rejected++
		}
		if o.err != nil || o.req.path == "/v1/analyze" {
			continue
		}
		jobs++
		var res service.JobResult
		if err := json.Unmarshal(o.result, &res); err != nil {
			return err
		}
		if res.CacheHit {
			cacheHits++
		}
		if res.PersistentHit {
			persistentHits++
		}
	}
	r.setLayer("service.solver_cache_hit_rate", ratio(float64(cacheHits), float64(jobs)))
	r.setLayer("service.persistent_hit_rate", ratio(float64(persistentHits), float64(jobs)))
	r.setLayer("service.rejected", float64(rejected))
	r.setLayer("store.append_us", tr.meanMS("store.Append")*1000)
	r.setLayer("store.put_result_us", tr.meanMS("store.PutResult")*1000)
	r.setLayer("store.appends_per_job", ratio(float64(ts.appends.Load()), float64(jobs)))
	r.setLayer("store.journal_bytes_per_job", ratio(float64(st.AppendBytes), float64(jobs)))
	r.setLayer("loadgen.lag_ms", percentile(lags, 99))
	return nil
}
