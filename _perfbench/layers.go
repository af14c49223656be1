package main

import (
	"repro/internal/engine"
	"repro/internal/obs"
)

// layerMetrics lists every per-layer metric with its unit. A traced run
// prints all of them; a layer the workload does not call reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"core.analyze_ms", "ms"},
	{"core.allocs_per_analysis", "count"},
	{"core.bytes_per_analysis", "B"},
	{"core.mcs_iterations", "count"},
	{"core.unconverged_share", "share"},
	{"core.cpu_share", "share"},
	{"tsched.build_us", "us"},
	{"tsched.cpu_share", "share"},
	{"rta.cpu_share", "share"},
	{"rta.alloc_share", "share"},
	{"gateway.cpu_share", "share"},
	{"delta.config_hit_rate", "share"},
	{"delta.stage_hit_rate", "share"},
	{"delta.rta_warm_starts", "count"},
	{"delta.hit_us", "us"},
	{"delta.cpu_share", "share"},
	{"opt.evaluations", "count"},
	{"opt.os_ms", "ms"},
	{"opt.or_ms", "ms"},
	{"opt.cpu_share", "share"},
	{"opt.schedulable_share", "share"},
	{"opt.s_total_mean", "B"},
	{"engine.tasks", "count"},
	{"engine.mean_batch_size", "count"},
	{"dse.generation_ms", "ms"},
	{"dse.evaluations", "count"},
	{"dse.hypervolume", "index"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.run_p50_ms", "ms"},
	{"service.solver_cache_hit_rate", "share"},
	{"service.persistent_hit_rate", "share"},
	{"service.rejected", "count"},
	{"service.cpu_share", "share"},
	{"store.append_us", "us"},
	{"store.put_result_us", "us"},
	{"store.appends_per_job", "count"},
	{"store.journal_bytes_per_job", "B"},
	{"wire.cpu_share", "share"},
	{"runtime.gc_cpu_share", "share"},
	{"loadgen.lag_ms", "ms"},
	{"trace.overhead_share", "share"},
}

// setLayerDefaults sets every per-layer metric to 0, so a traced run
// prints the full set even for layers its workload does not call.
func setLayerDefaults(r *report) {
	for _, m := range layerMetrics {
		r.set(m.name, 0, m.unit)
	}
}

// setLayer records a per-layer metric under the unit layerMetrics gives
// it.
func (r *report) setLayer(name string, v float64) {
	for _, m := range layerMetrics {
		if m.name == name {
			r.set(name, v, m.unit)
			return
		}
	}
	panic("perfbench: unlisted per-layer metric " + name)
}

// engineMetrics installs benchmark-owned engine instruments for the
// traced phase.
type engineMetrics struct {
	tasks     *obs.Counter
	batchSize *obs.Histogram
}

func newEngineMetrics() *engineMetrics {
	reg := obs.NewRegistry()
	em := &engineMetrics{
		tasks:     reg.Counter("perfbench_engine_tasks_total", "Evaluation tasks executed."),
		batchSize: reg.Histogram("perfbench_engine_batch_size", "Items per evaluation batch.", obs.SizeBuckets),
	}
	engine.SetMetrics(&engine.Metrics{Tasks: em.tasks, BatchSize: em.batchSize})
	return em
}

func (em *engineMetrics) uninstall() { engine.SetMetrics(nil) }

func (em *engineMetrics) report(r *report) {
	r.setLayer("engine.tasks", float64(em.tasks.Value()))
	r.setLayer("engine.mean_batch_size", ratio(em.batchSize.Sum(), float64(em.batchSize.Count())))
}
