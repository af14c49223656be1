package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// timedStore wraps the service's store and records a span around every
// Append and PutResult the service makes.
type timedStore struct {
	store.Store
	tr      *tracer
	appends atomic.Int64
}

func (s *timedStore) Append(rec store.Record) error {
	_, end := s.tr.begin("store.Append", rec.Job, 0)
	defer end()
	s.appends.Add(1)
	return s.Store.Append(rec)
}

func (s *timedStore) PutResult(key string, result []byte) error {
	_, end := s.tr.begin("store.PutResult", key, 0)
	defer end()
	return s.Store.PutResult(key, result)
}

// hosted is the service running in this process behind a loopback
// listener, as mcs-serve runs it with default flags.
type hosted struct {
	svc  *service.Service
	srv  *http.Server
	st   *store.FileStore
	reg  *obs.Registry
	base string
	dir  string
	done chan error
}

func hostService(c config, name string, wrap func(store.Store) store.Store) (*hosted, error) {
	dir := filepath.Join(c.workDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{ResultTTL: 24 * time.Hour})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	h := &hosted{st: st, reg: obs.NewRegistry(), base: "http://" + ln.Addr().String(), dir: dir, done: make(chan error, 1)}
	var s store.Store = st
	if wrap != nil {
		s = wrap(st)
	}
	h.svc = service.New(service.Options{Workers: c.workers, Store: s, Metrics: h.reg, Tracing: true})
	h.srv = &http.Server{Handler: service.NewHandler(h.svc)}
	go func() { h.done <- h.srv.Serve(ln) }()
	return h, nil
}

// stop drains the service, shuts the listener and closes the store. It
// returns the registry's exposition, read only after the drain.
func (h *hosted) stop() (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.svc.Drain(ctx)
	var sb strings.Builder
	h.reg.WritePrometheus(&sb)
	err := h.srv.Shutdown(ctx)
	if serr := <-h.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	engine.SetMetrics(nil) // the service installed its own engine instruments
	return sb.String(), errors.Join(err, h.st.Close(), os.RemoveAll(h.dir))
}

// traceServe is the traced serve-mixed run. The service is hosted in
// process so the benchmark can time each store call the service makes
// and own its metrics registry; the generator is unchanged. The low
// phase runs once untraced to price the tracing overhead, then the whole
// schedule runs traced and profiled. The per-layer probes on the first
// hot systems follow.
func traceServe(ctx context.Context, c config, r *report) error {
	reqs, total, err := serveSchedule(c)
	if err != nil {
		return err
	}
	var low []*request
	for _, q := range reqs {
		if !q.high {
			low = append(low, q)
		}
	}
	plain, err := hostService(c, fmt.Sprintf("serve-trace-%d-a", c.seed), nil)
	if err != nil {
		return err
	}
	untracedOuts := loadgen(ctx, plain.base, c.workers, low, nil)
	if _, err := plain.stop(); err != nil {
		return err
	}

	tr := newTracer()
	var ts *timedStore
	h, err := hostService(c, fmt.Sprintf("serve-trace-%d-b", c.seed), func(s store.Store) store.Store {
		ts = &timedStore{Store: s, tr: tr}
		return ts
	})
	if err != nil {
		return err
	}
	prof, err := startProfile(c.workDir, fmt.Sprintf("serve-mixed-%d", c.seed))
	if err != nil {
		return err
	}
	outs := loadgen(ctx, h.base, c.workers, reqs, tr)
	gcShare, err := prof.stop()
	if err != nil {
		return err
	}
	storeStats := h.st.Stats()
	expo, err := h.stop()
	if err != nil {
		return err
	}
	s := summarizeServe(r, outs, total)
	if err := checkServe(ctx, c, r, outs); err != nil {
		return err
	}

	setLayerDefaults(r)
	if err := layerShares(r, prof, gcShare); err != nil {
		return err
	}
	sums, _ := promSums(expo)
	r.setLayer("engine.tasks", sums["mcs_engine_tasks_total"])
	r.setLayer("engine.mean_batch_size", ratio(sums["mcs_engine_batch_size_sum"], sums["mcs_engine_batch_size_count"]))
	if err := reportService(r, tr, outs, ts, storeStats, expo, s.lags); err != nil {
		return err
	}

	// The analysis-layer, explore and opt probes on the first four hot
	// systems of the schedule, in process.
	var (
		probes  probeStats
		systems []*model.System
	)
	seen := map[*model.System]bool{}
	for _, q := range reqs {
		if !seen[q.sys] && len(systems) < 4 {
			seen[q.sys] = true
			systems = append(systems, q.sys)
		}
	}
	for i, sys := range systems {
		if err := probes.run(tr, fmt.Sprintf("probe-%d", i), 0, sys); err != nil {
			return err
		}
	}
	probes.report(r, tr)
	if err := probeExplore(ctx, c, r, tr, systems); err != nil {
		return err
	}
	if err := probeOpt(ctx, c, r, tr, systems); err != nil {
		return err
	}

	var untracedLow []float64
	for _, o := range untracedOuts {
		if o.err == nil {
			untracedLow = append(untracedLow, ms(o.latency()))
		}
	}
	r.setLayer("trace.overhead_share", median(s.low)/median(untracedLow)-1)
	serveDetails(r, s, len(outs))
	r.detail("untraced low phase: job_p50_ms.low %.3f ms (n=%d)", median(untracedLow), len(untracedLow))
	return tr.write(filepath.Join(c.workDir, fmt.Sprintf("spans-serve-mixed-%d.jsonl", c.seed)))
}
