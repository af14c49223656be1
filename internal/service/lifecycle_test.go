package service

import (
	"encoding/json"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// journalTap wraps the store under test. Replay reports the records
// recovered at open plus every record appended since, so an observer
// can fold the live journal with store.Reduce. A non-nil compact makes
// every finish append compact the journal before it returns: the
// rewrite then runs between a job's commit and its publish.
type journalTap struct {
	store.Store
	mu       sync.Mutex
	appended []store.Record
	compact  func() []store.Record
}

func (w *journalTap) Append(rec store.Record) error {
	if err := w.Store.Append(rec); err != nil {
		return err
	}
	w.mu.Lock()
	w.appended = append(w.appended, rec)
	w.mu.Unlock()
	if rec.Op == store.OpFinish && w.compact != nil {
		if err := w.Store.Compact(w.compact); err != nil {
			return err
		}
	}
	return nil
}

func (w *journalTap) Replay() ([]store.Record, store.ReplayReport) {
	recs, rep := w.Store.Replay()
	w.mu.Lock()
	defer w.mu.Unlock()
	return append(slices.Clip(recs), w.appended...), rep
}

// failingRequest is a request whose run fails: every graph period is
// shorter than the minimal TDMA round, so no configuration exists.
func failingRequest(t *testing.T) SynthesisRequest {
	sys := testSystem(t, 3)
	for i := range sys.Application.Graphs {
		g := &sys.Application.Graphs[i]
		g.Period, g.Deadline = 1, 1
	}
	return SynthesisRequest{System: sys}
}

// lifecycleHarness is one store-backed, traced, metered service with
// the handles the invariant checks read.
type lifecycleHarness struct {
	t   *testing.T
	dir string
	tap *journalTap
	reg *obs.Registry
	svc *Service
}

func (h *lifecycleHarness) submit(req SynthesisRequest) string {
	h.t.Helper()
	resp, err := h.svc.Submit(req)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp.ID
}

// startLong submits an annealing job that runs until it is canceled
// and returns once it has published a progress event, so it is known
// to be running.
func (h *lifecycleHarness) startLong() string {
	h.t.Helper()
	id := h.submit(SynthesisRequest{System: testSystem(h.t, 4), Strategy: "sas", SAIterations: 50_000_000})
	ch, unsubscribe, err := h.svc.Subscribe(id)
	if err != nil {
		h.t.Fatal(err)
	}
	defer unsubscribe()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		h.t.Fatalf("job %s never started", id)
	}
	return id
}

func (h *lifecycleHarness) cancel(id string) {
	h.t.Helper()
	if err := h.svc.Cancel(id); err != nil {
		h.t.Fatal(err)
	}
}

// TestTerminalTransitionInvariant: whichever path ends a job, every
// observer woken by the terminal state sees the whole commit. Observers
// wake on Done, on the close of a Subscribe channel, and on the first
// Status that reports a terminal state. Each must find the finish
// record in the journal, a loadable result for a done job, a closed
// trace, and the terminal counted in mcs_jobs_total. The compaction
// case rewrites the journal inside the finish append; after a restart
// the job must still be terminal with its original state.
func TestTerminalTransitionInvariant(t *testing.T) {
	cases := []struct {
		name  string
		state JobState
		// count is mcs_jobs_total{kind="synthesize",state} once the
		// observed job is counted.
		count int
		// compact rewrites the journal inside every finish append.
		compact bool
		// setup runs before the observers attach and returns the job
		// under test; trigger (optional) then drives it to its end.
		setup   func(h *lifecycleHarness) string
		trigger func(h *lifecycleHarness, id string)
	}{
		{
			name: "done", state: StateDone, count: 1,
			setup: func(h *lifecycleHarness) string {
				return h.submit(SynthesisRequest{System: testSystem(h.t, 1), Strategy: "or"})
			},
		},
		{
			name: "failed", state: StateFailed, count: 1,
			setup: func(h *lifecycleHarness) string { return h.submit(failingRequest(h.t)) },
		},
		{
			name: "canceled while running", state: StateCanceled, count: 1,
			setup:   (*lifecycleHarness).startLong,
			trigger: (*lifecycleHarness).cancel,
		},
		{
			name: "persistent hit", state: StateDone, count: 2,
			setup: func(h *lifecycleHarness) string {
				req := func() SynthesisRequest { return SynthesisRequest{System: testSystem(h.t, 2)} }
				waitDone(h.t, h.svc, h.submit(req()))
				return h.submit(req())
			},
		},
		{
			name: "canceled while queued", state: StateCanceled, count: 1,
			setup: func(h *lifecycleHarness) string {
				h.startLong() // occupies the only runner
				return h.submit(SynthesisRequest{System: testSystem(h.t, 5)})
			},
			trigger: (*lifecycleHarness).cancel,
		},
		{
			name: "compaction between commit and publish", state: StateCanceled, count: 1, compact: true,
			setup:   (*lifecycleHarness).startLong,
			trigger: (*lifecycleHarness).cancel,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clk := newTestClock()
			h := &lifecycleHarness{t: t, dir: t.TempDir(), reg: obs.NewRegistry()}
			h.tap = &journalTap{Store: openTestStore(t, h.dir, clk, store.Options{})}
			h.svc = New(Options{Workers: 1, JobWorkers: 1, Store: h.tap, Clock: clk, Metrics: h.reg, Tracing: true})
			if c.compact {
				h.tap.compact = h.svc.liveRecords // set before any job runs
			}
			defer func() { h.svc.Close() }()

			id := c.setup(h)
			done, err := h.svc.Done(id)
			if err != nil {
				t.Fatal(err)
			}
			events, _, err := h.svc.Subscribe(id)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			observe := func(who string, wake func() bool) {
				wg.Add(1)
				//mcs:allow poolonly test observers racing the job's terminal transition
				go func() {
					defer wg.Done()
					if wake() {
						h.checkCommitted(who, id, c.state, c.count)
					}
				}()
			}
			deadline := make(chan struct{})
			defer time.AfterFunc(60*time.Second, func() { close(deadline) }).Stop()
			observe("Done", func() bool {
				select {
				case <-done:
					return true
				case <-deadline:
					t.Errorf("Done: job %s never finished", id)
					return false
				}
			})
			observe("Subscribe", func() bool {
				for range events {
				}
				return true
			})
			observe("Status", func() bool {
				for {
					st, err := h.svc.Status(id)
					if err != nil {
						t.Errorf("Status: %v", err)
						return false
					}
					if st.State.Terminal() {
						return true
					}
					select {
					case <-deadline:
						t.Errorf("Status: job %s never turned terminal", id)
						return false
					default:
					}
				}
			})
			if c.trigger != nil {
				c.trigger(h, id)
			}
			wg.Wait()
			if !c.compact || t.Failed() {
				return
			}

			// Restart from the compacted journal: the finish committed
			// before the rewrite must survive it.
			want, err := h.svc.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			h.svc.Close()
			h.tap.Store.Close()
			h.svc = New(Options{Workers: 1, JobWorkers: 1, Store: openTestStore(t, h.dir, clk, store.Options{}), Clock: clk})
			got, err := h.svc.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if got.State != want.State || got.Error != want.Error {
				t.Fatalf("after compaction and restart the job is %s (%q), want %s (%q)",
					got.State, got.Error, want.State, want.Error)
			}
		})
	}
}

// checkCommitted asserts, from an observer that has just been woken,
// that the job's terminal commit is complete.
func (h *lifecycleHarness) checkCommitted(who, id string, want JobState, count int) {
	t := h.t
	st, err := h.svc.Status(id)
	if err != nil {
		t.Errorf("%s: %v", who, err)
		return
	}
	if st.State != want {
		t.Errorf("%s: state %s (%q), want %s", who, st.State, st.Error, want)
	}
	recs, _ := h.tap.Replay()
	var snap *store.JobSnapshot
	for _, js := range store.Reduce(recs) {
		if js.ID == id {
			snap = js
		}
	}
	finished := false
	for _, rec := range recs {
		finished = finished || rec.Job == id && rec.Op == store.OpFinish
	}
	if snap == nil || !finished || snap.State != string(want) {
		t.Errorf("%s: journal has no %s finish record for %s", who, want, id)
	}
	if want == StateDone && snap != nil {
		data, ok := h.tap.GetResult(snap.Key)
		var res JobResult
		if !ok || json.Unmarshal(data, &res) != nil {
			t.Errorf("%s: done job %s has no loadable persisted result", who, id)
		}
	}
	if tr, err := h.svc.Trace(id); err != nil || tr.Root.EndUnixNano == 0 {
		t.Errorf("%s: trace root of %s not closed (err %v)", who, id, err)
	}
	got := h.reg.Counter("mcs_jobs_total", "", obs.L("kind", string(KindSynthesize)), obs.L("state", string(want))).Value()
	if got < uint64(count) {
		t.Errorf("%s: mcs_jobs_total{state=%q} = %d, want %d", who, want, got, count)
	}
}
