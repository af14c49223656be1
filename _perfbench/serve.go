package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/solve"
)

// serve-mixed: open loop over HTTP. One generator sends seeded Poisson
// arrivals at two fixed absolute rates over at most nproc keep-alive
// connections; async jobs are polled on the same connections until the
// client observes a terminal state.

// Offered load in requests per second, low phase then high phase. The
// rates are absolute, so a parent commit and a change see the same load;
// they sit near 30% and 70% of the capacity measured on a 2-CPU box
// (see README.md).
var rates = [2]float64{40, 95}

const (
	pollInterval = time.Millisecond
	hotSystems   = 24 // hot set, well below the Solver LRU of 128
	mixSeed      = 1  // draws the hot set and each phase's request multiset
	drainWait    = 60 * time.Second
)

// Request mix, per mixPeriod arrivals of a phase.
const (
	mixPeriod    = 20
	mixHotSynth  = 13 // os/or on a hot system, seeds 1-8: repeats hit persisted results
	mixTailSynth = 3  // or on a one-off system
	mixExplore   = 2  // small explore job on a hot system, seeds 1-4
	mixAnalyze   = 2  // synchronous batch of random configurations of a hot system
)

// Explore jobs and the traced run's direct Solver.Explore calls use a
// fixed population and generation count; analyze requests carry a fixed
// batch size.
const (
	explorePopulation  = 8
	exploreGenerations = 3
	analyzeBatchSize   = 4
)

// request is one scheduled arrival with its pre-encoded body and what
// the output checks need to recompute it in process.
type request struct {
	due      time.Duration // offset from the start of the schedule
	high     bool          // sent in the high-rate phase
	path     string
	body     []byte
	sys      *model.System
	strategy solve.Strategy
	seed     int64
	cfgGen   *configGen     // analyze batches: the configuration stream
	cfgs     []*core.Config // analyze batches
}

// outcome is what the client observed for one request.
type outcome struct {
	req     *request
	sent    time.Duration   // when the generator started the request
	done    time.Duration   // when the client saw the terminal state
	result  json.RawMessage // terminal job result (async kinds)
	body    []byte          // analyze response
	err     error
	polls   int
	refused bool // 429 or 503
}

func (o *outcome) latency() time.Duration { return o.done - o.req.due }

// serveSchedule builds the arrival schedule: a low phase then a high
// phase, each half of the run. The request multiset of each phase is
// fixed (drawn from mixSeed): which hot keys are asked for and how often
// they repeat, the one-off tail systems, the explore jobs. The seed
// draws the order of the requests, their arrival times and the analysed
// configurations. Arrival times are uniform order statistics, i.e. a
// Poisson process conditioned on its count, so every seed offers the
// same requests at the same mean rate and the seed-to-seed spread
// reflects the service rather than the draw of a few hundred requests.
func serveSchedule(c config) ([]*request, time.Duration, error) {
	half := c.seconds / 2
	ppn := []int{10, 15, 20}
	if c.tiny {
		half, ppn = time.Second, []int{6, 8}
	}
	var specs []gen.Spec
	for i := range hotSystems {
		specs = append(specs, gen.Spec{
			Seed: mixSeed*100000 + int64(i), TTNodes: 1, ETNodes: 1,
			ProcsPerNode: ppn[i%len(ppn)], WCETDist: gen.Dist(i % 2),
		})
	}
	hot, err := generate(specs)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(c.seed))
	cfgGens := make([]*configGen, len(hot))
	for i, sys := range hot {
		cfgGens[i] = newConfigGen(sys, c.seed*7919+int64(i))
	}

	mix := rand.New(rand.NewSource(mixSeed))
	var reqs []*request
	tail := 0
	for phase, rate := range rates {
		n := int(rate * half.Seconds())
		phaseReqs := make([]*request, n)
		for i := range phaseReqs {
			q := &request{high: phase == 1}
			h := mix.Intn(len(hot))
			switch k := i % mixPeriod; {
			case k < mixHotSynth:
				q.sys, q.seed = hot[h], 1+mix.Int63n(8)
				q.strategy = []solve.Strategy{solve.OptimizeSchedule, solve.OptimizeResources}[mix.Intn(2)]
			case k < mixHotSynth+mixTailSynth:
				tail++
				sys, err := gen.Generate(gen.Spec{
					Seed: mixSeed*100000 + 50000 + int64(tail), TTNodes: 1, ETNodes: 1,
					ProcsPerNode: ppn[tail%len(ppn)], WCETDist: gen.Dist(tail % 2),
				})
				if err != nil {
					return nil, 0, err
				}
				q.sys, q.seed, q.strategy = sys, 1, solve.OptimizeResources
			case k < mixHotSynth+mixTailSynth+mixExplore:
				q.sys, q.seed, q.strategy = hot[h], 1+mix.Int63n(4), solve.Explore
			default:
				q.sys, q.cfgGen = hot[h], cfgGens[h]
			}
			phaseReqs[i] = q
		}
		rng.Shuffle(n, func(i, j int) { phaseReqs[i], phaseReqs[j] = phaseReqs[j], phaseReqs[i] })
		times := make([]float64, n)
		for i := range times {
			times[i] = rng.Float64() * half.Seconds()
		}
		sort.Float64s(times)
		for i, q := range phaseReqs {
			q.due = time.Duration(phase)*half + time.Duration(times[i]*float64(time.Second))
			if q.cfgGen != nil {
				for range analyzeBatchSize {
					cfg, err := q.cfgGen.next()
					if err != nil {
						return nil, 0, err
					}
					q.cfgs = append(q.cfgs, cfg)
				}
			}
			if err := q.encode(); err != nil {
				return nil, 0, err
			}
		}
		reqs = append(reqs, phaseReqs...)
	}
	return reqs, 2 * half, nil
}

// encode renders the request's wire body.
func (q *request) encode() error {
	var (
		body any
		err  error
	)
	switch {
	case q.cfgs != nil:
		q.path = "/v1/analyze"
		raws := make([]json.RawMessage, len(q.cfgs))
		for i, cfg := range q.cfgs {
			var buf bytes.Buffer
			if err := cfg.Save(&buf); err != nil {
				return err
			}
			raws[i] = buf.Bytes()
		}
		body = service.AnalysisRequest{System: q.sys, Configs: raws}
	case q.strategy == solve.Explore:
		q.path = "/v1/explore"
		body = service.ExploreRequest{System: q.sys, Seed: q.seed, Population: explorePopulation, Generations: exploreGenerations}
	default:
		q.path = "/v1/synthesize"
		body = service.SynthesisRequest{System: q.sys, Strategy: q.strategy.String(), Seed: q.seed}
	}
	q.body, err = json.Marshal(body)
	return err
}

// loadgen sends the schedule open loop and waits for every request to
// reach a terminal state (or drainWait after the schedule ends).
func loadgen(ctx context.Context, base string, conns int, reqs []*request, tr *tracer) []*outcome {
	transport := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	outs := make([]*outcome, len(reqs))
	var wg sync.WaitGroup
	benchSide(ctx, func(ctx context.Context) error {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		start := time.Now()
		for i, req := range reqs {
			if d := req.due - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			o := &outcome{req: req, sent: time.Since(start)}
			outs[i] = o
			wg.Add(1)
			go func() {
				defer wg.Done()
				group := fmt.Sprintf("request-%d", i)
				var end func() time.Duration
				if tr != nil {
					_, end = tr.begin("loadgen.request", group, 0)
				}
				o.run(ctx, client, base, start)
				if end != nil {
					end()
				}
			}()
		}
		waited := make(chan struct{})
		go func() { wg.Wait(); close(waited) }()
		select {
		case <-waited:
		case <-time.After(drainWait):
			cancel()
			<-waited
		}
		return nil
	})
	return outs
}

// run sends one request and, for async kinds, polls until terminal.
func (o *outcome) run(ctx context.Context, client *http.Client, base string, start time.Time) {
	defer func() { o.done = time.Since(start) }()
	status, body, err := call(ctx, client, http.MethodPost, base+o.req.path, o.req.body)
	if err != nil {
		o.err = err
		return
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		o.refused = true
		o.err = fmt.Errorf("refused with %d", status)
		return
	}
	if o.req.path == "/v1/analyze" {
		if status != http.StatusOK {
			o.err = fmt.Errorf("analyze: status %d: %s", status, body)
		}
		o.body = body
		return
	}
	if status != http.StatusAccepted {
		o.err = fmt.Errorf("submit: status %d: %s", status, body)
		return
	}
	var sub service.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		o.err = err
		return
	}
	for {
		o.polls++
		status, body, err := call(ctx, client, http.MethodGet, base+"/v1/jobs/"+sub.ID, nil)
		if err != nil {
			o.err = err
			return
		}
		var st struct {
			State  string          `json:"state"`
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
		}
		if status != http.StatusOK {
			o.err = fmt.Errorf("poll: status %d: %s", status, body)
			return
		}
		if err := json.Unmarshal(body, &st); err != nil {
			o.err = err
			return
		}
		if service.JobState(st.State).Terminal() {
			o.result = st.Result
			if st.State != string(service.StateDone) {
				o.err = fmt.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
			}
			return
		}
		select {
		case <-ctx.Done():
			o.err = ctx.Err()
			return
		case <-time.After(pollInterval):
		}
	}
}

// call performs one HTTP exchange and reads the whole body.
func call(ctx context.Context, client *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// serveStats summarises the outcomes of one schedule.
type serveStats struct {
	byKind        map[string][]float64 // low-phase latencies by request kind
	low, high     []float64            // due->done latencies in ms
	highCompleted int
	completed     int
	highSpan      time.Duration // high phase start to its last completion
	lags          []float64
	polls         int
}

func summarizeServe(r *report, outs []*outcome, total time.Duration) serveStats {
	s := serveStats{byKind: map[string][]float64{}}
	half := total / 2
	for _, o := range outs {
		r.attempt(1)
		s.lags = append(s.lags, ms(o.sent-o.req.due))
		s.polls += o.polls
		if o.err != nil {
			r.fail("%s: %v", o.req.path, o.err)
			continue
		}
		s.completed++
		if o.req.high {
			s.high = append(s.high, ms(o.latency()))
			s.highCompleted++
			s.highSpan = max(s.highSpan, o.done-half)
		} else {
			s.low = append(s.low, ms(o.latency()))
			s.byKind[o.kind()] = append(s.byKind[o.kind()], ms(o.latency()))
		}
	}
	return s
}

// kind classifies a completed request for the per-kind detail lines.
func (o *outcome) kind() string {
	switch {
	case o.req.path == "/v1/analyze":
		return "analyze"
	case o.req.path == "/v1/explore":
		return "explore"
	case bytes.Contains(o.result, []byte(`"persistentHit": true`)):
		return "synthesize-persisted"
	}
	return "synthesize"
}

func (s serveStats) throughput() float64 {
	return ratio(float64(s.highCompleted), s.highSpan.Seconds())
}

// checkServe verifies a seeded sample of responses against in-process
// Solver results (byte-identical) and every explore front for mutual
// non-domination.
func checkServe(ctx context.Context, c config, r *report, outs []*outcome) error {
	rng := rand.New(rand.NewSource(c.seed))
	seen := map[string]bool{}
	var synth, analyze []*outcome
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		switch o.req.path {
		case "/v1/synthesize":
			if key := string(o.req.body); !seen[key] {
				seen[key] = true
				synth = append(synth, o)
			}
		case "/v1/analyze":
			analyze = append(analyze, o)
		case "/v1/explore":
			checkFront(r, o)
		}
	}
	rng.Shuffle(len(synth), func(i, j int) { synth[i], synth[j] = synth[j], synth[i] })
	rng.Shuffle(len(analyze), func(i, j int) { analyze[i], analyze[j] = analyze[j], analyze[i] })
	nSynth, nAnalyze := 6, 4
	if c.tiny {
		nSynth, nAnalyze = 2, 2
	}
	for _, o := range synth[:min(nSynth, len(synth))] {
		if err := checkSynthResponse(ctx, c, r, o); err != nil {
			return err
		}
	}
	for _, o := range analyze[:min(nAnalyze, len(analyze))] {
		if err := checkAnalyzeResponse(ctx, c, r, o); err != nil {
			return err
		}
	}
	return nil
}

// summary mirrors the service's wire projection of an analysis.
func summary(a *core.Analysis) *service.AnalysisSummary {
	return &service.AnalysisSummary{
		Schedulable:    a.Schedulable,
		Delta:          a.Delta,
		BuffersTotal:   a.Buffers.Total,
		OutCAN:         a.Buffers.OutCAN,
		OutTTP:         a.Buffers.OutTTP,
		GraphResponses: append([]model.Time(nil), a.GraphResp...),
		Iterations:     a.Iterations,
		Converged:      a.Converged,
	}
}

func checkSynthResponse(ctx context.Context, c config, r *report, o *outcome) error {
	s, err := solve.New(o.req.sys.Application, o.req.sys.Architecture,
		solve.WithStrategy(o.req.strategy), solve.WithSeed(o.req.seed), solve.WithWorkers(c.workers))
	if err != nil {
		return err
	}
	res, err := s.Synthesize(ctx)
	if err != nil {
		return err
	}
	var cfg bytes.Buffer
	if err := res.Config.Save(&cfg); err != nil {
		return err
	}
	wantAnalysis, err := json.Marshal(summary(res.Analysis))
	if err != nil {
		return err
	}
	var got struct {
		Config      json.RawMessage `json:"config"`
		Analysis    json.RawMessage `json:"analysis"`
		Evaluations int             `json:"evaluations"`
	}
	if err := json.Unmarshal(o.result, &got); err != nil {
		r.fail("synthesize result: %v", err)
		return nil
	}
	if !sameJSON(got.Config, cfg.Bytes()) || !sameJSON(got.Analysis, wantAnalysis) || got.Evaluations != res.Evaluations {
		r.fail("synthesize %s seed %d on %s: response differs from the in-process Solver", o.req.strategy, o.req.seed, o.req.sys.Architecture.Name)
	}
	return nil
}

func checkAnalyzeResponse(ctx context.Context, c config, r *report, o *outcome) error {
	s, err := solve.New(o.req.sys.Application, o.req.sys.Architecture, solve.WithWorkers(c.workers))
	if err != nil {
		return err
	}
	evals, err := s.AnalyzeAll(ctx, o.req.cfgs)
	if err != nil {
		return err
	}
	want := make([]service.AnalysisOutcome, len(evals))
	for i, ev := range evals {
		if ev.Err != nil {
			want[i].Error = ev.Err.Error()
		} else {
			want[i].Analysis = summary(ev.Analysis)
		}
	}
	wantRaw, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var got struct {
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(o.body, &got); err != nil {
		r.fail("analyze response: %v", err)
		return nil
	}
	if !sameJSON(got.Results, wantRaw) {
		r.fail("analyze on %s: response differs from the in-process Solver", o.req.sys.Architecture.Name)
	}
	return nil
}

// sameJSON reports whether two JSON texts are byte-identical once
// insignificant whitespace is removed (the server indents its
// responses).
func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	return json.Compact(&ca, a) == nil && json.Compact(&cb, b) == nil && bytes.Equal(ca.Bytes(), cb.Bytes())
}

// checkFront fails an explore result whose front is not mutually
// non-dominated.
func checkFront(r *report, o *outcome) {
	var res service.JobResult
	if err := json.Unmarshal(o.result, &res); err != nil || len(res.Front) == 0 {
		r.fail("explore result unreadable or empty front (%v)", err)
		return
	}
	for i, a := range res.Front {
		for j, b := range res.Front {
			oa := dse.Objectives{Delta: a.Delta, Buffers: a.Buffers, Bandwidth: a.Bandwidth}
			ob := dse.Objectives{Delta: b.Delta, Buffers: b.Buffers, Bandwidth: b.Bandwidth}
			if i != j && oa.Dominates(ob) {
				r.fail("explore front point %d dominates point %d", i, j)
				return
			}
		}
	}
}

// server is an mcs-serve child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	log    string     // the child's standard error
	exited chan error // receives the child's exit status once
}

// startAttempts bounds how often startServer retries a child that exits
// before it answers /healthz (its port taken in between, say).
const startAttempts = 5

// startServer launches mcs-serve with default flags on a free loopback
// port and a fresh data directory, and returns once /healthz answers.
func startServer(c config, name string) (*server, error) {
	var errs []error
	for attempt := range startAttempts {
		s, err := startServerOnce(c, name, attempt)
		if err == nil {
			return s, nil
		}
		errs = append(errs, err)
	}
	return nil, errors.Join(errs...)
}

func startServerOnce(c config, name string, attempt int) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(c.workDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	logPath := filepath.Join(c.workDir, fmt.Sprintf("%s-%d.log", name, attempt))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(c.serverBin, "-addr", addr, "-data-dir", dir)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, dir: dir, log: logPath, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	probe := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case werr := <-s.exited:
			s.exited <- werr // stop reaps it and reports the log
			return nil, s.stop()
		default:
		}
		if time.Now().After(deadline) {
			return nil, errors.Join(fmt.Errorf("mcs-serve did not become healthy: %v: %s", err, s.logTail()), s.stop())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// freePort returns a free loopback address whose port lies below the
// kernel's ephemeral range, so no outgoing connection can be handed the
// port between this check and the child's bind.
func freePort() (string, error) {
	const linuxDefault = 32768
	lo := linuxDefault
	if raw, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if _, err := fmt.Sscan(string(raw), &lo); err != nil {
			lo = linuxDefault
		}
	}
	if lo > 11000 {
		for range 100 {
			addr := fmt.Sprintf("127.0.0.1:%d", 10000+rand.Intn(lo-11000))
			if ln, err := net.Listen("tcp", addr); err == nil {
				ln.Close()
				return addr, nil
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// logTail returns the last lines of the child's standard error.
func (s *server) logTail() string {
	raw, err := os.ReadFile(s.log)
	if err != nil {
		return err.Error()
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	return string(bytes.Join(lines[max(0, len(lines)-10):], []byte("\n")))
}

// stop drains the server with SIGTERM, waits for it to exit and removes
// its data directory. A child that already exited is only reaped.
func (s *server) stop() error {
	var err error
	select {
	case werr := <-s.exited:
		err = fmt.Errorf("mcs-serve exited early (%v): %s", werr, s.logTail())
	default:
		err = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case werr := <-s.exited:
			if werr != nil {
				err = errors.Join(err, fmt.Errorf("mcs-serve: %v: %s", werr, s.logTail()))
			}
		case <-time.After(30 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
			err = errors.New("mcs-serve did not drain within 30s")
		}
	}
	return errors.Join(err, os.RemoveAll(s.dir))
}

func runServe(ctx context.Context, c config, r *report) error {
	if c.serverBin == "" {
		return errors.New("serve-mixed needs -server-bin")
	}
	reqs, total, err := serveSchedule(c)
	if err != nil {
		return err
	}
	// Set-up: child start -> /healthz OK (journal open included), nine
	// times, each after stopping the previous server; the last server
	// takes the load.
	var (
		srv   *server
		times []float64
	)
	for range 9 {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if srv, err = startServer(c, fmt.Sprintf("serve-%d", c.seed)); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	setup := median(times)
	cpu0, cpuErr0 := childCPUTime(srv.cmd.Process.Pid)
	outs := loadgen(ctx, srv.base, c.workers, reqs, nil)
	rss, rssErr := peakRSSMB(srv.cmd.Process.Pid)
	cpu1, cpuErr1 := childCPUTime(srv.cmd.Process.Pid)
	if err := errors.Join(cpuErr0, rssErr, cpuErr1, srv.stop()); err != nil {
		return err
	}
	s := summarizeServe(r, outs, total)
	if err := checkServe(ctx, c, r, outs); err != nil {
		return err
	}
	r.set("setup_s", setup, "s")
	r.set("peak_rss_mb", rss, "MB")
	r.set("throughput_per_s", s.throughput(), "1/s")
	r.set("cpu_ms_per_op", ms(cpu1-cpu0)/float64(s.completed), "ms")
	serveDetails(r, s, len(outs))
	return nil
}

func serveDetails(r *report, s serveStats, n int) {
	r.detail("serve-mixed: %d requests, offered %.1f/s then %.1f/s, poll interval %s, %d polls",
		n, rates[0], rates[1], pollInterval, s.polls)
	r.detail("job_p50_ms.low %.3f ms, job_p90_ms.low %.3f ms (n=%d)", median(s.low), percentile(s.low, 90), len(s.low))
	r.detail("job_p50_ms.high %.3f ms, job_p90_ms.high %.3f ms (n=%d)", median(s.high), percentile(s.high, 90), len(s.high))
	r.detail("jobs_per_s.high %.4f 1/s (n=%d completed)", s.throughput(), s.highCompleted)
	for _, k := range slices.Sorted(maps.Keys(s.byKind)) {
		xs := s.byKind[k]
		r.detail("low phase %-20s p50 %8.3f ms, p90 %8.3f ms (n=%d)", k, median(xs), percentile(xs, 90), len(xs))
	}
	r.detail("loadgen lag p50 %.3f ms, p99 %.3f ms", median(s.lags), percentile(s.lags, 99))
}

// promSums parses a Prometheus text exposition into per-series sums
// keyed by metric name (labels dropped) and, for histogram buckets, by
// name plus upper bound.
func promSums(text string) (sums map[string]float64, buckets map[string]map[float64]float64) {
	sums, buckets = map[string]float64{}, map[string]map[float64]float64{}
	for _, line := range bytes.Split([]byte(text), []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[sp+1:]), 64)
		if err != nil {
			continue
		}
		series := string(line[:sp])
		name, labels, _ := bytes.Cut([]byte(series), []byte("{"))
		sums[string(name)] += v
		if le := bytes.Index(labels, []byte(`le="`)); le >= 0 {
			rest := labels[le+4:]
			bound, err := strconv.ParseFloat(string(rest[:bytes.IndexByte(rest, '"')]), 64)
			if err != nil {
				continue // +Inf
			}
			if buckets[string(name)] == nil {
				buckets[string(name)] = map[float64]float64{}
			}
			buckets[string(name)][bound] += v
		}
	}
	return sums, buckets
}

// histQuantile estimates a quantile from cumulative histogram buckets by
// linear interpolation inside the bucket, as Prometheus does.
func histQuantile(q float64, buckets map[float64]float64, count float64) float64 {
	if count == 0 {
		return 0
	}
	bounds := slices.Sorted(maps.Keys(buckets))
	rank := q * count
	prevBound, prevCount := 0.0, 0.0
	for _, b := range bounds {
		c := buckets[b]
		if c >= rank {
			return prevBound + (b-prevBound)*ratio(rank-prevCount, c-prevCount)
		}
		prevBound, prevCount = b, c
	}
	return prevBound
}
