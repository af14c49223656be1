// Command perfbench is the repository benchmark. It runs one named
// workload against the program's public entry points, checks every
// output, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a
// separate traced run records spans around each layer's public calls
// and prints the per-layer set. See README.md for the workloads, the
// metric definitions and the recorded baseline.
//
// Run it through run.py, which builds this binary and the mcs-serve
// server from source first:
//
//	python3 _perfbench/run.py --workload synth-or --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is the parsed command line shared by every workload.
type config struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	tiny      bool   // self-test size: small inputs, fixed work instead of a time budget
	serverBin string // mcs-serve binary (serve-mixed)
	workDir   string // scratch space for data dirs, spans and profiles
	workers   int    // nproc: Solver workers, server connections
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics, the human-readable detail lines
// printed ahead of the JSON line, and the output-check failures.
type report struct {
	res      result
	details  []string
	problems []string
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}}
}

// set records a metric that goes into the JSON line.
func (r *report) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// detail records a human-readable line (per-workload figures with their sample
// counts) printed before the JSON line.
func (r *report) detail(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

// attempt counts n attempted operations.
func (r *report) attempt(n int) { r.res.Attempted += n }

// fail counts one failed operation or output check.
func (r *report) fail(format string, args ...any) {
	r.res.Failed++
	r.res.Correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, traced func(ctx context.Context, c config, r *report) error
}{
	"synth-or":     {runSynth, traceSynth},
	"analyze-cold": {runAnalyze, traceAnalyze},
	"serve-mixed":  {runServe, traceServe},
}

func main() {
	var c config
	var seconds, trace int
	flag.StringVar(&c.workload, "workload", "", "workload: synth-or, analyze-cold or serve-mixed")
	flag.Int64Var(&c.seed, "seed", 1, "input seed (same seed, same inputs)")
	flag.IntVar(&seconds, "seconds", 20, "measured duration in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.BoolVar(&c.tiny, "tiny", false, "self-test size: tiny inputs and fixed work")
	flag.StringVar(&c.serverBin, "server-bin", "", "path of the mcs-serve binary (serve-mixed)")
	flag.StringVar(&c.workDir, "work-dir", "", "scratch directory for data dirs, spans and profiles")
	flag.Parse()
	c.seconds = time.Duration(seconds) * time.Second
	c.trace = trace == 1
	c.workers = runtime.NumCPU()

	w, ok := workloads[c.workload]
	if !ok || c.workDir == "" || seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload synth-or|analyze-cold|serve-mixed -seed N -seconds S -trace 0|1 -work-dir DIR")
		os.Exit(2)
	}
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		fatal(err)
	}
	run := w.run
	if c.trace {
		run = w.traced
	}
	r := newReport()
	if err := run(context.Background(), c, r); err != nil {
		fatal(fmt.Errorf("%s: %w", c.workload, err))
	}
	r.print()
	if !r.res.Correct {
		os.Exit(1)
	}
}

// print writes the detail lines, the metric table and the JSON line.
func (r *report) print() {
	for _, d := range r.details {
		fmt.Println(d)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Printf("metric %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	// Failures go to standard error too, where a caller that keeps only
	// the result line still sees them.
	for _, p := range r.problems {
		fmt.Println("FAILED:", p)
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	if r.res.Attempted > 0 {
		fmt.Printf("failed_share %.6g (%d of %d attempted)\n",
			float64(r.res.Failed)/float64(r.res.Attempted), r.res.Failed, r.res.Attempted)
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not
// exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process from
// /proc; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// cpuTime returns the CPU time (user + system) this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail on Linux.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childCPUTime reads the CPU time (user + system) of a running process
// from /proc/<pid>/stat, in clock ticks of 10ms.
func childCPUTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, field := range f[11:13] {
		var v int64
		if _, err := fmt.Sscan(field, &v); err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// resetPeakRSS resets the kernel's high-water mark of this process's
// resident set size, so the next peakRSSMB(0) covers only what runs in
// between. Per-operation peaks let peak_rss_mb report the typical
// operation rather than the single largest input of a seed.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// timeSetup runs setup n times and returns the median duration in
// seconds together with the last setup's value.
func timeSetup[T any](n int, setup func() (T, error)) (float64, T, error) {
	var (
		v     T
		err   error
		times []float64
	)
	for range n {
		t0 := time.Now()
		if v, err = setup(); err != nil {
			return 0, v, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), v, nil
}
