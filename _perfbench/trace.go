package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one system or job share
// Group; Parent is the ID of the span that caused this one (0 = root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Group  string `json:"group"`
	Start  int64  `json:"startNs"` // since the tracer was created
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it along with
// the span's ID, for use as the parent of nested spans.
func (t *tracer) begin(name, group string, parent int) (id int, end func() time.Duration) {
	start := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Parent: parent, Name: name, Group: group, Start: int64(start)})
	id = len(t.spans)
	t.spans[id-1].ID = id
	t.mu.Unlock()
	return id, func() time.Duration {
		stop := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id-1].End = int64(stop)
		t.mu.Unlock()
		return stop - start
	}
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// meanMS is the mean duration of the named spans in milliseconds.
func (t *tracer) meanMS(name string) float64 {
	var xs []float64
	for _, d := range t.durations(name) {
		xs = append(xs, ms(d))
	}
	return mean(xs)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profiler records a CPU profile and a heap allocation profile over the
// traced phase, plus the runtime's GC CPU accounting.
type profiler struct {
	cpuPath, heapPath string
	cpuFile           *os.File
	gc0, total0       float64
}

// startProfile begins CPU profiling into dir/<base>.cpu.
func startProfile(dir, base string) (*profiler, error) {
	p := &profiler{
		cpuPath:  filepath.Join(dir, base+".cpu"),
		heapPath: filepath.Join(dir, base+".heap"),
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.cpuFile = f
	p.gc0, p.total0 = gcCPU()
	return p, nil
}

// stop ends profiling, writes the heap profile and returns the share of
// CPU time spent in GC while profiling.
func (p *profiler) stop() (gcShare float64, err error) {
	pprof.StopCPUProfile()
	if err := p.cpuFile.Close(); err != nil {
		return 0, err
	}
	gc1, total1 := gcCPU()
	f, err := os.Create(p.heapPath)
	if err != nil {
		return 0, err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return ratio(gc1-p.gc0, total1-p.total0), nil
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// layerSplit splits a profile by layer with `go tool pprof -traces`.
// Each sample is charged to the innermost frame on its stack that
// belongs to a layer: a repro/internal package (named by its last path
// element) or "wire" (encoding/json, net/http). Runtime work such as
// allocation is thereby charged to the layer that caused it; samples
// with no layer frame (GC workers, the scheduler) are charged to
// "other". The shares sum to 1. Extra pprof flags pass through.
func layerSplit(profile, sampleIndex string, extra ...string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-traces", "-sample_index=" + sampleIndex}, extra...)
	var out, errb bytes.Buffer
	cmd := exec.Command("go", append(args, profile)...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	sums := map[string]float64{}
	total := 0.0
	var (
		value  float64
		layer  string
		inBody bool // past the header
		first  bool // next line opens a sample: "<value>   <leaf frame>"
	)
	flush := func() {
		if layer == "" {
			layer = "other"
		}
		sums[layer] += value
		total += value
		value, layer = 0, ""
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			if inBody && !first {
				flush()
			}
			inBody, first = true, true
			continue
		}
		f := strings.Fields(line)
		if !inBody || len(f) == 0 {
			continue
		}
		if first && strings.HasSuffix(f[0], ":") {
			continue // sample label line, such as "bytes: 24B"
		}
		if first {
			v, ok := parseQuantity(f[0])
			if !ok {
				return nil, fmt.Errorf("go tool pprof -traces: unexpected sample line %q", line)
			}
			value, first, f = v, false, f[1:]
		}
		if layer == "" && len(f) > 0 {
			layer = layerOf(f[0])
		}
	}
	if inBody && !first {
		flush()
	}
	if total == 0 {
		return sums, nil
	}
	for k, v := range sums {
		sums[k] = v / total
	}
	return sums, nil
}

// layerOf maps a symbolized function name to its layer ("" if none).
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: drop the shape arguments
	}
	pkg := funcPackage(fn)
	switch {
	case pkg == "encoding/json" || pkg == "net/http":
		return "wire"
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	}
	return ""
}

// funcPackage returns the import path of a symbolized function name,
// e.g. "repro/internal/rta.(*x).y" -> "repro/internal/rta".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// parseQuantity parses a pprof value such as "10ms", "1.50s", "512kB"
// or "0" into base units (seconds or bytes).
func parseQuantity(s string) (float64, bool) {
	units := []struct {
		suffix string
		scale  float64
	}{
		{"ns", 1e-9}, {"us", 1e-6}, {"ms", 1e-3}, {"s", 1},
		{"kB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40}, {"B", 1},
	}
	scale := 1.0
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			s, scale = strings.TrimSuffix(s, u.suffix), u.scale
			break
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v * scale, true
}

// benchSide runs fn under the pprof label side=bench, which marks the
// benchmark's own work (load generator, probes, output checks) so the
// CPU split leaves it out.
func benchSide(ctx context.Context, fn func(ctx context.Context) error) error {
	var err error
	pprof.Do(ctx, pprof.Labels("side", "bench"), func(ctx context.Context) { err = fn(ctx) })
	return err
}

// layerShares reports the CPU and allocation shares of every layer from
// the traced phase's profiles. Samples labelled side=bench are left out
// of the CPU split.
func layerShares(r *report, p *profiler, gcShare float64) error {
	cpu, err := layerSplit(p.cpuPath, "cpu", "-tagignore=side=bench")
	if err != nil {
		return err
	}
	alloc, err := layerSplit(p.heapPath, "alloc_space")
	if err != nil {
		return err
	}
	for _, l := range []string{"core", "tsched", "rta", "gateway", "delta", "opt", "service", "wire"} {
		r.setLayer(l+".cpu_share", cpu[l])
	}
	r.setLayer("rta.alloc_share", alloc["rta"])
	r.setLayer("runtime.gc_cpu_share", gcShare)
	return nil
}

// memDelta measures the allocations of one serial call.
func memDelta(fn func() error) (allocs, bytes uint64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, err
}
