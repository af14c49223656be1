package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestMapOrderAndValues checks that results come back in index order
// with the right values, for every pool size.
func TestMapOrderAndValues(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 3, 8, 64} {
		res, err := Map(context.Background(), New(workers), n, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(res), n)
		}
		for i, r := range res {
			if r.Index != i || r.Value != i*i || r.Err != nil {
				t.Fatalf("workers=%d item %d: got {%d %d %v}", workers, i, r.Index, r.Value, r.Err)
			}
		}
	}
}

// TestMapSerialParallelEquality checks the determinism contract: the
// full result slice of a parallel run equals the serial run's.
func TestMapSerialParallelEquality(t *testing.T) {
	fn := func(_ context.Context, i int) (string, error) {
		if i%7 == 3 {
			return "", fmt.Errorf("item %d failed", i)
		}
		return fmt.Sprintf("v%d", i*31%17), nil
	}
	serial, err := Map(context.Background(), Serial(), 200, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		par, err := Map(context.Background(), New(workers), 200, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: parallel results differ from serial", workers)
		}
	}
}

// TestMapPerItemErrors checks that item errors are captured without
// failing the batch, and that FirstError picks the lowest index.
func TestMapPerItemErrors(t *testing.T) {
	boom := errors.New("boom")
	res, err := Map(context.Background(), New(4), 10, func(_ context.Context, i int) (int, error) {
		if i == 2 || i == 7 {
			return 0, fmt.Errorf("item %d: %w", i, boom)
		}
		return i, nil
	})
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	for i, r := range res {
		wantErr := i == 2 || i == 7
		if (r.Err != nil) != wantErr {
			t.Fatalf("item %d: err=%v, want error=%v", i, r.Err, wantErr)
		}
	}
	first := FirstError(res)
	if !errors.Is(first, boom) || first.Error() != "item 2: boom" {
		t.Fatalf("FirstError = %v, want item 2", first)
	}
}

// TestMapCancellation checks that cancelling the context stops the
// batch: the call reports ctx.Err() and unstarted items carry it.
func TestMapCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran int
		var mu sync.Mutex
		const n = 1000
		res, err := Map(ctx, New(workers), n, func(_ context.Context, i int) (int, error) {
			mu.Lock()
			ran++
			if ran == 5 {
				cancel()
			}
			mu.Unlock()
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: batch err = %v, want context.Canceled", workers, err)
		}
		cancelled := 0
		for _, r := range res {
			if errors.Is(r.Err, context.Canceled) {
				cancelled++
			}
		}
		if cancelled == 0 || cancelled > n-5 {
			t.Fatalf("workers=%d: %d items cancelled, want in [1, %d]", workers, cancelled, n-5)
		}
		cancel()
	}
}

// TestMapEmpty checks the n=0 edge case.
func TestMapEmpty(t *testing.T) {
	res, err := Map(context.Background(), New(8), 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called for empty batch")
		return 0, nil
	})
	if err != nil || len(res) != 0 {
		t.Fatalf("got %v, %v", res, err)
	}
}

// TestSweep checks job-order results for heterogeneous jobs.
func TestSweep(t *testing.T) {
	jobs := make([]func(context.Context) (int, error), 50)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (int, error) { return 2 * i, nil }
	}
	res, err := Sweep(context.Background(), New(6), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Value != 2*i {
			t.Fatalf("job %d: got %d, want %d", i, r.Value, 2*i)
		}
	}
}

// TestEvaluateAllMatchesSerial analyzes a batch of configurations of a
// small generated system and checks the parallel evaluations against
// direct serial core.Analyze calls.
func TestEvaluateAllMatchesSerial(t *testing.T) {
	sys, err := gen.Generate(gen.Spec{Seed: 3, TTNodes: 1, ETNodes: 1, ProcsPerNode: 6})
	if err != nil {
		t.Fatal(err)
	}
	app, arch := sys.Application, sys.Architecture
	base := core.DefaultConfig(app, arch)
	var cfgs []*core.Config
	for i := 0; i < 8; i++ {
		cfg := base.Clone()
		cfg.Round.Slots[i%len(cfg.Round.Slots)].Length += 4 * int64(i)
		if err := cfg.Normalize(app); err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	cold := func(cfg *core.Config) (*core.Analysis, error) { return core.Analyze(app, arch, cfg) }
	par, err := EvaluateAll(context.Background(), New(8), cold, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, wantErr := core.Analyze(app, arch, cfg)
		if (par[i].Err != nil) != (wantErr != nil) {
			t.Fatalf("cfg %d: err=%v, want %v", i, par[i].Err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(par[i].Analysis, want) {
			t.Fatalf("cfg %d: parallel analysis differs from serial", i)
		}
		if par[i].Config != cfg {
			t.Fatalf("cfg %d: evaluation does not carry its config", i)
		}
	}
}
