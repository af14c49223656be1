package delta

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/opt"
)

// FuzzDeltaInvalidation replays fuzzer-chosen move sequences on corpus
// systems through one long-lived Evaluator and cross-checks every step
// against a cold core.AnalyzeWith. The fuzz input picks the generated
// move taken at each step, so the fuzzer explores the cache states a
// real optimizer run reaches; the caches are exact-keyed and never
// invalidated, so every stale entry stays in place to be (wrongly)
// hit. Any divergence from the cold path, or a warm-start mismatch
// caught by the armed self-check (core.AnalyzeOptions.SelfCheck), fails
// the target.
func FuzzDeltaInvalidation(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3})
	f.Add(int64(1), []byte{7, 7, 7, 7, 7, 7})
	f.Add(int64(2), bytes.Repeat([]byte{0xff, 0x00, 0x81}, 6))
	f.Add(int64(3), []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3})

	// The corpus systems are deterministic, so build them once: fuzzing
	// re-enters the target millions of times.
	systems := gen.Corpus(4, 700, 3)

	f.Fuzz(func(t *testing.T, sysSel int64, script []byte) {
		spec := systems[int(uint64(sysSel)%uint64(len(systems)))]
		sys, err := gen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		app, arch := sys.Application, sys.Architecture
		ev := NewWith(app, arch, selfCheck)

		cfg := core.DefaultConfig(app, arch)
		if err := cfg.Normalize(app); err != nil {
			t.Fatal(err)
		}
		a, err := ev.Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := core.AnalyzeWith(app, arch, cfg, selfCheck); err != nil || !reflect.DeepEqual(a, want) {
			t.Fatalf("base analysis diverges from cold (err %v)", err)
		}

		steps := 0
		for _, sel := range script {
			if steps == 12 {
				break
			}
			moves := opt.GenerateMoves(app, arch, cfg, a, opt.MoveBudget{Max: 16})
			if len(moves) == 0 {
				break
			}
			m := moves[int(sel)%len(moves)]
			next, err := m.Apply(app, arch, cfg)
			if err != nil {
				continue // move impossible on this config: pick on
			}
			got, gotErr := ev.Analyze(next)
			want, wantErr := core.AnalyzeWith(app, arch, next, selfCheck)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("step %d move %v: delta err %v, cold err %v", steps, m, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d move %v: delta analysis diverges from cold", steps, m)
			}
			cfg, a = next, got
			steps++
		}
	})
}
