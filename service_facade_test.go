package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
)

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestServiceFacadeRoundTrip exercises the re-exported serving surface
// end to end: submit over HTTP through NewServiceHandler, poll to
// completion, and feed the wire-format configuration back through
// LoadConfig.
func TestServiceFacadeRoundTrip(t *testing.T) {
	svc := repro.NewService(repro.ServiceOptions{Workers: 1, JobWorkers: 1})
	defer svc.Close()
	srv := httptest.NewServer(repro.NewServiceHandler(svc))
	defer srv.Close()

	sys, err := repro.Generate(repro.GenSpec{Seed: 2, TTNodes: 1, ETNodes: 1, ProcsPerNode: 6})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := svc.Submit(repro.SynthesisRequest{System: sys, Strategy: "os"})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := repro.Fingerprint(sys)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Fingerprint != fp {
		t.Errorf("submit fingerprint %s, want %s", sub.Fingerprint, fp)
	}

	var st *repro.JobStatus
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(srv.URL + sub.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		var decoded repro.JobStatus
		if err := jsonDecode(resp, &decoded); err != nil {
			t.Fatal(err)
		}
		st = &decoded
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != repro.JobDone {
		t.Fatalf("job state %s (error %q)", st.State, st.Error)
	}
	cfg, err := repro.LoadConfig(bytes.NewReader(st.Result.Config), sys.Application, sys.Architecture)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := repro.NewSolver(sys.Application, sys.Architecture, repro.WithDelta(false))
	if err != nil {
		t.Fatal(err)
	}
	a, err := solver.Analyze(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedulable != st.Result.Analysis.Schedulable || a.Buffers.Total != st.Result.Analysis.BuffersTotal {
		t.Error("wire analysis summary disagrees with re-analyzing the wire configuration")
	}

	ar, err := svc.Analyze(context.Background(), repro.AnalysisRequest{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Results) != 1 || ar.Results[0].Analysis == nil {
		t.Fatalf("facade analyze incomplete: %+v", ar)
	}
}
