package service

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/workloads"
)

// TestSubmitParamsBearingSpec pins the workload-parameter wire path: a JSON
// body with {"params":{...}} is accepted, runs under the v3 content hash,
// the explicit-default spelling of the same run is a cache hit, and a
// distinct parameter value mints a distinct cache entry.
func TestSubmitParamsBearingSpec(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})
	wide := system.Spec{System: config.HybridReal, Benchmark: "stream", Scale: workloads.Tiny,
		Params: "stride=128", Cores: 4}

	first, err := client.Run(context.Background(), wide, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Results == nil || first.Results.Cycles == 0 {
		t.Fatalf("first run = %+v, want a fresh non-zero run", first)
	}
	if first.Key != wide.Hash() {
		t.Fatalf("run keyed %s, want the canonical v3 hash %s", first.Key, wide.Hash())
	}

	// Default-param and explicit-default spellings share one address.
	plain := system.Spec{System: config.HybridReal, Benchmark: "stream", Scale: workloads.Tiny, Cores: 4}
	if _, err := client.Run(context.Background(), plain, 0); err != nil {
		t.Fatal(err)
	}
	explicit := plain
	explicit.Params = "stride=8"
	second, err := client.Run(context.Background(), explicit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("the explicit-default spelling of the same run missed the cache")
	}
	if second.Key != plain.Hash() {
		t.Fatalf("equivalent spellings keyed apart: %s vs %s", second.Key, plain.Hash())
	}
	if second.Key == first.Key {
		t.Fatal("distinct stride values share one cache entry")
	}
}

// TestSubmitRejectsBadParams: undeclared parameters, out-of-range values
// and bad wsweep axes fail the request with 400 before anything is queued.
func TestSubmitRejectsBadParams(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	for _, body := range []string{
		`{"spec":{"system":"hybrid","benchmark":"stream","scale":"tiny","params":{"warp":1}}}`,
		`{"spec":{"system":"hybrid","benchmark":"stream","scale":"tiny","params":{"stride":4}}}`,
		`{"spec":{"system":"hybrid","benchmark":"CG","scale":"tiny","params":{"n":10}}}`,
		`{"matrix":{"benchmarks":["stream"],"scale":"tiny","cores":4,"wsweep":[{"name":"warp","values":[1]}]}}`,
		`{"matrix":{"benchmarks":["stream"],"scale":"tiny","cores":4,"wsweep":[{"name":"stride","values":[]}]}}`,
		`{"matrix":{"benchmarks":["stream:warp=1"],"scale":"tiny","cores":4}}`,
	} {
		resp, err := http.Post(client.Base+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestSweepMatrixBodyWorkloadParams: a POSTed Matrix carries
// parameterized workload spellings and wsweep axes, distinct axis values
// land distinct cache keys, the typed Client addresses the same cache
// entries on a second pass, and a bad wsweep axis is a 400.
func TestSweepMatrixBodyWorkloadParams(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 16})

	recs := sweepLines(t, client.Base, `{"benchmarks":["stream:streams=2"],"systems":["hybrid"],"scale":"tiny",`+
		`"cores":4,"wsweep":[{"name":"stride","values":[8,128]}]}`)
	if len(recs) != 2 {
		t.Fatalf("streamed %d runs, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Spec.Benchmark != "stream" {
			t.Fatalf("run %s benchmark %q", rec.Key, rec.Spec.Benchmark)
		}
		if v, _ := rec.Spec.ResolvedParam("streams"); v != 2 {
			t.Fatalf("run %s streams = %d, want 2", rec.Key, v)
		}
	}
	if recs[0].Key == recs[1].Key {
		t.Fatal("distinct stride values share one cache key")
	}

	m := Matrix{
		Benchmarks: []string{"stream:streams=2"},
		Systems:    []string{"hybrid"},
		Scale:      "tiny",
		Cores:      4,
		WSweep:     []runner.ParamAxis{{Name: "stride", Values: []int{8, 128}}},
	}
	var clientKeys []string
	sum, err := client.Sweep(context.Background(), m, 0, func(rec RunRecord) error {
		if !rec.Cached {
			t.Errorf("run %s not served from cache on the second pass", rec.Key)
		}
		clientKeys = append(clientKeys, rec.Key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 || len(clientKeys) != 2 {
		t.Fatalf("client sweep: %d keys, %d failed", len(clientKeys), sum.Failed)
	}
	for i := range recs {
		if recs[i].Key != clientKeys[i] {
			t.Fatalf("raw body and typed client addressed different runs: %s vs %s", recs[i].Key, clientKeys[i])
		}
	}

	// A bad wsweep axis dies with 400 before queueing anything.
	resp, err := http.Post(client.Base+"/v1/sweep", "application/json",
		strings.NewReader(`{"benchmarks":["stream"],"scale":"tiny","cores":4,"wsweep":[{"name":"warp","values":[1]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wsweep axis: status %d, want 400", resp.StatusCode)
	}
}

// TestSweepMixedBenchmarksKeepOrder: plain and parameterized workload
// spellings mixed in one Matrix stream back in the caller's order.
func TestSweepMixedBenchmarksKeepOrder(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 16})
	mixed := Matrix{
		Benchmarks: []string{"EP", "stream:stride=128", "CG"},
		Systems:    []string{"hybrid"},
		Scale:      "tiny",
		Cores:      4,
	}
	var order []string
	if _, err := client.Sweep(context.Background(), mixed, 0, func(rec RunRecord) error {
		order = append(order, rec.Spec.Benchmark+":"+rec.Spec.Params)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"EP:", "stream:stride=128", "CG:"}; strings.Join(order, " ") != strings.Join(want, " ") {
		t.Fatalf("mixed matrix streamed as %v, want %v", order, want)
	}
}
