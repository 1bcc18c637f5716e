package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/planner"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/workloads"
)

// TestSubmitOverridesBearingSpec pins the tentpole wire path: a JSON body
// with {"overrides":{...}} is accepted, runs under the v2 content hash, and
// an equivalent legacy-field spelling of the same run is a cache hit.
func TestSubmitOverridesBearingSpec(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})
	modern := system.Spec{System: config.CacheBased, Benchmark: "EP", Scale: workloads.Tiny}
	modern.Overrides.Cores = 4
	modern.Overrides.L1DSize = 16 << 10

	first, err := client.Run(context.Background(), modern, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Results == nil || first.Results.Cycles == 0 {
		t.Fatalf("first run = %+v, want a fresh non-zero run", first)
	}
	if first.Key != modern.Hash() {
		t.Fatalf("run keyed %s, want the canonical v2 hash %s", first.Key, modern.Hash())
	}

	legacy := system.Spec{System: config.CacheBased, Benchmark: "EP", Scale: workloads.Tiny, Cores: 4}
	legacy.Overrides.L1DSize = 16 << 10
	second, err := client.Run(context.Background(), legacy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("the legacy-field spelling of the same run missed the cache")
	}
	if second.Key != first.Key {
		t.Fatalf("equivalent spellings keyed apart: %s vs %s", second.Key, first.Key)
	}
}

// TestSubmitRejectsBadOverrides: unknown knobs, negative values, more
// memory controllers than mesh nodes, a way count past the cache model's
// limit, the retired top-level "filter_entries" key and the retired
// knobs the simulator never read fail the request with 400 before
// anything is queued.
func TestSubmitRejectsBadOverrides(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	for _, body := range []string{
		`{"spec":{"system":"cache","benchmark":"EP","scale":"tiny","overrides":{"warp_drive":1}}}`,
		`{"spec":{"system":"cache","benchmark":"EP","scale":"tiny","overrides":{"mem_latency":-5}}}`,
		`{"spec":{"system":"cache","benchmark":"EP","scale":"tiny","overrides":{"mem_controllers":100}}}`,
		`{"spec":{"system":"cache","benchmark":"IS","scale":"tiny","cores":4,"overrides":{"tlb_entries":65}}}`,
		`{"spec":{"system":"hybrid","benchmark":"IS","scale":"tiny","filter_entries":8}}`,
		`{"spec":{"system":"hybrid","benchmark":"CG","scale":"tiny","overrides":{"tlb_latency":50}}}`,
		`{"spec":{"system":"hybrid","benchmark":"CG","scale":"tiny","overrides":{"dir_assoc":1}}}`,
		`{"spec":{"system":"hybrid","benchmark":"CG","scale":"tiny","overrides":{"dir_entries_per_slice":1}}}`,
		`{"matrix":{"scale":"tiny","cores":4,"sweep":[{"name":"warp_drive","values":[1]}]}}`,
		`{"matrix":{"scale":"tiny","cores":4,"sweep":[{"name":"l1d_size","values":[]}]}}`,
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

// TestEmptyScaleMeansSmall: runs, sweeps and plans share one default —
// a Matrix or PlanRequest that names no scale runs at small scale.
func TestEmptyScaleMeansSmall(t *testing.T) {
	specs, err := Matrix{Benchmarks: []string{"EP"}, Systems: []string{"cache"}}.Specs()
	if err != nil || len(specs) != 1 || specs[0].Scale != workloads.Small {
		t.Fatalf("Matrix without scale: %v, %v", specs, err)
	}
	req := PlanRequest{Strategy: "knee", Benchmark: "IS",
		Sweep:      []runner.KnobAxis{{Name: "filter_entries", Values: []int{4, 8}}},
		Constraint: &planner.Constraint{Metric: "hit_ratio", SlackOfBest: 0.99}}
	q, err := req.Question()
	if err != nil || q.Axes.Scale != workloads.Small {
		t.Fatalf("PlanRequest without scale: scale %v, %v", q.Axes.Scale, err)
	}
	if _, err := (Matrix{Benchmarks: []string{"EP"}, Scale: "huge"}).Specs(); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestMatrixWithSweepAxes: a matrix submission with overrides and sweep
// axes enumerates the cross product server-side.
func TestMatrixWithSweepAxes(t *testing.T) {
	var ov config.Overrides
	ov.Set("mem_latency", 150)
	m := Matrix{
		Benchmarks: []string{"EP"},
		Systems:    []string{"cache"},
		Scale:      "tiny",
		Cores:      4,
		Overrides:  &ov,
		Sweep:      []runner.KnobAxis{{Name: "l1d_size", Values: []int{16 << 10, 32 << 10}}},
	}
	specs, err := m.Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("enumerated %d specs, want 2", len(specs))
	}
	for i, s := range specs {
		if s.Overrides.MemLatency != 150 {
			t.Fatalf("specs[%d] lost the fixed override: %+v", i, s.Overrides)
		}
	}
	if specs[0].Overrides.L1DSize != 16<<10 || specs[1].Overrides.L1DSize != 32<<10 {
		t.Fatalf("axis values wrong: %+v / %+v", specs[0].Overrides, specs[1].Overrides)
	}

	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 8})
	recs, err := client.Submit(context.Background(), SubmitRequest{Matrix: &m}, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("daemon returned %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Status != "done" || r.Results == nil {
			t.Fatalf("record %s: %s (%s)", r.Key, r.Status, r.Error)
		}
	}
}

// sweepLines POSTs a raw Matrix body to /v1/sweep and returns the decoded
// per-run lines of the 200 stream (the summary line dropped).
func sweepLines(t *testing.T, base, body string) []RunRecord {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var recs []RunRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			RunRecord
			Summary *map[string]any `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad sweep line %s: %v", sc.Bytes(), err)
		}
		if line.Summary != nil {
			continue
		}
		if line.Status != "done" {
			t.Fatalf("run %s status %s", line.Key, line.Status)
		}
		recs = append(recs, line.RunRecord)
	}
	return recs
}

// TestSweepMatrixBody: POST /v1/sweep takes the JSON Matrix, applying its
// fixed overrides and its knob axes, and the typed Client posts the same
// body — addressing the same cache entries on a second pass.
func TestSweepMatrixBody(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 2, QueueDepth: 16})

	recs := sweepLines(t, client.Base, `{"benchmarks":["EP"],"systems":["cache"],"scale":"tiny","cores":4,`+
		`"overrides":{"mem_latency":150},"sweep":[{"name":"l1d_size","values":[16384,32768]}]}`)
	if len(recs) != 2 {
		t.Fatalf("streamed %d runs, want 2", len(recs))
	}
	for i, want := range []int{16384, 32768} {
		cfg := recs[i].Spec.Config()
		if cfg.MemLatency != 150 || cfg.L1DSize != want {
			t.Fatalf("run %d: mem_latency %d, l1d_size %d; want 150, %d", i, cfg.MemLatency, cfg.L1DSize, want)
		}
	}

	var ov config.Overrides
	ov.Set("mem_latency", 150)
	m := Matrix{
		Benchmarks: []string{"EP"},
		Systems:    []string{"cache"},
		Scale:      "tiny",
		Cores:      4,
		Overrides:  &ov,
		Sweep:      []runner.KnobAxis{{Name: "l1d_size", Values: []int{16384, 32768}}},
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
}

// TestSweepRejectsGetAndBadBodies: the sweep has one grammar, the POSTed
// Matrix. A GET is 405; an unknown field, a negative override, an unknown
// scale or a malformed body is 400 before anything queues.
func TestSweepRejectsGetAndBadBodies(t *testing.T) {
	srv, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	resp, err := http.Get(client.Base + "/v1/sweep?benchmarks=EP&systems=cache&scale=tiny&cores=4")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/sweep: status %d, want 405", resp.StatusCode)
	}
	for _, body := range []string{
		`{"benchmarks":["EP"],"scale":"tiny","cores":4,"set":["mem_latency=150"]}`,
		`{"benchmarks":["EP"],"scale":"tiny","cores":4,"overrides":{"mem_latency":-1}}`,
		`{"benchmarks":["EP"],"scale":"huge"}`,
		`{"benchmarks":["EP"]`,
	} {
		resp, err := http.Post(client.Base+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if st := srv.cache.Stats(); st.Misses != 0 {
		t.Fatalf("rejected sweeps reached the cache: %+v", st)
	}
}

// TestGetRunByV2Hash: a poll URL carrying the v2 hash finds the run after
// it completed, including through the cache-only path.
func TestGetRunByV2Hash(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 4})
	spec := system.Spec{System: config.CacheBased, Benchmark: "EP", Scale: workloads.Tiny}
	spec.Overrides.Cores = 4
	if _, err := client.Run(context.Background(), spec, 0); err != nil {
		t.Fatal(err)
	}
	rec, err := client.Get(context.Background(), spec.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != "done" || rec.Results == nil {
		t.Fatalf("polled record = %+v, want done with results", rec)
	}
	if rec.Spec.Overrides.Cores != 4 {
		t.Fatalf("polled Spec lost its overrides: %+v", rec.Spec)
	}
}
