package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/planner"
	"repro/internal/runner"
)

// fig9PlanRequest is the Fig9 filter-size question: the smallest
// filter_entries on IS/hybrid holding the hit ratio within slack of the
// best, over a 16-value grid a bisection should answer in ~6 probes.
func fig9PlanRequest() PlanRequest {
	var vals []int
	for v := 4; v <= 64; v += 4 {
		vals = append(vals, v)
	}
	return PlanRequest{
		Strategy:   "knee",
		Benchmark:  "IS",
		System:     "hybrid",
		Scale:      "tiny",
		Cores:      4,
		Sweep:      []runner.KnobAxis{{Name: "filter_entries", Values: vals}},
		Constraint: &planner.Constraint{Metric: "hit_ratio", SlackOfBest: 0.99},
	}
}

// TestPlanMatchesGridWithFewerProbes is the PR's acceptance criterion,
// end-to-end over HTTP: the knee plan converges to the same filter size the
// exhaustive grid sweep identifies, in at most half the probes.
func TestPlanMatchesGridWithFewerProbes(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 4, QueueDepth: 64})
	ctx := context.Background()
	req := fig9PlanRequest()

	var probes []planner.Probe
	v, err := client.Plan(ctx, req, 0, func(p planner.Probe) error {
		probes = append(probes, p)
		return nil
	})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if !v.Converged || v.Answer == nil {
		t.Fatalf("plan did not converge: %+v", v)
	}
	if v.Probes != len(probes) {
		t.Fatalf("verdict says %d probes, stream carried %d", v.Probes, len(probes))
	}
	if v.Grid != 16 {
		t.Fatalf("grid = %d, want 16", v.Grid)
	}
	if v.Probes > v.Grid/2 {
		t.Errorf("plan used %d probes; acceptance demands at most half the %d-point grid", v.Probes, v.Grid)
	}

	// The exhaustive answer, through the same daemon: one run per grid
	// point, the smallest value within slack of the best hit ratio.
	best := 0.0
	hits := map[int]float64{}
	sum, err := client.Sweep(ctx, Matrix{
		Benchmarks: []string{"IS"}, Systems: []string{"hybrid"},
		Scale: "tiny", Cores: 4, Sweep: req.Sweep,
	}, 0, func(rec RunRecord) error {
		hits[rec.Spec.Config().FilterEntries] = rec.Results.FilterHitRatio
		if rec.Results.FilterHitRatio > best {
			best = rec.Results.FilterHitRatio
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if sum.Failed != 0 {
		t.Fatalf("sweep failed %d runs", sum.Failed)
	}
	gridAnswer := 0
	for v := 4; v <= 64; v += 4 {
		if hits[v] >= 0.99*best {
			gridAnswer = v
			break
		}
	}
	if got := v.Answer.Axes["filter_entries"]; got != gridAnswer {
		t.Errorf("plan says filter_entries=%d, exhaustive grid says %d", got, gridAnswer)
	}
}

// TestReplanDeterministicAndCached re-asks the same question: the probe
// transcript must be byte-stable and the second pass must execute nothing —
// every probe a cache hit, the rescache miss counter unmoved.
func TestReplanDeterministicAndCached(t *testing.T) {
	srv, client := newTestDaemon(t, Options{Workers: 4, QueueDepth: 64})
	ctx := context.Background()
	req := fig9PlanRequest()

	run := func() ([]planner.Probe, planner.Verdict) {
		var tr []planner.Probe
		v, err := client.Plan(ctx, req, 0, func(p planner.Probe) error {
			tr = append(tr, p)
			return nil
		})
		if err != nil {
			t.Fatalf("Plan: %v", err)
		}
		return tr, v
	}

	tr1, v1 := run()
	missesAfterFirst := srv.Cache().Stats().Misses
	tr2, v2 := run()
	missesAfterSecond := srv.Cache().Stats().Misses

	// Identical transcripts up to the Cached flag (the replay is served
	// from cache, which is the point).
	if len(tr1) != len(tr2) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(tr1), len(tr2))
	}
	for i := range tr1 {
		a, b := tr1[i], tr2[i]
		if !b.Cached {
			t.Errorf("replay probe %d (%s) was not served from cache", i, b.Key)
		}
		a.Cached, b.Cached = false, false
		if !reflect.DeepEqual(a, b) {
			t.Errorf("probe %d differs:\n%+v\n%+v", i, a, b)
		}
	}
	if missesAfterSecond != missesAfterFirst {
		t.Errorf("replay caused %d cache misses, want 0", missesAfterSecond-missesAfterFirst)
	}
	if v2.CacheHits != v2.Probes {
		t.Errorf("replay: %d of %d probes cached, want all", v2.CacheHits, v2.Probes)
	}
	if v1.Answer == nil || v2.Answer == nil || !reflect.DeepEqual(v1.Answer, v2.Answer) {
		t.Errorf("answers differ: %+v vs %+v", v1.Answer, v2.Answer)
	}
}

// TestPlanBudgetExhaustionOverHTTP proves a starved plan answers promptly
// with converged=false instead of hanging the stream.
func TestPlanBudgetExhaustionOverHTTP(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 4, QueueDepth: 64})
	req := fig9PlanRequest()
	// A knee needs at least two probes (both ends of the bracket); budget 1
	// starves it no matter what the measured surface looks like.
	req.Budget = 1

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	v, err := client.Plan(ctx, req, 0, nil)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if v.Converged {
		t.Fatalf("budget 1 cannot converge a bisection: %+v", v)
	}
	if v.Probes != 1 {
		t.Errorf("probes = %d, want exactly the budget", v.Probes)
	}
	// Best effort: the generous end was probed and satisfies slack-of-best
	// by construction, so it comes back as a non-minimal answer.
	if v.Answer == nil || v.Answer.Axes["filter_entries"] != 64 {
		t.Errorf("best-effort answer should be the satisfying end: %+v", v.Answer)
	}
	if !strings.Contains(v.Reason, "budget") {
		t.Errorf("reason should mention the budget: %q", v.Reason)
	}
}

// TestPlanValidation: malformed questions 400 before any line streams.
func TestPlanValidation(t *testing.T) {
	_, client := newTestDaemon(t, Options{Workers: 1, QueueDepth: 8})
	ctx := context.Background()
	bad := []PlanRequest{
		{},                                    // no strategy, no benchmark
		{Strategy: "oracle", Benchmark: "IS"}, // unknown strategy
		{Strategy: "knee", Benchmark: "IS"},   // no axis, no constraint
		func() PlanRequest { // constraint metric typo
			r := fig9PlanRequest()
			r.Constraint = &planner.Constraint{Metric: "hitratio", SlackOfBest: 0.99}
			return r
		}(),
	}
	for i, req := range bad {
		if _, err := client.Plan(ctx, req, 0, nil); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}

// TestPlanMetrics: the plans_total counter carries strategy and outcome.
func TestPlanMetrics(t *testing.T) {
	srv, client := newTestDaemon(t, Options{Workers: 4, QueueDepth: 64})
	ctx := context.Background()
	if _, err := client.Plan(ctx, fig9PlanRequest(), 0, nil); err != nil {
		t.Fatalf("Plan: %v", err)
	}
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rr.Body.String()
	if !strings.Contains(body, `hybridsimd_plans_total{outcome="converged",strategy="knee"}`) &&
		!strings.Contains(body, `hybridsimd_plans_total{strategy="knee",outcome="converged"}`) {
		t.Errorf("plans_total{knee,converged} missing from /metrics:\n%s", grepLines(body, "plans_total"))
	}
	if !strings.Contains(body, "hybridsimd_plan_probes_total") {
		t.Error("plan_probes_total missing from /metrics")
	}
}

func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestSweepRetriesAfterShed: the streaming sweep POST retries a 429 with
// Retry-After like submissions do, replaying its Matrix body.
func TestSweepRetriesAfterShed(t *testing.T) {
	srv := New(Options{Workers: 2, QueueDepth: 8})
	defer srv.Close()
	var sheds atomic.Int32
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sweep" && sheds.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := &Client{Base: ts.URL, HTTP: ts.Client(), Retries: 2}

	sum, err := client.Sweep(context.Background(), Matrix{
		Benchmarks: []string{"EP"}, Systems: []string{"cache"}, Scale: "tiny", Cores: 4,
	}, 0, nil)
	if err != nil {
		t.Fatalf("Sweep after shed: %v", err)
	}
	if sum.Runs != 1 || sum.Failed != 0 {
		t.Fatalf("summary: %+v", sum)
	}
	if got := sheds.Load(); got < 2 {
		t.Fatalf("handler saw %d sweep attempts, want the shed plus a retry", got)
	}
}

// TestPlanRetriesAfterShed: same for POST /v1/plan — the body replays.
func TestPlanRetriesAfterShed(t *testing.T) {
	srv := New(Options{Workers: 4, QueueDepth: 64})
	defer srv.Close()
	var sheds atomic.Int32
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/plan" && sheds.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := &Client{Base: ts.URL, HTTP: ts.Client(), Retries: 2}

	v, err := client.Plan(context.Background(), fig9PlanRequest(), 0, nil)
	if err != nil {
		t.Fatalf("Plan after shed: %v", err)
	}
	if !v.Converged {
		t.Fatalf("plan did not converge: %+v", v)
	}
}
