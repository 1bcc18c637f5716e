package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/planner"
)

func samplePlan() ([]planner.Probe, planner.Verdict) {
	probes := []planner.Probe{
		{Index: 1, Key: "IS-hybrid-64", Axes: map[string]int{"filter_entries": 64},
			Metrics: map[string]float64{"cycles": 1000, "hit_ratio": 0.99}},
		{Index: 2, Key: "IS-hybrid-4", Cached: true, Axes: map[string]int{"filter_entries": 4},
			Metrics: map[string]float64{"cycles": 1200, "hit_ratio": 0.91}},
	}
	v := planner.Verdict{
		Strategy: "knee", Converged: true,
		Reason: "smallest filter_entries=32 satisfying hit_ratio within 0.99 of best",
		Answer: &planner.Answer{Key: "IS-hybrid-32", Axes: map[string]int{"filter_entries": 32},
			Metrics: map[string]float64{"cycles": 1010, "hit_ratio": 0.985}},
		Probes: 2, CacheHits: 1, Grid: 16,
	}
	return probes, v
}

func TestPlanText(t *testing.T) {
	probes, v := samplePlan()
	var buf bytes.Buffer
	PlanText(&buf, probes, v)
	out := buf.String()
	for _, want := range []string{
		"knee strategy, 2 probe(s) against a 16-point grid",
		"filter_entries",
		"verdict: converged",
		"answer: filter_entries=32",
		"probes: 2 (1 cache hit(s)) vs 16 grid points",
		"hit", // the cached probe row
	} {
		if !strings.Contains(out, want) {
			t.Errorf("PlanText output missing %q:\n%s", want, out)
		}
	}
}
