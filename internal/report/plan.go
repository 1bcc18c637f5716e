package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/planner"
)

// planAxisNames collects the axis names seen across a plan, sorted, so the
// text table's columns are stable.
func planAxisNames(probes []planner.Probe, v planner.Verdict) []string {
	set := map[string]bool{}
	for _, p := range probes {
		for name := range p.Axes {
			set[name] = true
		}
	}
	if v.Answer != nil {
		for name := range v.Answer.Axes {
			set[name] = true
		}
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func planPointCells(axes []string, vals map[string]int, metrics map[string]float64) []string {
	cells := make([]string, 0, len(axes)+len(planner.Metrics()))
	for _, name := range axes {
		cells = append(cells, fmt.Sprintf("%d", vals[name]))
	}
	for _, m := range planner.Metrics() {
		cells = append(cells, fmt.Sprintf("%.4g", metrics[m.Name]))
	}
	return cells
}

// PlanText renders a plan transcript: one row per executed probe in probe
// order, then the verdict — answer or frontier, probe economy versus the
// full grid.
func PlanText(w io.Writer, probes []planner.Probe, v planner.Verdict) {
	axes := planAxisNames(probes, v)
	header := append([]string{"#", "cached"}, axes...)
	for _, m := range planner.Metrics() {
		header = append(header, m.Name)
	}
	fmt.Fprintf(w, "plan: %s strategy, %d probe(s) against a %d-point grid\n", v.Strategy, v.Probes, v.Grid)
	fmt.Fprintf(w, "  %s\n", strings.Join(header, "\t"))
	for _, p := range probes {
		cached := "-"
		if p.Cached {
			cached = "hit"
		}
		cells := append([]string{fmt.Sprintf("%d", p.Index), cached}, planPointCells(axes, p.Axes, p.Metrics)...)
		fmt.Fprintf(w, "  %s\n", strings.Join(cells, "\t"))
	}
	state := "converged"
	if !v.Converged {
		state = "NOT converged"
	}
	fmt.Fprintf(w, "verdict: %s — %s\n", state, v.Reason)
	if v.Answer != nil {
		fmt.Fprintf(w, "  answer: %s\n", planPointText(axes, *v.Answer))
	}
	for i, a := range v.Frontier {
		fmt.Fprintf(w, "  frontier[%d]: %s\n", i, planPointText(axes, a))
	}
	fmt.Fprintf(w, "  probes: %d (%d cache hit(s)) vs %d grid points\n", v.Probes, v.CacheHits, v.Grid)
}

func planPointText(axes []string, a planner.Answer) string {
	var parts []string
	for _, name := range axes {
		parts = append(parts, fmt.Sprintf("%s=%d", name, a.Axes[name]))
	}
	for _, m := range planner.Metrics() {
		parts = append(parts, fmt.Sprintf("%s=%.4g", m.Name, a.Metrics[m.Name]))
	}
	return strings.Join(parts, " ")
}
