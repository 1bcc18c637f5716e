// Package analysis turns one run's raw measurements into findings: a
// table-driven rule registry (rules are data, like config.Knobs and
// workloads.Entries) where each rule cross-references the run's Results
// against the resolved machine configuration — plus, when available, the
// counter snapshot and the sampled timeline — and emits typed Findings with
// the evidence that fired them and the knob change that would help.
//
// Analysis is strictly derived: it reads measurements, never feeds back into
// simulation, and is therefore not part of Spec identity or cache addressing
// (DESIGN.md §11). A rule whose optional inputs are missing is skipped and
// reported as such, so the same registry serves a daemon answering from its
// Results cache (no counters) and a CLI run that captured everything.
package analysis

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/telemetry"
)

// Severity grades a finding. Info marks a notable property, Warn a likely
// bottleneck with headroom to reclaim, Critical a configuration actively
// defeating the machine (the paper's mechanisms thrashing).
type Severity string

// The three severity levels, ordered.
const (
	SevInfo     Severity = "info"
	SevWarn     Severity = "warn"
	SevCritical Severity = "critical"
)

// Evidence is one named measurement that contributed to a finding — the
// number the rule actually compared, so a reader can check the verdict.
type Evidence struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Suggestion is an actionable knob change: re-run with Knob set to Proposed
// (registry name, so it pastes into -set / Overrides directly).
type Suggestion struct {
	Knob     string `json:"knob"`
	Current  int    `json:"current"`
	Proposed int    `json:"proposed"`
	Note     string `json:"note,omitempty"`
}

// Finding is one fired rule: what was detected, how bad, the evidence, and
// (when a knob can address it) the suggested change.
type Finding struct {
	Rule       string      `json:"rule"`
	Severity   Severity    `json:"severity"`
	Message    string      `json:"message"`
	Evidence   []Evidence  `json:"evidence,omitempty"`
	Suggestion *Suggestion `json:"suggestion,omitempty"`
}

// Input is everything a rule may inspect. Config and Results are mandatory;
// Stats (the prefixed counter snapshot of system.Machine.CounterSnapshot)
// and Series (the run's sampled timeline) are optional — rules that need a
// missing one are skipped, not failed.
type Input struct {
	Config  config.Config
	Results system.Results
	Stats   map[string]uint64
	Series  *telemetry.TimeSeries
}

// Report is the product of one run's analysis. Findings preserves registry
// order (deterministic, severity-independent); Skipped names the rules whose
// optional inputs were absent — distinct from rules that ran and stayed
// quiet, and from rules not applicable to this machine at all.
type Report struct {
	Findings []Finding `json:"findings"`
	Skipped  []string  `json:"skipped,omitempty"`
}

// needs declares a rule's optional inputs and applicability gates.
type needs uint8

const (
	// needsStats: the rule reads Input.Stats (counter snapshot).
	needsStats needs = 1 << iota
	// needsSeries: the rule reads Input.Series (sampled timeline).
	needsSeries
	// needsProtocol: the rule is about the real coherence protocol and is
	// silently inapplicable (not "skipped") on other systems.
	needsProtocol
	// needsSPM: the rule is about SPM/DMA machinery, inapplicable on the
	// cache-based baseline.
	needsSPM
)

// Rule is one registry entry. Check returns nil when the rule stays quiet;
// it runs only when every gate in Needs is satisfied.
type Rule struct {
	// ID is the stable identifier findings carry ("filter-pressure").
	ID string
	// Title is the one-line human name shown in listings.
	Title string
	// Needs gates execution on optional inputs and machine applicability.
	Needs needs
	// Check inspects the input and returns the finding, or nil.
	Check func(in *Input) *Finding
}

// Analyze runs every applicable registry rule over in, in registry order.
func Analyze(in Input) Report {
	rep := Report{Findings: []Finding{}}
	for _, r := range Rules {
		if r.Needs&needsProtocol != 0 && in.Config.System != config.HybridReal {
			continue
		}
		if r.Needs&needsSPM != 0 && !in.Config.HasSPM() {
			continue
		}
		if r.Needs&needsStats != 0 && in.Stats == nil {
			rep.Skipped = append(rep.Skipped, r.ID)
			continue
		}
		if r.Needs&needsSeries != 0 && in.Series == nil {
			rep.Skipped = append(rep.Skipped, r.ID)
			continue
		}
		if f := r.Check(&in); f != nil {
			f.Rule = r.ID
			rep.Findings = append(rep.Findings, *f)
		}
	}
	return rep
}

// ratio divides guarding against an empty denominator.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ev builds one evidence entry.
func ev(name string, v float64) Evidence { return Evidence{Name: name, Value: v} }

// pct renders a [0,1] share for messages.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
