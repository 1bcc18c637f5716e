package repro

// Golden advisor test: the rendered findings for a small exhibit set are
// pinned byte-for-byte in testdata/golden_findings.txt. The set pairs the
// Fig. 9 exhibit (FT on cache and hybrid) with a deliberately misconfigured
// run (gups with a 4-entry filter) so the file pins both the healthy and
// the pathological transcript: rule IDs, severities, evidence values, and
// suggested knob changes. Any threshold or message change in
// internal/analysis shows up as a diff here.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenFindings .
//
// and review the diff like any other behavioral change.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/system"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

const goldenFindingsPath = "testdata/golden_findings.txt"

// findingsSpecs are the advisor exhibits: the Fig. 9 pair plus a filter
// starved four ways below its default capacity.
func findingsSpecs(t *testing.T) []system.Spec {
	t.Helper()
	ov, err := config.ParseOverrides([]string{"filter_entries=4"})
	if err != nil {
		t.Fatal(err)
	}
	return []system.Spec{
		{System: config.CacheBased, Benchmark: "FT", Scale: workloads.Tiny, Cores: benchCores},
		{System: config.HybridReal, Benchmark: "FT", Scale: workloads.Tiny, Cores: benchCores},
		{System: config.HybridReal, Benchmark: "gups", Scale: workloads.Tiny, Cores: 4, Overrides: ov},
	}
}

// TestGoldenFindings runs every advisor exhibit with full observability
// (results + counter snapshot) and pins the rendered report.
func TestGoldenFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("advisor exhibits take ~1s")
	}
	var buf bytes.Buffer
	for _, spec := range findingsSpecs(t) {
		r, stats, err := spec.ExecuteContext(context.Background(), nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.Key(), err)
		}
		rep := analysis.Analyze(analysis.Input{
			Config: spec.Config(), Results: r, Stats: stats,
		})
		fmt.Fprintf(&buf, "==== %s ====\n", spec.Key())
		report.FindingsText(&buf, rep)
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenFindingsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFindingsPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenFindingsPath, buf.Len())
		return
	}

	want, err := os.ReadFile(goldenFindingsPath)
	if err != nil {
		t.Fatalf("missing golden file (run UPDATE_GOLDEN=1 go test -run TestGoldenFindings .): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("advisor output diverged from %s.\nIf the rule change is intended, regenerate with UPDATE_GOLDEN=1.\n%s",
			goldenFindingsPath, firstDiff(want, buf.Bytes()))
	}
}

// TestAnalysisHealthyRunQuiet asserts the advisor's negative space: a
// well-configured exhibit with every input supplied (results, counters, and
// a timeline) produces zero findings and zero skipped rules. The advisor
// must stay silent on healthy runs or nobody will read it.
func TestAnalysisHealthyRunQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full exhibit")
	}
	spec := system.Spec{System: config.HybridReal, Benchmark: "CG",
		Scale: workloads.Tiny, Cores: benchCores}
	rec := telemetry.NewRecorder(1000, 0)
	r, stats, err := spec.ExecuteContext(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	series := rec.Series()
	rep := analysis.Analyze(analysis.Input{
		Config: spec.Config(), Results: r, Stats: stats, Series: &series,
	})
	if len(rep.Findings) != 0 {
		var buf bytes.Buffer
		report.FindingsText(&buf, rep)
		t.Fatalf("healthy %s fired findings:\n%s", spec.Key(), buf.String())
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("full input still skipped %v", rep.Skipped)
	}
}
