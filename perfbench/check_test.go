package main

import (
	"testing"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/workloads"
)

func pinned(t *testing.T) map[string]string {
	t.Helper()
	pins, err := loadPinned(pinnedFile)
	if err != nil {
		t.Fatal(err)
	}
	return pins
}

// The sweep's points are cheap enough to re-simulate: their pinned
// digests must still match what the simulator produces.
func TestPinnedDigestsCurrent(t *testing.T) {
	pins := pinned(t)
	specs, err := sweepMatrix.Specs()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		res, err := sp.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(res); got != pins[sp.Key()] {
			t.Errorf("%s: digest %s, pinned %q (regenerate with `perfbench pin`?)", sp.Key(), got, pins[sp.Key()])
		}
	}
}

// A Results that differs in any field from the pinned one counts as a
// failed operation.
func TestPerturbedDigestFails(t *testing.T) {
	specs, err := sweepMatrix.Specs()
	if err != nil {
		t.Fatal(err)
	}
	sp := specs[0]
	res, err := sp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	c := newChecker(pinned(t))
	if !c.result(sp, res, nil) {
		t.Fatalf("the simulator's own Results failed: %v", c.problems)
	}
	bad := res
	bad.Cycles++
	if c.result(sp, bad, nil) {
		t.Error("a perturbed Results passed")
	}
	if c.attempted != 2 || c.failed != 1 {
		t.Errorf("attempted %d failed %d, want 2 and 1", c.attempted, c.failed)
	}
}

// Off the default seed nothing is pinned, but a repeated Spec must repeat
// its first digest, and the protocol must not change what retires.
func TestRepeatAndTransparency(t *testing.T) {
	c := newChecker(nil)
	real := system.Spec{System: config.HybridReal, Benchmark: "EP", Scale: workloads.Tiny, Cores: 8, Seed: coldSeed(7)}
	ideal := real
	ideal.System = config.HybridIdeal
	r1 := system.Results{Cycles: 10, Retired: 5}
	r2 := system.Results{Cycles: 12, Retired: 5}
	if !c.result(real, r1, nil) || !c.result(ideal, r2, nil) || !c.result(real, r1, nil) {
		t.Fatalf("consistent results failed: %v", c.problems)
	}
	r1.FilterHitRatio = 0.5
	if c.result(real, r1, nil) {
		t.Error("a repeated Spec with a different digest passed")
	}
	c.transparent([]system.Spec{real, ideal}, []system.Results{{Retired: 5}, {Retired: 5}})
	c.transparent([]system.Spec{real, ideal}, []system.Results{{Retired: 5}, {Retired: 6}})
	if c.attempted != 6 || c.failed != 2 {
		t.Errorf("attempted %d failed %d, want 6 and 2", c.attempted, c.failed)
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a := Output{Workload: "nas-matrix", Fingerprint: Fingerprint{Host: Host{CPU: "x", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0"}, Source: "a"}}
	b := a
	b.Fingerprint.Source = "b"
	if err := comparable(a, b); err != nil {
		t.Errorf("same host, different source refused: %v", err)
	}
	b.Fingerprint.NProc = 4
	if err := comparable(a, b); err == nil {
		t.Error("different hosts compared")
	}
}
