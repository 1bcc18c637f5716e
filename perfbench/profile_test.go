package main

import (
	"context"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/workloads"
)

func TestLayerOf(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/noc.(*Mesh).SendCont":      "noc",
		"repro/internal/sim.(*Engine).Step":        "sim",
		"repro/internal/core.(*Protocol).step":     "core",
		"repro/internal/sim.push[go.shape.uint64]": "sim",
		"repro/internal/config.Config.Validate":    "other",
		"runtime.mallocgc":                         "runtime",
		"internal/runtime/maps.(*Map).getWithKey":  "runtime",
		"memeqbody":                            "runtime",
		"net/http.(*conn).serve":               "http",
		"encoding/json.(*encodeState).marshal": "http",
		"syscall.Syscall6":                     "http",
		"crypto/sha256.block":                  "other",
		"main.simPass":                         "other",
	} {
		if got := layerOf(sym); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

// Grouping a real CPU profile by layer attributes every sample exactly
// once: over any set of stages, the layer shares sum to 100%, and so do the
// stage shares over all samples.
func TestAttributionSumsTo100(t *testing.T) {
	p := &profiler{on: true}
	sp := system.Spec{System: config.HybridReal, Benchmark: "stream", Scale: workloads.Tiny, Cores: 4}
	var a attribution
	for deadline := time.Now().Add(10 * time.Second); a.sum(nil, "").n < 20 && time.Now().Before(deadline); {
		if err := p.start(); err != nil {
			t.Fatal(err)
		}
		pprof.Do(context.Background(), pprof.Labels("stage", "run"), func(context.Context) {
			if _, err := sp.Execute(); err != nil {
				t.Error(err)
			}
		})
		p.stop()
		var err error
		if a, err = p.attribute(); err != nil {
			t.Fatal(err)
		}
	}
	total := a.sum(nil, "").n
	if total == 0 {
		t.Skip("the profiler took no samples")
	}
	for _, set := range [][]string{nil, passStages} {
		sum := 0.0
		for _, l := range layers {
			sum += a.share(set, l)
		}
		if math.Abs(sum-100) > 1e-9 {
			t.Errorf("layer shares over stages %v sum to %v%%, want 100", set, sum)
		}
	}
	var byStage int64
	for _, s := range stages {
		byStage += a.sum([]string{s}, "").n
	}
	if byStage != total {
		t.Errorf("stages hold %d of %d samples", byStage, total)
	}
	if a.sum([]string{"run"}, "").n == 0 {
		t.Errorf("no sample carried the stage label: %v", a)
	}
}
