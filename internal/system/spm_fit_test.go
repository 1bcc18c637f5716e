package system

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/workloads"
)

// TestSPMDirEntriesNeverPanics sweeps the SPMDir capacity across every
// workload and machine at tiny scale: each Spec that passes validation
// must come back with Results or an error, never a panic. Small SPMDirs
// used to pass validation and then crash mid-run, either programming a
// buffer size the SPMDir cannot cover (core.SetBufSize) or laying out more
// buffer bytes than the SPM holds (spm.CoreOf).
func TestSPMDirEntriesNeverPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full spmdir_entries x workload x system grid")
	}
	entries := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 20, 24, 31, 32, 48}
	systems := []config.MemorySystem{config.CacheBased, config.HybridReal, config.HybridIdeal}
	for _, bench := range workloads.Names() {
		for _, sys := range systems {
			for _, n := range entries {
				spec := Spec{System: sys, Benchmark: bench, Scale: workloads.Tiny, Cores: 4,
					Overrides: config.Overrides{SPMDirEntries: n}}
				t.Run(fmt.Sprintf("%s/%s/spmdir=%d", bench, sys, n), func(t *testing.T) {
					t.Parallel()
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("panic: %v", p)
						}
					}()
					res, err := spec.Execute()
					if err == nil && res.Cycles == 0 {
						t.Fatal("no error and no cycles")
					}
				})
			}
		}
	}
}
