package compiler_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/workloads"
)

// TestInstBufferBounded drains whole instruction streams of every NAS kernel
// at Tiny scale on the 64-core hybrid and cache-based machines and checks
// that the generator's buffer never outgrows one work chunk plus one tile's
// runtime calls, however many iterations a tile holds.
func TestInstBufferBounded(t *testing.T) {
	for _, sys := range []config.MemorySystem{config.HybridReal, config.CacheBased} {
		cfg := config.ForSystem(sys)
		for _, name := range workloads.NAS() {
			b := workloads.Build(name, workloads.Tiny)
			maxRefs := 0
			for _, k := range b.Kernels {
				maxRefs = max(maxRefs, len(k.Refs))
			}
			// A refill holds at most the kernel's buffer setup, one
			// MAP/put/get per ref, a sync per buffer, and a chunk of
			// (refs + compute) instructions per iteration; append may
			// round the capacity up to twice that.
			bound := 2 * (2 + 4*maxRefs + compiler.WorkChunkIters*(maxRefs+1))
			for _, core := range []int{0, cfg.Cores / 2, cfg.Cores - 1} {
				p := compiler.Generate(b, compiler.GenOptions{
					Cores: cfg.Cores, Core: core, Hybrid: cfg.HasSPM(),
					SPMSize: cfg.SPMSize, SPMDirEntries: cfg.SPMDirEntries,
					SPMBase: 1 << 40, StackBase: 1 << 30, Seed: 1,
				})
				n, peak := 0, 0
				for {
					if _, ok := p.Next(); !ok {
						break
					}
					n++
					peak = max(peak, compiler.BufCap(p))
				}
				if n == 0 {
					t.Fatalf("%s %v core %d: empty stream", name, sys, core)
				}
				if peak > bound {
					t.Errorf("%s %v core %d: buffer capacity reached %d insts, bound %d",
						name, sys, core, peak, bound)
				}
			}
		}
	}
}
