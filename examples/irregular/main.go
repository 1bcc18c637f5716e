// Irregular: a CG-style sparse kernel — the workload class that motivates
// the whole design. Streams (matrix values/columns) go to the SPMs by DMA;
// the indirect gather x[col[j]] cannot be analyzed, so it runs guarded. The
// example compares the three machines and shows where the filter earns its
// keep.
//
//	go run ./examples/irregular
package main

import (
	"fmt"
	"log"

	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/system"
)

func sparseKernel() *compiler.Benchmark {
	vals := &compiler.Array{Name: "vals", Base: 0x1000_0000, Size: 2 << 20}
	cols := &compiler.Array{Name: "cols", Base: 0x1020_0000, Size: 2 << 20}
	x := &compiler.Array{Name: "x", Base: 0x1040_0000, Size: 128 << 10}
	return &compiler.Benchmark{
		Name:    "spmv",
		Repeats: 2, // iterative solver: the same matrix every iteration
		Arrays:  []*compiler.Array{vals, cols, x},
		Kernels: []compiler.Kernel{{
			Name:       "gather",
			Iters:      256 << 10,
			ComputeOps: 16,
			Refs: []compiler.Ref{
				{Name: "vals", Array: vals, Pattern: compiler.Strided},
				{Name: "cols", Array: cols, Pattern: compiler.Strided},
				// x[col[j]]: random, may alias, strong row locality.
				{Name: "x", Array: x, Pattern: compiler.Random,
					MayAliasSPM: true, HotFraction: 0.92, HotBytes: 8 << 10},
			},
		}},
	}
}

func main() {
	bench := sparseKernel()
	const cores = 16

	type row struct {
		name string
		sys  config.MemorySystem
	}
	rows := []row{
		{"cache-based", config.CacheBased},
		{"hybrid+ideal", config.HybridIdeal},
		{"hybrid+protocol", config.HybridReal},
	}

	fmt.Printf("%-16s %-10s %-10s %-9s %-11s %-8s\n",
		"system", "cycles", "packets", "energy", "filter-hit", "guarded")
	var cacheCycles uint64
	for _, rw := range rows {
		m, err := system.Build(system.Spec{System: rw.sys, Cores: cores}.Config(), bench, system.DefaultSeed)
		if err != nil {
			log.Fatal(err)
		}
		r, err := m.Run(0)
		if err != nil {
			log.Fatal(err)
		}
		if rw.sys == config.CacheBased {
			cacheCycles = r.Cycles
		}
		filter := "-"
		if rw.sys == config.HybridReal {
			filter = fmt.Sprintf("%.2f%%", r.FilterHitRatio*100)
		}
		fmt.Printf("%-16s %-10d %-10d %-9.0f %-11s %-8d\n",
			rw.name, r.Cycles, r.TotalPkts, r.Energy.Total()/1e6, filter,
			r.NoCPackets[noc.CohProt])
		if rw.sys == config.HybridReal {
			fmt.Printf("  -> speedup vs cache %.2fx; control/sync/work = %d/%d/%d cycles\n",
				float64(cacheCycles)/float64(r.Cycles),
				r.PhaseCycles[isa.PhaseControl], r.PhaseCycles[isa.PhaseSync],
				r.PhaseCycles[isa.PhaseWork])
		}
	}
	fmt.Println("\nThe protocol column ('guarded') is the CohProt traffic that buys the")
	fmt.Println("compiler the right to map the streams to SPMs despite the x[col[j]] hazard —")
	fmt.Println("and it costs almost nothing next to ideal coherence. Whether the hybrid")
	fmt.Println("system then wins on time depends on the stream/guarded mix (here the kernel")
	fmt.Println("is guarded-heavy, the hybrid's weakest case; see EXPERIMENTS.md).")
}
