// Command experiments regenerates every table and figure of the paper's
// evaluation (Tables 1-2, Figures 7-11) plus the repository's ablation
// studies, writing text reports to stdout and CSV/JSON data to -out.
//
// The 18 machine simulations of the full matrix (6 benchmarks x 3 memory
// systems) are independent, so they fan out across -workers goroutines;
// results are identical for any worker count.
//
// Usage:
//
//	experiments                 # everything, 64 cores, small scale
//	experiments -only fig9      # one exhibit
//	experiments -cores 16 -scale tiny -workers 8   # quick parallel pass
//	experiments -set mem_latency=200               # every exhibit, slower DRAM
//
// Custom sweeps and plans are hybridsim's: hybridsim -bench all -sweep
// l1d_size=16384,32768,65536 sweeps every workload on the hybrid system.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/workloads"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	f := cli.Register(flag.CommandLine, cli.Exhibit...)
	only := flag.String("only", "", "run one exhibit: table1, table2, fig7, fig8, fig9, fig10, fig11, ablation")
	outPath := flag.String("out", "", "also write all results to this file (.csv, .json or .jsonl)")
	format := flag.String("format", "", "output format for -out: csv, json or jsonl (default: from the file extension)")
	if err := f.Parse(os.Args[1:]); err != nil {
		fatalf("%v", err)
	}
	if f.PrintInfo("experiments") {
		return
	}

	ctx, cancel := f.Context()
	defer cancel()

	// The machine every exhibit runs: Table 1 at -cores, with -set applied.
	base, err := f.Spec()
	if err != nil {
		fatalf("%v", err)
	}
	opt := runner.Options{Workers: f.Workers, Progress: os.Stderr}
	outFormat := ""
	if *outPath != "" {
		outFormat = sinkFormat(*format, *outPath)
		ok := false
		for _, fm := range report.Formats() {
			ok = ok || fm == outFormat
		}
		if !ok {
			// Reject before burning minutes of simulation on it.
			fatalf("unknown format %q (want one of %v)", outFormat, report.Formats())
		}
	}
	want := func(name string) bool { return *only == "" || *only == name }

	if want("table1") {
		// Materialize through Spec.Config so the printed machine matches
		// what the exhibit runs below actually simulate.
		report.Table1(os.Stdout, base.Config())
		fmt.Println()
	}
	if want("table2") {
		// Table 2 is the paper's exhibit: the NAS six. The synthetic
		// generators are listed by -workloads and characterized on demand.
		var benches []*compiler.Benchmark
		for _, n := range workloads.NAS() {
			benches = append(benches, workloads.Build(n, base.Scale))
		}
		report.Table2(os.Stdout, benches)
		fmt.Println()
	}

	needsRuns := false
	for _, ex := range []string{"fig7", "fig8", "fig9", "fig10", "fig11"} {
		if want(ex) {
			needsRuns = true
		}
	}
	if *outPath != "" && !needsRuns {
		// -out exports the benchmark-matrix results; fail before burning
		// minutes of simulation on a run that would silently write nothing.
		fatalf("-out exports the benchmark matrix, which -only %q never runs", *only)
	}
	if !needsRuns && !want("ablation") {
		return
	}

	var all []system.Results
	var allSpecs []system.Spec

	if needsRuns {
		names := workloads.NAS()
		specs, err := runner.Axes{
			Benchmarks: names,
			Systems:    runner.AllSystems,
			Scale:      base.Scale,
			Cores:      base.Cores,
			Base:       base.Overrides,
		}.Specs()
		if err != nil {
			fatalf("%v", err)
		}
		all, err = runner.Collect(runner.RunContext(ctx, specs, opt))
		if err != nil {
			fatalf("%v", err)
		}
		allSpecs = specs
		cacheRes := map[string]system.Results{}
		hybridRes := map[string]system.Results{}
		idealRes := map[string]system.Results{}
		for i, r := range all {
			switch specs[i].System {
			case config.CacheBased:
				cacheRes[r.Benchmark] = r
			case config.HybridReal:
				hybridRes[r.Benchmark] = r
			case config.HybridIdeal:
				idealRes[r.Benchmark] = r
			}
		}
		fmt.Println()
		if want("fig7") {
			report.Fig7(os.Stdout, names, hybridRes, idealRes)
			fmt.Println()
		}
		if want("fig8") {
			report.Fig8(os.Stdout, names, hybridRes)
			fmt.Println()
		}
		if want("fig9") {
			report.Fig9(os.Stdout, names, cacheRes, hybridRes)
			fmt.Println()
		}
		if want("fig10") {
			report.Fig10(os.Stdout, names, cacheRes, hybridRes)
			fmt.Println()
		}
		if want("fig11") {
			report.Fig11(os.Stdout, names, cacheRes, hybridRes)
			fmt.Println()
		}
	}

	if f.Analyze && needsRuns {
		// Per-run advisor pass over the benchmark matrix; results-only input,
		// so counter-level rules report as skipped (hybridsim -analyze has
		// them). Only runs with findings print.
		fmt.Println("Advisor findings across the benchmark matrix")
		any := false
		for i, r := range all {
			rep := analysis.Analyze(analysis.Input{Config: allSpecs[i].Config(), Results: r})
			if len(rep.Findings) == 0 {
				continue
			}
			any = true
			fmt.Printf("  %s:\n", allSpecs[i].Key())
			for _, f := range rep.Findings {
				fmt.Printf("    [%s] %s: %s\n", strings.ToUpper(string(f.Severity)), f.Rule, f.Message)
			}
		}
		if !any {
			fmt.Println("  none")
		}
		fmt.Println()
	}

	if want("ablation") {
		runAblation(ctx, base, opt, f.Analyze)
	}

	if *outPath != "" && len(all) > 0 {
		f, err := os.Create(*outPath)
		if err != nil {
			fatalf("cannot write %s: %v", *outPath, err)
		}
		defer f.Close()
		if err := report.WriteResults(f, outFormat, all); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *outPath)
	}
}

// sinkFormat resolves -format, falling back to the -out extension and then
// to CSV.
func sinkFormat(format, path string) string {
	if format != "" {
		return format
	}
	if strings.HasSuffix(path, ".jsonl") {
		return "jsonl"
	}
	if strings.HasSuffix(path, ".json") {
		return "json"
	}
	return "csv"
}

// runAblation sweeps the filter size on IS (the most filter-sensitive
// benchmark) on the base machine — the design-choice study DESIGN.md calls
// Ablation A. It is the fixed-axis special case of a hybridsim -sweep.
func runAblation(ctx context.Context, base system.Spec, opt runner.Options, analyze bool) {
	sizes := []int{8, 16, 32, 48, 64}
	specs, err := runner.Axes{
		Benchmarks: []string{"IS"},
		Systems:    []config.MemorySystem{config.HybridReal},
		Scale:      base.Scale,
		Cores:      base.Cores,
		Base:       base.Overrides,
		Knobs:      []runner.KnobAxis{{Name: "filter_entries", Values: sizes}},
	}.Specs()
	if err != nil {
		fatalf("ablation: %v", err)
	}
	results, err := runner.Collect(runner.RunContext(ctx, specs, opt))
	if err != nil {
		fatalf("ablation: %v", err)
	}
	fmt.Println("Ablation A: filter size sweep on IS (hybrid, real protocol)")
	fmt.Printf("  %-8s %-10s %-10s %-10s\n", "Entries", "HitRatio", "Cycles", "CohPkts")
	for i, r := range results {
		fmt.Printf("  %-8d %-10.4f %-10d %-10d\n",
			sizes[i], r.FilterHitRatio, r.Cycles, r.NoCPackets[noc.CohProt])
	}
	if analyze {
		report.SweepFindingsText(os.Stdout, analysis.Sweep(specs, results))
	}
}
