// Package repro is a from-scratch Go reproduction of "Coherence Protocol
// for Transparent Management of Scratchpad Memories in Shared Memory
// Manycore Architectures" (Alvarez et al., ISCA 2015).
//
// The simulator, protocol and workloads live under internal/; runnable
// entry points are cmd/hybridsim, cmd/experiments, the cmd/hybridsimd
// daemon and the examples/ mains. bench_test.go in this directory
// regenerates every table and figure of the paper's evaluation as
// testing.B benchmarks (scaled down); use cmd/experiments for the
// full-size runs:
//
//	go run ./cmd/experiments -scale tiny -workers 8
//
// Sweeps are declarative: a run is a system.Spec value — a workload from
// the registry of named, parameterized generators (workloads.Entries: the
// NAS six plus synthetic stream/stencil/ptrchase/transpose/reduce/gups)
// and a typed config.Overrides that can retarget any machine knob by name
// (the config.Knobs registry) — and internal/runner fans a []Spec across a
// worker pool with byte-identical output for any worker count. runner.Axes
// enumerates workload x system x knob x workload-param cross products.
// The commands share one set of run flags (internal/cli: -bench, -system,
// -set, repeatable -sweep / -wsweep axes, ...) that parse into the same
// Spec, Matrix or PlanRequest a daemon client sends:
//
//	specs, err := runner.Axes{
//		Benchmarks: []string{"stream:streams=4"},
//		Scale:      workloads.Small,
//		Knobs:      []runner.KnobAxis{{Name: "l1d_size", Values: []int{16384, 32768}}},
//		WParams:    []runner.ParamAxis{{Name: "stride", Values: []int{8, 128}}},
//	}.Specs()
//	results, err := runner.Collect(runner.Run(specs, runner.Options{Workers: 8}))
//	report.SweepCSV(os.Stdout, specs, results) // one column per swept knob and param
//
// Because a run is a pure function of its Spec, results memoize safely:
// cmd/hybridsimd serves the same core over HTTP behind a content-addressed
// cache (internal/rescache + internal/service), so repeated requests for a
// Spec cost one simulation in total.
//
// See README.md for the quickstart and DESIGN.md for methodology.
package repro
