// Command hybridsim runs one benchmark on one machine configuration and
// prints its measurements, or sweeps and plans over such runs in-process.
//
// Usage:
//
//	hybridsim -bench CG -system hybrid -scale small
//	hybridsim -bench CG -system hybrid -set l1d_size=65536 -set mem_latency=200
//	hybridsim -bench IS -system hybrid -sweep filter_entries=16,32,48,64
//	hybridsim -bench stream:stride=128 -sweep cores=4,8
//	hybridsim -bench ptrchase -wsweep hot_pct=0,25,50,75,100
//	hybridsim -bench all -sweep spm_size=16384,32768,65536
//	hybridsim -plan knee -bench IS -sweep filter_entries=4,8,16,32,64 -objective 'hit_ratio~0.99'
//	hybridsim -workloads
//
// Systems: cache (baseline, 64KB L1D), hybrid (SPMs + the paper's coherence
// protocol), ideal (SPMs + oracle coherence). Every machine knob of
// config.Config can be overridden by name with -set (see -knobs), and every
// workload of the registry — the paper's NAS six plus the parameterized
// synthetic generators (-workloads lists them) — is addressable as
// "-bench name:param=value,...". The shared flags (internal/cli) name the
// same request a hybridsimd client sends: one run, or — with a -sweep or
// -wsweep axis, or -bench/-system all — a sweep printed as a per-column
// CSV, or with -plan a question answered by an internal/planner strategy.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/planner"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/system"
	"repro/internal/telemetry"
)

func main() {
	f := cli.Register(flag.CommandLine, cli.All...)
	showConfig := flag.Bool("config", false, "print the Table 1 machine description and exit")
	csv := flag.Bool("csv", false, "emit results as CSV")
	maxEvents := flag.Uint64("max-events", 0, "abort after this many simulation events (0 = unlimited)")
	listKnobs := flag.Bool("knobs", false, "list every -set/-sweep machine knob with its default and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	interval := flag.Uint64("interval", 0, "sample counters every N cycles into a time series (0 = off; single run only)")
	timelinePath := flag.String("timeline", "", "write the -interval time series here (.json = JSON, else CSV; default stdout CSV)")
	tracePath := flag.String("trace", "", "record an event trace here (.jsonl = JSON lines, else Chrome trace_event JSON for Perfetto)")
	traceEvents := flag.Int("trace-events", 1<<16, "event-trace ring-buffer capacity (oldest events drop first)")
	findingsPath := flag.String("findings", "", "write -analyze findings as JSON here (default: text after the report; CSV mode: text to stderr)")
	if err := f.Parse(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if f.PrintInfo("hybridsim") {
		return
	}

	if *listKnobs || *showConfig {
		spec, err := f.Spec()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *showConfig {
			// Spec.Config carries the same derived adjustments (mesh
			// re-dimensioning, controller cap) a real run would get.
			report.Table1(os.Stdout, spec.Config())
			return
		}
		def := config.ForSystem(spec.System)
		fmt.Printf("%-22s %s\n", "knob", "default ("+spec.System.String()+")")
		for _, k := range config.Knobs() {
			fmt.Printf("%-22s %d\n", k.Name, *k.Field(&def))
		}
		return
	}

	req, err := f.Request()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if req.Spec == nil && (*interval > 0 || *tracePath != "") {
		fmt.Fprintln(os.Stderr, "-interval/-trace apply to a single run, not a sweep or a plan")
		os.Exit(2)
	}

	ctx, cancel := f.Context()
	defer cancel()

	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	switch {
	case req.Plan != nil:
		runPlan(ctx, *req.Plan, *maxEvents)
		return
	case req.Matrix != nil:
		runSweep(ctx, *req.Matrix, *maxEvents, f.Workers)
		return
	}
	spec := *req.Spec
	spec.MaxEvents = *maxEvents

	// Telemetry: sampling (-interval) and tracing (-trace) ride one Recorder
	// attached to the machine; a run without either executes the exact same
	// code path as before (nil recorder).
	var rec *telemetry.Recorder
	if *interval > 0 || *tracePath != "" {
		events := 0
		if *tracePath != "" {
			events = *traceEvents
		}
		rec = telemetry.NewRecorder(*interval, events)
	}
	// The post-run counter snapshot feeds -analyze's advisor rules.
	r, stats, err := spec.ExecuteContext(ctx, rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulation failed: %v\n", err)
		stopProfiles()
		os.Exit(1)
	}
	export := func() {
		if rec == nil {
			return
		}
		if err := exportTelemetry(rec, *timelinePath, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			stopProfiles()
			os.Exit(1)
		}
	}
	advise := func(textOut *os.File) {
		if !f.Analyze {
			return
		}
		in := analysis.Input{Config: spec.Config(), Results: r, Stats: stats}
		if rec != nil && rec.Interval() > 0 {
			ts := rec.Series()
			in.Series = &ts
		}
		rep := analysis.Analyze(in)
		if *findingsPath != "" {
			f, err := os.Create(*findingsPath)
			if err == nil {
				err = report.FindingsJSON(f, rep)
				f.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				stopProfiles()
				os.Exit(1)
			}
			return
		}
		report.FindingsText(textOut, rep)
	}

	if *csv {
		report.CSV(os.Stdout, []system.Results{r})
		export()
		advise(os.Stderr) // keep stdout machine-readable
		return
	}

	fmt.Printf("%s on %s (%d cores, %s scale)\n", r.Benchmark, r.System, spec.Config().Cores, spec.Scale)
	if diff, ok := spec.ParamDiff(); ok && len(diff) > 0 {
		fmt.Print("  workload params ")
		for _, pv := range diff {
			fmt.Printf(" %s=%d", pv.Name, pv.Value)
		}
		fmt.Println()
	}
	if diff := spec.KnobDiff(); len(diff) > 0 {
		fmt.Print("  overrides       ")
		for _, kv := range diff {
			fmt.Printf(" %s=%d", kv.Name, kv.Value)
		}
		fmt.Println()
	}
	fmt.Printf("  cycles           %d\n", r.Cycles)
	fmt.Printf("  phase cycles     control=%d sync=%d work=%d\n",
		r.PhaseCycles[isa.PhaseControl], r.PhaseCycles[isa.PhaseSync], r.PhaseCycles[isa.PhaseWork])
	fmt.Printf("  retired instrs   %d\n", r.Retired)
	fmt.Printf("  NoC packets      %d (", r.TotalPkts)
	for c := noc.Category(0); c < noc.NumCategories; c++ {
		if c > 0 {
			fmt.Print(" ")
		}
		fmt.Printf("%s=%d", c, r.NoCPackets[c])
	}
	fmt.Println(")")
	e := r.Energy
	fmt.Printf("  energy (pJ)      total=%.0f cpus=%.0f caches=%.0f noc=%.0f others=%.0f spms=%.0f cohprot=%.0f\n",
		e.Total(), e.CPUs, e.Caches, e.NoC, e.Others, e.SPMs, e.CohProt)
	if spec.System == config.HybridReal {
		fmt.Printf("  filter hit ratio %.2f%%\n", r.FilterHitRatio*100)
		fmt.Printf("  LSQ flushes      %d\n", r.Flushes)
	}
	if spec.System != config.CacheBased {
		fmt.Printf("  DMA line xfers   %d\n", r.DMALineTransfers)
	}
	export()
	advise(os.Stdout)
}

// exportTelemetry writes the recorder's products: the sampled time series to
// timelinePath (.json = indented JSON, otherwise CSV; "" = CSV on stdout,
// after the run report) and the event trace to tracePath (.jsonl = JSON
// lines, otherwise Chrome trace_event JSON that Perfetto and chrome://tracing
// open directly).
func exportTelemetry(rec *telemetry.Recorder, timelinePath, tracePath string) error {
	if rec.Interval() > 0 {
		out := os.Stdout
		if timelinePath != "" {
			f, err := os.Create(timelinePath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		ts := rec.Series()
		var err error
		if strings.HasSuffix(timelinePath, ".json") {
			err = report.TimelineJSON(out, ts)
		} else {
			err = report.TimelineCSV(out, ts)
		}
		if err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
	}
	if tr := rec.Tracer(); tr != nil && tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		events := tr.Events()
		if strings.HasSuffix(tracePath, ".jsonl") {
			err = telemetry.WriteJSONL(f, events)
		} else {
			err = telemetry.WriteChromeTrace(f, events, map[string]string{
				"dropped": fmt.Sprint(tr.Dropped()),
			})
		}
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events to %s (%d dropped from the ring)\n",
			len(events), tracePath, tr.Dropped())
	}
	return nil
}

// startProfiles begins CPU profiling and/or arranges a post-run heap
// profile. The returned stop function is idempotent and must run before the
// process exits for the profiles to be complete.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		cpuFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}
}

// runSweep runs every point of the sweep m and prints the per-column CSV
// (report.SweepCSV).
func runSweep(ctx context.Context, m service.Matrix, maxEvents uint64, workers int) {
	specs, err := m.Specs()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for i := range specs {
		specs[i].MaxEvents = maxEvents
	}
	results, err := runner.Collect(runner.RunContext(ctx, specs, runner.Options{Workers: workers, Progress: os.Stderr}))
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep failed: %v\n", err)
		os.Exit(1)
	}
	if err := report.SweepCSV(os.Stdout, specs, results); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if m.Analyze {
		// Stderr keeps the CSV stream on stdout machine-readable.
		report.SweepFindingsText(os.Stderr, analysis.Sweep(specs, results))
	}
}

// runPlan answers the plan's question in-process: every probe simulates
// through planner.LocalProber, with no daemon and no cache.
func runPlan(ctx context.Context, req service.PlanRequest, maxEvents uint64) {
	q, err := req.Question()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	q.Axes.MaxEvents = maxEvents
	var probes []planner.Probe
	v, err := planner.Run(ctx, q, planner.LocalProber{}, func(p planner.Probe) error {
		probes = append(probes, p)
		fmt.Fprintf(os.Stderr, "probe %d: %s\n", p.Index, p.Key)
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "plan: %v\n", err)
		os.Exit(1)
	}
	report.PlanText(os.Stdout, probes, v)
}
