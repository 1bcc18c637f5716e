// Command perfbench is the repository's benchmark: it drives the simulator,
// the hybridsimd service, its result cache and the planner from outside,
// through their public functions, on one of three workloads, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	out      string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run accumulates one workload run's samples. Slices hold one sample per
// untraced pass, request or round; counts hold per-layer work counts. CPU
// times are the process's; wall times are the client's clock.
type run struct {
	setup, runCPU, mips, alloc, heap []float64            // CPU s, CPU s, MIPS, MB, MB
	wall                             []float64            // wall s of the pass's runs
	specCPU, specWall                map[string][]float64 // ms of build + run, by Spec.Key
	hit                              []float64            // wall ms per cached hit
	hitCPU, rps                      []float64            // per burst: CPU µs per hit, hits/s
	sweep, sweepCPU, plan, planCPU   []float64            // wall s, CPU s
	runMS, overheadMS                []float64            // ms per simulating request
	sysBuild, genBuild, gcCycles     []float64            // per untraced pass
	nsPerEvent                       []float64            // CPU ns of Machine.Run per event

	tracedCPU  []float64 // runCPU samples taken under the profiler
	tracedHops float64   // NoC flit hops simulated under the profiler

	queueMax   int
	planAnswer string
	counts     map[string]float64
}

// Output is everything a run measured; -out writes it for `compare`.
type Output struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Fingerprint Fingerprint        `json:"fingerprint"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedFrac  float64            `json:"failed_frac"`
	Problems    []string           `json:"problems,omitempty"`
	Metrics     map[string]metric  `json:"metrics"`
	Wall        map[string]metric  `json:"wall,omitempty"`
	Timings     map[string]Summary `json:"timings"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "pin" {
		if err := pinMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench pin:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: nas-matrix or protocol-stress")
	flag.Uint64Var(&o.seed, "seed", 0, "workload seed; 0 keeps the pinned default Spec seed")
	flag.IntVar(&secs, "seconds", 15, "how long the timed loop runs")
	flag.IntVar(&trace, "trace", 0, "1 profiles every second round and reports per-layer metrics")
	flag.StringVar(&o.out, "out", "", "also write the full result (timings, fingerprint) as JSON to this file")
	flag.Parse()
	o.dur = time.Duration(secs) * time.Second
	o.trace = trace == 1
	if flag.NArg() > 0 || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments; see -h")
		os.Exit(2)
	}
	if err := benchMain(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(o options, stdout io.Writer) error {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return errors.New("run from the root of the repository checkout")
	}
	pins, err := loadPinned(pinnedFile)
	if err != nil {
		return err
	}
	ctx := context.Background()
	c := newChecker(pins)
	prof := &profiler{on: o.trace}
	r := &run{counts: map[string]float64{}, specCPU: map[string][]float64{}, specWall: map[string][]float64{}}
	start := time.Now()
	err = runWorkload(ctx, w, o, c, prof, r)
	prof.stop()
	if err != nil {
		return err
	}
	out := Output{
		Workload:    w.name,
		Seed:        o.seed,
		Seconds:     time.Since(start).Seconds(),
		Trace:       o.trace,
		Fingerprint: fingerprint("."),
		Timings:     r.timings(),
	}
	out.Attempted, out.Failed, out.Problems = c.attempted, c.failed, c.problems
	out.Correct = out.Failed == 0
	out.FailedFrac = ratio(float64(out.Failed), float64(out.Attempted))
	if o.trace {
		a, err := prof.attribute()
		if err != nil {
			return err
		}
		out.Metrics = r.perLayer(a)
	} else {
		out.Metrics, out.Wall = r.endToEnd(), r.wallClock()
	}
	if o.out != "" {
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return report(stdout, out)
}

// timings is the distribution behind every timing metric.
func (r *run) timings() map[string]Summary {
	return map[string]Summary{
		"setup_cpu_s":         summarize(r.setup),
		"run_cpu_s":           summarize(r.runCPU),
		"wall_s":              summarize(r.wall),
		"hit_ms":              summarize(r.hit),
		"hit_cpu_us":          summarize(r.hitCPU),
		"spec_cpu_ms":         summarize(pooled(r.specCPU)),
		"spec_ms":             summarize(pooled(r.specWall)),
		"sweep_s":             summarize(r.sweep),
		"sweep_cpu_s":         summarize(r.sweepCPU),
		"plan_s":              summarize(r.plan),
		"plan_cpu_s":          summarize(r.planCPU),
		"service.run_ms":      summarize(r.runMS),
		"service.overhead_ms": summarize(r.overheadMS),
	}
}

// medianOfMedians is the median over the workload's Specs of each Spec's
// median. Pooling all samples instead would put the median on the boundary
// between two Specs' clusters, where it jumps between them from run to run.
func medianOfMedians(bySpec map[string][]float64) float64 {
	var meds []float64
	for _, xs := range bySpec {
		meds = append(meds, medianOf(xs))
	}
	return medianOf(meds)
}

func pooled(bySpec map[string][]float64) []float64 {
	var all []float64
	for _, xs := range bySpec {
		all = append(all, xs...)
	}
	return all
}

// endToEnd is the gated metric set of an untraced run. Costs are CPU time,
// which CPU stolen by the host's hypervisor does not move.
func (r *run) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":     {medianOf(r.setup), "s"},
		"run_cpu_s":   {medianOf(r.runCPU), "s"},
		"sim_mips":    {medianOf(r.mips), "MIPS"},
		"alloc_mb":    {medianOf(r.alloc), "MB"},
		"heap_mb":     {medianOf(r.heap), "MB"},
		"spec_cpu_ms": {medianOfMedians(r.specCPU), "ms"},
		"hit_p50_ms":  {medianOf(r.hit), "ms"},
		"hit_cpu_us":  {medianOf(r.hitCPU), "us"},
		"sweep_cpu_s": {medianOf(r.sweepCPU), "s"},
		"plan_cpu_s":  {medianOf(r.planCPU), "s"},
	}
}

// wallClock is the wall-clock view of the same work. It is printed and
// written by -out but not gated: on a host whose hypervisor steals CPU for
// seconds at a time these move by a fifth between runs of the same code.
func (r *run) wallClock() map[string]metric {
	return map[string]metric{
		"wall_s":         {medianOf(r.wall), "s"},
		"cold_p50_ms":    {medianOfMedians(r.specWall), "ms"},
		"hit_p90_ms":     {percentile(r.hit, 0.90), "ms"},
		"requests_per_s": {medianOf(r.rps), "1/s"},
		"sweep_s":        {medianOf(r.sweep), "s"},
		"plan_s":         {medianOf(r.plan), "s"},
	}
}

// perLayer is the metric set of a traced run: work counts, the profile's
// self-time shares by layer and by stage, and the tracing overhead.
func (r *run) perLayer(a attribution) map[string]metric {
	m := map[string]metric{}
	for _, k := range []string{
		"sim.events", "noc.packets", "noc.flit_hops", "cpu.retired", "cpu.flushes",
		"coherence.l2_accesses", "coherence.dram_lines", "core.fdir_broadcasts",
		"core.spmdir_lookups", "dma.lines", "spm.accesses", "service.rejected",
		"planner.probes", "planner.cache_hits",
	} {
		m[k] = metric{r.counts[k], "count"}
	}
	for _, k := range []string{
		"coherence.l1d_hit_ratio", "core.filter_hit_ratio", "core.event_ratio", "rescache.hit_ratio",
	} {
		m[k] = metric{r.counts[k], "ratio"}
	}
	for _, l := range layers {
		over := passStages
		if slices.Contains(serviceLayers, l) {
			over = daemonStages
		}
		m[l+".self_pct"] = metric{a.share(over, l), "%"}
	}
	for _, s := range stages {
		m["stage."+s+"_pct"] = metric{100 * ratio(float64(a.sum([]string{s}, "").n), float64(a.sum(nil, "").n)), "%"}
	}
	m["sim.ns_per_event"] = metric{medianOf(r.nsPerEvent), "ns"}
	m["noc.ns_per_flit_hop"] = metric{ratio(float64(a.sum(passStages, "noc").ns), r.tracedHops), "ns"}
	m["system.build_s"] = metric{medianOf(r.sysBuild), "s"}
	m["workloads.build_s"] = metric{medianOf(r.genBuild), "s"}
	m["runtime.gc_cycles"] = metric{medianOf(r.gcCycles), "count"}
	m["service.run_ms"] = metric{medianOf(r.runMS), "ms"}
	m["service.overhead_ms"] = metric{medianOf(r.overheadMS), "ms"}
	m["service.queue_depth_max"] = metric{float64(r.queueMax), "count"}
	over := 0.0
	if untraced := medianOf(r.runCPU); untraced > 0 && len(r.tracedCPU) > 0 {
		over = 100 * (medianOf(r.tracedCPU)/untraced - 1)
	}
	m["trace_overhead_pct"] = metric{over, "%"}
	return m
}

// report prints the human-readable lines, then the result line.
func report(w io.Writer, out Output) error {
	fp := out.Fingerprint
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v: %.1fs\n", out.Workload, out.Seed, out.Trace, out.Seconds)
	fmt.Fprintf(w, "host: %s | nproc=%d GOMAXPROCS=%d | %s | source %s\n", fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, fp.Source)
	fmt.Fprintf(w, "checks: %d attempted, %d failed (failed_frac %.4f)\n", out.Attempted, out.Failed, out.FailedFrac)
	for _, p := range out.Problems {
		fmt.Fprintf(w, "  FAIL %s\n", p)
	}
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	wnames := make([]string, 0, len(out.Wall))
	for k := range out.Wall {
		wnames = append(wnames, k)
	}
	sort.Strings(wnames)
	for _, k := range wnames {
		fmt.Fprintf(w, "  wall %-21s %14.6g %s\n", k, out.Wall[k].Value, out.Wall[k].Unit)
	}
	tnames := make([]string, 0, len(out.Timings))
	for k := range out.Timings {
		tnames = append(tnames, k)
	}
	sort.Strings(tnames)
	for _, k := range tnames {
		s := out.Timings[k]
		if s.N == 0 {
			continue
		}
		tail := "no tail above the median"
		if s.TailPct > 0 {
			tail = fmt.Sprintf("p%.0f %.6g", s.TailPct, s.Tail)
		}
		fmt.Fprintf(w, "  timing %-19s median %.6g, %s, n=%d\n", k, s.Median, tail, s.N)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, out.Metrics})
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
