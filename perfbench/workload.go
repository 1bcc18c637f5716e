package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"repro/internal/config"
	"repro/internal/service"
	"repro/internal/system"
	"repro/internal/workloads"
)

// workload is one input set of the benchmark: a family of Specs on the
// paper's 64-core Table 1 machine at Tiny scale. BENCHMARK.json records why
// each was chosen.
type workload struct {
	name    string
	benches []string
	systems []config.MemorySystem
}

var (
	allSystems = []config.MemorySystem{config.CacheBased, config.HybridReal, config.HybridIdeal}
	hybrids    = []config.MemorySystem{config.HybridReal, config.HybridIdeal}
)

var workloadTable = []*workload{
	// The paper's exhibits: the core, NoC and coherence models do the work
	// and the SPM protocol is nearly idle.
	{
		name:    "nas-matrix",
		benches: workloads.NAS(),
		systems: allSystems,
	},
	// Guarded remote-SPM accesses and FilterDir broadcasts make the paper's
	// protocol the hot layer; hybrid-ideal is its twin without it.
	{
		name:    "protocol-stress",
		benches: []string{"ptrchase", "gups"},
		systems: hybrids,
	},
}

func lookupWorkload(name string) (*workload, error) {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// specs is the workload's family on the Spec seed derived from the
// benchmark seed: seed 0 keeps system.DefaultSeed, whose Results are pinned.
func (w *workload) specs(seed uint64) []system.Spec {
	var out []system.Spec
	for _, b := range w.benches {
		for _, s := range w.systems {
			sp := system.Spec{System: s, Benchmark: b, Scale: workloads.Tiny}
			if seed != 0 {
				sp.Seed = coldSeed(seed)
			}
			out = append(out, sp)
		}
	}
	return out
}

// The daemon operations every round times besides the hits. The sweep and
// the plan are the service's cold paths and do not depend on the workload;
// the single cold requests use tiny 8-core Specs so a round stays short.
var (
	// sweepMatrix is the cold 12-point GET /v1/sweep: 4 kernels x 3
	// memory systems on an 8-core machine at Small scale, about a second of
	// simulation on the daemon's 2 workers.
	sweepMatrix = service.Matrix{
		Benchmarks: serviceBenches,
		Systems:    systemNames(allSystems),
		Scale:      "small",
		Cores:      serviceCores,
	}
	serviceBenches = []string{"stream", "stencil", "reduce", "EP"}
)

const (
	serviceCores = 8
	planBench    = "IS" // the Fig9 filter-knee question
	minRounds    = 3    // every per-round metric is a median of at least three
	hitsPerRound = 2000
)

// runWorkload is the timed loop: rounds until the run's time is spent. A
// round is one serial in-process pass over the workload's Specs, then a
// burst of cached hits on those Specs through the daemon, one cold request
// per service kernel, a cold sweep and a cold plan. On a traced run every
// second round is profiled, so traced and untraced passes interleave under
// the same host conditions.
func runWorkload(ctx context.Context, w *workload, o options, c *checker, prof *profiler, r *run) error {
	specs := w.specs(o.seed)
	d := startDaemon(ctx)
	defer d.close()
	var family []system.Spec // Specs that ran; the daemon caches their Results
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < o.dur; round++ {
		traced := prof.on && round%2 == 1
		if traced {
			if err := prof.start(); err != nil {
				return err
			}
		}
		ps := simPass(ctx, specs)
		r.addPass(ctx, specs, ps, c, traced)
		if round == 0 {
			c.transparent(specs, ps.results)
			r.counts = layerCounts(specs, ps)
			for i, sp := range specs {
				if ps.errs[i] == nil {
					d.srv.Cache().Put(sp, ps.results[i])
					family = append(family, sp)
				}
			}
			if len(family) == 0 {
				return fmt.Errorf("no Spec of %s ran", w.name)
			}
		}

		lat, burst := hitLoop(ctx, d, hitsPerRound, func(i int64) system.Spec {
			return family[splitmix64(uint64(i))%uint64(len(family))]
		}, c)
		r.hit = append(r.hit, lat...)
		r.rps = append(r.rps, hitsPerRound/burst.wall)
		r.hitCPU = append(r.hitCPU, burst.cpu/hitsPerRound*1e6)

		for i, b := range serviceBenches {
			sp := system.Spec{System: config.HybridReal, Benchmark: b, Scale: workloads.Tiny, Cores: serviceCores,
				Seed: coldSeed(o.seed ^ splitmix64(uint64(round*len(serviceBenches)+i)))}
			t := time.Now()
			rec, err := d.cl.Run(ctx, sp, 0)
			ms := time.Since(t).Seconds() * 1e3
			if err == nil && rec.Cached {
				err = fmt.Errorf("cold request answered from cache")
			}
			if c.result(sp, resultsOf(rec), err) {
				r.runMS = append(r.runMS, rec.WallMS)
				r.overheadMS = append(r.overheadMS, ms-rec.WallMS)
			}
		}
		sweep(ctx, c, r)
		plan(ctx, c, r)
		prof.stop()
	}
	r.tracedHops = r.counts["noc.flit_hops"] * float64(len(r.tracedCPU))
	st, err := d.cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	r.counts["rescache.hit_ratio"] = ratio(float64(st.Cache.Hits), float64(st.Cache.Hits+st.Cache.Misses))
	r.counts["service.rejected"] = float64(st.Rejected)
	return nil
}

// addPass checks one pass's Results and files its samples: with the
// untraced samples, or, for a profiled pass, only as a traced run time.
func (r *run) addPass(ctx context.Context, specs []system.Spec, ps passStats, c *checker, traced bool) {
	pprof.Do(ctx, pprof.Labels("stage", "check"), func(context.Context) {
		for i, sp := range specs {
			c.result(sp, ps.results[i], ps.errs[i])
		}
	})
	if traced {
		r.tracedCPU = append(r.tracedCPU, ps.sim.cpu)
		return
	}
	r.setup = append(r.setup, ps.setup().cpu)
	r.runCPU = append(r.runCPU, ps.sim.cpu)
	r.wall = append(r.wall, ps.sim.wall)
	r.mips = append(r.mips, ratio(float64(ps.retired()), ps.sim.cpu)/1e6)
	r.alloc = append(r.alloc, ps.alloc/1e6)
	r.heap = append(r.heap, ps.heap/1e6)
	for i, sp := range specs {
		r.specCPU[sp.Key()] = append(r.specCPU[sp.Key()], ps.perSpec[i].cpu*1e3)
		r.specWall[sp.Key()] = append(r.specWall[sp.Key()], ps.perSpec[i].wall*1e3)
	}
	r.sysBuild = append(r.sysBuild, ps.build.cpu)
	r.genBuild = append(r.genBuild, ps.gen.cpu)
	r.gcCycles = append(r.gcCycles, ps.gcCycles)
	if ev := ps.totalEvents(); ev > 0 {
		r.nsPerEvent = append(r.nsPerEvent, ps.sim.cpu*1e9/float64(ev))
	}
}
