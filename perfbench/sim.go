package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/system"
	"repro/internal/workloads"
)

// mark is a point on both host clocks: wall time and the CPU time the
// process has used. On a shared host the hypervisor steals CPU from the
// guest for seconds at a time; wall time counts the stolen time and CPU
// time does not, so costs are gated on CPU time and latencies on wall time.
type mark struct {
	wall time.Time
	cpu  time.Duration
}

func now() mark {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err)) // RUSAGE_SELF cannot fail on a supported host
	}
	return mark{time.Now(), time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// span is the time between two marks, in seconds of each clock.
type span struct{ wall, cpu float64 }

func (m mark) to(n mark) span { return span{n.wall.Sub(m.wall).Seconds(), (n.cpu - m.cpu).Seconds()} }

func (s span) plus(t span) span { return span{s.wall + t.wall, s.cpu + t.cpu} }

// passStats is what one serial pass over a simulator workload's Specs
// measured. Byte counts are bytes.
type passStats struct {
	build, gen, sim span    // Σ system.Build, Σ workloads.BuildSpec, Σ Machine.Run
	alloc           float64 // bytes allocated inside Machine.Run
	heap            float64 // live heap held by the largest Machine after its run
	gcCycles        float64 // automatic GC cycles inside Machine.Run
	perSpec         []span  // build + run, by Spec index
	results         []system.Results
	errs            []error
	events          []uint64
	snaps           []map[string]uint64
}

func (p passStats) setup() span { return p.build.plus(p.gen) }

func (p passStats) retired() (n uint64) {
	for _, r := range p.results {
		n += r.Retired
	}
	return n
}

func (p passStats) totalEvents() (n uint64) {
	for _, e := range p.events {
		n += e
	}
	return n
}

func specSeed(sp system.Spec) uint64 {
	if sp.Seed != 0 {
		return sp.Seed
	}
	return system.DefaultSeed
}

// buildsPerSpec is how many times a pass builds each Spec's machine; its
// set-up times are the median build, and the last machine runs.
const buildsPerSpec = 3

// build makes sp's workload and machine, timing each step.
func build(ctx context.Context, sp system.Spec) (m *system.Machine, gen, wire span, err error) {
	pprof.Do(ctx, pprof.Labels("stage", "build"), func(context.Context) {
		t0 := now()
		var p map[string]int
		var bench *compiler.Benchmark
		if p, err = workloads.ParseParams(sp.Params); err != nil {
			return
		}
		if bench, err = workloads.BuildSpec(sp.Benchmark, p, sp.Scale); err != nil {
			return
		}
		t1 := now()
		m, err = system.Build(sp.Config(), bench, specSeed(sp))
		gen, wire = t0.to(t1), t1.to(now())
	})
	return m, gen, wire, err
}

// medianSpan is the median of each clock separately.
func medianSpan(xs []span) span {
	var w, c []float64
	for _, x := range xs {
		w, c = append(w, x.wall), append(c, x.cpu)
	}
	return span{medianOf(w), medianOf(c)}
}

// simPass builds and runs every Spec, serially. Before each build it
// collects garbage outside the timed regions, so one Spec's leftovers are
// not charged to the next and the live heap after the run is the Machine's.
func simPass(ctx context.Context, specs []system.Spec) passStats {
	ps := passStats{
		results: make([]system.Results, len(specs)),
		errs:    make([]error, len(specs)),
		perSpec: make([]span, len(specs)),
		events:  make([]uint64, len(specs)),
		snaps:   make([]map[string]uint64, len(specs)),
	}
	rt := newRuntimeCounters()
	for i, sp := range specs {
		var (
			m          *system.Machine
			gens, wire []span
			heap0      float64
			err        error
		)
		for k := 0; k < buildsPerSpec && err == nil; k++ {
			m = nil // let the collection free the previous build
			runtime.GC()
			heap0 = liveHeap()
			var g, w span
			m, g, w, err = build(ctx, sp)
			gens, wire = append(gens, g), append(wire, w)
		}
		if err != nil {
			ps.errs[i] = err
			continue
		}
		gen, bld := medianSpan(gens), medianSpan(wire)
		t2 := now()
		alloc0, gc0 := rt.read()
		pprof.Do(ctx, pprof.Labels("stage", "run"), func(ctx context.Context) {
			ps.results[i], err = m.RunContext(ctx, sp.MaxEvents)
		})
		t3 := now()
		alloc1, gc1 := rt.read()
		ps.errs[i] = err
		run := t2.to(t3)
		ps.gen = ps.gen.plus(gen)
		ps.build = ps.build.plus(bld)
		ps.sim = ps.sim.plus(run)
		ps.alloc += alloc1 - alloc0
		ps.gcCycles += gc1 - gc0
		ps.perSpec[i] = gen.plus(bld).plus(run)
		ps.events[i] = m.Eng.Fired()
		ps.snaps[i] = m.CounterSnapshot()
		runtime.GC()
		if h := liveHeap() - heap0; h > ps.heap {
			ps.heap = h
		}
		runtime.KeepAlive(m)
	}
	return ps
}

// layerCounts derives the per-layer work counts of one pass from Results
// and the machines' counter snapshots.
func layerCounts(specs []system.Spec, ps passStats) map[string]float64 {
	var (
		pkts, hops, retired, flushes, l1h, l1m, l2, dram float64
		fHit, fMiss, bcast, spmdir, dmaLines, spmAcc     float64
		evReal, evIdeal                                  float64
	)
	for i, sp := range specs {
		r, snap := ps.results[i], ps.snaps[i]
		pkts += float64(r.TotalPkts)
		hops += float64(r.NoCFlitHops)
		retired += float64(r.Retired)
		flushes += float64(r.Flushes)
		l1h += float64(r.L1DHits)
		l1m += float64(r.L1DMisses)
		l2 += float64(snap["coherence.l2.accesses"])
		dram += float64(snap["coherence.dram.reads"] + snap["coherence.dram.writes"])
		bcast += float64(r.FDirBroadcasts)
		spmdir += float64(snap["protocol.spmdir.lookups"])
		dmaLines += float64(r.DMALineTransfers)
		spmAcc += float64(snap["spm.accesses"])
		switch sp.System {
		case config.HybridReal:
			fHit += float64(snap["protocol.filter.hits"])
			fMiss += float64(snap["protocol.filter.misses"])
			evReal += float64(ps.events[i])
		case config.HybridIdeal:
			evIdeal += float64(ps.events[i])
		}
	}
	return map[string]float64{
		"sim.events":              float64(ps.totalEvents()),
		"noc.packets":             pkts,
		"noc.flit_hops":           hops,
		"cpu.retired":             retired,
		"cpu.flushes":             flushes,
		"coherence.l1d_hit_ratio": ratio(l1h, l1h+l1m),
		"coherence.l2_accesses":   l2,
		"coherence.dram_lines":    dram,
		"core.filter_hit_ratio":   ratio(fHit, fHit+fMiss),
		"core.fdir_broadcasts":    bcast,
		"core.spmdir_lookups":     spmdir,
		"core.event_ratio":        ratio(evReal, evIdeal),
		"dma.lines":               dmaLines,
		"spm.accesses":            spmAcc,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeCounters reads the allocation and GC-cycle totals without
// stopping the world.
type runtimeCounters struct{ s []metrics.Sample }

func newRuntimeCounters() *runtimeCounters {
	return &runtimeCounters{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/automatic:gc-cycles"},
	}}
}

func (rc *runtimeCounters) read() (allocBytes, gcCycles float64) {
	metrics.Read(rc.s)
	return float64(rc.s[0].Value.Uint64()), float64(rc.s[1].Value.Uint64())
}

// liveHeap is the heap in use; right after runtime.GC it is the live heap.
func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// coldSeed derives a Spec seed from h that is neither 0 (which means the
// default) nor system.DefaultSeed, so Specs on it are never pinned.
func coldSeed(h uint64) uint64 {
	s := splitmix64(h) | 1
	if s == system.DefaultSeed {
		s ^= 2
	}
	return s
}

// splitmix64 is a full-avalanche 64-bit mixer (Steele et al., SplitMix).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// systemNames spells systems by wire name, for Matrix requests.
func systemNames(ss []config.MemorySystem) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.String()
	}
	return out
}
