package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/planner"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/system"
)

// clients is the closed-loop client count: one per host CPU of the 2-CPU
// machine the benchmark is sized for.
const clients = 2

// daemon is one in-process hybridsimd: a service.Server behind an
// httptest listener, and a client with enough idle connections for the
// load generators and the stats poller.
type daemon struct {
	srv *service.Server
	hs  *httptest.Server
	cl  *service.Client
}

// startDaemon starts a server with two workers. Its goroutines (workers,
// listener, connection handlers) are created inside the "serve" label, so
// their profile samples carry it.
func startDaemon(ctx context.Context) *daemon {
	d := &daemon{}
	pprof.Do(ctx, pprof.Labels("stage", "serve"), func(context.Context) {
		d.srv = service.New(service.Options{Workers: clients})
		d.hs = httptest.NewServer(d.srv.Handler())
	})
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * clients}
	d.cl = &service.Client{Base: d.hs.URL, HTTP: &http.Client{Transport: tr}}
	return d
}

func (d *daemon) close() {
	d.hs.Close()
	d.srv.Close()
	d.cl.HTTP.CloseIdleConnections()
}

// statsPoller samples GET /v1/stats every 100ms to find the deepest job
// queue the run produced.
type statsPoller struct {
	cancel context.CancelFunc
	done   chan struct{}
	max    int
}

func pollStats(ctx context.Context, d *daemon) *statsPoller {
	ctx, cancel := context.WithCancel(ctx)
	p := &statsPoller{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if st, err := d.cl.Stats(ctx); err == nil && st.QueueDepth > p.max {
					p.max = st.QueueDepth
				}
			}
		}
	}()
	return p
}

// stop ends polling and returns the deepest queue seen.
func (p *statsPoller) stop() int {
	p.cancel()
	<-p.done
	return p.max
}

// sweep times the cold 12-point GET /v1/sweep on a fresh daemon and checks
// every streamed result.
func sweep(ctx context.Context, c *checker, r *run) {
	d := startDaemon(ctx)
	defer d.close()
	poll := pollStats(ctx, d)
	t0 := now()
	var runs []service.RunRecord
	sum, err := d.cl.Sweep(ctx, sweepMatrix, 0, func(rec service.RunRecord) error {
		runs = append(runs, rec)
		return nil
	})
	el := t0.to(now())
	r.queueMax = max(r.queueMax, poll.stop())
	if err == nil && (sum.Failed > 0 || sum.Runs != len(runs)) {
		err = fmt.Errorf("%d runs, %d failed, %d streamed", sum.Runs, sum.Failed, len(runs))
	}
	if !c.op("sweep", err) {
		return
	}
	for _, rec := range runs {
		c.result(rec.Spec, resultsOf(rec), recordErr(rec))
	}
	r.sweep = append(r.sweep, el.wall)
	r.sweepCPU = append(r.sweepCPU, el.cpu)
}

// plan asks the Fig9 filter-knee question — the smallest filter_entries on
// IS holding the hit ratio within the analyzer's knee slack of the best —
// through a cold POST /v1/plan on a fresh daemon. Every answer must match
// the run's first.
func plan(ctx context.Context, c *checker, r *run) {
	d := startDaemon(ctx)
	defer d.close()
	var vals []int
	for v := 4; v <= 64; v += 4 {
		vals = append(vals, v)
	}
	req := service.PlanRequest{
		Strategy:   "knee",
		Benchmark:  planBench,
		System:     "hybrid",
		Scale:      "tiny",
		Cores:      serviceCores,
		Sweep:      []runner.KnobAxis{{Name: "filter_entries", Values: vals}},
		Constraint: &planner.Constraint{Metric: "hit_ratio", SlackOfBest: analysis.KneeHitSlack},
	}
	t0 := now()
	v, err := d.cl.Plan(ctx, req, 0, func(planner.Probe) error { return nil })
	el := t0.to(now())
	if err == nil && (!v.Converged || v.Answer == nil) {
		err = fmt.Errorf("did not converge: %s", v.Reason)
	}
	if err == nil && r.planAnswer != "" && v.Answer.Key != r.planAnswer {
		err = fmt.Errorf("answer %s differs from earlier %s", v.Answer.Key, r.planAnswer)
	}
	if !c.op("plan", err) {
		return
	}
	r.planAnswer = v.Answer.Key
	r.plan = append(r.plan, el.wall)
	r.planCPU = append(r.planCPU, el.cpu)
	r.counts["planner.probes"] = float64(v.Probes)
	r.counts["planner.cache_hits"] = float64(v.CacheHits)
}

func resultsOf(rec service.RunRecord) system.Results {
	if rec.Results == nil {
		return system.Results{}
	}
	return *rec.Results
}

// recordErr turns a run record that did not finish into an error.
func recordErr(rec service.RunRecord) error {
	switch {
	case rec.Error != "":
		return errors.New(rec.Error)
	case rec.Status != "done" || rec.Results == nil:
		return fmt.Errorf("status %q", rec.Status)
	}
	return nil
}

// hitLoop sends n POST /v1/runs?wait=1 requests from `clients` closed-loop
// goroutines — each sends its next request as soon as its previous one
// returns — for the Specs next(i), which d must already hold. It returns the
// latencies (ms) of the answers that passed their checks, made after the
// loop so they do not slow it, and the time the n requests took.
func hitLoop(ctx context.Context, d *daemon, n int64, next func(i int64) system.Spec, c *checker) ([]float64, span) {
	type answer struct {
		spec system.Spec
		rec  service.RunRecord
		err  error
		ms   float64
	}
	var (
		counter atomic.Int64
		mu      sync.Mutex
		answers []answer
		wg      sync.WaitGroup
	)
	t0 := now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go pprof.Do(ctx, pprof.Labels("stage", "client"), func(ctx context.Context) {
			defer wg.Done()
			var mine []answer
			for i := counter.Add(1) - 1; i < n; i = counter.Add(1) - 1 {
				a := answer{spec: next(i)}
				t := time.Now()
				a.rec, a.err = d.cl.Run(ctx, a.spec, 0)
				a.ms = time.Since(t).Seconds() * 1e3
				mine = append(mine, a)
			}
			mu.Lock()
			answers = append(answers, mine...)
			mu.Unlock()
		})
	}
	wg.Wait()
	burst := t0.to(now())
	var lat []float64
	pprof.Do(ctx, pprof.Labels("stage", "check"), func(context.Context) {
		for _, a := range answers {
			if a.err == nil && !a.rec.Cached {
				a.err = fmt.Errorf("a request for a cached Spec simulated")
			}
			if c.result(a.spec, resultsOf(a.rec), a.err) {
				lat = append(lat, a.ms)
			}
		}
	})
	return lat, burst
}
