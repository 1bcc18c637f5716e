// Command hybridsimd is the simulation daemon: it serves the Spec/runner
// core over HTTP with a content-addressed result cache, so a fixed
// evaluation matrix re-requested many times costs one pass of simulation.
//
// Serve mode (default):
//
//	hybridsimd -addr :8080 -workers 8 -cache-entries 512 -cache-dir ./results
//
// Fleet mode federates daemons into a consistent-hash cluster (every member
// lists the same -peers set; placement needs no coordinator):
//
//	hybridsimd -addr :8080 -node-id a -peers a=http://hostA:8080,b=http://hostB:8080
//	hybridsimd -addr :8080 -node-id b -peers a=http://hostA:8080,b=http://hostB:8080
//
// Client mode (-client URL) drives a running daemon, for CI smoke tests and
// shell pipelines:
//
//	hybridsimd -client http://127.0.0.1:8080 -bench CG -system hybrid -scale tiny -cores 4
//	hybridsimd -client http://127.0.0.1:8080 -bench CG -set l1d_size=65536
//	hybridsimd -client http://127.0.0.1:8080 -bench stream:stride=128 -scale tiny -cores 4
//	hybridsimd -client http://127.0.0.1:8080 -bench all -system all -scale tiny -cores 4
//	hybridsimd -client http://127.0.0.1:8080 -bench IS -sweep filter_entries=16,32,48 -scale tiny -cores 4
//	hybridsimd -client http://127.0.0.1:8080 -bench ptrchase -wsweep hot_pct=0,50,100 -scale tiny -cores 4
//	hybridsimd -client http://127.0.0.1:8080 -stats
//	hybridsimd -workloads
//
// The client's run flags are hybridsim's (internal/cli), and a command
// line names the same request in both: one run, a sweep (any -sweep or
// -wsweep axis, or -bench/-system all), or with -plan a question whose
// every probe lands in the daemon's cache:
//
//	hybridsimd -client http://127.0.0.1:8080 -plan knee -bench IS -scale tiny -cores 4 \
//	    -sweep filter_entries=4,8,12,16,20,24,28,32,36,40,44,48,52,56,60,64 \
//	    -objective 'hit_ratio~0.99'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/planner"
	"repro/internal/report"
	"repro/internal/rescache"
	"repro/internal/service"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	f := cli.Register(flag.CommandLine, cli.All...)
	// Serve-mode flags.
	addr := flag.String("addr", ":8080", "serve mode: HTTP listen address")
	queue := flag.Int("queue", service.DefaultQueueDepth, "job queue depth; a full queue sheds submissions with 429")
	cacheEntries := flag.Int("cache-entries", service.DefaultCacheEntries, "in-memory result cache capacity (specs)")
	cacheDir := flag.String("cache-dir", "", "directory for the on-disk result tier (empty = memory only)")
	timelineCap := flag.Int("timeline-cap", service.DefaultTimelineCap, "retained run timelines; past it the oldest is dropped")
	pprofOn := flag.Bool("pprof", false, "serve mode: expose Go profiling handlers under /debug/pprof/ (opt-in)")
	nodeID := flag.String("node-id", "", "fleet mode: this daemon's member ID (must appear in -peers)")
	peers := flag.String("peers", "", "fleet mode: static membership, id=url,id=url,... (identical on every member)")

	// Client-mode flags.
	client := flag.String("client", "", "client mode: base URL of a running daemon")
	stats := flag.Bool("stats", false, "client mode: print daemon stats and exit")
	retries := flag.Int("retries", 2, "client mode: automatic retries after a load-shed (429) or unavailable (503) answer")
	if err := f.Parse(os.Args[1:]); err != nil {
		fatalf("%v", err)
	}
	if f.PrintInfo("hybridsimd") {
		return
	}
	if *client != "" {
		runClient(*client, f, *stats, *retries)
		return
	}
	serve(*addr, f.Workers, *queue, *cacheEntries, *cacheDir, *timelineCap, *pprofOn, *nodeID, *peers)
}

// parsePeers decodes the -peers membership list ("id=url,id=url,...").
func parsePeers(s string) ([]cluster.Node, error) {
	var nodes []cluster.Node
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		if !ok || id == "" || u == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", part)
		}
		nodes = append(nodes, cluster.Node{ID: id, URL: strings.TrimRight(u, "/")})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return nodes, nil
}

// serve runs the daemon until SIGINT/SIGTERM, then drains gracefully:
// in-flight HTTP requests (including forwarded peer work) first, then the
// cluster's outstanding transfers, then the worker pool.
func serve(addr string, workers, queue, cacheEntries int, cacheDir string, timelineCap int, pprofOn bool, nodeID, peers string) {
	cache, err := rescache.New(cacheEntries, cacheDir)
	if err != nil {
		fatalf("%v", err)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	cache.SetLogger(log)

	var cl *cluster.Cluster
	if peers != "" {
		if nodeID == "" {
			fatalf("-peers requires -node-id")
		}
		nodes, err := parsePeers(peers)
		if err != nil {
			fatalf("%v", err)
		}
		if cl, err = cluster.New(cluster.Options{Self: nodeID, Peers: nodes, Log: log}); err != nil {
			fatalf("%v", err)
		}
	} else if nodeID != "" {
		fatalf("-node-id requires -peers")
	}

	srv := service.New(service.Options{Workers: workers, QueueDepth: queue, Cache: cache,
		TimelineCap: timelineCap, Log: log, Cluster: cl})
	defer srv.Close()

	handler := srv.Handler()
	if pprofOn {
		// Opt-in profiling endpoints: live CPU/heap/goroutine profiles of
		// a serving daemon without restarting it.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{Addr: addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
	}()

	fmt.Fprintf(os.Stderr, "hybridsimd listening on %s (cache %d entries", addr, cacheEntries)
	if cacheDir != "" {
		fmt.Fprintf(os.Stderr, " + disk tier %s", cacheDir)
	}
	if cl != nil {
		fmt.Fprintf(os.Stderr, ", fleet member %s", nodeID)
	}
	fmt.Fprintln(os.Stderr, ")")
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatalf("%v", err)
	}
	// ListenAndServe returns the instant Shutdown begins, while in-flight
	// handlers — including requests forwarded here by fleet peers — are
	// still draining. Wait for Shutdown to finish before tearing anything
	// down, so a drain-window request is answered, not cancelled mid-run;
	// then stop the cluster's own outstanding transfers, and only then
	// (via the deferred Close) the worker pool.
	<-shutdownDone
	if cl != nil {
		cl.Close()
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		cl.Drain(drainCtx)
		cancel()
	}
	fmt.Fprintln(os.Stderr, "hybridsimd: shut down")
}

// runClient sends the request the run flags name to a running daemon, or
// with -stats prints the daemon's counters.
func runClient(base string, f *cli.Flags, stats bool, retries int) {
	c := &service.Client{Base: base, Retries: retries}
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		fatalf("daemon not healthy: %v", err)
	}
	if stats {
		st, err := c.Stats(ctx)
		if err != nil {
			fatalf("%v", err)
		}
		total := st.Cache.Hits + st.Cache.Misses
		rate := 0.0
		if total > 0 {
			rate = float64(st.Cache.Hits) / float64(total)
		}
		fmt.Printf("cache: entries=%d/%d hits=%d (mem=%d disk=%d dedup=%d) misses=%d hit-rate=%.2f%%\n",
			st.Cache.Entries, st.Cache.Capacity, st.Cache.Hits, st.Cache.MemHits,
			st.Cache.DiskHits, st.Cache.Dedup, st.Cache.Misses, rate*100)
		fmt.Printf("queue: depth=%d/%d workers=%d\n", st.QueueDepth, st.QueueCap, st.Workers)
		fmt.Printf("runs:  submitted=%d completed=%d failed=%d rejected=%d\n",
			st.Submitted, st.Completed, st.Failed, st.Rejected)
		return
	}
	req, err := f.Request()
	if err != nil {
		fatalf("%v", err)
	}

	switch {
	case req.Plan != nil:
		var probes []planner.Probe
		v, err := c.Plan(ctx, *req.Plan, f.Timeout, func(p planner.Probe) error {
			probes = append(probes, p)
			return nil
		})
		if err != nil {
			fatalf("%v", err)
		}
		report.PlanText(os.Stdout, probes, v)

	case req.Matrix != nil:
		sum, err := c.Sweep(ctx, *req.Matrix, f.Timeout,
			func(rec service.RunRecord) error {
				if rec.Status != "done" || rec.Results == nil {
					fmt.Printf("[%d/%d] %s %s: %s\n", rec.Index+1, rec.Total, rec.Spec.Key(), rec.Status, rec.Error)
					return nil
				}
				fmt.Printf("[%d/%d] %s cycles=%d cached=%v wall=%.1fms\n",
					rec.Index+1, rec.Total, rec.Spec.Key(), rec.Results.Cycles, rec.Cached, rec.WallMS)
				return nil
			})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("sweep: %d runs, %d failed, %.1fs wall, cache hit-rate %s\n",
			sum.Runs, sum.Failed, sum.WallMS/1000, hitRate(sum.Cache))
		if sum.Analysis != nil {
			report.SweepFindingsText(os.Stdout, *sum.Analysis)
		}
		if sum.Failed > 0 {
			os.Exit(1)
		}

	default:
		spec := *req.Spec
		rec, err := c.Run(ctx, spec, f.Timeout)
		if err != nil {
			fatalf("%v", err)
		}
		r := rec.Results
		fmt.Printf("%s key=%s cached=%v wall=%.1fms\n", spec.Key(), rec.Key, rec.Cached, rec.WallMS)
		fmt.Printf("  cycles=%d retired=%d packets=%d energy=%.0f\n",
			r.Cycles, r.Retired, r.TotalPkts, r.Energy.Total())
		if f.Analyze {
			rep, err := c.Analysis(ctx, rec.Key)
			if err != nil {
				fatalf("%v", err)
			}
			report.FindingsText(os.Stdout, rep)
		}
	}
}

func hitRate(st rescache.Stats) string {
	total := st.Hits + st.Misses
	if total == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", float64(st.Hits)/float64(total)*100)
}
