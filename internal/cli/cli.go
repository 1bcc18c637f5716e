// Package cli declares the run flags the commands share — once, each with
// one help text and one default — and parses them into the request values
// the daemon accepts: a system.Spec for one run, a service.Matrix for a
// sweep and a service.PlanRequest for a plan. A command line run locally
// and the same command line sent to a daemon are therefore the same value,
// validated by the same code.
//
//	f := cli.Register(flag.CommandLine, cli.All...)
//	if err := f.Parse(os.Args[1:]); err != nil { ... }
//	req, err := f.Request() // exactly one of req.Spec, req.Matrix, req.Plan
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/config"
	"repro/internal/planner"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/system"
	"repro/internal/workloads"
)

// all is the -bench / -system value that names every workload or machine.
const all = "all"

// All names every shared flag. Exhibit names the ones that shape the
// paper's exhibits: the machine and the scale, not what runs on them.
var (
	All = []string{"bench", "system", "scale", "cores", "set", "sweep", "wsweep",
		"workers", "timeout", "analyze", "plan", "objective", "budget", "pick", "workloads", "version"}
	Exhibit = []string{"scale", "cores", "set", "workers", "timeout", "analyze", "version"}
)

// Flags holds the shared flags' values. A flag the command did not register
// keeps its default.
type Flags struct {
	fs *flag.FlagSet

	Bench, System, Scale string
	Cores                int
	Sets                 []string
	Sweeps               []runner.KnobAxis
	WSweeps              []runner.ParamAxis
	Workers              int
	Timeout              time.Duration
	Analyze              bool
	Plan                 string
	Objectives           []string
	Budget               int
	Pick                 string
	Workloads, Version   bool
}

// Register declares the named shared flags on fs.
func Register(fs *flag.FlagSet, names ...string) *Flags {
	f := &Flags{fs: fs, Bench: "CG", System: "hybrid", Scale: "small"}
	for _, name := range names {
		switch name {
		case "bench":
			fs.StringVar(&f.Bench, name, f.Bench, "workload spelling name[:param=value,...], or all (see -workloads)")
		case "system":
			fs.StringVar(&f.System, name, f.System, "machine: cache, hybrid, ideal, or all")
		case "scale":
			fs.StringVar(&f.Scale, name, f.Scale, "workload scale: tiny, small")
		case "cores":
			fs.IntVar(&f.Cores, name, 0, "core count (0 = Table 1's 64; -set cores=N wins)")
		case "set":
			fs.Var((*strs)(&f.Sets), name, "override one machine knob on every run, name=value (repeatable)")
		case "sweep":
			fs.Var((*knobAxes)(&f.Sweeps), name, "sweep one machine knob, name=v1,v2,... (repeatable)")
		case "wsweep":
			fs.Var((*paramAxes)(&f.WSweeps), name, "sweep one workload parameter, name=v1,v2,... (repeatable)")
		case "workers":
			fs.IntVar(&f.Workers, name, 0, "parallel simulations (0 = one per host CPU)")
		case "timeout":
			fs.DurationVar(&f.Timeout, name, 0, "deadline for the whole request (0 = none)")
		case "analyze":
			fs.BoolVar(&f.Analyze, name, false, "append advisor findings: per-run bottlenecks, or axis attribution for a sweep")
		case "plan":
			fs.StringVar(&f.Plan, name, "", "answer a question instead of sweeping a grid: strategy knee, pareto or halving over the -sweep/-wsweep axes")
		case "objective":
			fs.Var((*strs)(&f.Objectives), name, "-plan goal: metric | min:metric | max:metric | metric>=X | metric<=X | metric~slack (repeatable)")
		case "budget":
			fs.IntVar(&f.Budget, name, 0, "-plan: max executed probes (0 = strategy default)")
		case "pick":
			fs.StringVar(&f.Pick, name, "", "-plan knee: smallest (default) or largest satisfying axis value")
		case "workloads":
			fs.BoolVar(&f.Workloads, name, false, "list the workload catalog (names, params, defaults) and exit")
		case "version":
			fs.BoolVar(&f.Version, name, false, "print the build version and exit")
		default:
			panic("cli: unknown shared flag " + name)
		}
	}
	return f
}

// Parse parses args. A positional argument is an error: the flag package
// stops at the first one, silently dropping every flag after it.
func (f *Flags) Parse(args []string) error {
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	if f.fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", f.fs.Args())
	}
	return nil
}

// PrintInfo answers -version and -workloads for the named command and
// reports whether it did; the command then exits without running anything.
func (f *Flags) PrintInfo(cmd string) bool {
	switch {
	case f.Version:
		fmt.Println(cmd, buildinfo.Version())
	case f.Workloads:
		report.WorkloadCatalog(os.Stdout)
	default:
		return false
	}
	return true
}

// Context bounds a local request by -timeout.
func (f *Flags) Context() (context.Context, context.CancelFunc) {
	if f.Timeout > 0 {
		return context.WithTimeout(context.Background(), f.Timeout)
	}
	return context.WithCancel(context.Background())
}

// Request is what a command line names: exactly one of a run, a sweep and
// a plan.
type Request struct {
	Spec   *system.Spec
	Matrix *service.Matrix
	Plan   *service.PlanRequest
}

// Request resolves the flags. -plan asks a question; otherwise the request
// names the -bench x -system set x every axis, which is one run when there
// is no axis and neither flag is all, and a sweep otherwise.
func (f *Flags) Request() (Request, error) {
	if f.Plan != "" {
		p, err := f.planRequest()
		return Request{Plan: &p}, err
	}
	if f.Bench != all && f.System != all && len(f.Sweeps)+len(f.WSweeps) == 0 {
		s, err := f.Spec()
		return Request{Spec: &s}, err
	}
	m, err := f.matrix()
	return Request{Matrix: &m}, err
}

// Spec returns the one run of -bench on -system.
func (f *Flags) Spec() (system.Spec, error) {
	ov, cores, err := f.machine()
	if err != nil {
		return system.Spec{}, err
	}
	sys, err := config.ParseMemorySystem(f.System)
	if err != nil {
		return system.Spec{}, err
	}
	scale, err := workloads.ParseScale(f.Scale)
	if err != nil {
		return system.Spec{}, err
	}
	bench, params, err := workloads.ParseWorkload(f.Bench)
	if err != nil {
		return system.Spec{}, err
	}
	return system.Spec{System: sys, Benchmark: bench, Params: workloads.FormatParams(bench, params),
		Scale: scale, Overrides: ov, Cores: cores}, nil
}

// matrix returns the sweep of the -bench x -system set (either may be all)
// x every -sweep and -wsweep axis.
func (f *Flags) matrix() (service.Matrix, error) {
	ov, cores, err := f.machine()
	m := service.Matrix{Scale: f.Scale, Cores: cores, Sweep: f.Sweeps, WSweep: f.WSweeps, Analyze: f.Analyze}
	if f.Bench != all {
		m.Benchmarks = []string{f.Bench}
	}
	if f.System != all {
		m.Systems = []string{f.System}
	}
	if !ov.IsZero() {
		m.Overrides = &ov
	}
	return m, err
}

// planRequest returns the -plan question about -bench on -system, searched
// over the -sweep/-wsweep axes toward the -objective clauses.
func (f *Flags) planRequest() (service.PlanRequest, error) {
	if f.Bench == all || f.System == all {
		return service.PlanRequest{}, errors.New("a plan asks about one workload on one machine; -bench and -system cannot be all")
	}
	ov, cores, err := f.machine()
	if err != nil {
		return service.PlanRequest{}, err
	}
	objs, cons, err := planner.ParseObjectives(f.Objectives)
	r := service.PlanRequest{Strategy: f.Plan, Benchmark: f.Bench, System: f.System, Scale: f.Scale,
		Cores: cores, Sweep: f.Sweeps, WSweep: f.WSweeps, Constraint: cons, Pick: f.Pick, Budget: f.Budget}
	// One objective clause is the halving form; several are pareto's.
	if len(objs) == 1 {
		r.Objective = &objs[0]
	} else {
		r.Objectives = objs
	}
	if !ov.IsZero() {
		r.Overrides = &ov
	}
	return r, err
}

// machine parses -set and applies the one precedence rule between the
// flags: an explicit -set cores=N wins over -cores.
func (f *Flags) machine() (config.Overrides, int, error) {
	ov, err := config.ParseOverrides(f.Sets)
	if ov.Cores != 0 {
		return ov, 0, err
	}
	return ov, f.Cores, err
}

// strs is a repeatable string flag.
type strs []string

func (s *strs) String() string     { return fmt.Sprint(*s) }
func (s *strs) Set(v string) error { *s = append(*s, v); return nil }

// knobAxes is the repeatable -sweep flag; each payload parses into one
// machine-knob axis as the flag is set, so a malformed axis fails there.
type knobAxes []runner.KnobAxis

func (a *knobAxes) String() string { return fmt.Sprint(*a) }
func (a *knobAxes) Set(s string) error {
	name, values, err := parseAxis(s)
	if err == nil {
		*a = append(*a, runner.KnobAxis{Name: name, Values: values})
	}
	return err
}

// paramAxes is the repeatable -wsweep flag, the workload-parameter twin of
// knobAxes.
type paramAxes []runner.ParamAxis

func (a *paramAxes) String() string { return fmt.Sprint(*a) }
func (a *paramAxes) Set(s string) error {
	name, values, err := parseAxis(s)
	if err == nil {
		*a = append(*a, runner.ParamAxis{Name: name, Values: values})
	}
	return err
}

// parseAxis parses one "name=v1,v2,..." axis payload.
func parseAxis(s string) (string, []int, error) {
	name, raw, ok := strings.Cut(s, "=")
	if !ok || name == "" || raw == "" {
		return "", nil, fmt.Errorf("bad axis %q (want name=v1,v2,...)", s)
	}
	var values []int
	for _, v := range strings.Split(raw, ",") {
		n, err := workloads.ParseParamValue(strings.TrimSpace(v))
		if err != nil {
			return "", nil, fmt.Errorf("bad value in axis %q: %w", s, err)
		}
		values = append(values, n)
	}
	return strings.TrimSpace(name), values, nil
}
