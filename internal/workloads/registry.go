package workloads

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/compiler"
	"repro/internal/config"
)

// ParamSpec declares one typed parameter of a workload generator: a stable
// snake_case wire name, a default, and an inclusive validity range. Every
// parameter is an integer (counts, byte sizes, percentages), mirroring the
// machine-knob registry (config.Knobs); unlike machine knobs, 0 can be a
// meaningful value (hot_pct=0 means uniform access), so sparse parameter
// sets are maps rather than zero-defaulted struct fields.
type ParamSpec struct {
	// Name is the identifier used in "name:k=v" workload spellings,
	// -wsweep flags, Matrix "wsweep" axes, Spec JSON "params" objects,
	// sweep CSV columns and the v3 hash encoding.
	Name string
	// Default is the value an unset parameter resolves to (at the Small
	// scale; generators scale iteration counts down for Tiny).
	Default int
	// Min and Max bound the accepted values, inclusive. Max 0 means
	// unbounded above.
	Min, Max int
	// Desc is the one-line catalog description.
	Desc string
}

// ParamValue is one (parameter, value) pair — the element of param diffs,
// sweep axes and the canonical v3 hash encoding.
type ParamValue struct {
	Name  string `json:"name"`
	Value int    `json:"value"`
}

// Entry is one registry workload: a named, parameterized, deterministic
// benchmark generator. The six NAS kernels of the paper's Table 2 are
// parameterless entries; the synthetic generators open the rest of the
// access-pattern space.
type Entry struct {
	// Name is the stable workload name (the Spec.Benchmark value).
	Name string
	// Desc is the one-line catalog description.
	Desc string
	// NAS marks the paper's Table 2 kernels — the exhibits of Figures
	// 7-11 enumerate exactly these.
	NAS bool
	// Params declares the parameter set in its canonical (encoding and
	// column) order. Append-only per entry: reordering changes the v3
	// hash encoding of param-bearing Specs.
	Params []ParamSpec
	// Check optionally validates cross-parameter constraints after the
	// per-parameter range checks pass. It receives the fully resolved set.
	Check func(p map[string]int) error
	// Build constructs the benchmark. It receives the fully resolved
	// parameter set (every declared name present) and must be a pure
	// function of (params, Scale): byte-identical structure on every call,
	// which is what makes content-addressed result caching sound.
	Build func(p map[string]int, sc Scale) *compiler.Benchmark
}

// registry holds every workload in canonical order: the NAS six first, in
// the paper's order, then the synthetic generators. Append-only.
var registry = []Entry{
	{Name: "CG", NAS: true, Desc: "NAS conjugate gradient: sparse SpMV, one guarded gather with strong locality",
		Build: func(p map[string]int, sc Scale) *compiler.Benchmark { return buildCG(sc) }},
	{Name: "EP", NAS: true, Desc: "NAS embarrassingly parallel: tiny data, heavy compute, stack-dominated traffic",
		Build: func(p map[string]int, sc Scale) *compiler.Benchmark { return buildEP(sc) }},
	{Name: "FT", NAS: true, Desc: "NAS 3-D FFT: five stride-heavy kernels, guarded twiddle accesses",
		Build: func(p map[string]int, sc Scale) *compiler.Benchmark { return buildFT(sc) }},
	{Name: "IS", NAS: true, Desc: "NAS integer sort: strided key streams, low-locality guarded histogram",
		Build: func(p map[string]int, sc Scale) *compiler.Benchmark { return buildIS(sc) }},
	{Name: "MG", NAS: true, Desc: "NAS multigrid: 59 strided refs over a grid hierarchy, tiny guarded boundary",
		Build: func(p map[string]int, sc Scale) *compiler.Benchmark { return buildMG(sc) }},
	{Name: "SP", NAS: true, Desc: "NAS scalar pentadiagonal: 497 strided refs, no guarded accesses (filters idle)",
		Build: func(p map[string]int, sc Scale) *compiler.Benchmark { return buildSP(sc) }},
	streamEntry,
	stencilEntry,
	ptrchaseEntry,
	transposeEntry,
	reduceEntry,
	gupsEntry,
}

var entryByName = func() map[string]*Entry {
	m := make(map[string]*Entry, len(registry))
	for i := range registry {
		e := &registry[i]
		if _, dup := m[e.Name]; dup {
			panic("workloads: duplicate workload name " + e.Name)
		}
		seen := map[string]bool{}
		for _, ps := range e.Params {
			if seen[ps.Name] {
				panic("workloads: duplicate param " + ps.Name + " in " + e.Name)
			}
			seen[ps.Name] = true
		}
		m[e.Name] = e
	}
	return m
}()

// Entries returns the registry in canonical order. The slice is shared;
// callers must not mutate it.
func Entries() []Entry { return registry }

// Lookup resolves a workload name to its registry entry.
func Lookup(name string) (Entry, bool) {
	e, ok := entryByName[name]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Names lists every registered workload in canonical order: the paper's six
// NAS kernels first, then the synthetic generators.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// NAS lists the paper's Table 2 kernels in the paper's order — the set every
// figure exhibit enumerates.
func NAS() []string {
	var names []string
	for _, e := range registry {
		if e.NAS {
			names = append(names, e.Name)
		}
	}
	return names
}

// param looks up one declared parameter of an entry.
func (e Entry) param(name string) (ParamSpec, bool) {
	for _, ps := range e.Params {
		if ps.Name == name {
			return ps, true
		}
	}
	return ParamSpec{}, false
}

// paramNames lists the entry's declared parameter names in canonical order.
func (e Entry) paramNames() []string {
	names := make([]string, len(e.Params))
	for i, ps := range e.Params {
		names[i] = ps.Name
	}
	return names
}

// HasParam reports whether the entry declares the named parameter.
func (e Entry) HasParam(name string) bool { _, ok := e.param(name); return ok }

// CheckValue validates one (name, value) assignment against the entry's
// declared parameter set — the unit a sweep axis validates per value.
func (e Entry) CheckValue(name string, value int) error {
	ps, ok := e.param(name)
	if !ok {
		return fmt.Errorf("workloads: %s has no parameter %q (want one of %v)", e.Name, name, e.paramNames())
	}
	if value < ps.Min {
		return fmt.Errorf("workloads: %s param %s=%d below minimum %d", e.Name, name, value, ps.Min)
	}
	if ps.Max > 0 && value > ps.Max {
		return fmt.Errorf("workloads: %s param %s=%d above maximum %d", e.Name, name, value, ps.Max)
	}
	return nil
}

// ValidateParams checks a sparse parameter assignment against the entry's
// declared set: every name must exist, every value must be in range, and the
// entry's cross-parameter Check (if any) must pass on the resolved set.
func ValidateParams(workload string, p map[string]int) error {
	e, ok := Lookup(workload)
	if !ok {
		return fmt.Errorf("workloads: unknown workload %q (want one of %v)", workload, Names())
	}
	for name, v := range p {
		if err := e.CheckValue(name, v); err != nil {
			return err
		}
	}
	if e.Check != nil {
		full, err := ResolveParams(workload, p)
		if err != nil {
			return err
		}
		if err := e.Check(full); err != nil {
			return fmt.Errorf("workloads: %s: %w", e.Name, err)
		}
	}
	return nil
}

// ResolveParams returns the full parameter set the sparse assignment names:
// the entry's defaults overlaid with p. Unknown names are rejected.
func ResolveParams(workload string, p map[string]int) (map[string]int, error) {
	e, ok := Lookup(workload)
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (want one of %v)", workload, Names())
	}
	full := make(map[string]int, len(e.Params))
	for _, ps := range e.Params {
		full[ps.Name] = ps.Default
	}
	for name, v := range p {
		if !e.HasParam(name) {
			return nil, fmt.Errorf("workloads: %s has no parameter %q (want one of %v)", e.Name, name, e.paramNames())
		}
		full[name] = v
	}
	return full, nil
}

// DiffParams returns, in canonical declaration order, every parameter of the
// resolved set that differs from its default — the segments Spec.Key()
// renders, the lines the v3 hash encodes, and the columns a sweep sink
// prints. Equivalent spellings (unset vs explicitly-default) produce the
// same empty diff, so they share one cache address by construction.
func DiffParams(workload string, p map[string]int) ([]ParamValue, error) {
	e, ok := Lookup(workload)
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (want one of %v)", workload, Names())
	}
	full, err := ResolveParams(workload, p)
	if err != nil {
		return nil, err
	}
	var out []ParamValue
	for _, ps := range e.Params {
		if v := full[ps.Name]; v != ps.Default {
			out = append(out, ParamValue{Name: ps.Name, Value: v})
		}
	}
	return out, nil
}

// ParseParams parses a sparse "k=v,k2=v2" payload into an assignment map.
// Values accept plain integers, binary size suffixes (64k, 2m, 1g) and
// integral scientific notation (1e6). An empty payload is an empty map.
func ParseParams(s string) (map[string]int, error) {
	p := map[string]int{}
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		name, raw, ok := strings.Cut(field, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("workloads: bad parameter %q (want name=value)", field)
		}
		v, err := ParseParamValue(strings.TrimSpace(raw))
		if err != nil {
			return nil, fmt.Errorf("workloads: bad value in %q: %w", field, err)
		}
		p[name] = v
	}
	return p, nil
}

// ParseParamValue parses one parameter value: "4096", "64k", "2m", "1g",
// or "1e6" — the shared value grammar of every flag and query surface
// (config.ParseValue).
func ParseParamValue(s string) (int, error) {
	return config.ParseValue(s)
}

// FormatParams renders an assignment as a "k=v,k2=v2" payload: declared
// names in canonical order (so equal assignments render identically), any
// undeclared names after them in lexicographic order (so even an invalid
// assignment formats deterministically for error messages).
func FormatParams(workload string, p map[string]int) string {
	if len(p) == 0 {
		return ""
	}
	var parts []string
	emitted := map[string]bool{}
	if e, ok := Lookup(workload); ok {
		for _, ps := range e.Params {
			if v, set := p[ps.Name]; set {
				parts = append(parts, fmt.Sprintf("%s=%d", ps.Name, v))
				emitted[ps.Name] = true
			}
		}
	}
	var rest []string
	for name := range p {
		if !emitted[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		parts = append(parts, fmt.Sprintf("%s=%d", name, p[name]))
	}
	return strings.Join(parts, ",")
}

// ParseWorkload splits a "name" or "name:k=v,k2=v2" workload spelling — the
// payload of a -workload flag or a matrix benchmarks entry — into its name
// and sparse parameter assignment. The name and parameters are validated
// against the registry.
func ParseWorkload(s string) (name string, params map[string]int, err error) {
	name, rest, has := strings.Cut(s, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", nil, fmt.Errorf("workloads: empty workload in %q", s)
	}
	if has {
		if params, err = ParseParams(rest); err != nil {
			return "", nil, err
		}
	} else {
		params = map[string]int{}
	}
	if err = ValidateParams(name, params); err != nil {
		return "", nil, err
	}
	return name, params, nil
}

// FormatWorkload is ParseWorkload's inverse: "name" for an empty assignment,
// "name:k=v,..." otherwise.
func FormatWorkload(name string, params map[string]int) string {
	if len(params) == 0 {
		return name
	}
	return name + ":" + FormatParams(name, params)
}

// BuildSpec constructs a workload with a sparse parameter assignment,
// validating the name and every parameter first.
func BuildSpec(name string, params map[string]int, sc Scale) (*compiler.Benchmark, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (want one of %v)", name, Names())
	}
	if err := ValidateParams(name, params); err != nil {
		return nil, err
	}
	full, err := ResolveParams(name, params)
	if err != nil {
		return nil, err
	}
	return e.Build(full, sc), nil
}
