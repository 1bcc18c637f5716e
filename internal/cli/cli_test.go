package cli

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/system"
	"repro/internal/workloads"
)

// parse registers names on a fresh flag set and parses argv.
func parse(t *testing.T, argv string, names ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, names...)
	return f, f.Parse(strings.Fields(argv))
}

// keys expands a request into the Spec keys it names: locally, the way
// hybridsim runs it.
func keys(t *testing.T, req Request) []string {
	t.Helper()
	var specs []system.Spec
	switch {
	case req.Spec != nil:
		specs = []system.Spec{*req.Spec}
	case req.Matrix != nil:
		var err error
		if specs, err = req.Matrix.Specs(); err != nil {
			t.Fatal(err)
		}
	default:
		q, err := req.Plan.Question()
		if err != nil {
			t.Fatal(err)
		}
		if specs, err = q.Axes.Specs(); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]string, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		out[i] = s.Key()
	}
	return out
}

// wire round-trips a request through JSON, the way a hybridsimd client
// sends it and the daemon decodes it.
func wire(t *testing.T, req Request) Request {
	t.Helper()
	var out Request
	for _, v := range []struct{ in, out any }{
		{req.Spec, &out.Spec}, {req.Matrix, &out.Matrix}, {req.Plan, &out.Plan},
	} {
		b, err := json.Marshal(v.in)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, v.out); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestLocalAndClientViewsAgree: one argv names the same runs whether
// hybridsim expands it in-process or a client sends it over the wire.
func TestLocalAndClientViewsAgree(t *testing.T) {
	for _, argv := range []string{
		"-bench CG -system hybrid -scale tiny -cores 4",
		"-bench stream:stride=128 -scale tiny -cores 4 -set l1d_size=64k",
		"-bench IS -scale tiny -cores 4 -sweep filter_entries=8,16,32",
		"-bench ptrchase -scale tiny -cores 4 -wsweep hot_pct=0,50",
		"-bench all -system cache -scale tiny -cores 4",
		"-plan knee -bench IS -scale tiny -cores 4 -sweep filter_entries=4,8,16 -objective hit_ratio~0.99",
	} {
		f, err := parse(t, argv, All...)
		if err != nil {
			t.Fatalf("%s: %v", argv, err)
		}
		req, err := f.Request()
		if err != nil {
			t.Fatalf("%s: %v", argv, err)
		}
		local, client := keys(t, req), keys(t, wire(t, req))
		if len(local) == 0 || !reflect.DeepEqual(local, client) {
			t.Errorf("%s:\n local %v\nclient %v", argv, local, client)
		}
	}
}

// TestBadAxisFailsAtParse: a malformed axis is a flag error, before any
// request is built.
func TestBadAxisFailsAtParse(t *testing.T) {
	for _, argv := range []string{"-sweep bogus", "-sweep l1d_size=", "-wsweep stride=1,x"} {
		if _, err := parse(t, argv, All...); err == nil {
			t.Errorf("%s parsed", argv)
		}
	}
	if _, err := parse(t, "-bench IS extra -cores 4", All...); err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Errorf("positional argument: err = %v", err)
	}
	if _, err := parse(t, "-bench IS", Exhibit...); err == nil {
		t.Error("the exhibit flag set accepted -bench")
	}
}

// TestCoresPrecedence: -set cores=N alone names N cores, and wins over
// -cores when both are given.
func TestCoresPrecedence(t *testing.T) {
	for argv, want := range map[string]int{
		"-set cores=8":               8,
		"-cores 8 -set cores=16":     16,
		"-cores 16":                  16,
		"":                           64,
		"-cores 8 -sweep l2_assoc=8": 8,
	} {
		f, err := parse(t, argv+" -scale tiny", All...)
		if err != nil {
			t.Fatal(err)
		}
		req, err := f.Request()
		if err != nil {
			t.Fatal(err)
		}
		spec := req.Spec
		if spec == nil {
			specs, err := req.Matrix.Specs()
			if err != nil {
				t.Fatal(err)
			}
			spec = &specs[0]
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%q: %v", argv, err)
		}
		if got := spec.Config().Cores; got != want {
			t.Errorf("%q: %d cores, want %d", argv, got, want)
		}
	}
}

// TestAllNamesASweep: -bench all -system all with no axis is the full
// workload x system matrix; one of each with no axis is one run.
func TestAllNamesASweep(t *testing.T) {
	f, err := parse(t, "-bench all -system all -scale tiny", All...)
	if err != nil {
		t.Fatal(err)
	}
	req, err := f.Request()
	if err != nil || req.Matrix == nil {
		t.Fatalf("req %+v, err %v", req, err)
	}
	if n, want := len(keys(t, req)), len(workloads.Names())*3; n != want || want != 12*3 {
		t.Errorf("%d specs, want %d (12 x 3)", n, want)
	}
	f, _ = parse(t, "-scale tiny", All...)
	if req, err := f.Request(); err != nil || req.Spec == nil {
		t.Errorf("bare flags: req %+v, err %v, want one run", req, err)
	}
	f, _ = parse(t, "-plan knee -bench all", All...)
	if _, err := f.Request(); err == nil {
		t.Error("a plan over -bench all was accepted")
	}
}

// TestBenchCarriesParams: -bench takes the full workload spelling.
func TestBenchCarriesParams(t *testing.T) {
	f, err := parse(t, "-bench stream:stride=128 -scale tiny", All...)
	if err != nil {
		t.Fatal(err)
	}
	req, err := f.Request()
	if err != nil || req.Spec == nil {
		t.Fatalf("req %+v, err %v", req, err)
	}
	if req.Spec.Benchmark != "stream" || req.Spec.Params != "stride=128" {
		t.Errorf("spec %+v", *req.Spec)
	}
}

func TestParseKnobAxis(t *testing.T) {
	var a knobAxes
	if err := a.Set("filter_entries=16,32, 48"); err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || a[0].Name != "filter_entries" || !reflect.DeepEqual(a[0].Values, []int{16, 32, 48}) {
		t.Fatalf("parsed %+v", a)
	}
	for _, bad := range []string{"filter_entries", "=1,2", "filter_entries=", "filter_entries=1,x"} {
		if err := a.Set(bad); err == nil {
			t.Errorf("-sweep accepted %q", bad)
		}
	}
	if len(a) != 1 {
		t.Errorf("rejected payloads were kept: %+v", a)
	}
}

func TestParseParamAxis(t *testing.T) {
	var a paramAxes
	if err := a.Set("stride=8,64k, 128"); err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || a[0].Name != "stride" || !reflect.DeepEqual(a[0].Values, []int{8, 64 << 10, 128}) {
		t.Fatalf("parsed %+v", a)
	}
	for _, bad := range []string{"stride", "=1,2", "stride=", "stride=1,x"} {
		if err := a.Set(bad); err == nil {
			t.Errorf("-wsweep accepted %q", bad)
		}
	}
}
