package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain prints the metric deltas between two -out files of one
// workload. It refuses (exit 2) when the files were measured on different
// hosts: their timings say nothing about the code.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var outs [2]Output
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &outs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", p, err)
			return 2
		}
	}
	if err := comparable(outs[0], outs[1]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing: %v\n", err)
		return 2
	}
	base, next := outs[0], outs[1]
	fmt.Fprintf(w, "%s (trace=%v) on %s: source %s -> %s\n", base.Workload, base.Trace,
		base.Fingerprint.CPU, base.Fingerprint.Source, next.Fingerprint.Source)
	names := make([]string, 0, len(base.Metrics))
	for k := range base.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a, b := base.Metrics[k], next.Metrics[k]
		delta := "n/a"
		if a.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(b.Value/a.Value-1))
		}
		fmt.Fprintf(w, "  %-26s %14.6g -> %14.6g %s  %s\n", k, a.Value, b.Value, a.Unit, delta)
	}
	return 0
}

// comparable reports why two outputs must not be compared, if they must not.
func comparable(a, b Output) error {
	if a.Fingerprint.Host != b.Fingerprint.Host {
		return fmt.Errorf("host fingerprints differ: %+v vs %+v", a.Fingerprint.Host, b.Fingerprint.Host)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("different runs: %s trace=%v vs %s trace=%v", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	return nil
}
