package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/system"
)

// pinnedPath is where `perfbench pin` writes, relative to the checkout root.
const pinnedPath = "perfbench/pinned.txt"

// pinnedSpecs is every Spec a run checks against a pinned digest: each
// workload's family at system.DefaultSeed and the sweep's points.
func pinnedSpecs() ([]system.Spec, error) {
	all, err := sweepMatrix.Specs()
	if err != nil {
		return nil, err
	}
	for _, w := range workloadTable {
		all = append(all, w.specs(0)...)
	}
	seen := map[string]system.Spec{}
	for _, sp := range all {
		seen[sp.Key()] = sp
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]system.Spec, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out, nil
}

// pinMain simulates every pinned Spec and rewrites pinnedPath. Run it from
// the checkout root after a change meant to alter simulated Results.
func pinMain(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("pin takes no arguments")
	}
	specs, err := pinnedSpecs()
	if err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("# Spec key and Results digest at system.DefaultSeed; regenerate with `perfbench pin`.\n")
	for _, sp := range specs {
		res, err := sp.Execute()
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Key(), err)
		}
		fmt.Fprintf(&b, "%s %s\n", sp.Key(), digest(res))
	}
	return os.WriteFile(pinnedPath, []byte(b.String()), 0o644)
}
