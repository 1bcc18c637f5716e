package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/system"
)

// pinnedFile holds one "<Spec.Key> <digest>" line for every Spec the
// benchmark runs at system.DefaultSeed. Regenerate it with -pin after a
// change that is meant to alter simulated Results.
//
//go:embed pinned.txt
var pinnedFile []byte

func loadPinned(b []byte) (map[string]string, error) {
	pins := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, d, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("pinned digests: bad line %q", line)
		}
		pins[key] = d
	}
	return pins, sc.Err()
}

// digest is a short content hash of every field of a Results.
func digest(r system.Results) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("perfbench: Results do not marshal: %v", err)) // plain data; only a bug can fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// checker counts operations and decides which failed. A simulator result
// fails when it errs, when a Spec at system.DefaultSeed does not match its
// pinned digest, or when a Spec seen before returns a different digest.
// Service answers fail when they err or are shed.
type checker struct {
	pins      map[string]string
	attempted int
	failed    int
	seen      map[string]string // Spec.Key -> digest of its first result
	problems  []string
}

func newChecker(pins map[string]string) *checker {
	return &checker{pins: pins, seen: map[string]string{}}
}

// result records one operation that produced sp's Results (or err) and
// reports whether it passed.
func (c *checker) result(sp system.Spec, r system.Results, err error) bool {
	key, d := sp.Key(), digest(r)
	c.attempted++
	if err != nil {
		return c.fail("%s: %v", key, err)
	}
	if sp.Seed == 0 || sp.Seed == system.DefaultSeed {
		switch pin, ok := c.pins[key]; {
		case !ok:
			return c.fail("%s: no pinned digest", key)
		case pin != d:
			return c.fail("%s: digest %s, pinned %s", key, d, pin)
		}
	}
	if prev, ok := c.seen[key]; ok && prev != d {
		return c.fail("%s: digest %s differs from earlier %s", key, d, prev)
	}
	c.seen[key] = d
	return true
}

// op records one operation that has no Results to check.
func (c *checker) op(what string, err error) bool {
	c.attempted++
	if err != nil {
		return c.fail("%s: %v", what, err)
	}
	return true
}

// transparent checks that the paper's protocol is invisible to the
// program: HybridReal and HybridIdeal retire the same instructions for the
// same benchmark, parameters and seed. Pairs with one side missing are
// skipped.
func (c *checker) transparent(specs []system.Spec, res []system.Results) {
	retired := map[string]map[config.MemorySystem]uint64{}
	for i, sp := range specs {
		id := sp
		id.System = config.HybridReal
		k := id.Key()
		if retired[k] == nil {
			retired[k] = map[config.MemorySystem]uint64{}
		}
		retired[k][sp.System] = res[i].Retired
	}
	keys := make([]string, 0, len(retired))
	for k := range retired {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		withProtocol, ok1 := retired[k][config.HybridReal]
		ideal, ok2 := retired[k][config.HybridIdeal]
		if !ok1 || !ok2 {
			continue
		}
		c.attempted++
		if withProtocol != ideal {
			c.fail("%s: hybrid retired %d, hybrid-ideal %d", k, withProtocol, ideal)
		}
	}
}

func (c *checker) fail(format string, args ...any) bool {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
	return false
}
