package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"strings"
)

// The traced run takes runtime/pprof CPU profiles and attributes every
// sample twice: to the layer owning the leaf frame's package, and to the
// "stage" pprof label the benchmark set around the call it made into a
// layer. Only the handful of profile.proto fields needed for that are
// decoded, so the benchmark needs nothing beyond the standard library.

// profiler collects CPU profiles over the traced segments of a run.
type profiler struct {
	on   bool
	cur  *bytes.Buffer
	done [][]byte
}

// start begins a traced segment; a no-op on untraced runs.
func (p *profiler) start() error {
	if !p.on || p.cur != nil {
		return nil
	}
	p.cur = new(bytes.Buffer)
	if err := pprof.StartCPUProfile(p.cur); err != nil {
		p.cur = nil
		return fmt.Errorf("start cpu profile: %w", err)
	}
	return nil
}

// stop ends the current traced segment, if any.
func (p *profiler) stop() {
	if p.cur == nil {
		return
	}
	pprof.StopCPUProfile()
	p.done = append(p.done, p.cur.Bytes())
	p.cur = nil
}

// attribution is the merged CPU profile of every traced segment, by stage
// label and layer.
type attribution map[string]map[string]cell

// cell is the sample count and CPU time of one stage and layer.
type cell struct{ n, ns int64 }

func (p *profiler) attribute() (attribution, error) {
	a := attribution{}
	for _, raw := range p.done {
		if err := a.add(raw); err != nil {
			return a, err
		}
	}
	return a, nil
}

// sum totals the cells of the given stages (all stages when nil), for one
// layer or, when layer is "", for all layers.
func (a attribution) sum(stageSet []string, layer string) cell {
	var t cell
	for stage, row := range a {
		if stageSet != nil && !slices.Contains(stageSet, stage) {
			continue
		}
		for l, c := range row {
			if layer == "" || l == layer {
				t.n += c.n
				t.ns += c.ns
			}
		}
	}
	return t
}

// share is the percentage of the samples in stageSet (nil: all) whose leaf
// frame is in layer ("": any), or 0 without samples.
func (a attribution) share(stageSet []string, layer string) float64 {
	return 100 * ratio(float64(a.sum(stageSet, layer).n), float64(a.sum(stageSet, "").n))
}

// layers is every layer a sample can be attributed to; the shares over
// this list sum to 100.
var layers = []string{
	"sim", "noc", "cpu", "compiler", "cache", "coherence", "mem", "core",
	"dma", "spm", "system", "workloads", "service", "rescache", "planner",
	"http", "runtime", "other",
}

// stages is every stage label the benchmark sets, plus "none" for samples
// from goroutines the benchmark did not start (GC workers, timers).
var stages = []string{"build", "run", "check", "serve", "client", "none"}

// The stage sets the layer shares are taken over: the simulator pass, and
// the daemon with its clients.
var (
	passStages   = []string{"build", "run"}
	daemonStages = []string{"serve", "client"}
)

// serviceLayers report their share of the daemon's samples; every other
// layer reports its share of the pass's samples.
var serviceLayers = []string{"service", "rescache", "planner", "http"}

// layerOf maps a leaf function symbol to its layer: the package name for
// the modules of this repository that are layers, "runtime" for the Go
// runtime and scheduler, "http" for the network and wire-encoding stack,
// and "other" for the rest.
func layerOf(sym string) string {
	pkg := packageOf(sym)
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		for _, l := range layers {
			if l == name {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "" || pkg == "runtime" || pkg == "sync" || pkg == "sync/atomic" ||
		strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/sync" || pkg == "internal/bytealg" || pkg == "internal/abi":
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" ||
		pkg == "syscall" || strings.HasPrefix(pkg, "internal/syscall/") || pkg == "bufio" ||
		pkg == "io" || pkg == "encoding/json" || strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "http"
	}
	return "other"
}

// packageOf returns the import path of a Go symbol such as
// "repro/internal/noc.(*Mesh).SendCont" or "runtime.mallocgc". Assembly
// helpers without a package qualifier (e.g. "memeqbody") yield "".
func packageOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // type arguments may contain '/' and '.'
	}
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		if slash < 0 {
			return ""
		}
		return sym
	}
	return sym[:slash+1+dot]
}

// add decodes one gzipped profile.proto and merges its samples.
func (a attribution) add(raw []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		samples  [][]byte
		locLeaf  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int64{}  // function id -> string index
	)
	err = eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			samples = append(samples, data)
		case 4:
			var id, fn uint64
			seenLine := false
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !seenLine: // the first line is the leaf of an inlined chain
					seenLine = true
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locLeaf[id] = fn
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for _, s := range samples {
		var locs, vals []uint64
		stage := "none"
		err := eachField(s, func(num int, v uint64, data []byte) error {
			switch num {
			case 1:
				locs = appendPacked(locs, v, data)
			case 2:
				vals = appendPacked(vals, v, data)
			case 3:
				var k, sv int64
				if err := eachField(data, func(num int, v uint64, _ []byte) error {
					switch num {
					case 1:
						k = int64(v)
					case 2:
						sv = int64(v)
					}
					return nil
				}); err != nil {
					return err
				}
				if str(k) == "stage" {
					stage = str(sv)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if len(locs) == 0 || len(vals) == 0 {
			continue
		}
		n := int64(vals[0]) // sample count
		layer := layerOf(str(funcName[locLeaf[locs[0]]]))
		if a[stage] == nil {
			a[stage] = map[string]cell{}
		}
		c := a[stage][layer]
		c.n += n
		if len(vals) > 1 {
			c.ns += int64(vals[1]) // CPU time
		}
		a[stage][layer] = c
	}
	return nil
}

// appendPacked appends a repeated varint field that may be encoded either
// packed (data != nil) or as a single element (v).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling f with each field number
// and either its varint value or (for length-delimited fields) its bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			if data == nil {
				data = []byte{}
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
