package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the buckets a CPU sample is charged to: the simulator's
// modules, the benchmark itself, and the Go runtime split into
// allocation/GC work and everything else.
var layers = []string{
	"eventq", "engine", "link", "fabric", "buffercalc", "packet", "nic",
	"rocev2", "core", "cc", "hybrid", "fluid", "flightrec", "bench",
	"runtime_gc", "runtime_other",
}

// passThrough modules are helpers with no layer of their own: a sample
// whose innermost simulator frame is one of them is charged to the next
// frame out that has a layer (simtime's inlined arithmetic to its
// caller, a hooks.Chain closure to the port that fired it).
var passThrough = map[string]bool{"simtime": true, "hooks": true, "workload": true}

// gcFuncs are runtime functions that allocate, collect, sweep or run
// write barriers, matched as prefixes of the name after "runtime.".
var gcFuncs = []string{
	"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap",
	"(*mcache)", "(*mcentral)", "(*mheap)", "(*mspan)", "nextFreeFast",
	"heapSetType", "heapBits", "(*gcBits)", "gcWriteBarrier", "wbBuf", "(*wbBuf)",
	"bulkBarrier", "scanobject", "scanblock", "greyobject", "findObject",
	"gcDrain", "gcAssist", "gcmarknewobject", "markBits", "(*markBits)",
	"sweep", "(*sweepLocked)", "(*gcWork)", "markroot", "scanstack", "scanframe",
	"memclrNoHeapPointers", "(*pageAlloc)", "(*pageCache)", "deductAssistCredit",
	"spanOf", "typePointers", "(*typePointers)", "publicationBarrier", "gcStart",
	"gcMark", "gcBgMarkWorker", "gcFlushBgCredit", "(*gcControllerState)",
	"(*gcCPULimiterState)", "(*limiterEvent)", "bgsweep", "bgscavenge",
	"(*scavenger", "(*fixalloc)", "persistentalloc", "profilealloc", "mProf_Malloc",
}

// gcWorkers mark a whole stack as GC work wherever they appear.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// charge returns the layer a CPU sample is charged to. stack holds
// function names, leaf first. A sample is GC work if its stack is a GC
// worker, or if the runtime frames at its leaf — those below the first
// non-runtime frame — include allocation, GC, sweep or write-barrier
// code. Otherwise it belongs to the innermost simulator frame's module
// (so math under fluid counts as fluid), with the benchmark's own
// package main as "bench"; failing both, to runtime_other.
func charge(stack []string) string {
	for _, fn := range stack {
		for _, w := range gcWorkers {
			if fn == w {
				return "runtime_gc"
			}
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "runtime.")
		if !ok {
			break
		}
		for _, p := range gcFuncs {
			if strings.HasPrefix(rest, p) {
				return "runtime_gc"
			}
		}
	}
	for _, fn := range stack {
		if m := module(fn); m != "" && !passThrough[m] {
			return m
		}
	}
	return "runtime_other"
}

// module maps a function name to its simulator layer: the package under
// dcqcn/internal, "bench" for this command, or "" for anything else.
func module(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "dcqcn/cmd/dcqcn-bench.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "dcqcn/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// shares accumulates charged CPU samples of one workload's run span.
type shares struct {
	samples int64
	byLayer map[string]int64
}

// add charges the samples of one rep's profile. Samples labelled
// span=setup are left out. Unlabelled samples are kept: the runtime's GC
// workers never carry goroutine labels, and with the profile open only
// around one rep's setup and run, they ran for that rep (setup is a
// small fraction of it).
func (s *shares) add(samples []profSample) {
	if s.byLayer == nil {
		s.byLayer = make(map[string]int64)
	}
	for _, smp := range samples {
		if smp.labels["span"] == "setup" {
			continue
		}
		s.samples += smp.count
		s.byLayer[charge(smp.stack)] += smp.count
	}
}

func (s *shares) share(layer string) float64 {
	if s.samples == 0 {
		return 0
	}
	return float64(s.byLayer[layer]) / float64(s.samples)
}

// profSample is one CPU-profile sample as the attribution needs it.
type profSample struct {
	stack  []string // function names, leaf first, inlined frames expanded
	count  int64
	labels map[string]string
}

// parseProfile decodes a gzipped profile.proto with a minimal protobuf
// reader, resolving each sample's stack to function names.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64    // [sample count, CPU ns] for a CPU profile
		labels [][2]uint64 // (key, str) string-table indices
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				case 3:
					var kv [2]uint64
					err := eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{labels: map[string]string{}}
		if len(s.values) > 0 {
			ps.count = int64(s.values[0])
		}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				ps.stack = append(ps.stack, str(funcs[f]))
			}
		}
		for _, kv := range s.labels {
			ps.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. Varint fields
// pass their value in v; length-delimited fields pass their bytes in b.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (one value v, b nil) or packed (b holds the varints).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
