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

// cpuModules are the buckets CPU-profile samples are charged to. A sample
// goes to the module of its innermost frame in this repository; samples with
// no such frame go to runtime, and repository packages outside the list
// (types, harness, ...) go to other.
var cpuModules = []string{
	"core", "rpc", "lease", "journal", "metatable", "cache", "prt", "objstore",
	"wire", "sim", "obs", "qos", "fsapi", "workload", "bench", "runtime", "other",
}

// moduleOf maps a fully qualified Go function name to its cpuModules bucket;
// ok is false for functions outside this repository.
func moduleOf(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "arkfs/perfbench.") {
		return "bench", true // the benchmark's own package, as built and as tested
	}
	rest, found := strings.CutPrefix(fn, "arkfs/")
	if !found {
		return "", false
	}
	pkg, found := strings.CutPrefix(rest, "internal/")
	if !found {
		return "other", true
	}
	if i := strings.IndexAny(pkg, "/."); i >= 0 {
		pkg = pkg[:i]
	}
	for _, m := range cpuModules {
		if m == pkg {
			return m, true
		}
	}
	return "other", true
}

// attribute charges each stack (function names, innermost first) to the
// module of its innermost repository frame and returns sample counts per
// module.
func attribute(stacks [][]string, weights []int64) map[string]int64 {
	out := map[string]int64{}
	for i, st := range stacks {
		mod := "runtime"
		for _, fn := range st {
			if m, ok := moduleOf(fn); ok {
				mod = m
				break
			}
		}
		out[mod] += weights[i]
	}
	return out
}

// profileStacks decodes a gzipped pprof CPU profile into one stack of
// function names per sample (innermost first, inlined frames expanded) and
// the sample counts. It reads only the fields it needs from profile.proto.
func profileStacks(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
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
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	stacks := make([][]string, 0, len(samples))
	weights := make([]int64, 0, len(samples))
	for _, s := range samples {
		var st []string
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				if idx := fnName[fid]; idx >= 0 && idx < int64(len(strs)) {
					st = append(st, strs[idx])
				}
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, s.count)
	}
	return stacks, weights, nil
}

var errProto = errors.New("malformed protobuf")

// eachField walks the top-level fields of one protobuf message, passing the
// varint value for wire type 0 and the payload for wire type 2.
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch typ {
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
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (payload) or not.
func appendVarints(dst *[]uint64, v uint64, payload []byte) error {
	if payload == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		payload = payload[n:]
	}
	return nil
}
