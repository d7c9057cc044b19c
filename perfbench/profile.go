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

// cpuLayers are the packages the CPU-share ledger reports, in print order.
// "runtime" collects GC and allocation; "other" collects the remaining
// repository packages (the wormhole and circuit models, compiler, metrics,
// fabric, ...), the facade, the benchmark itself, and samples with no
// repository frame (HTTP plumbing).
var cpuLayers = []string{"sim", "core", "bitmat", "tdm", "netmodel", "nic", "predictor",
	"plan", "multistage", "topology", "traffic", "service", "runtime", "other"}

// layerOf maps a function name from a CPU profile to its ledger layer, or ""
// for a standard-library frame that should count towards its caller.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "pmsnet/internal/"):
		rest := fn[len("pmsnet/internal/"):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range cpuLayers {
			if l == rest {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "container/heap."):
		return "sim" // the event queue's heap
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "pmsnet."), strings.HasPrefix(fn, "main."):
		return "other" // the facade and the benchmark itself
	}
	return ""
}

// cpuShares reads a runtime/pprof CPU profile and returns each layer's share
// of the sampled CPU time. A sample's leaf frame decides its layer; a
// standard-library leaf (sort, encoding/json, ...) is charged to the
// innermost repository frame that called it, and to "other" when there is
// none.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	by := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		layer := "other"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] { // innermost inlined frame first
				if l := layerOf(p.funcNames[fn]); l != "" {
					layer = l
					break stack
				}
			}
		}
		by[layer] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(by[l]) / float64(total)
		}
	}
	return shares, total, nil
}

// The subset of profile.proto (github.com/google/pprof) the ledger needs,
// decoded by hand to stay within the standard library.
type pprofSample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

type pprofProfile struct {
	samples   []pprofSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]string   // function id → name
}

func parseProfile(data []byte) (*pprofProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s pprofSample
			var vals []int64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx < uint64(len(strs)) {
			p.funcNames[id] = strs[idx]
		}
	}
	return p, nil
}

// eachField walks a protobuf message, calling f with each field number and
// either its varint value or its length-delimited bytes.
func eachField(msg []byte, f func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which arrives either packed
// (b set) or as one unpacked value.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
