package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// layers are the repo packages a CPU sample can be charged to. A
// sample with no frame in any of them (GC workers, the scheduler,
// allocation outside a layer) is charged to runtimeLayer.
var layers = []string{"dag", "network", "linksched", "sched", "graphio", "verify"}

const (
	runtimeLayer = "runtime"
	layerPrefix  = "repro/internal/"
	// untimedLabel marks the driver's own bookkeeping and correctness
	// checks; their samples are left out of the shares.
	untimedLabel = "untimed"
)

// sample is one decoded CPU-profile sample: its stack, innermost frame
// first (inlined frames expanded), its CPU time, and its labels.
type sample struct {
	frames []string
	value  int64
	labels map[string]string
}

// layerOf returns the layer a stack is charged to: the innermost frame
// in a layer package. Charging the innermost layer frame puts mallocgc,
// preemption and write barriers on the layer that called them.
func layerOf(frames []string) string {
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, layerPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range layers {
			if pkg == l {
				return l
			}
		}
	}
	return runtimeLayer
}

// cpuShares charges every sample not labelled untimed to its layer and
// returns each layer's share of the charged CPU time, runtimeLayer
// included. Every layer is present in the map, at 0 if it had no
// samples.
func cpuShares(samples []sample) map[string]float64 {
	out := map[string]float64{runtimeLayer: 0}
	for _, l := range layers {
		out[l] = 0
	}
	var total int64
	for _, s := range samples {
		if s.labels["bench"] == untimedLabel {
			continue
		}
		out[layerOf(s.frames)] += float64(s.value)
		total += s.value
	}
	if total > 0 {
		for l := range out {
			out[l] /= float64(total)
		}
	}
	return out
}

// untimed runs f with its CPU samples labelled as driver bookkeeping.
func untimed(f func()) {
	pprof.Do(context.Background(), pprof.Labels("bench", untimedLabel), func(context.Context) { f() })
}

// cpuProfile records a CPU profile of the whole process between start
// and stop.
type cpuProfile struct{ buf bytes.Buffer }

func (p *cpuProfile) start() error { return pprof.StartCPUProfile(&p.buf) }

func (p *cpuProfile) stop() ([]sample, error) {
	pprof.StopCPUProfile()
	return parseProfile(p.buf.Bytes())
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: sample stacks, the last
// sample value (CPU nanoseconds) and string labels.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs      []uint64
		vals      []uint64
		labelKeys []uint64
		labelStrs []uint64
	}
	var (
		rawSamples []rawSample
		locFuncs   = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames  = map[uint64]uint64{}   // function id → string index
		strs       []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					s.vals = appendVarints(s.vals, wire, v, b)
				case 3: // Label
					var key, str uint64
					err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
						switch num {
						case 1:
							key = v
						case 2:
							str = v
						}
						return nil
					})
					s.labelKeys = append(s.labelKeys, key)
					s.labelStrs = append(s.labelStrs, str)
					return err
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		s := sample{}
		if n := len(rs.vals); n > 0 {
			s.value = int64(rs.vals[n-1])
		}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.frames = append(s.frames, str(funcNames[fn]))
			}
		}
		for i, k := range rs.labelKeys {
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[str(k)] = str(rs.labelStrs[i])
		}
		out = append(out, s)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message, handing varint
// fields their value and length-delimited fields their bytes.
func eachField(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
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
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
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
