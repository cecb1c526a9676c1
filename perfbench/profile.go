package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The per-layer CPU shares come from a CPU profile of the traced run, with
// nothing instrumented inside the program: each sample is charged to the
// innermost hypertap/internal/... package on its stack, except that runtime
// memory clearing and garbage collection get buckets of their own. The
// profile is decoded here with a minimal reader of the profile.proto wire
// format (the standard library writes it but offers no public reader).

// cpuBuckets are the reported buckets, in report order.
var cpuBuckets = []string{
	"guest", "hav", "intercept", "core", "gmem", "hv", "vmi", "auditors",
	"capture", "cluster", "host", "experiment", "workload", "telemetry",
	"vclock", "other", "bench", "runtime.memclr", "runtime.gc", "runtime.other",
}

// cpuShares buckets a gzipped CPU profile. It returns each bucket's share of
// the sampled CPU time and the total sampled CPU seconds.
func cpuShares(prof []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	valueIdx := len(p.sampleTypes) - 1 // cpu nanoseconds follows the sample count
	byBucket := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.strings[p.funcNames[fn]])
			}
		}
		v := s.values[valueIdx]
		byBucket[bucketOf(frames)] += v
		total += v
	}
	out := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] = float64(byBucket[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out, float64(total) / 1e9, nil
}

// bucketOf charges one stack, leaf first.
func bucketOf(frames []string) string {
	if len(frames) > 0 && strings.HasPrefix(frames[0], "runtime.memclr") {
		return "runtime.memclr"
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gcBgMarkWorker"), strings.HasPrefix(f, "runtime.gcAssistAlloc"),
			strings.HasPrefix(f, "runtime.bgsweep"), strings.HasPrefix(f, "runtime.bgscavenge"),
			strings.HasPrefix(f, "runtime.gcDrain"), strings.HasPrefix(f, "runtime.markroot"):
			return "runtime.gc"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "hypertap/internal/") {
			return internalBucket(f)
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "runtime.other"
}

// internalBucket maps a hypertap/internal function to its package's bucket:
// the last path element, with every auditor under "auditors" and the
// campaign runner under "experiment".
func internalBucket(fn string) string {
	path := strings.TrimPrefix(fn, "hypertap/internal/")
	if i := strings.IndexByte(path[strings.LastIndexByte(path, '/')+1:], '.'); i >= 0 {
		path = path[:strings.LastIndexByte(path, '/')+1+i]
	}
	switch {
	case strings.HasPrefix(path, "auditors/"):
		return "auditors"
	case strings.HasPrefix(path, "experiment"):
		return "experiment"
	case strings.HasPrefix(path, "core/intercept"):
		return "intercept"
	}
	pkg := path[strings.LastIndexByte(path, '/')+1:]
	for _, b := range cpuBuckets {
		if b == pkg {
			return b
		}
	}
	return "other"
}

// profile is the subset of profile.proto the bucketing needs.
type profile struct {
	sampleTypes []struct{}
	samples     []profSample
	locFuncs    map[uint64][]uint64 // location → function IDs, innermost first
	funcNames   map[uint64]int64    // function → name string index
	strings     []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6
	fSampleLocation    = 1
	fSampleValue       = 2
	fLocationID        = 1
	fLocationLine      = 4
	fLineFunction      = 1
	fFunctionID        = 1
	fFunctionName      = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case fProfileSampleType:
			p.sampleTypes = append(p.sampleTypes, struct{}{})
		case fProfileSample:
			var s profSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, w, v, d)
				case fSampleValue:
					for _, u := range appendVarints(nil, w, v, d) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == fLineFunction {
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
			p.locFuncs[id] = fns
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcNames[id] = name
		case fProfileStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, idx, len(p.strings))
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and varint value or length-delimited payload.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
