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

// cpuShares reads a gzipped pprof CPU profile and returns each layer's
// share of sampled CPU time, attributing every sample to the innermost
// layer on its stack (see classify), and the sample count.
func cpuShares(gz []byte) (map[string]float64, int, error) {
	if len(gz) == 0 {
		return map[string]float64{}, 0, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	by := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if i := p.funcName[fn]; i >= 0 && int(i) < len(p.strings) {
					stack = append(stack, p.strings[i])
				}
			}
		}
		by[classify(stack)] += s.value
		total += s.value
	}
	if total > 0 {
		for k := range by {
			by[k] /= total
		}
	}
	return by, len(p.samples), nil
}

// classify names the layer a sample belongs to. stack lists function
// names innermost first. Collector work anywhere on the stack is gc;
// otherwise the innermost frame that is math/rand seeding, the JSON
// codec, a system call, or repo code decides.
func classify(stack []string) string {
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") || strings.HasPrefix(f, "runtime.gcAssistAlloc") ||
			strings.HasPrefix(f, "runtime.bgsweep") || strings.HasPrefix(f, "runtime.bgscavenge") ||
			strings.HasPrefix(f, "runtime.gcStart") || strings.HasPrefix(f, "runtime.markroot") {
			return "gc"
		}
	}
	for _, f := range stack {
		switch {
		case f == "math/rand.seedrand" || f == "math/rand.(*rngSource).Seed" || f == "math/rand.NewSource" || f == "math/rand.newSource":
			return "rng_seed"
		case strings.HasPrefix(f, "encoding/json.") || strings.HasPrefix(f, "encoding/base64."):
			return "codec_json"
		case strings.HasPrefix(f, "syscall.") || strings.HasPrefix(f, "internal/poll.") ||
			strings.HasPrefix(f, "internal/runtime/syscall.") || strings.HasPrefix(f, "runtime.netpoll"):
			return "syscall"
		case strings.HasPrefix(f, "p2pmss/internal/"):
			pkg := strings.TrimPrefix(f, "p2pmss/internal/")
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range cpuLayers {
				if l == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	return "other"
}

// profile is the part of a pprof profile.proto cpuShares needs.
type profile struct {
	strings  []string
	funcName map[uint64]int64    // function id → string index
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	samples  []sample
}

type sample struct {
	locs  []uint64
	value float64 // the last sample value: CPU nanoseconds
}

// parseProfile decodes the protobuf fields of profile.proto it needs:
// Profile.sample (2), .location (4), .function (5), .string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			if err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, d)
				case 2:
					vals = appendPacked(vals, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = float64(int64(vals[len(vals)-1]))
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
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
		case 5:
			var id uint64
			name := int64(-1)
			if err := fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendPacked appends a repeated varint field that arrived either as
// one varint (v) or packed (d).
func appendPacked(dst []uint64, v uint64, d []byte) []uint64 {
	if d == nil {
		return append(dst, v)
	}
	for len(d) > 0 {
		x, n := binary.Uvarint(d)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		d = d[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// fields walks a protobuf message, calling fn with each field's number
// and either its varint value (data nil) or its length-delimited bytes.
// Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
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
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d unsupported", wire)
		}
	}
	return nil
}
