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

// The traced run charges each CPU-profile sample to one layer, walking the
// sample's stack from the innermost frame outwards (inlined frames
// included): the first frame in a dpa/internal/<pkg> package names the
// layer <pkg>; a sample that reaches an allocation or GC frame first is
// charged to gc; a sample that reaches neither is charged to runtime.

// gcFramePrefixes are the runtime functions that mark a sample as GC work:
// allocation, assists, and the background mark, sweep and scavenge workers.
var gcFramePrefixes = []string{
	"runtime.mallocgc",
	"runtime.gcAssistAlloc",
	"runtime.gcBgMarkWorker",
	"runtime.gcDrain",
	"runtime.bgsweep",
	"runtime.bgscavenge",
}

// layerOf returns the layer of a sample whose stack is given as function
// names, innermost first.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "dpa/internal/"); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 {
				return rest[:i]
			}
			return rest
		}
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
	}
	return "runtime"
}

// foldProfile decodes a gzip-compressed CPU profile as runtime/pprof writes
// it and returns the sample count charged to each layer.
func foldProfile(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	layers := map[string]int64{}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				stack = append(stack, p.name(fn))
			}
		}
		layers[layerOf(stack)] += s.count
	}
	return layers, nil
}

// profile is the part of a pprof profile the fold needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]uint64   // function id -> string-table index of its name
	strs      []string
}

type profSample struct {
	locs  []uint64 // location ids, innermost first
	count int64    // the first sample value: the number of samples
}

func (p *profile) name(fn uint64) string {
	if i, ok := p.functions[fn]; ok && i < uint64(len(p.strs)) {
		return p.strs[i]
	}
	return ""
}

var errBadProfile = errors.New("profile: malformed protobuf")

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6

	sampleLocField   = 1
	sampleValueField = 2

	locIDField    = 1
	locLineField  = 4
	lineFuncField = 1

	funcIDField   = 1
	funcNameField = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err := fields(b, func(num int, wire uint64, v uint64, data []byte) error {
		switch num {
		case profSampleField:
			var s profSample
			var values []uint64
			err := fields(data, func(num int, wire uint64, v uint64, data []byte) error {
				var err error
				switch num {
				case sampleLocField:
					s.locs, err = appendUints(s.locs, wire, v, data)
				case sampleValueField:
					values, err = appendUints(values, wire, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case profLocationField:
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, wire uint64, v uint64, data []byte) error {
				switch num {
				case locIDField:
					id = v
				case locLineField:
					return fields(data, func(num int, wire uint64, v uint64, _ []byte) error {
						if num == lineFuncField {
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
			p.locations[id] = fns
		case profFunctionField:
			var id, name uint64
			err := fields(data, func(num int, wire uint64, v uint64, _ []byte) error {
				switch num {
				case funcIDField:
					id = v
				case funcNameField:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case profStringField:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// fields calls fn for each field of the protobuf message b, with the
// field's number and wire type. Varint and fixed-width fields arrive in v,
// length-delimited ones in data.
func fields(b []byte, fn func(num int, wire uint64, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch wire := key & 7; wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errBadProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errBadProfile
		}
		if err := fn(int(key>>3), key&7, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends one repeated varint field occurrence to dst: a single
// value, or a packed run of them.
func appendUints(dst []uint64, wire, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errBadProfile
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
