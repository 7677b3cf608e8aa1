package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// shares is a CPU profile attributed by module. Each sample goes to the
// innermost frame that lies in a repro/internal/<module> package, or to
// "runtime" when no frame does, so the module shares sum to 1.
type shares struct {
	total    int64
	byModule map[string]int64
	// fmtUnderProtocol counts samples in package fmt whose innermost
	// internal frame is in protocol: formatting the simulator does for
	// trace detail strings.
	fmtUnderProtocol int64
	// gc counts samples with a garbage-collector frame anywhere on the
	// stack (background marking, mutator assists, sweeping, write
	// barriers).
	gc int64
}

func (s *shares) share(mod string) float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.byModule[mod]) / float64(s.total)
}

func (s *shares) sum() float64 {
	var t float64
	for _, mod := range modules {
		t += s.share(mod)
	}
	return t
}

// moduleOf returns the module of a function name such as
// "repro/internal/protocol.(*Proc).handle", or "" for a package outside the
// modules list (the runtime, the standard library, the root package and
// internal packages such as harness that no workload calls).
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if !slices.Contains(modules, rest) {
		return ""
	}
	return rest
}

func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
		fn == "runtime.bgscavenge" || fn == "runtime.sweepone" || fn == "runtime.markroot"
}

// attribute decodes a gzipped pprof CPU profile, as runtime/pprof writes
// it, and attributes its samples by module.
func attribute(gz []byte) (*shares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	s := &shares{byModule: map[string]int64{}}
	for _, smp := range p.samples {
		if len(smp.values) == 0 {
			continue
		}
		n := smp.values[0] // sample count
		s.total += n
		mod, sawFmt, gc := "", false, false
		for _, id := range smp.locs {
			for _, fid := range p.locLines[id] {
				fn := p.strings[p.funcName[fid]]
				if isGC(fn) {
					gc = true
				}
				if mod == "" {
					mod = moduleOf(fn)
					if strings.HasPrefix(fn, "fmt.") {
						sawFmt = true
					}
				}
			}
		}
		if gc {
			s.gc += n
		}
		if mod == "protocol" && sawFmt {
			s.fmtUnderProtocol += n
		}
		if mod == "" {
			mod = "runtime"
		}
		s.byModule[mod] += n
	}
	if s.total == 0 {
		return nil, errors.New("profile has no samples")
	}
	return s, nil
}

// profile is the subset of the pprof protobuf message the attribution
// needs: samples as leaf-first location ids, each location's inlined
// function ids innermost first, function name string indices, and the
// string table.
type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64
	funcName map[uint64]int64
	strings  []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// Field numbers of the pprof profile.proto messages.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6

	sampleLocField   = 1
	sampleValueField = 2

	locIDField   = 1
	locLineField = 4
	lineFuncID   = 1

	funcIDField   = 1
	funcNameField = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := walk(b, func(field int, v uint64, data []byte) error {
		switch field {
		case profSampleField:
			var s profSample
			err := walk(data, func(f int, v uint64, d []byte) error {
				switch f {
				case sampleLocField:
					return appendVarints(&s.locs, v, d)
				case sampleValueField:
					var vs []uint64
					if err := appendVarints(&vs, v, d); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocationField:
			var id uint64
			var funcs []uint64
			err := walk(data, func(f int, v uint64, d []byte) error {
				switch f {
				case locIDField:
					id = v
				case locLineField:
					return walk(d, func(lf int, lv uint64, _ []byte) error {
						if lf == lineFuncID {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = funcs
			return err
		case profFunctionField:
			var id uint64
			var name int64
			err := walk(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case funcIDField:
					id = v
				case funcNameField:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profStringField:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("decode profile: function name index %d out of range", idx)
		}
	}
	return p, nil
}

// walk calls fn for every field of a protobuf message: varint fields pass
// their value, length-delimited fields their bytes; fixed-width fields are
// skipped.
func walk(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("truncated fixed field")
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrives either
// unpacked (one value, data nil) or packed (data holds the varints).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
