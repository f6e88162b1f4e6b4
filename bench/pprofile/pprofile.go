// Package pprofile decodes just enough of a Go CPU profile (gzip-compressed
// profile.proto, as runtime/pprof writes it) to attribute every sample to
// the function at its leaf frame. It exists so the benchmark can bucket a
// profile by package without a dependency outside the standard library.
//
// Only the fields the attribution needs are read: Profile.sample (2),
// Profile.location (4), Profile.function (5) and Profile.string_table (6);
// within them Sample.location_id/value, Location.id/line, Line.function_id
// and Function.id/name. Everything else is skipped by wire type.
package pprofile

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Leaves is a decoded profile reduced to leaf-frame sample counts.
type Leaves struct {
	// ByFunc maps a fully qualified function name, as the Go linker
	// spells it ("crowdram/internal/ctrl.(*Controller).Tick"), to the
	// samples whose innermost frame it was.
	ByFunc map[string]int64
	// Total is the number of samples in the profile.
	Total int64
}

// Decode reads a gzip-compressed CPU profile. The first value of each sample
// (the sample count for CPU profiles) is the weight.
func Decode(gz []byte) (Leaves, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return Leaves{}, fmt.Errorf("pprofile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return Leaves{}, fmt.Errorf("pprofile: %w", err)
	}

	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFunc = map[uint64]uint64{} // location id → leaf function id
		fnName  = map[uint64]int64{}  // function id → string-table index
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var haveLoc, haveVal bool
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, leaf first
					if first, ok, err := firstVarint(wire, v, b); err != nil {
						return err
					} else if ok && !haveLoc {
						s.leaf, haveLoc = first, true
					}
				case 2: // value
					if first, ok, err := firstVarint(wire, v, b); err != nil {
						return err
					} else if ok && !haveVal {
						s.count, haveVal = int64(first), true
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if haveLoc && haveVal {
				samples = append(samples, s)
			}
		case 4: // Location
			var id, fn uint64
			var haveLine bool
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined call
					if haveLine {
						return nil
					}
					haveLine = true
					return fields(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
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
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return Leaves{}, err
	}

	out := Leaves{ByFunc: map[string]int64{}}
	for _, s := range samples {
		name := "?"
		if idx, ok := fnName[locFunc[s.leaf]]; ok && idx >= 0 && idx < int64(len(strs)) && strs[idx] != "" {
			name = strs[idx]
		}
		out.ByFunc[name] += s.count
		out.Total += s.count
	}
	return out, nil
}

// Package returns the import path of a linker-qualified function name:
// everything before the first dot that follows the last slash.
func Package(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

var errTruncated = errors.New("pprofile: truncated protobuf")

// fields walks one protobuf message, calling fn per field with the varint
// value (wire type 0) or the payload (wire type 2).
func fields(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprofile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// firstVarint returns the first element of a repeated integer field, which
// arrives either packed (wire type 2) or as one varint per occurrence.
func firstVarint(wire int, v uint64, packed []byte) (uint64, bool, error) {
	if wire == 0 {
		return v, true, nil
	}
	if len(packed) == 0 {
		return 0, false, nil
	}
	first, n := varint(packed)
	if n == 0 {
		return 0, false, errTruncated
	}
	return first, true, nil
}

func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
