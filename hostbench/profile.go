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

// leafCounts decodes a gzipped pprof CPU profile and buckets its samples by
// the package of each sample's leaf frame (the innermost inlined function of
// the first location), into leafModules. It adds each bucket's sample count
// to counts and the profile's sample count to total.
//
// Only the profile.proto fields needed for that are read: sample (2),
// location (4), function (5) and string_table (6).
func leafCounts(gz []byte, counts map[string]int64, total *int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("reading profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("reading profile: %w", err)
	}
	type sample struct {
		leafLoc uint64
		count   int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → leaf function id
		funcName = map[uint64]int64{}  // function id → string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2:
			// A repeated field may come as several fields; only the first
			// location (the leaf) and the first value (the sample count)
			// matter.
			var s sample
			seenLoc, seenVal := false, false
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				if num != 1 && num != 2 {
					return nil
				}
				xs, err := varints(wire, v, b)
				if err != nil || len(xs) == 0 {
					return err
				}
				if num == 1 && !seenLoc {
					s.leafLoc, seenLoc = xs[0], true
				} else if num == 2 && !seenVal {
					s.count, seenVal = int64(xs[0]), true
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2:
			var id, fn uint64
			seenLine := false
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2 && !seenLine:
					seenLine = true
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case num == 5 && wire == 2:
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 2 && wire == 0:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case num == 6 && wire == 2:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("reading profile: %w", err)
	}

	for _, s := range samples {
		name := ""
		if si := funcName[locFunc[s.leafLoc]]; si >= 0 && si < int64(len(strs)) {
			name = strs[si]
		}
		counts[moduleOf(name)] += s.count
		*total += s.count
	}
	return nil
}

// moduleOf maps a Go symbol ("fpgapart/internal/core.(*Circuit).step",
// "runtime.memmove") to its leafModules bucket.
func moduleOf(symbol string) string {
	pkg := symbol
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if strings.HasPrefix(pkg, "fpgapart/") {
		last := pkg[strings.LastIndex(pkg, "/")+1:]
		for _, m := range leafModules {
			if m == last {
				return m
			}
		}
	}
	return "other"
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. For varint fields
// (wire type 0) v holds the value; for length-delimited fields (wire type 2)
// b holds the bytes. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errTruncated
			}
			msg = msg[size:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated varint field in either encoding: one value
// (wire type 0) or a packed run (wire type 2).
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
