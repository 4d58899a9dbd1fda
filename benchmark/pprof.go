package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// profileSample is one stack of a decoded CPU profile: function names
// innermost first, and the sample count.
type profileSample struct {
	stack []string
	count int64
}

// decodeProfile reads a gzipped pprof protobuf (profile.proto) as
// runtime/pprof writes it and returns its samples. It decodes only the
// fields layer attribution needs: samples, locations, functions and the
// string table.
func decodeProfile(data []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs, values []uint64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string table index
		strs    []string
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		var ps profileSample
		if len(s.values) > 0 {
			ps.count = int64(s.values[0]) // runtime/pprof's first value: the sample count
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && i < int64(len(strs)) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// walkFields calls fn for every field of one protobuf message: varint
// fields pass their value, length-delimited fields their bytes. Fixed-
// width fields are skipped.
func walkFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var (
			v    uint64
			data []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field: one value (unpacked) or
// a packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// layerShares attributes every sample to the innermost frame that
// belongs to a simulator package (so standard-library callees count
// toward their caller, e.g. crypto/sha256 under sweep.Key) and to
// "runtime" when no frame does. The shares sum to 1 over shareLayers.
func layerShares(samples []profileSample) map[string]float64 {
	shares := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		shares[l] = 0
	}
	var total float64
	for _, s := range samples {
		layer := "runtime"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		shares[layer] += float64(s.count)
		total += float64(s.count)
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares
}
