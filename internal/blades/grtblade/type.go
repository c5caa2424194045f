package grtblade

import (
	"encoding/binary"
	"fmt"

	"repro/internal/chronon"
	"repro/internal/temporal"
	"repro/internal/types"
)

// The opaque data type and its support functions (Section 6.3): the first of
// the paper's implementation tasks, and all that a client that only stores
// and prints time extents needs of the blade.

// TypeName is the opaque type's registered name.
const TypeName = "GRT_TimeExtent_t"

// extent internal structure: 4 big-endian int64 timestamps (32 bytes).
const extentSize = 32

// EncodeExtent serialises a time extent to the opaque internal structure.
func EncodeExtent(e temporal.Extent) []byte {
	buf := make([]byte, extentSize)
	binary.BigEndian.PutUint64(buf[0:8], uint64(e.TTBegin))
	binary.BigEndian.PutUint64(buf[8:16], uint64(e.TTEnd))
	binary.BigEndian.PutUint64(buf[16:24], uint64(e.VTBegin))
	binary.BigEndian.PutUint64(buf[24:32], uint64(e.VTEnd))
	return buf
}

// DecodeExtent deserialises the opaque internal structure.
func DecodeExtent(data []byte) (temporal.Extent, error) {
	if len(data) != extentSize {
		return temporal.Extent{}, fmt.Errorf("grtblade: extent value has %d bytes, want %d", len(data), extentSize)
	}
	return temporal.Extent{
		TTBegin: chronon.Instant(binary.BigEndian.Uint64(data[0:8])),
		TTEnd:   chronon.Instant(binary.BigEndian.Uint64(data[8:16])),
		VTBegin: chronon.Instant(binary.BigEndian.Uint64(data[16:24])),
		VTEnd:   chronon.Instant(binary.BigEndian.Uint64(data[24:32])),
	}, nil
}

// wire form: 4-byte version tag + internal structure (the binary
// send/receive support functions, Section 6.3 item 2).
var wireTag = []byte{'G', 'R', 'T', '1'}

// SupportFuncs returns the type support functions for GRT_TimeExtent_t,
// including the UC/NOW handling and constraint checking the paper added to
// the generated skeletons (Section 6.3).
func SupportFuncs() types.SupportFuncs {
	input := func(text string) ([]byte, error) {
		e, err := temporal.ParseExtent(text)
		if err != nil {
			return nil, err
		}
		if !e.Valid() {
			return nil, fmt.Errorf("grtblade: %v violates the bitemporal constraints (case invalid)", e)
		}
		return EncodeExtent(e), nil
	}
	output := func(data []byte) (string, error) {
		e, err := DecodeExtent(data)
		if err != nil {
			return "", err
		}
		return e.String(), nil
	}
	return types.SupportFuncs{
		Input:  input,
		Output: output,
		Send: func(data []byte) ([]byte, error) {
			if _, err := DecodeExtent(data); err != nil {
				return nil, err
			}
			return append(append([]byte(nil), wireTag...), data...), nil
		},
		Receive: func(wire []byte) ([]byte, error) {
			if len(wire) != len(wireTag)+extentSize || string(wire[:4]) != string(wireTag) {
				return nil, fmt.Errorf("grtblade: malformed wire value (%d bytes)", len(wire))
			}
			return append([]byte(nil), wire[4:]...), nil
		},
		// Text-file import/export (the LOAD format) share the text forms —
		// the code repetition BladeSmith generated is folded together here.
		Import: input,
		Export: output,
		// Value ordering for MIN/MAX: the encoding is big-endian and the
		// instants are signed, so raw bytewise comparison would misorder
		// negative instants — decode and compare the four timestamps
		// lexicographically instead. This is the same total order the
		// GR-tree's AggExtreme uses, which is what makes a pushed MIN/MAX
		// agree exactly with the server's tuple-drain fallback.
		Compare: func(a, b []byte) (int, error) {
			ea, err := DecodeExtent(a)
			if err != nil {
				return 0, err
			}
			eb, err := DecodeExtent(b)
			if err != nil {
				return 0, err
			}
			ka := [4]int64{int64(ea.TTBegin), int64(ea.TTEnd), int64(ea.VTBegin), int64(ea.VTEnd)}
			kb := [4]int64{int64(eb.TTBegin), int64(eb.TTEnd), int64(eb.VTBegin), int64(eb.VTEnd)}
			for i := range ka {
				if ka[i] < kb[i] {
					return -1, nil
				}
				if ka[i] > kb[i] {
					return 1, nil
				}
			}
			return 0, nil
		},
	}
}

// RegisterTypes registers the blade's opaque type; pass it as
// engine.Options.Types when re-opening a database whose catalog already
// references GRT_TimeExtent_t columns.
func RegisterTypes(reg *types.Registry) error {
	if _, ok := reg.Lookup(TypeName); ok {
		return nil
	}
	_, err := reg.RegisterOpaque(TypeName, SupportFuncs())
	return err
}

func extentArg(d types.Datum) (temporal.Extent, error) {
	op, ok := d.(types.Opaque)
	if !ok {
		return temporal.Extent{}, fmt.Errorf("grtblade: expected a %s value, got %T", TypeName, d)
	}
	return DecodeExtent(op.Data)
}

// regionValue renders an entry's region as a value of the opaque type: the
// four timestamps, without the Rectangle and Hidden flags of an internal
// bound.
func regionValue(typeID uint32, r temporal.Region) types.Opaque {
	return types.Opaque{TypeID: typeID, Data: EncodeExtent(temporal.Extent{
		TTBegin: r.TTBegin, TTEnd: r.TTEnd, VTBegin: r.VTBegin, VTEnd: r.VTEnd,
	})}
}
