// Package codec holds the wire protocol's payload primitives — unsigned
// varints, zigzag varints, uvarint-length-prefixed strings, and the compact
// datum codec covering every types.Kind — as a leaf package so subsystems
// below the protocol layer (the write-ahead log, catalog snapshots) can
// reuse the exact same encoding without importing the framing (which pulls
// in exec for structured errors).
//
// Encoding appends onto a caller-owned []byte; decoding goes through a
// Decoder that latches the first malformed field and returns zero values
// for every later read, so call sites check Err() once at the end.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"softdb/internal/types"
)

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zigzag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends raw bytes with a uvarint length prefix.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendBool appends a single 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat appends an IEEE-754 float64 big-endian.
func AppendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendDatum appends a datum as kind byte + value.
func AppendDatum(b []byte, d types.Datum) ([]byte, error) {
	b = append(b, byte(d.Kind()))
	switch d.Kind() {
	case types.KindNull:
	case types.KindInt:
		b = binary.AppendVarint(b, d.Int())
	case types.KindDate:
		b = binary.AppendVarint(b, d.Date())
	case types.KindFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(d.Float()))
	case types.KindBool:
		if d.Bool() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case types.KindString:
		b = AppendString(b, d.Str())
	default:
		return nil, fmt.Errorf("wire: cannot encode datum kind %s", d.Kind())
	}
	return b, nil
}

// AppendRow appends a row as uvarint arity + datums.
func AppendRow(b []byte, row types.Row) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(row)))
	var err error
	for _, d := range row {
		if b, err = AppendDatum(b, d); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Decoder decodes a payload sequentially; the first malformed field latches
// an error and every later read returns zero values.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder positioned at the start of buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the latched decode error, if any.
func (r *Decoder) Err() error { return r.err }

// Len reports how many undecoded bytes remain.
func (r *Decoder) Len() int { return len(r.buf) }

// Fail latches a decode error described by what.
func (r *Decoder) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s", what)
	}
}

// Uvarint decodes an unsigned varint.
func (r *Decoder) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if !r.minimal(n, what) {
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint decodes a zigzag varint.
func (r *Decoder) Varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if !r.minimal(n, what) {
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// minimal checks the n-byte varint at the head of the buffer, latching an
// error unless it decoded and is in its shortest form: every encoder here
// writes the shortest form, so a padded one (a final 0x00 group) is
// corrupt input, and accepting it would let two byte strings decode alike.
func (r *Decoder) minimal(n int, what string) bool {
	switch {
	case n <= 0:
		r.Fail(what)
	case n > 1 && r.buf[n-1] == 0:
		r.err = fmt.Errorf("wire: padded varint in %s", what)
	default:
		return true
	}
	return false
}

// String decodes a length-prefixed string.
func (r *Decoder) String(what string) string {
	n := r.Uvarint(what)
	if r.err != nil {
		return ""
	}
	if uint64(len(r.buf)) < n {
		r.Fail(what)
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// Bytes decodes a length-prefixed byte string (copied out of the buffer).
func (r *Decoder) Bytes(what string) []byte {
	n := r.Uvarint(what)
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)) < n {
		r.Fail(what)
		return nil
	}
	p := make([]byte, n)
	copy(p, r.buf[:n])
	r.buf = r.buf[n:]
	return p
}

// Byte decodes one byte.
func (r *Decoder) Byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.Fail(what)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Bool decodes a 0/1 byte. Any other value is an error, keeping the
// encoding canonical (decode∘encode is the identity on valid payloads).
func (r *Decoder) Bool(what string) bool {
	b := r.Byte(what)
	if b > 1 {
		r.Fail(what)
		return false
	}
	return b == 1
}

// Uint64 decodes a big-endian fixed-width uint64.
func (r *Decoder) Uint64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.Fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// Float decodes a big-endian IEEE-754 float64.
func (r *Decoder) Float(what string) float64 {
	return math.Float64frombits(r.Uint64(what))
}

// Datum decodes a kind byte + value datum.
func (r *Decoder) Datum() types.Datum {
	switch types.Kind(r.Byte("datum kind")) {
	case types.KindNull:
		return types.Null
	case types.KindInt:
		return types.NewInt(r.Varint("int datum"))
	case types.KindDate:
		return types.NewDate(r.Varint("date datum"))
	case types.KindFloat:
		return types.NewFloat(math.Float64frombits(r.Uint64("float datum")))
	case types.KindBool:
		return types.NewBool(r.Bool("bool datum"))
	case types.KindString:
		return types.NewString(r.String("string datum"))
	default:
		if r.err == nil {
			r.err = errors.New("wire: unknown datum kind")
		}
		return types.Null
	}
}

// Row decodes a uvarint arity + datums row. The arity is sanity-bounded by
// the remaining payload so a corrupt prefix cannot force an allocation.
func (r *Decoder) Row(what string) types.Row {
	n := r.Uvarint(what)
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Len()) { // each datum costs >= 1 byte
		r.Fail(what)
		return nil
	}
	row := make(types.Row, 0, n)
	for i := uint64(0); i < n; i++ {
		row = append(row, r.Datum())
	}
	if r.err != nil {
		return nil
	}
	return row
}
