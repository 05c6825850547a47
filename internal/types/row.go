package types

import "strings"

// Row is an ordered tuple of datums. Rows are positional; column names live
// in the schema layer.
type Row []Datum

// Clone returns a deep copy of the row (datums are immutable, so a shallow
// slice copy suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports whether two rows have the same length and pairwise-equal
// datums under Datum.Equal.
func (r Row) Equal(other Row) bool {
	if len(r) != len(other) {
		return false
	}
	for i := range r {
		if !r[i].Equal(other[i]) {
			return false
		}
	}
	return true
}

// Compare orders rows lexicographically by position.
func (r Row) Compare(other Row) int {
	n := len(r)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		if c := r[i].Compare(other[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(r) < len(other):
		return -1
	case len(r) > len(other):
		return 1
	default:
		return 0
	}
}

// MemSize estimates the bytes a materialized copy of the row retains: the
// slice header plus each datum's inline struct and string payload. It is
// the unit the executor's per-query memory budget accounts in.
func (r Row) MemSize() int64 {
	// 24 = slice header; 40 ≈ unsafe.Sizeof(Datum{}) (kind + pad + i + f +
	// string header), kept as a constant so types stays unsafe-free.
	size := int64(24) + int64(len(r))*40
	for _, d := range r {
		if d.kind == KindString {
			size += int64(len(d.s))
		}
	}
	return size
}

// Project returns the sub-row at the given positions.
func (r Row) Project(cols []int) Row {
	out := make(Row, len(cols))
	for i, c := range cols {
		out[i] = r[c]
	}
	return out
}

// Concat returns a new row holding r followed by other.
func (r Row) Concat(other Row) Row {
	out := make(Row, 0, len(r)+len(other))
	out = append(out, r...)
	out = append(out, other...)
	return out
}

// String renders the row as a parenthesized tuple.
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, d := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.String())
	}
	b.WriteByte(')')
	return b.String()
}
