package storage

import (
	"cmp"
	"fmt"
	"strings"
	"sync/atomic"

	"softdb/internal/schema"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// A heap page stores its slots column by column (PAX): per table column one
// typed array of the page's capacity in the column's vec.Class — int64 for
// INT, DATE and BOOL, float64 for FLOAT, string for STRING — plus a
// byte-per-slot null mask. There are no row objects in the heap: a page scan
// hands its columns to a vec.Batch as they are, and every other read path
// builds the datums it returns from them (DESIGN.md §26).
//
// Publication. A writer stores every column of slot used (and its stamps)
// and only then increments used, so a reader iterating [:used] never sees a
// partly written slot, and no slot below used is ever written while readers
// may look at it: Vacuum's payload clear and replay's placeholder
// resurrection are the only in-place writes, and their callers exclude
// readers (DESIGN.md §20). Null masks are one byte per slot, so a writer
// appending slot used never shares a word with a reader of slot used-1.

// pageCol is one column of a page.
type pageCol struct {
	kind   types.Kind
	ints   []int64
	floats []float64
	strs   []string
	// hasNulls is set before the slot holding the page's first NULL is
	// published.
	nulls    []bool
	hasNulls atomic.Bool
}

// newPageCols allocates the columns of one page of capacity n.
func newPageCols(def *schema.Table, n int) []pageCol {
	cols := make([]pageCol, len(def.Columns))
	for ci, c := range def.Columns {
		pc := &cols[ci]
		pc.kind = c.Type
		switch vec.ClassOf(c.Type) {
		case vec.ClassInt:
			pc.ints = make([]int64, n)
		case vec.ClassFloat:
			pc.floats = make([]float64, n)
		case vec.ClassStr:
			pc.strs = make([]string, n)
		default:
			panic(fmt.Sprintf("storage: column %s.%s has no storage class (%s)", def.Name, c.Name, c.Type))
		}
		pc.nulls = make([]bool, n)
	}
	return cols
}

// colBytes is what one slot of column c costs in a page's arrays: the value
// (a string's header; its bytes are shared with the written datum) and the
// null mask's byte.
func colBytes(c schema.Column) int {
	if vec.ClassOf(c.Type) == vec.ClassStr {
		return 16 + 1
	}
	return 8 + 1
}

// set stores d at slot si. A column stores datums of its own kind and NULL
// only; anything else is a caller bug (rows reach the heap through
// schema.ValidateRow, which coerces every value to its column's kind).
func (c *pageCol) set(si int, d types.Datum) {
	if d.IsNull() {
		c.nulls[si] = true
		c.hasNulls.Store(true)
		c.zero(si)
		return
	}
	if d.Kind() != c.kind {
		panic(fmt.Sprintf("storage: %s value in a %s column", d.Kind(), c.kind))
	}
	c.nulls[si] = false
	switch {
	case c.ints != nil:
		c.ints[si] = d.IntImage()
	case c.floats != nil:
		c.floats[si] = d.Float()
	default:
		c.strs[si] = d.Str()
	}
}

// zero clears slot si's value; a string is dropped so it can be collected.
func (c *pageCol) zero(si int) {
	switch {
	case c.ints != nil:
		c.ints[si] = 0
	case c.floats != nil:
		c.floats[si] = 0
	default:
		c.strs[si] = ""
	}
}

// datum builds the datum at slot si.
func (c *pageCol) datum(si int) types.Datum {
	if c.nulls[si] {
		return types.Null
	}
	switch c.kind {
	case types.KindInt:
		return types.NewInt(c.ints[si])
	case types.KindDate:
		return types.NewDate(c.ints[si])
	case types.KindBool:
		return types.NewBool(c.ints[si] != 0)
	case types.KindFloat:
		return types.NewFloat(c.floats[si])
	default:
		return types.NewString(c.strs[si])
	}
}

// runBounds counts the NULLs among slots [lo, hi) and finds the slots of
// their lowest and highest non-null values (-1 when there are none), each
// the first of its ties in slot order, in Datum.Compare's order.
func (c *pageCol) runBounds(lo, hi int) (nulls, mn, mx int) {
	switch {
	case c.ints != nil:
		return bounds(c.ints, c.nulls, lo, hi, cmp.Compare[int64])
	case c.floats != nil:
		return bounds(c.floats, c.nulls, lo, hi, types.CompareFloat)
	default:
		return bounds(c.strs, c.nulls, lo, hi, strings.Compare)
	}
}

// bounds is runBounds over one typed array ordered by cmpT.
func bounds[T any](vals []T, nulls []bool, lo, hi int, cmpT func(a, b T) int) (n, mn, mx int) {
	mn, mx = -1, -1
	for si := lo; si < hi; si++ {
		switch {
		case nulls[si]:
			n++
		case mn < 0:
			mn, mx = si, si
		case cmpT(vals[si], vals[mn]) < 0:
			mn = si
		case cmpT(vals[mx], vals[si]) < 0:
			mx = si
		}
	}
	return n, mn, mx
}

// view points v at the column's first n slots.
func (c *pageCol) view(v *vec.Col, n int) {
	v.Ints, v.Floats, v.Strs = nil, nil, nil
	switch {
	case c.ints != nil:
		v.Ints = c.ints[:n]
	case c.floats != nil:
		v.Floats = c.floats[:n]
	default:
		v.Strs = c.strs[:n]
	}
	v.Nulls, v.HasNulls = c.nulls[:n], c.hasNulls.Load()
}

// appendTo appends slot si's value and null flag to v.
func (c *pageCol) appendTo(v *vec.Col, si int) {
	null := c.nulls[si]
	v.Nulls = append(v.Nulls, null)
	v.HasNulls = v.HasNulls || null
	switch {
	case c.ints != nil:
		v.Ints = append(v.Ints, c.ints[si])
	case c.floats != nil:
		v.Floats = append(v.Floats, c.floats[si])
	default:
		v.Strs = append(v.Strs, c.strs[si])
	}
}

// appendSlots appends the values and null flags of the slots sel names to
// v; all says sel is every slot from 0 up, which appends the arrays'
// prefixes whole.
func (c *pageCol) appendSlots(v *vec.Col, sel []int32, all bool) {
	if all {
		n := len(sel)
		v.Nulls = append(v.Nulls, c.nulls[:n]...)
		switch {
		case c.ints != nil:
			v.Ints = append(v.Ints, c.ints[:n]...)
		case c.floats != nil:
			v.Floats = append(v.Floats, c.floats[:n]...)
		default:
			v.Strs = append(v.Strs, c.strs[:n]...)
		}
		v.HasNulls = v.HasNulls || c.hasNulls.Load()
		return
	}
	for _, si := range sel {
		c.appendTo(v, int(si))
	}
}

// setRow stores row at slot si of every column; a nil row (an aborted
// placeholder) stores nothing.
func (p *page) setRow(si int, row types.Row) {
	if row == nil {
		return
	}
	if len(row) != len(p.cols) {
		panic(fmt.Sprintf("storage: %d values for %d columns", len(row), len(p.cols)))
	}
	for ci := range p.cols {
		p.cols[ci].set(si, row[ci])
	}
}

// appendRow appends slot si's datums to dst.
func (p *page) appendRow(dst types.Row, si int) types.Row {
	for ci := range p.cols {
		dst = append(dst, p.cols[ci].datum(si))
	}
	return dst
}

// clearSlot drops slot si's payload: the vacuum of a reclaimed version.
func (p *page) clearSlot(si int) {
	for ci := range p.cols {
		p.cols[ci].zero(si)
	}
}

// rowView is a reused row a read path builds each slot's datums into.
type rowView struct{ row types.Row }

// at builds slot si of p into the view and returns it; the row is valid
// until the next call.
func (v *rowView) at(p *page, si int) types.Row {
	v.row = p.appendRow(v.row[:0], si)
	return v.row
}
