// Package vec defines softdb's columnar batch representation: a borrowed
// window of rows plus a selection vector and lazily-extracted per-column
// typed slices (int64/float64/string with a null mask). Batches are the
// currency of the executor's one operator pipeline — scans produce one
// batch per heap page, filters shrink the selection vector with tight-loop
// kernels, and joins/aggregations consume the typed columns without
// re-walking expression trees per row.
//
// Ownership contract (see DESIGN.md §16): a Batch and its Rows slice are
// borrowed — valid only until the emit callback returns — unless Owned is
// set, in which case the row values (though not the Rows slice header) may
// be retained by the consumer without cloning. Extracted columns always
// cover the full Rows window so selection-vector indexes apply directly.
//
// A batch over a frozen heap page (ResetImage) additionally carries the
// page's PageImage: Col then returns the image's shared, immutable vector
// instead of pivoting the rows again. The ownership contract is unchanged —
// the window is still borrowed; only the pivot is cached.
package vec

import "softdb/internal/types"

// Class is the storage class of an extracted column. Int/Date/Bool datums
// share the integer image; floats and strings get their own slices.
type Class uint8

const (
	// ClassNone marks a column that has not been extracted (or failed).
	ClassNone Class = iota
	// ClassInt covers INT, DATE and BOOL datums via their int64 image.
	ClassInt
	// ClassFloat covers FLOAT datums.
	ClassFloat
	// ClassStr covers STRING datums.
	ClassStr
)

// ClassOf maps a static datum kind to its extraction class.
func ClassOf(k types.Kind) Class {
	switch k {
	case types.KindInt, types.KindDate, types.KindBool:
		return ClassInt
	case types.KindFloat:
		return ClassFloat
	case types.KindString:
		return ClassStr
	default:
		return ClassNone
	}
}

// Col is one extracted column: exactly one of Ints/Floats/Strs is populated
// (per Class) over the full row window, with Nulls marking NULL positions.
// HasNulls reports whether any position is NULL, so kernels can drop the
// mask test from their loops on the (common) null-free column.
type Col struct {
	Class    Class
	Ints     []int64
	Floats   []float64
	Strs     []string
	Nulls    []bool
	HasNulls bool

	extracted bool
	ok        bool
}

// Batch is one window of rows flowing through the batched pipeline.
type Batch struct {
	// Rows is the row-major data, borrowed from the producer unless Owned.
	Rows []types.Row
	// Sel selects the live subset of Rows in ascending order; nil means
	// every row is live.
	Sel []int32
	// Owned reports that the row values are freshly allocated by the
	// producer and will never be reused: consumers may retain them without
	// cloning. The Rows and Sel slice headers themselves remain borrowed.
	Owned bool
	// Stored reports that the row values are the heap's stored rows (a page
	// scan's window, an index scan's fetched versions). Stored rows are
	// never written after they are published, so a consumer may retain them
	// without cloning, as with Owned; unlike Owned rows they are shared with
	// storage and every other reader, so they must not be handed on as
	// Owned either.
	Stored bool

	cols []Col
	// img is the frozen page image Rows is the full window of, or nil.
	img *PageImage
}

// Reset points the batch at a new row window, clearing the selection vector
// and invalidating extracted columns while keeping their capacity.
func (b *Batch) Reset(rows []types.Row) {
	b.Rows = rows
	b.Sel = nil
	b.Owned = false
	b.Stored = false
	b.img = nil
	for i := range b.cols {
		b.cols[i].extracted = false
		b.cols[i].ok = false
	}
}

// ResetImage is Reset for the full row window of a frozen heap page: columns
// the image can serve are never extracted again. A nil img is plain Reset.
func (b *Batch) ResetImage(rows []types.Row, img *PageImage) {
	b.Reset(rows)
	b.img = img
}

// Len reports the number of selected rows.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return len(b.Rows)
}

// Index returns the i-th selected row's position in Rows.
func (b *Batch) Index(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// Row returns the i-th selected row.
func (b *Batch) Row(i int) types.Row { return b.Rows[b.Index(i)] }

// Truncate shortens the selection to the first n rows.
func (b *Batch) Truncate(n int) {
	if n >= b.Len() {
		return
	}
	if b.Sel == nil {
		b.Rows = b.Rows[:n]
		b.img = nil // image vectors are built from the page's full window only
		return
	}
	b.Sel = b.Sel[:n]
}

// Col extracts (on first use, cached per Reset window) column ord as the
// given class; over a frozen page it returns the page image's vector, which
// is shared and must not be written. It returns nil when the ordinal is out
// of range, the class is ClassNone, or any non-null datum in the window does
// not belong to the class — callers must fall back to row-at-a-time
// evaluation then.
func (b *Batch) Col(ord int, want Class) *Col {
	if want == ClassNone || ord < 0 {
		return nil
	}
	if b.img != nil {
		if c, known := b.img.col(b.Rows, ord, want); known {
			return c
		}
	}
	if ord >= len(b.cols) {
		grown := make([]Col, ord+1)
		copy(grown, b.cols)
		b.cols = grown
	}
	c := &b.cols[ord]
	if c.extracted && c.Class == want {
		if !c.ok {
			return nil
		}
		return c
	}
	c.extracted = true
	c.Class = want
	c.ok = extract(c, b.Rows, ord, want)
	if !c.ok {
		return nil
	}
	return c
}

// extract fills c from rows[*][ord], validating every non-null datum is of
// the wanted class.
func extract(c *Col, rows []types.Row, ord int, want Class) bool {
	n := len(rows)
	if cap(c.Nulls) < n {
		c.Nulls = make([]bool, n)
	} else {
		c.Nulls = c.Nulls[:n]
		clear(c.Nulls)
	}
	c.HasNulls = false
	switch want {
	case ClassInt:
		if cap(c.Ints) < n {
			c.Ints = make([]int64, n)
		} else {
			c.Ints = c.Ints[:n]
		}
		for i, row := range rows {
			if ord >= len(row) {
				return false
			}
			d := row[ord]
			switch d.Kind() {
			case types.KindNull:
				c.Nulls[i], c.HasNulls = true, true
				c.Ints[i] = 0
			case types.KindInt, types.KindDate, types.KindBool:
				c.Ints[i] = d.IntImage()
			default:
				return false
			}
		}
	case ClassFloat:
		if cap(c.Floats) < n {
			c.Floats = make([]float64, n)
		} else {
			c.Floats = c.Floats[:n]
		}
		for i, row := range rows {
			if ord >= len(row) {
				return false
			}
			d := row[ord]
			switch d.Kind() {
			case types.KindNull:
				c.Nulls[i], c.HasNulls = true, true
				c.Floats[i] = 0
			case types.KindFloat:
				c.Floats[i] = d.Float()
			default:
				return false
			}
		}
	case ClassStr:
		if cap(c.Strs) < n {
			c.Strs = make([]string, n)
		} else {
			c.Strs = c.Strs[:n]
		}
		for i, row := range rows {
			if ord >= len(row) {
				return false
			}
			d := row[ord]
			switch d.Kind() {
			case types.KindNull:
				c.Nulls[i], c.HasNulls = true, true
				c.Strs[i] = ""
			case types.KindString:
				c.Strs[i] = d.Str()
			default:
				return false
			}
		}
	default:
		return false
	}
	return true
}

// IdentitySel fills (growing as needed) buf with 0..n-1 and returns it —
// the starting selection vector for a fresh batch.
func IdentitySel(buf []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	} else {
		buf = buf[:n]
	}
	for i := range buf {
		buf[i] = int32(i)
	}
	return buf
}
