// Package vec defines softdb's columnar batch representation: a window of
// rows plus a selection vector and per-column typed slices (int64/float64/
// string with a null mask). Batches are the currency of the executor's one
// operator pipeline — scans produce one batch per heap page, filters shrink
// the selection vector with tight-loop kernels, and joins/aggregations
// consume the typed columns without re-walking expression trees per row.
//
// A batch holds its window in one of two forms. A row batch (Reset) holds
// rows, and its typed columns are extracted from them on first use. A
// column batch (ResetColumns) holds a heap page's own typed columns and no
// rows: Col hands those columns out as they are, and a consumer that needs
// rows either reads a borrowed View of one row or has the batch build the
// selected rows (Row, At), which it then owns.
//
// Ownership contract (see DESIGN.md §16): a Batch, its selection and its
// columns are borrowed — valid only until the emit callback returns. Its row
// values may be retained without cloning only when Owned is set (though not
// the batch's row slice itself); rows a column batch builds are always
// owned. Columns always cover the full window so selection-vector indexes
// apply directly.
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

// Col is one typed column: exactly one of Ints/Floats/Strs is populated (per
// Class) over the full window, with Nulls marking NULL positions. HasNulls
// reports whether any position may be NULL, so kernels can drop the mask
// test from their loops on the (common) null-free column.
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
	// Sel selects the live subset of the window in ascending order; nil
	// means every position is live.
	Sel []int32
	// Owned reports that the row values are freshly allocated by the
	// producer and will never be reused: consumers may retain them without
	// cloning. The batch's row slice and Sel themselves remain borrowed.
	Owned bool

	n    int
	rows []types.Row
	cols []Col
	// kinds is non-nil for a column batch: the kind of each column, which
	// is what a datum built from its class image is. built holds the rows
	// At has built (nil outside the selection they were built for), view
	// View's scratch.
	kinds []types.Kind
	built []types.Row
	view  types.Row
}

// Reset points the batch at a new row window, clearing the selection vector
// and invalidating extracted columns while keeping their capacity.
func (b *Batch) Reset(rows []types.Row) {
	b.n = len(rows)
	b.rows = rows
	b.Sel = nil
	b.Owned = false
	if b.kinds != nil {
		// The columns are a page's: extraction must not write into them.
		clear(b.cols)
		b.kinds = nil
	}
	for i := range b.cols {
		b.cols[i].extracted = false
		b.cols[i].ok = false
	}
}

// ResetColumns points the batch at a window of n rows held as columns of the
// given kinds (a heap page's columns) and returns those columns for the
// producer to fill: each gets its class, and the producer sets its value
// slice, Nulls and HasNulls over at least n positions. kinds is retained
// until the next Reset; every column is borrowed like the batch.
func (b *Batch) ResetColumns(n int, kinds []types.Kind) []Col {
	b.n = n
	b.Sel = nil
	b.Owned = false
	b.kinds = kinds
	b.rows = nil
	b.built = b.built[:0]
	if cap(b.cols) < len(kinds) {
		b.cols = make([]Col, len(kinds))
	}
	b.cols = b.cols[:cap(b.cols)]
	for i := range b.cols {
		c := &b.cols[i]
		c.extracted, c.ok = false, false
		if i < len(kinds) {
			*c = Col{Class: ClassOf(kinds[i]), extracted: true, ok: true}
		}
	}
	return b.cols[:len(kinds)]
}

// Size reports the window's length: the bound of every position in Sel.
func (b *Batch) Size() int { return b.n }

// Len reports the number of selected rows.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// Index returns the i-th selected row's position in the window.
func (b *Batch) Index(i int) int {
	if b.Sel != nil {
		return int(b.Sel[i])
	}
	return i
}

// Row returns the i-th selected row (see At).
func (b *Batch) Row(i int) types.Row { return b.At(b.Index(i)) }

// At returns the row at window position idx. A column batch builds the
// rows of its whole selection on first use, from one fresh slab, and is
// Owned from then on: a consumer that retains rows checks Owned after
// asking for them.
func (b *Batch) At(idx int) types.Row {
	if b.kinds == nil {
		return b.rows[idx]
	}
	if len(b.built) == 0 {
		b.build()
	}
	if b.built[idx] == nil { // outside the selection the rows were built for
		b.built[idx] = b.appendRow(make(types.Row, 0, len(b.kinds)), idx)
	}
	return b.built[idx]
}

// build materializes the selected rows of a column batch.
func (b *Batch) build() {
	if cap(b.built) < b.n {
		b.built = make([]types.Row, b.n)
	} else {
		b.built = b.built[:b.n]
		clear(b.built)
	}
	w := len(b.kinds)
	slab := make([]types.Datum, 0, b.Len()*w)
	for i := 0; i < b.Len(); i++ {
		idx := b.Index(i)
		start := len(slab)
		slab = b.appendRow(slab, idx)
		b.built[idx] = types.Row(slab[start:len(slab):len(slab)])
	}
	b.Owned = true
}

// View returns the row at window position idx, borrowed: a column batch
// builds it into scratch that the next View call reuses, so the caller may
// read it but not retain it.
func (b *Batch) View(idx int) types.Row {
	if b.kinds == nil || len(b.built) > 0 {
		return b.At(idx)
	}
	b.view = b.appendRow(b.view[:0], idx)
	return b.view
}

// Datum returns column ord of the row at window position idx without
// building the row; ok is false when the row has no such column.
func (b *Batch) Datum(idx, ord int) (d types.Datum, ok bool) {
	if b.kinds == nil {
		if row := b.rows[idx]; ord >= 0 && ord < len(row) {
			return row[ord], true
		}
		return types.Null, false
	}
	if ord < 0 || ord >= len(b.kinds) {
		return types.Null, false
	}
	return b.cols[ord].Datum(b.kinds[ord], idx), true
}

// Fill writes the columns ords of the rows at window positions idxs into
// dst, row j's at dst[j*len(ords):], filling column by column, and reports
// whether it did: only a column batch can, over ordinals it has. It is how
// a consumer builds narrow rows from the columns it reads.
func (b *Batch) Fill(dst []types.Datum, idxs []int32, ords []int) bool {
	if b.kinds == nil {
		return false
	}
	for _, ord := range ords {
		if ord < 0 || ord >= len(b.kinds) {
			return false
		}
	}
	w := len(ords)
	for k, ord := range ords {
		c := &b.cols[ord]
		switch b.kinds[ord] {
		case types.KindInt:
			fill(dst[k:], w, idxs, c.Nulls, c.Ints, types.NewInt)
		case types.KindDate:
			fill(dst[k:], w, idxs, c.Nulls, c.Ints, types.NewDate)
		case types.KindFloat:
			fill(dst[k:], w, idxs, c.Nulls, c.Floats, types.NewFloat)
		case types.KindString:
			fill(dst[k:], w, idxs, c.Nulls, c.Strs, types.NewString)
		default:
			for j, idx := range idxs {
				dst[k+j*w] = c.Datum(types.KindBool, int(idx))
			}
		}
	}
	return true
}

// fill writes make(vals[idx]) (NULL where nulls says so) into every w-th
// datum of dst, one per position in idxs.
func fill[T int64 | float64 | string](dst []types.Datum, w int, idxs []int32, nulls []bool, vals []T, make func(T) types.Datum) {
	for j, idx := range idxs {
		if nulls[idx] {
			dst[j*w] = types.Null
		} else {
			dst[j*w] = make(vals[idx])
		}
	}
}

// Width reports how many columns the window's rows have (0 for an empty
// row window).
func (b *Batch) Width() int {
	if b.kinds != nil {
		return len(b.kinds)
	}
	if b.n == 0 {
		return 0
	}
	return len(b.rows[0])
}

// RowMemSize is what types.Row.MemSize reports for the row at window
// position idx, without building it.
func (b *Batch) RowMemSize(idx int) int64 {
	if b.kinds == nil {
		return b.rows[idx].MemSize()
	}
	size := int64(24) + int64(len(b.kinds))*40
	for ord, k := range b.kinds {
		if c := &b.cols[ord]; k == types.KindString && !c.Nulls[idx] {
			size += int64(len(c.Strs[idx]))
		}
	}
	return size
}

// appendRow appends the datums of a column batch's position idx to dst.
func (b *Batch) appendRow(dst types.Row, idx int) types.Row {
	for ord, k := range b.kinds {
		dst = append(dst, b.cols[ord].Datum(k, idx))
	}
	return dst
}

// Datum builds the datum of kind k at position idx of a native column.
func (c *Col) Datum(k types.Kind, idx int) types.Datum {
	if c.Nulls[idx] {
		return types.Null
	}
	switch k {
	case types.KindInt:
		return types.NewInt(c.Ints[idx])
	case types.KindDate:
		return types.NewDate(c.Ints[idx])
	case types.KindBool:
		return types.NewBool(c.Ints[idx] != 0)
	case types.KindFloat:
		return types.NewFloat(c.Floats[idx])
	default:
		return types.NewString(c.Strs[idx])
	}
}

// Append appends d, which is NULL or of the column's class, to c.
func (c *Col) Append(d types.Datum) {
	null := d.IsNull()
	c.Nulls = append(c.Nulls, null)
	c.HasNulls = c.HasNulls || null
	switch c.Class {
	case ClassInt:
		var v int64
		if !null {
			v = d.IntImage()
		}
		c.Ints = append(c.Ints, v)
	case ClassFloat:
		var v float64
		if !null {
			v = d.Float()
		}
		c.Floats = append(c.Floats, v)
	case ClassStr:
		var v string
		if !null {
			v = d.Str()
		}
		c.Strs = append(c.Strs, v)
	}
}

// Truncate shortens the selection to the first n rows.
func (b *Batch) Truncate(n int) {
	if n >= b.Len() {
		return
	}
	if b.Sel == nil {
		b.n = n
		if b.kinds == nil {
			b.rows = b.rows[:n]
		}
		return
	}
	b.Sel = b.Sel[:n]
}

// Col returns column ord as the given class. A column batch hands out its
// own column when the class is the column's; a row batch extracts the
// column on first use, cached per Reset window. It returns nil when the
// ordinal is out of range, the class is ClassNone or not the column's, or
// any non-null datum in a row window does not belong to the class —
// callers must fall back to row-at-a-time evaluation then.
func (b *Batch) Col(ord int, want Class) *Col {
	if want == ClassNone || ord < 0 {
		return nil
	}
	if b.kinds != nil {
		if ord >= len(b.kinds) || b.cols[ord].Class != want {
			return nil
		}
		return &b.cols[ord]
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
	c.ok = extract(c, b.rows, ord, want)
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
