package vec

import (
	"sync/atomic"

	"softdb/internal/types"
)

// PageImage is the columnar image of one frozen heap page: per table column,
// a typed vector in exactly Col's layout over the page's full row window.
// The storage layer publishes a PageImage only for a page whose every slot
// is committed, undeleted and visible to the snapshot that asked (see
// DESIGN.md §20), so the row window — and therefore every vector built from
// it — never changes while the image is reachable.
//
// Vectors are built lazily, one column at a time, by the first batch that
// asks for the column, and published with a compare-and-swap: concurrent
// scans may both build a column, one wins, both return the same contents.
// A published Col is immutable and shared by every batch over the page;
// consumers only read it.
type PageImage struct {
	cols  []atomic.Pointer[Col]
	bytes atomic.Int64
}

// NewPageImage returns an empty image for a table of ncols columns.
func NewPageImage(ncols int) *PageImage {
	return &PageImage{cols: make([]atomic.Pointer[Col], ncols)}
}

// Bytes reports the memory the image's built vectors hold (vector payloads
// only; string bytes are shared with the row datums, not copied).
func (im *PageImage) Bytes() int64 { return im.bytes.Load() }

// noNulls backs the null mask of every imaged column that holds no NULL, so
// a null-free column costs its value vector only. Never written.
var noNulls = make([]bool, 1024)

// col returns column ord of the page as class want, building and publishing
// it from rows (the page's full window) on first use. known reports that the
// image answers for the column: a nil vector is then final (some datum does
// not belong to the class) and the batch need not try its own extraction.
// The first class asked for is the one the image keeps; a request for
// another class is not known and falls back to the batch's private columns.
func (im *PageImage) col(rows []types.Row, ord int, want Class) (c *Col, known bool) {
	if ord >= len(im.cols) {
		return nil, false
	}
	slot := &im.cols[ord]
	c = slot.Load()
	if c == nil {
		built := &Col{Class: want, extracted: true}
		built.ok = extract(built, rows, ord, want)
		switch {
		case !built.ok:
			*built = Col{Class: want, extracted: true} // keep the verdict, not the buffers
		case !built.HasNulls && len(rows) <= len(noNulls):
			built.Nulls = noNulls[:len(rows)]
		}
		if slot.CompareAndSwap(nil, built) {
			im.bytes.Add(built.memSize())
			c = built
		} else {
			c = slot.Load()
		}
	}
	if c.Class != want {
		return nil, false
	}
	if !c.ok {
		return nil, true
	}
	return c, true
}

// memSize is the vector payload a built column retains.
func (c *Col) memSize() int64 {
	n := int64(len(c.Ints))*8 + int64(len(c.Floats))*8 + int64(len(c.Strs))*16
	if c.HasNulls || len(c.Nulls) > len(noNulls) {
		n += int64(len(c.Nulls))
	}
	return n
}
