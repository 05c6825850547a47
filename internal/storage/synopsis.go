package storage

import (
	"softdb/internal/types"
	"softdb/internal/vec"
)

// ColSynopsis summarizes one column of one page: the minimum and maximum
// over the page's live non-null values, and how many live rows are NULL.
// Min and Max are NULL datums when the page holds no non-null value for the
// column.
type ColSynopsis struct {
	Min   types.Datum
	Max   types.Datum
	Nulls int64
}

// PageSynopsis is an immutable per-page summary (a zone map): one
// ColSynopsis per table column plus the live-row count. A synopsis is never
// mutated after publication — writers build a fresh one and publish it with
// an atomic pointer swap, so concurrent scans either see the old snapshot
// or the new one, never a torn mix.
type PageSynopsis struct {
	Rows int64 // live rows on the page
	Cols []ColSynopsis
}

// Col returns the synopsis for column ord, or nil if the synopsis does not
// cover it (schema drift; callers must treat nil as "cannot prune").
func (s *PageSynopsis) Col(ord int) *ColSynopsis {
	if s == nil || ord < 0 || ord >= len(s.Cols) {
		return nil
	}
	return &s.Cols[ord]
}

// extend returns a new synopsis covering the old rows plus row. The
// receiver may be nil (empty page).
func (s *PageSynopsis) extend(row types.Row, ncols int) *PageSynopsis {
	next := &PageSynopsis{Rows: 1, Cols: make([]ColSynopsis, ncols)}
	if s != nil {
		next.Rows = s.Rows + 1
		copy(next.Cols, s.Cols)
	}
	for ci := range next.Cols {
		if ci >= len(row) {
			break
		}
		mergeDatum(&next.Cols[ci], row[ci])
	}
	return next
}

func mergeDatum(cs *ColSynopsis, d types.Datum) {
	if d.IsNull() {
		cs.Nulls++
		return
	}
	if cs.Min.IsNull() || d.Compare(cs.Min) < 0 {
		cs.Min = d
	}
	if cs.Max.IsNull() || d.Compare(cs.Max) > 0 {
		cs.Max = d
	}
}

// computeSynopsis builds a synopsis from scratch over a page's non-aborted
// slots. Committed-ended versions are included: a snapshot older than the
// ending transaction may still need to see them, so the synopsis stays
// conservative (only Vacuum, which knows the reader horizon, truly sheds
// them by marking the slots aborted).
func computeSynopsis(p *page, ncols int) *PageSynopsis {
	syn := &PageSynopsis{Cols: make([]ColSynopsis, ncols)}
	n := p.used.Load()
	for si := int32(0); si < n; si++ {
		if p.stamps[si].begin.Load() == Aborted {
			continue
		}
		row := p.rows[si]
		syn.Rows++
		for ci := range syn.Cols {
			if ci >= len(row) {
				break
			}
			mergeDatum(&syn.Cols[ci], row[ci])
		}
	}
	return syn
}

// Synopsis returns the published synopsis for page pi, or nil when the page
// does not exist. The returned snapshot is immutable and safe to read
// concurrently with writers (which publish replacements by pointer swap).
func (h *Heap) Synopsis(pi int) *PageSynopsis {
	pages := h.pageList()
	if pi < 0 || pi >= len(pages) {
		return nil
	}
	return pages[pi].syn.Load()
}

// ScanPages iterates pages [pageLo, pageHi). For each page it first offers
// the page's synopsis to skip (when non-nil); if skip returns true the page
// is not touched — it charges one PagesSkipped and zero page or row reads.
// Otherwise the page's live rows are gathered into an internal buffer
// (charging one page read and one row read per live row, exactly like
// ScanRangeAt) and fn is called once with the batch plus the page's published
// synopsis (nil when none has been computed) so vectorized consumers can
// prove whole-page predicate outcomes without re-reading values. The batch
// slice is borrowed: it is reused for the next page, so fn must not retain
// it. Iteration stops when fn returns false.
//
// A frozen page (see frozen.go) skips the gather: fn receives the page's own
// row window — every slot, all visible to this snapshot — and the page image
// whose typed column vectors cover exactly that window (img is nil for every
// other page). Charges are identical either way, plus one PagesFrozen. A
// full page the scan finds entirely committed, undeleted and visible is
// frozen on the spot, so the first scan over settled data already takes
// this path.
//
// Unlike ScanRangeAt, row charges land page-at-a-time: a consumer that stops
// mid-batch has already been charged for the whole page, mirroring the page
// model (touching any row of a page faults the full page in).
func (h *Heap) ScanPages(pageLo, pageHi int, c *Counters, skip func(*PageSynopsis) bool, fn PageFunc) {
	h.ScanPagesAt(pageLo, pageHi, SnapLatest, 0, c, skip, fn)
}

// ScanPagesAt is ScanPages from an explicit snapshot: the gathered batch
// holds the rows visible at snap to transaction tid.
func (h *Heap) ScanPagesAt(pageLo, pageHi int, snap, tid int64, c *Counters, skip func(*PageSynopsis) bool, fn PageFunc) {
	pages := h.pageList()
	if pageLo < 0 {
		pageLo = 0
	}
	if pageHi > len(pages) {
		pageHi = len(pages)
	}
	var buf []types.Row
	for pi := pageLo; pi < pageHi; pi++ {
		p := pages[pi]
		syn := p.syn.Load()
		if skip != nil && syn != nil && skip(syn) {
			c.AddSkipped(1)
			continue
		}
		var more bool
		if buf, more = h.readPage(p, syn, snap, tid, c, buf, fn); !more {
			return
		}
	}
}

// PageFunc receives one page of a page scan: its rows visible to the scan's
// snapshot, its published synopsis, and its image when the page is frozen.
// Returning false stops the scan.
type PageFunc func(rows []types.Row, syn *PageSynopsis, img *vec.PageImage) bool

// ScanPageListAt is ScanPagesAt over exactly the listed pages, in list order,
// with no skip test: the caller has already walked the synopses (an index
// scan that decided to finish on the page path, see exec.IndexScan). Each
// listed page is read and charged exactly as ScanPagesAt reads an unskipped
// one. Listed pages must exist.
func (h *Heap) ScanPageListAt(list []int32, snap, tid int64, c *Counters, fn PageFunc) {
	pages := h.pageList()
	var buf []types.Row
	for _, pi := range list {
		p := pages[pi]
		var more bool
		if buf, more = h.readPage(p, p.syn.Load(), snap, tid, c, buf, fn); !more {
			return
		}
	}
}

// readPage charges and hands fn one page that was not skipped: the frozen
// window with its image, or the rows gathered at snap into buf (returned for
// reuse). more is false when fn stopped the scan.
func (h *Heap) readPage(p *page, syn *PageSynopsis, snap, tid int64, c *Counters, buf []types.Row, fn PageFunc) ([]types.Row, bool) {
	c.AddPages(1)
	fi := p.image.Load()
	if fi == nil || snap < fi.asOf {
		buf, fi = h.gather(p, snap, tid, buf[:0])
	}
	if fi == nil {
		c.AddRows(int64(len(buf)))
		return buf, len(buf) == 0 || fn(buf, syn, nil)
	}
	c.AddFrozen(1)
	c.AddRows(int64(len(p.rows)))
	return buf, fn(p.rows, syn, fi.cols)
}
