package storage

import (
	"runtime"

	"softdb/internal/types"
	"softdb/internal/vec"
)

// ColSynopsis summarizes one column of one page: the minimum and maximum
// over the page's non-aborted non-null values, and how many of those rows
// are NULL. Min and Max are NULL datums when the page holds no non-null
// value for the column.
type ColSynopsis struct {
	Min   types.Datum
	Max   types.Datum
	Nulls int64
}

// PageSynopsis is one page's zone entry as a value (see zone.go): one
// ColSynopsis per table column plus the page's non-aborted row count. It is
// built on demand for tests and debugging; scans read the zone entries
// themselves.
type PageSynopsis struct {
	Rows int64
	Cols []ColSynopsis
}

// Col returns the synopsis for column ord, or nil if the synopsis does not
// cover it.
func (s *PageSynopsis) Col(ord int) *ColSynopsis {
	if s == nil || ord < 0 || ord >= len(s.Cols) {
		return nil
	}
	return &s.Cols[ord]
}

// Synopsis returns page pi's zone entry as a value, or nil when the page does
// not exist or no entry has been published for it. It waits out a writer
// that is storing the entry.
func (h *Heap) Synopsis(pi int) *PageSynopsis {
	z := h.Zone()
	if pi < 0 || pi >= z.Pages() {
		return nil
	}
	for {
		e, ok := z.Entry(pi)
		if !ok {
			if z.blocks[pi/zoneBlockPages].rows(pi%zoneBlockPages) < 0 {
				return nil // a published entry never goes back to absent
			}
			runtime.Gosched()
			continue
		}
		syn := &PageSynopsis{Rows: e.Rows, Cols: make([]ColSynopsis, len(e.b.cols))}
		for ci := range syn.Cols {
			c, _ := e.Bounds(ci)
			lo, hi := c.Datums()
			syn.Cols[ci] = ColSynopsis{Min: lo, Max: hi, Nulls: c.Nulls}
		}
		if e.Valid() {
			return syn
		}
	}
}

// PageFunc receives one page of a page scan: its number, a column batch
// over the page's slots whose selection is the slots visible to the scan's
// snapshot (nil when every slot is), and the page's zone entry (nil when
// unknown). The batch and the entry are borrowed: both are reused for the
// next page. The entry was loaded before the slots were read, so once its
// Valid confirms it, it covers every row handed over (see ScanPageListAt).
// Returning false stops the scan.
type PageFunc func(pi int, b *vec.Batch, zone *ZoneEntry) bool

// ScanPageListAt is the one page read path: it reads exactly the listed pages
// (ascending page numbers, typically what a prune pass over the zone map
// kept), in list order, at snapshot snap for transaction tid. Each page
// charges one page read and one row read per visible slot (as ScanRangeAt
// charges them) and is handed to fn as a column batch: the page's own typed
// columns over its published slots, with the visible slots as the
// selection. A page with no visible row is charged but not handed over. It
// returns how many listed pages it finished: len(list), or k when fn stopped
// the scan at list[k].
//
// Each page's zone entry is started (ZoneView.Entry) before the page's
// frozen bit or slots are read. An entry that is still Valid after fn's
// decision therefore covers every row fn got: a row inserted since was
// widened into the entry before its slot was published, which changed the
// sequence, and a row a writer removed since (abort, vacuum) was still in
// the entry the reader loaded, or the reader never saw the row.
//
// A frozen page (see frozen.go) read at or after its asOf skips the
// per-slot visibility walk: every slot is visible. Charges are identical
// either way, plus one PagesFrozen. A full page the scan finds entirely
// committed, undeleted and visible is frozen on the spot, so the first scan
// over settled data already counts it.
//
// Unlike ScanRangeAt, row charges land page-at-a-time: a consumer that stops
// mid-batch has already been charged for the whole page, mirroring the page
// model (touching any row of a page faults the full page in).
func (h *Heap) ScanPageListAt(list []int32, snap, tid int64, c *Counters, fn PageFunc) int {
	pages := h.pageList()
	z := h.Zone()
	var b vec.Batch
	var sel []int32
	var entry ZoneEntry
	for k, pi := range list {
		if int(pi) >= len(pages) {
			return len(list) // the heap was truncated under the scan
		}
		p := pages[pi]
		c.AddPages(1)
		zone := &entry
		var ok bool
		if entry, ok = z.Entry(int(pi)); !ok {
			zone = nil
		}
		var n int
		frozen := false
		if asOf := p.frozen.Load(); asOf != 0 && snap >= asOf {
			n, frozen = len(p.stamps), true
		} else {
			sel, n, frozen = h.gather(p, snap, tid, sel[:0])
		}
		visible := n
		if !frozen && len(sel) < n {
			visible = len(sel)
		}
		if frozen {
			c.AddFrozen(1)
		}
		c.AddRows(int64(visible))
		if visible == 0 {
			continue
		}
		cols := b.ResetColumns(n, h.kinds)
		for ci := range cols {
			p.cols[ci].view(&cols[ci], n)
		}
		if visible < n {
			b.Sel = sel
		}
		if !fn(int(pi), &b, zone) {
			return k
		}
	}
	return len(list)
}
