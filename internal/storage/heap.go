// Package storage implements softdb's in-memory heap tables with a
// simulated page model. Rows are stored in fixed-size (4 KiB) pages; scans
// and fetches account page and row touches so that the optimizer's cost
// model and the benchmark harness can report I/O the way the paper reasons
// about it (pages scanned), without a disk.
//
// Since the MVCC change the heap stores row versions, not rows: every slot
// carries begin/end transaction timestamps and readers pass a snapshot
// timestamp (plus their own transaction ID, so a transaction sees its own
// uncommitted writes). Slots are immutable once published — an UPDATE ends
// the old version and inserts a new one — which is what lets scans run with
// no lock at all while a serialized writer installs versions concurrently:
// the page list, per-page slot counts, and begin/end stamps are all
// published atomically, and a reader's fixed snapshot gives the same
// visibility verdict before and after any in-flight commit.
//
// A page stores its slots' values column by column in typed arrays (see
// page.go); no read path hands out a stored row. Scans build each visible
// row into a reused view that the callback borrows, point reads build the
// row they return, and page scans hand the columns themselves to a
// vec.Batch.
package storage

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"softdb/internal/schema"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// pageOverhead models the per-page header.
const pageOverhead = 64

// Timestamp conventions for slot begin/end stamps. A begin stamp is
// positive for a committed version (the commit timestamp), negative for an
// uncommitted version (-txnID of the installing transaction), and Aborted
// for a version whose transaction rolled back (or a replay placeholder
// that only exists to keep later RowIDs stable). An end stamp is 0 while
// the version is the latest, positive once a committed transaction ended
// it, and negative (-txnID) while a delete is still uncommitted.
const (
	// SnapLatest is a snapshot timestamp that sees every committed version
	// and no uncommitted one — the pre-MVCC "current state" view used by
	// maintenance paths (ANALYZE, miners, constraint verification) that run
	// while writers are excluded.
	SnapLatest = math.MaxInt64 - 1
	// Aborted marks a version as invisible to every snapshot.
	Aborted = math.MaxInt64
	// CommittedMin is the begin stamp of rows inserted through the
	// non-transactional Insert and of replayed rows: visible to every
	// snapshot.
	CommittedMin = 1
)

// Visible reports whether a version with the given begin/end stamps is in
// the view of a reader at snapshot snap running as transaction tid (0 for
// none). The rules are standard snapshot isolation: a version is visible
// when it was committed at or before the snapshot (or written by the
// reader's own transaction) and not ended at or before the snapshot (an
// uncommitted delete hides the version only from its own transaction).
func Visible(b, e, snap, tid int64) bool {
	if b < 0 {
		if -b != tid {
			return false
		}
	} else if b > snap { // includes Aborted, which exceeds every snapshot
		return false
	}
	switch {
	case e == 0:
		return true
	case e < 0:
		return -e != tid
	default:
		return e > snap
	}
}

// visibleAnyCommitted reports whether a version could be visible to some
// committed-state reader: not aborted and not committed-ended. Uncommitted
// inserts count (their transaction may commit); uncommitted deletes do not
// hide (their transaction may abort). Uniqueness and FK checks use this
// "dirty" view so two in-flight transactions cannot both insert the same
// key.
func visibleAnyCommitted(b, e int64) bool {
	if b == Aborted {
		return false
	}
	return e <= 0
}

// RowID identifies a row version as (page number, slot within page).
type RowID struct {
	Page int32
	Slot int32
}

// String renders the row ID as page:slot.
func (r RowID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// Counters accumulates simulated I/O work. The executor passes one Counters
// through a query; storage bumps it on every page and row touch. All updates
// go through the atomic Add* methods — cheap on one goroutine, and a reader
// elsewhere is never a data race; the fields stay plain int64 (not
// atomic.Int64) so Counters values remain freely copyable once a query has
// quiesced.
type Counters struct {
	PagesRead    int64 // heap or index pages fetched
	RowsRead     int64 // rows materialized from pages
	PagesSkipped int64 // heap pages proven irrelevant by a synopsis and never touched
	// PagesFrozen counts the PagesRead a page scan served from a frozen page
	// (no per-slot visibility check); always <= PagesRead.
	PagesFrozen int64
}

// AddPages atomically charges n page reads. Nil receivers are ignored so
// maintenance paths can pass nil.
func (c *Counters) AddPages(n int64) {
	if c != nil {
		atomic.AddInt64(&c.PagesRead, n)
	}
}

// AddRows atomically charges n row reads.
func (c *Counters) AddRows(n int64) {
	if c != nil {
		atomic.AddInt64(&c.RowsRead, n)
	}
}

// AddSkipped atomically records n pages pruned via synopses.
func (c *Counters) AddSkipped(n int64) {
	if c != nil {
		atomic.AddInt64(&c.PagesSkipped, n)
	}
}

// AddFrozen atomically records n page reads served from frozen pages.
func (c *Counters) AddFrozen(n int64) {
	if c != nil {
		atomic.AddInt64(&c.PagesFrozen, n)
	}
}

// Load returns an atomic snapshot of the counters.
func (c *Counters) Load() Counters {
	return Counters{
		PagesRead:    atomic.LoadInt64(&c.PagesRead),
		RowsRead:     atomic.LoadInt64(&c.RowsRead),
		PagesSkipped: atomic.LoadInt64(&c.PagesSkipped),
		PagesFrozen:  atomic.LoadInt64(&c.PagesFrozen),
	}
}

// stamp is one slot's version stamps.
type stamp struct {
	begin atomic.Int64
	end   atomic.Int64
}

// page holds a fixed-capacity slot array: the slots' values in typed columns
// (page.go) and their version stamps. used publishes how many slots are
// valid: a writer fills every column and the stamps of slot used completely
// and then increments used, so lock-free readers iterating [:used] only ever
// see fully initialized versions. A slot's values are written once, before
// the slot is published, and never changed afterwards except by Vacuum's
// payload clear and replay's placeholder resurrection, whose callers exclude
// readers.
//
// A slot whose begin and end stamps are both Aborted is vacant: an aborted
// placeholder or a vacuumed version, with no payload. An aborted insert
// keeps its payload (and end stamp 0) until Vacuum clears it.
type page struct {
	cols   []pageCol
	stamps []stamp
	used   atomic.Int32
	// frozen is the freeze bit and its snapshot bound in one word: 0 while
	// the page is thawed, else the page's asOf (see frozen.go).
	frozen atomic.Int64
	// seq is the freeze/thaw sequence: odd while a writer is between thawing
	// the page and having stamped its slot.
	seq atomic.Uint32
}

// vacant reports whether a slot with these stamps holds no payload.
func vacant(b, e int64) bool { return b == Aborted && e == Aborted }

// Heap is an append-oriented row-version store with slotted pages. Writers
// must be serialized by the caller (the engine's write lock); readers need
// no lock — the page list is swapped atomically on growth and slots are
// published through each page's used counter.
type Heap struct {
	def     *schema.Table
	kinds   []types.Kind // the columns' kinds, which page batches carry
	pages   atomic.Pointer[[]*page]
	rowSize int // estimated bytes per row, from the schema
	live    atomic.Int64
	version atomic.Int64 // bumped on every committed mutation; used by plan/stat invalidation
	// zone is the block directory of the heap's zone map (see zone.go); zacc
	// is the writers' scratch for recomputing one entry.
	zone atomic.Pointer[[]*zoneBlock]
	zacc []zoneAcc
	// freezeMu makes "freeze if no writer intervened" and "thaw" atomic with
	// respect to each other; thaws counts frozen pages thaw cleared.
	freezeMu sync.Mutex
	thaws    atomic.Int64
}

// NewHeap creates an empty heap for the given table definition.
func NewHeap(def *schema.Table) *Heap {
	h := &Heap{def: def, rowSize: estimateRowSize(def)}
	for _, c := range def.Columns {
		h.kinds = append(h.kinds, c.Type)
	}
	h.pages.Store(&[]*page{})
	h.zone.Store(&[]*zoneBlock{})
	return h
}

func estimateRowSize(def *schema.Table) int {
	size := 8 // row header
	for _, c := range def.Columns {
		switch c.Type {
		case types.KindInt, types.KindFloat, types.KindDate:
			size += 8
		case types.KindBool:
			size += 1
		case types.KindString:
			size += 24 // typical short varchar estimate
		default:
			size += 8
		}
	}
	return size
}

// Def returns the table definition this heap stores rows for.
func (h *Heap) Def() *schema.Table { return h.def }

// RowCount returns the number of rows visible to the latest snapshot.
func (h *Heap) RowCount() int64 { return h.live.Load() }

// PageCount returns the number of allocated pages.
func (h *Heap) PageCount() int64 { return int64(len(*h.pages.Load())) }

// Version returns a counter that increases on every committed mutation.
func (h *Heap) Version() int64 { return h.version.Load() }

// bump is the single place the mutation counter advances: exactly +1 per
// committed row effect — a committed insert (stamped at commit time, or
// installed committed by Insert, InsertCommitted and WAL replay) and a
// committed delete (an UPDATE is a delete plus an insert, so it counts 2).
// Uncommitted installs, aborts, and rollbacks never bump. The WAL relies on
// this invariant: replaying the committed groups of a log onto a snapshot
// at version V lands the heap at exactly the pre-crash version, aborted
// transactions contributing zero on both sides, so recovered
// VerifiedVersion/ModsSince bookkeeping in the soft-constraint registry
// stays meaningful.
func (h *Heap) bump() { h.version.Add(1) }

// RowsPerPage reports how many rows of this table fit a page.
func (h *Heap) RowsPerPage() int {
	n := (PageSize - pageOverhead) / h.rowSize
	if n < 1 {
		n = 1
	}
	return n
}

// pageList loads the published page list.
func (h *Heap) pageList() []*page { return *h.pages.Load() }

// grow appends a fresh page and republishes the page list.
func (h *Heap) grow() *page {
	old := h.pageList()
	n := h.RowsPerPage()
	p := &page{cols: newPageCols(h.def, n), stamps: make([]stamp, n)}
	h.zoneFor(len(old))
	next := make([]*page, len(old)+1)
	copy(next, old)
	next[len(old)] = p
	h.pages.Store(&next)
	return p
}

// install appends a version with the given begin stamp to the last page
// (growing if full) and publishes it; a nil row is a vacant aborted
// placeholder. The row's values are copied into the page. It does the
// bookkeeping shared by all insert paths: zone entry widening for
// non-aborted versions, and live/version accounting for committed ones.
func (h *Heap) install(row types.Row, begin int64) RowID {
	pages := h.pageList()
	pi := len(pages) - 1
	var p *page
	if pi >= 0 && int(pages[pi].used.Load()) < len(pages[pi].stamps) {
		p = pages[pi]
	} else {
		p = h.grow()
		pi++
	}
	si := p.used.Load()
	p.setRow(int(si), row)
	var end int64
	if row == nil {
		end = Aborted
	}
	p.stamps[si].begin.Store(begin)
	p.stamps[si].end.Store(end)
	if begin != Aborted {
		// Widen the entry before the slot is published: a reader that gathers
		// the row then either started the entry after the widening or finds
		// its sequence changed (see ScanPageListAt).
		h.zoneAdd(pi, row)
	}
	p.used.Store(si + 1) // publish: values and stamps are written
	if begin > 0 && begin != Aborted {
		h.live.Add(1)
		h.bump()
	}
	return RowID{Page: int32(pi), Slot: int32(si)}
}

// Insert appends a row (already schema-validated by the caller) visible to
// every snapshot: InsertCommitted at CommittedMin, the non-transactional
// write of bulk loads, summary-table population and tests. Transactional
// inserts go through InsertVersion + SetBegin.
func (h *Heap) Insert(row types.Row) RowID {
	return h.InsertCommitted(row, CommittedMin)
}

// InsertCommitted appends a row committed at ts, visible to snapshots at or
// after ts. Summary-table maintenance stamps an AST's copy of a base row
// with the base write's commit timestamp this way.
func (h *Heap) InsertCommitted(row types.Row, ts int64) RowID {
	return h.install(row, ts)
}

// InsertVersion appends an uncommitted version owned by transaction tid.
// The version is invisible to every snapshot until SetBegin stamps it with
// a commit timestamp (AbortInsert retires it instead). No version bump
// happens until the commit stamp.
func (h *Heap) InsertVersion(row types.Row, tid int64) RowID {
	return h.install(row, -tid)
}

// InsertAtRID places a version at exactly rid — the WAL replay path, which
// must reproduce the pre-crash physical layout so later RowIDs (and the
// index entries pointing at them) stay stable. Gaps before rid (slots that
// belonged to transactions whose records the log lost or that replay in a
// different order) are filled with aborted placeholders. begin is either a
// commit timestamp or Aborted (replaying a rolled-back transaction's
// inserts keeps layout parity with the live heap, where the slots exist but
// are aborted). A slot behind the tail can only be claimed if it is still an
// aborted gap-fill placeholder: transactions commit in an order different
// from their slot order, so a later-committing transaction's records can
// land on slots an earlier commit's gap-fill already padded. Replay is
// single-threaded, so the in-place resurrection is safe. It returns false
// if rid is behind the tail and genuinely occupied. The row is copied into
// the page; the caller keeps it.
func (h *Heap) InsertAtRID(row types.Row, rid RowID, begin int64) bool {
	for {
		pages := h.pageList()
		tailPage := len(pages) - 1
		var tailUsed int32
		if tailPage >= 0 {
			tailUsed = pages[tailPage].used.Load()
		}
		switch {
		case int(rid.Page) < tailPage,
			int(rid.Page) == tailPage && rid.Slot < tailUsed:
			p, st := h.locate(rid)
			if st == nil || !vacant(st.begin.Load(), st.end.Load()) {
				return false // behind the tail: slot genuinely occupied
			}
			if begin == Aborted {
				return true // placeholder already in place
			}
			p.setRow(int(rid.Slot), row)
			h.zoneAdd(int(rid.Page), row) // before the slot turns visible
			st.end.Store(0)
			st.begin.Store(begin)
			if begin > 0 {
				h.live.Add(1)
				h.bump()
			}
			return true
		case int(rid.Page) == tailPage && rid.Slot < int32(len(pages[tailPage].stamps)):
			p := pages[tailPage]
			// Fill any gap on this page, then the target slot itself.
			for p.used.Load() < rid.Slot {
				h.install(nil, Aborted)
			}
			h.install(row, begin)
			return true
		case int(rid.Page) == tailPage:
			// Page is full but used < len never reaches here; defensive.
			h.grow()
		default:
			// rid is on a later page: pad the current tail page with aborted
			// placeholders, then grow.
			if tailPage >= 0 {
				p := pages[tailPage]
				for int(p.used.Load()) < len(p.stamps) {
					h.install(nil, Aborted)
				}
			}
			h.grow()
		}
	}
}

// locate returns the page and stamps of the slot id names, or nils when id
// is invalid or not yet published.
func (h *Heap) locate(id RowID) (*page, *stamp) {
	pages := h.pageList()
	if id.Page < 0 || int(id.Page) >= len(pages) {
		return nil, nil
	}
	p := pages[id.Page]
	if id.Slot < 0 || id.Slot >= p.used.Load() {
		return nil, nil
	}
	return p, &p.stamps[id.Slot]
}

// Meta returns the begin/end stamps of the version at id.
func (h *Heap) Meta(id RowID) (begin, end int64, ok bool) {
	_, st := h.locate(id)
	if st == nil {
		return 0, 0, false
	}
	return st.begin.Load(), st.end.Load(), true
}

// SetBegin commit-stamps an uncommitted insert: the version becomes
// visible to every snapshot at or after ts. This is the committed-insert
// version bump. No thaw: a page holding an uncommitted insert is not frozen
// and cannot freeze until the stamp lands.
func (h *Heap) SetBegin(id RowID, ts int64) bool {
	_, st := h.locate(id)
	if st == nil || st.begin.Load() >= 0 {
		return false
	}
	st.begin.Store(ts)
	h.live.Add(1)
	h.bump()
	return true
}

// AbortInsert retires an uncommitted insert: the version becomes invisible
// to every snapshot, and the page's zone entry is recomputed so the rolled-back
// values stop widening it (keeping post-abort prune behavior identical to a
// database that never ran the transaction). No version bump — rollbacks
// leave the mutation counter exactly where the transaction found it.
func (h *Heap) AbortInsert(id RowID) bool {
	p, st := h.locate(id)
	if st == nil || st.begin.Load() >= 0 {
		return false
	}
	h.thaw(p)
	st.begin.Store(Aborted)
	p.stamped()
	h.zoneRecompute(int(id.Page), p)
	return true
}

// SetEnd stamps the end of the version at id: negative (-txnID) while the
// delete is uncommitted (no bump, no live change — the transaction may
// abort), positive once committed (the committed-delete version bump).
// Committing a delete restamps the same slot from -txnID to the commit
// timestamp. The page is thawed before the stamp is published.
func (h *Heap) SetEnd(id RowID, e int64) bool {
	p, st := h.locate(id)
	if st == nil {
		return false
	}
	h.thaw(p)
	st.end.Store(e)
	p.stamped()
	if e > 0 {
		h.live.Add(-1)
		h.bump()
	}
	return true
}

// ClearEnd rolls back an uncommitted delete: the version is the latest
// again. No version bump, and no thaw — the intent being cleared already
// thawed the page and keeps it from freezing until this store.
func (h *Heap) ClearEnd(id RowID) bool {
	_, st := h.locate(id)
	if st == nil {
		return false
	}
	st.end.Store(0)
	return true
}

// Fetch returns the row at id as seen by the latest snapshot, counting one
// page read and one row read. The second return is false if the version is
// not visible or the ID is invalid.
func (h *Heap) Fetch(id RowID, c *Counters) (types.Row, bool) {
	return h.FetchAt(id, SnapLatest, 0, c)
}

// FetchAt returns the row at id as seen from snapshot snap by transaction
// tid, counting one page read and (when visible) one row read.
func (h *Heap) FetchAt(id RowID, snap, tid int64, c *Counters) (types.Row, bool) {
	c.AddPages(1)
	row, ok := h.GetAt(id, snap, tid)
	if ok {
		c.AddRows(1)
	}
	return row, ok
}

// Get returns the row at id without touching counters (catalog/maintenance
// use). The second return is false for invisible or invalid IDs.
func (h *Heap) Get(id RowID) (types.Row, bool) { return h.GetAt(id, SnapLatest, 0) }

// GetAt is Get from an explicit snapshot. The row is built for the caller,
// who owns it.
func (h *Heap) GetAt(id RowID, snap, tid int64) (types.Row, bool) {
	p, st := h.locate(id)
	if st == nil || !Visible(st.begin.Load(), st.end.Load(), snap, tid) {
		return nil, false
	}
	return p.appendRow(make(types.Row, 0, len(p.cols)), int(id.Slot)), true
}

// GatherAt appends the values of the version at id, when it is visible at
// snap to tid, to cols — one per table column, in the column's class — and
// reports whether it did: an index fetch's typed gather, with no row built.
func (h *Heap) GatherAt(cols []vec.Col, id RowID, snap, tid int64) bool {
	p, st := h.locate(id)
	if st == nil || !Visible(st.begin.Load(), st.end.Load(), snap, tid) {
		return false
	}
	for ci := range p.cols {
		p.cols[ci].appendTo(&cols[ci], int(id.Slot))
	}
	return true
}

// Kinds returns the kinds of the heap's columns, the kinds its page batches
// carry. The slice is shared: callers must not modify it.
func (h *Heap) Kinds() []types.Kind { return h.kinds }

// Sees reports whether the version at id is visible at snap to tid: GetAt
// without building the row.
func (h *Heap) Sees(id RowID, snap, tid int64) bool {
	_, st := h.locate(id)
	return st != nil && Visible(st.begin.Load(), st.end.Load(), snap, tid)
}

// GetAny returns the row at id if any committed-state reader could still
// see it (not aborted, not committed-ended) — the "dirty read" uniqueness
// and FK checks use so concurrent transactions cannot both claim a key.
func (h *Heap) GetAny(id RowID) (types.Row, bool) {
	if !h.SeesAny(id) {
		return nil, false
	}
	p, _ := h.locate(id)
	return p.appendRow(make(types.Row, 0, len(p.cols)), int(id.Slot)), true
}

// SeesAny reports whether GetAny would return the version at id.
func (h *Heap) SeesAny(id RowID) bool {
	_, st := h.locate(id)
	return st != nil && visibleAnyCommitted(st.begin.Load(), st.end.Load())
}

// Scan iterates rows visible to the latest snapshot in storage order,
// counting one page read per page touched and one row read per visible row.
// Iteration stops early when fn returns false. Each row is a view fn
// borrows: it is rebuilt for the next row, so fn clones what it keeps.
func (h *Heap) Scan(c *Counters, fn func(id RowID, row types.Row) bool) {
	h.ScanRangeAt(0, int(h.PageCount()), SnapLatest, 0, c, fn)
}

// ScanAt is Scan from an explicit snapshot.
func (h *Heap) ScanAt(snap, tid int64, c *Counters, fn func(id RowID, row types.Row) bool) {
	h.ScanRangeAt(0, int(h.PageCount()), snap, tid, c, fn)
}

// ScanRangeAt iterates the rows of pages [pageLo, pageHi) visible at snap
// to transaction tid, in storage order, with the same per-page and per-row
// accounting as Scan. Rows are borrowed views, as with Scan.
func (h *Heap) ScanRangeAt(pageLo, pageHi int, snap, tid int64, c *Counters, fn func(id RowID, row types.Row) bool) {
	pages := h.pageList()
	if pageLo < 0 {
		pageLo = 0
	}
	if pageHi > len(pages) {
		pageHi = len(pages)
	}
	var v rowView
	for pi := pageLo; pi < pageHi; pi++ {
		p := pages[pi]
		c.AddPages(1)
		n := p.used.Load()
		for si := int32(0); si < n; si++ {
			st := &p.stamps[si]
			if !Visible(st.begin.Load(), st.end.Load(), snap, tid) {
				continue
			}
			c.AddRows(1)
			if !fn(RowID{Page: int32(pi), Slot: si}, v.at(p, int(si))) {
				return
			}
		}
	}
}

// ScanColsAt is ScanAt for a caller that reads only the columns cols
// names (a predicate over them): the view holds those columns' values and
// NULL in every other, so the walk builds nothing else. No counter charges.
func (h *Heap) ScanColsAt(snap, tid int64, cols []int, fn func(id RowID, row types.Row) bool) {
	view := make(types.Row, len(h.kinds))
	for pi, p := range h.pageList() {
		n := p.used.Load()
		for si := int32(0); si < n; si++ {
			st := &p.stamps[si]
			if !Visible(st.begin.Load(), st.end.Load(), snap, tid) {
				continue
			}
			for _, ci := range cols {
				view[ci] = p.cols[ci].datum(int(si))
			}
			if !fn(RowID{Page: int32(pi), Slot: si}, view) {
				return
			}
		}
	}
}

// Columns returns the latest-visible values of the columns ords names (nil
// names every column), in storage order: one vec.Col per ordinal, in the
// column's class, with its null mask. It is the whole-column read of ANALYZE
// and the miners: it checks visibility per slot, as Scan does, freezes no
// page and charges no counter. The columns are the caller's.
func (h *Heap) Columns(ords []int) []vec.Col {
	if ords == nil {
		ords = make([]int, len(h.kinds))
		for i := range ords {
			ords[i] = i
		}
	}
	out := make([]vec.Col, len(ords))
	n := int(h.live.Load())
	for i, ci := range ords {
		c := &out[i]
		c.Class = vec.ClassOf(h.kinds[ci])
		switch c.Class {
		case vec.ClassInt:
			c.Ints = make([]int64, 0, n)
		case vec.ClassFloat:
			c.Floats = make([]float64, 0, n)
		default:
			c.Strs = make([]string, 0, n)
		}
		c.Nulls = make([]bool, 0, n)
	}
	var sel []int32
	for _, p := range h.pageList() {
		used := int(p.used.Load())
		sel = sel[:0]
		for si := 0; si < used; si++ {
			st := &p.stamps[si]
			if Visible(st.begin.Load(), st.end.Load(), SnapLatest, 0) {
				sel = append(sel, int32(si))
			}
		}
		for i, ci := range ords {
			p.cols[ci].appendSlots(&out[i], sel, len(sel) == used)
		}
	}
	return out
}

// ScanDirty iterates every version a committed-state reader could still
// see — committed-live rows plus other transactions' uncommitted inserts
// (see visibleAnyCommitted). Uniqueness and FK checks on unindexed tables
// use it so two in-flight transactions cannot both claim a key. No counter
// charges: constraint checks are not query I/O. Rows are borrowed views.
func (h *Heap) ScanDirty(fn func(id RowID, row types.Row) bool) {
	pages := h.pageList()
	var v rowView
	for pi, p := range pages {
		n := p.used.Load()
		for si := int32(0); si < n; si++ {
			st := &p.stamps[si]
			if !visibleAnyCommitted(st.begin.Load(), st.end.Load()) {
				continue
			}
			if !fn(RowID{Page: int32(pi), Slot: si}, v.at(p, int(si))) {
				return
			}
		}
	}
}

// ScanVersions iterates every version physically present in the heap —
// live, committed-dead, and uncommitted alike; only aborted versions and
// vacant slots are skipped. Index rebuilds use it: the live engine leaves
// a committed-dead version's index entries in place until Vacuum, so a
// rebuilt index must carry those entries too or a restored database's
// physical state would diverge from a never-restored twin's. Rows are
// borrowed views.
func (h *Heap) ScanVersions(fn func(id RowID, row types.Row) bool) {
	pages := h.pageList()
	var v rowView
	for pi, p := range pages {
		n := p.used.Load()
		for si := int32(0); si < n; si++ {
			if p.stamps[si].begin.Load() == Aborted {
				continue
			}
			if !fn(RowID{Page: int32(pi), Slot: si}, v.at(p, int(si))) {
				return
			}
		}
	}
}

// ScanAll collects every latest-visible row, built from one slab the caller
// owns; a convenience for tests.
func (h *Heap) ScanAll() []types.Row {
	n := int(h.live.Load())
	out := make([]types.Row, 0, n)
	slab := make(types.Row, 0, n*len(h.kinds))
	h.Scan(nil, func(_ RowID, row types.Row) bool {
		start := len(slab)
		slab = append(slab, row...)
		out = append(out, slab[start:len(slab):len(slab)])
		return true
	})
	return out
}

// Truncate removes all rows and pages. Like every other committed mutation
// it bumps the version exactly once, even when the heap was already empty,
// so a logged truncate replays to the same version.
func (h *Heap) Truncate() {
	h.zone.Store(&[]*zoneBlock{})
	h.pages.Store(&[]*page{})
	h.live.Store(0)
	h.bump()
}

// Vacuum reclaims versions no active snapshot can see: aborted versions
// and versions whose committed end stamp is at or below horizon (the
// minimum snapshot any reader or transaction still holds). Reclaimed slots
// stay allocated — later RowIDs must not shift — but drop their payload
// and become vacant, and every touched page's zone entry is recomputed from
// the survivors. The caller must exclude concurrent readers (payloads are
// cleared in place). Returns the number of versions reclaimed.
func (h *Heap) Vacuum(horizon int64) int {
	reclaimed := 0
	for pi, p := range h.pageList() {
		touched := false
		touch := func() {
			if !touched {
				h.thaw(p)
				touched = true
			}
		}
		n := p.used.Load()
		for si := int32(0); si < n; si++ {
			st := &p.stamps[si]
			b, e := st.begin.Load(), st.end.Load()
			switch {
			case b == Aborted:
				if e == Aborted {
					continue // already vacant
				}
			case b > 0 && e > 0 && e <= horizon:
				reclaimed++
			default:
				continue
			}
			touch()
			st.begin.Store(Aborted)
			p.clearSlot(int(si))
			st.end.Store(Aborted)
		}
		if touched {
			p.stamped()
			h.zoneRecompute(pi, p)
		}
	}
	return reclaimed
}

// SlotData is one slot of a page dump: the row and its tombstone flag.
// Dead slots (versions invisible to the latest snapshot: aborted,
// committed-ended, or placeholders) are part of the physical layout — they
// keep later RowIDs stable — so snapshots must carry them.
type SlotData struct {
	Row  types.Row
	Dead bool
}

// Dump walks the heap's exact physical layout, dead slots included: page is
// called once per page, in page order, with its slot count, and slot once
// per slot of that page, in slot order, with the slot's row — nil for a
// dead slot (a version payload is not part of the durable state, so a
// vacuumed heap and an unvacuumed one dump identically), otherwise a view
// slot borrows. Checkpoints encode straight from it. Callers run at a
// quiescent point (no open write transactions), so every slot is either
// latest-visible or dead.
func (h *Heap) Dump(page func(slots int), slot func(row types.Row)) {
	var v rowView
	for _, p := range h.pageList() {
		n := p.used.Load()
		page(int(n))
		for si := int32(0); si < n; si++ {
			st := &p.stamps[si]
			if !Visible(st.begin.Load(), st.end.Load(), SnapLatest, 0) {
				slot(nil)
				continue
			}
			slot(v.at(p, int(si)))
		}
	}
}

// DumpPages returns Dump's layout as values, one []SlotData per page with
// rows the caller owns: the input RebuildHeap takes, and what tests compare
// heaps slot for slot with.
func (h *Heap) DumpPages() [][]SlotData {
	out := [][]SlotData{}
	h.Dump(func(slots int) {
		out = append(out, make([]SlotData, 0, slots))
	}, func(row types.Row) {
		ps := &out[len(out)-1]
		var own types.Row
		if row != nil {
			own = row.Clone()
		}
		*ps = append(*ps, SlotData{Row: own, Dead: row == nil})
	})
	return out
}

// RebuildHeap reconstructs a heap from a DumpPages layout and a version
// counter: pages and slots land exactly where the dump says (preserving
// RowID stability across dead slots), live accounting is recomputed, and
// every page's zone entry is rebuilt and published — the "re-arm zone maps"
// step of crash recovery. Dead slots come back as aborted placeholders;
// live ones as committed-from-the-beginning versions (pre-snapshot history
// does not survive a restart, and no pre-restart snapshot can either).
func RebuildHeap(def *schema.Table, pages [][]SlotData, version int64) *Heap {
	h := NewHeap(def)
	for _, ps := range pages {
		if len(ps) == 0 {
			h.grow()
			continue
		}
		for _, s := range ps {
			if s.Dead {
				h.install(nil, Aborted)
			} else {
				h.install(s.Row, CommittedMin)
			}
		}
		// Dumped pages may be shorter than a full page (the tail page);
		// rebuild must not let the next page's rows slide into the gap, so
		// only the final dumped page may be partial. install() fills pages
		// in order, which preserves this as long as dumps came from
		// DumpPages (pages are full except the last).
	}
	h.version.Store(version)
	// install() counted live rows and widened each page's zone entry by its
	// live slots; dead placeholders widen nothing, so every entry equals a
	// recompute over the page's non-aborted slots.
	return h
}
