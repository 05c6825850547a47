package storage

import (
	"math"
	"sync/atomic"

	"softdb/internal/types"
)

// A heap's zone map is kept in column layout: per page a row count and, per
// column, a null count and the bounds of the page's non-null values. Entries
// live in fixed-size blocks of zoneBlockPages pages that are allocated whole
// and never move; the block directory grows copy-on-write beside the page
// list. A prune pass therefore walks a handful of contiguous arrays per block
// instead of one heap object per page.
//
// Bounds are stored by kind: an INT, DATE or BOOL bound as its int64 image, a
// FLOAT bound as its float64 bits, and a bound of any other kind (STRING) as
// an immutable pair of datums behind an atomic pointer. Each bound keeps its
// kind, so the datums a reader rebuilds are exactly the ones the writer
// merged, and every verdict over them is the one the Datum algebra gives.
//
// Publication. Writers are serialized by the caller. A writer stores a page's
// entry inside a bracket on the page's sequence number, which is odd while it
// stores. A reader loads the sequence, reads what it needs and loads the
// sequence again; an odd or changed sequence makes the entry unknown, and an
// unknown entry proves nothing: the page is kept and read. Per-field atomics
// alone are not enough — a reader could combine a row count from after a
// vacuum with a null count from before it and take a page holding a live
// value for all-NULL (DESIGN.md §11).

// zoneBlockPages is how many pages one zone block describes.
const zoneBlockPages = 64

// zoneBlock holds the entries of zoneBlockPages consecutive pages.
type zoneBlock struct {
	// state packs each page's sequence number (high 32 bits) with its count
	// of non-aborted versions plus one (low 32 bits; 0 until an entry is
	// first published — a fresh page, or one holding only aborted
	// placeholders), so a reader loads both in one word.
	state [zoneBlockPages]atomic.Uint64
	cols  []zoneCols
}

// seqOne is one step of the sequence number inside a state word.
const seqOne = 1 << 32

// begin opens a writer's bracket on entry i: the sequence turns odd.
func (b *zoneBlock) begin(i int) { b.state[i].Add(seqOne) }

// end closes the bracket, publishing the entry with rows non-aborted
// versions.
func (b *zoneBlock) end(i int, rows int64) {
	s := b.state[i].Load()
	b.state[i].Store(s&^(seqOne-1) + seqOne + uint64(rows+1))
}

// rows reads entry i's row count as a writer (-1 while unpublished).
func (b *zoneBlock) rows(i int) int64 { return int64(uint32(b.state[i].Load())) - 1 }

// zoneCols is one column of a block. meta packs the null count (low 32
// bits) with the kinds of the lower (bits 32–39) and upper (bits 40–47)
// bound; a bound of KindNull means the page holds no non-null value.
type zoneCols struct {
	meta   [zoneBlockPages]atomic.Uint64
	lo, hi [zoneBlockPages]atomic.Int64
	box    [zoneBlockPages]atomic.Pointer[[2]types.Datum]
}

func newZoneBlock(ncols int) *zoneBlock {
	return &zoneBlock{cols: make([]zoneCols, ncols)}
}

// imaged reports whether a bound of kind k is stored as an int64 word
// (KindNull needs no storage at all).
func imaged(k types.Kind) bool {
	switch k {
	case types.KindNull, types.KindInt, types.KindDate, types.KindBool, types.KindFloat:
		return true
	}
	return false
}

// image is the int64 word an imaged bound is stored as.
func image(d types.Datum) int64 {
	switch d.Kind() {
	case types.KindFloat:
		return int64(math.Float64bits(d.Float()))
	case types.KindNull:
		return 0
	default:
		return d.IntImage()
	}
}

// fromImage rebuilds the datum of kind k stored as word w.
func fromImage(k types.Kind, w int64) types.Datum {
	switch k {
	case types.KindInt:
		return types.NewInt(w)
	case types.KindDate:
		return types.NewDate(w)
	case types.KindBool:
		return types.NewBool(w != 0)
	case types.KindFloat:
		return types.NewFloat(math.Float64frombits(uint64(w)))
	default:
		return types.Null
	}
}

func packMeta(nulls int64, lo, hi types.Kind) uint64 {
	return uint64(uint32(nulls)) | uint64(lo)<<32 | uint64(hi)<<40
}

func unpackMeta(m uint64) (nulls int64, lo, hi types.Kind) {
	return int64(uint32(m)), types.Kind(m >> 32), types.Kind(m >> 40)
}

// zoneDir loads the published block directory.
func (h *Heap) zoneDir() []*zoneBlock { return *h.zone.Load() }

// zoneFor makes sure the directory has a block for page pi, republishing it
// copy-on-write when it does not. Called by grow before the page itself is
// published, so every page a reader can see has its block.
func (h *Heap) zoneFor(pi int) {
	dir := h.zoneDir()
	if pi < len(dir)*zoneBlockPages {
		return
	}
	next := make([]*zoneBlock, len(dir)+1)
	copy(next, dir)
	next[len(dir)] = newZoneBlock(len(h.def.Columns))
	h.zone.Store(&next)
}

// zoneSlot returns page pi's block and its index there.
func (h *Heap) zoneSlot(pi int) (*zoneBlock, int) {
	return h.zoneDir()[pi/zoneBlockPages], pi % zoneBlockPages
}

// zoneAddRun widens page pi's entry by the new non-aborted versions in slots
// [lo, hi) of p, under one bracket: per column the run's NULLs are counted
// in, and its lowest and highest values are merged. Inserts only widen the
// bounds, so merging in place is exact. The lowest and highest are the first
// of their ties in slot order, so the entry ends exactly as merging the
// run's values one by one in slot order would leave it. Uncommitted versions
// are included eagerly — the entry must cover them the moment their
// transaction's own scans can see them — and a rollback recomputes the entry
// to shed them again.
func (h *Heap) zoneAddRun(pi int, p *page, lo, hi int) {
	b, i := h.zoneSlot(pi)
	rows := max(b.rows(i), 0) + int64(hi-lo)
	b.begin(i)
	for ci := range b.cols {
		pc, zc := &p.cols[ci], &b.cols[ci]
		nulls, mn, mx := pc.runBounds(lo, hi)
		if nulls > 0 {
			zc.meta[i].Add(uint64(nulls))
		}
		if mn >= 0 {
			zc.merge(i, pc.datum(mn))
			if mx != mn {
				zc.merge(i, pc.datum(mx))
			}
		}
	}
	b.end(i, rows)
}

// merge folds one value into entry i of the column, storing only the words
// that change. A value stored as a word (INT, DATE, BOOL, FLOAT) whose
// entry has no bounds or bounds of its own kind compares with the stored
// words directly: int64 images in integer order, FLOAT bits as
// types.CompareFloat orders them, so a bound that ties (−0 after +0) keeps
// the value merged first, as Datum.Compare's merge does. Any other value
// merges through the bound datums.
func (zc *zoneCols) merge(i int, d types.Datum) {
	m := zc.meta[i].Load()
	nulls, lk, hk := unpackMeta(m)
	k := d.Kind()
	switch {
	case k == types.KindNull:
		zc.meta[i].Store(m + 1)
		return
	case imaged(k) && (lk == types.KindNull || lk == k) && (hk == types.KindNull || hk == k):
		w := image(d)
		lw, hw := zc.lo[i].Load(), zc.hi[i].Load()
		var below, above bool
		if k == types.KindFloat {
			v := d.Float()
			below = lk == types.KindNull || types.CompareFloat(v, math.Float64frombits(uint64(lw))) < 0
			above = hk == types.KindNull || types.CompareFloat(v, math.Float64frombits(uint64(hw))) > 0
		} else {
			below, above = lk == types.KindNull || w < lw, hk == types.KindNull || w > hw
		}
		if below {
			zc.lo[i].Store(w)
		}
		if above {
			zc.hi[i].Store(w)
		}
		if lk == types.KindNull || hk == types.KindNull {
			zc.meta[i].Store(packMeta(nulls, k, k))
		}
		return
	}
	lo, hi := zc.bounds(i, lk, hk)
	newLo, newHi := lo, hi
	if lk == types.KindNull || d.Compare(lo) < 0 {
		newLo = d
	}
	if hk == types.KindNull || d.Compare(hi) > 0 {
		newHi = d
	}
	if newLo == lo && newHi == hi {
		return
	}
	zc.store(i, nulls, newLo, newHi)
}

// bounds rebuilds entry i's bound datums from their kinds.
func (zc *zoneCols) bounds(i int, lk, hk types.Kind) (lo, hi types.Datum) {
	if !imaged(lk) || !imaged(hk) {
		if box := zc.box[i].Load(); box != nil {
			return box[0], box[1]
		}
	}
	return fromImage(lk, zc.lo[i].Load()), fromImage(hk, zc.hi[i].Load())
}

// store writes entry i's null count and bounds.
func (zc *zoneCols) store(i int, nulls int64, lo, hi types.Datum) {
	lk, hk := lo.Kind(), hi.Kind()
	if imaged(lk) {
		zc.lo[i].Store(image(lo))
	}
	if imaged(hk) {
		zc.hi[i].Store(image(hi))
	}
	switch {
	case !imaged(lk) || !imaged(hk):
		zc.box[i].Store(&[2]types.Datum{lo, hi})
	case zc.box[i].Load() != nil:
		zc.box[i].Store(nil)
	}
	zc.meta[i].Store(packMeta(nulls, lk, hk))
}

// zoneAcc accumulates one column while an entry is recomputed.
type zoneAcc struct {
	nulls  int64
	lo, hi types.Datum
}

// zoneRecompute rebuilds page pi's entry from its non-aborted slots and
// publishes it. Committed-ended versions are included: a snapshot older than
// the ending transaction may still need to see them, so the entry stays
// conservative (only Vacuum, which knows the reader horizon, truly sheds
// them by marking the slots aborted).
func (h *Heap) zoneRecompute(pi int, p *page) {
	acc := h.zacc[:0]
	for range h.def.Columns {
		acc = append(acc, zoneAcc{})
	}
	h.zacc = acc
	var rows int64
	n := p.used.Load()
	for si := int32(0); si < n; si++ {
		if p.stamps[si].begin.Load() == Aborted {
			continue
		}
		rows++
		for ci := range acc {
			a, d := &acc[ci], p.cols[ci].datum(int(si))
			if d.IsNull() {
				a.nulls++
				continue
			}
			if a.lo.IsNull() || d.Compare(a.lo) < 0 {
				a.lo = d
			}
			if a.hi.IsNull() || d.Compare(a.hi) > 0 {
				a.hi = d
			}
		}
	}
	b, i := h.zoneSlot(pi)
	b.begin(i)
	for ci := range acc {
		b.cols[ci].store(i, acc[ci].nulls, acc[ci].lo, acc[ci].hi)
	}
	b.end(i, rows)
	clear(acc) // drop the datums' strings
}

// ZoneView is a reader's handle on a heap's zone map: the entries of the
// first Pages() pages, read live under their sequence numbers. A view stays
// valid while writers append pages (blocks never move). A prune pass walks it
// block by block (Block), a page scan reads single entries (Entry).
type ZoneView struct {
	blocks []*zoneBlock
	pages  int
}

// Zone returns a view of the zone entries of the heap's current pages.
func (h *Heap) Zone() ZoneView {
	n := len(h.pageList())
	blocks := h.zoneDir()
	return ZoneView{blocks: blocks, pages: min(n, len(blocks)*zoneBlockPages)}
}

// Pages reports how many pages the view covers.
func (z ZoneView) Pages() int { return z.pages }

// Cols reports how many columns each entry describes (0 for a view of no
// pages).
func (z ZoneView) Cols() int {
	if len(z.blocks) == 0 {
		return 0
	}
	return len(z.blocks[0].cols)
}

// Blocks reports how many zone blocks the view's pages span.
func (z ZoneView) Blocks() int { return (z.pages + zoneBlockPages - 1) / zoneBlockPages }

// Block returns the view's block bi.
func (z ZoneView) Block(bi int) ZoneBlock {
	return ZoneBlock{b: z.blocks[bi], first: bi * zoneBlockPages, n: min(z.pages-bi*zoneBlockPages, zoneBlockPages)}
}

// Entry starts a read of page pi's entry (see ZoneBlock.Entry); a page the
// view does not cover is unknown.
func (z ZoneView) Entry(pi int) (ZoneEntry, bool) {
	if pi < 0 || pi >= z.pages {
		return ZoneEntry{}, false
	}
	return z.Block(pi / zoneBlockPages).Entry(pi % zoneBlockPages)
}

// ZoneBlock is the entries of pages First() to First()+Len()-1, one block of
// a view.
type ZoneBlock struct {
	b        *zoneBlock
	first, n int
}

// First is the block's first page.
func (zb ZoneBlock) First() int { return zb.first }

// Len is how many of the view's pages the block holds.
func (zb ZoneBlock) Len() int { return zb.n }

// noZoneCols stands in for a column the heap does not have: every entry
// reads as no bounds and no NULLs.
var noZoneCols zoneCols

// Column returns column c of the block; a column the heap does not have
// reads as entries with neither bounds nor NULLs.
func (zb ZoneBlock) Column(c int) ZoneColumn {
	if c < 0 || c >= len(zb.b.cols) {
		return ZoneColumn{c: &noZoneCols}
	}
	return ZoneColumn{c: &zb.b.cols[c]}
}

// Entry starts a read of the block's entry i. ok is false when the entry is
// unknown: never published, or a writer is storing it.
func (zb ZoneBlock) Entry(i int) (e ZoneEntry, ok bool) {
	s := zb.b.state[i].Load()
	if s&seqOne != 0 || uint32(s) == 0 {
		return ZoneEntry{}, false
	}
	return ZoneEntry{b: zb.b, i: i, state: s, Rows: int64(uint32(s)) - 1}, true
}

// ZoneEntry is one page's zone entry as a reader sees it. Rows and every
// column read since Entry may be acted on only once Valid has confirmed that
// no writer stored the entry meanwhile.
type ZoneEntry struct {
	b     *zoneBlock
	i     int
	state uint64
	Rows  int64 // the page's non-aborted versions
}

// Valid reports whether everything read from the entry since Entry belongs
// to one published version of it.
func (e *ZoneEntry) Valid() bool { return e.b.state[e.i].Load() == e.state }

// Bounds reads column c of the entry; ok is false when the heap has no such
// column.
func (e *ZoneEntry) Bounds(c int) (ZoneBounds, bool) {
	if c < 0 || c >= len(e.b.cols) {
		return ZoneBounds{}, false
	}
	return ZoneColumn{c: &e.b.cols[c]}.Bounds(e.i), true
}

// ZoneColumn is one column of a zone block.
type ZoneColumn struct{ c *zoneCols }

// Bounds reads entry i of the column.
func (zc ZoneColumn) Bounds(i int) (c ZoneBounds) {
	c.Nulls, c.LoKind, c.HiKind = unpackMeta(zc.c.meta[i].Load())
	c.Lo, c.Hi = zc.c.lo[i].Load(), zc.c.hi[i].Load()
	if !imaged(c.LoKind) || !imaged(c.HiKind) {
		c.box = zc.c.box[i].Load()
	}
	return c
}

// ZoneBounds is one column of a zone entry: the null count and the bounds of
// the page's non-null values, each with its kind (KindNull when the page has
// no non-null value). Lo and Hi hold the int64 image of an INT, DATE or BOOL
// bound and the float64 bits of a FLOAT one; Bounds rebuilds the datums of
// every kind.
type ZoneBounds struct {
	Nulls          int64
	LoKind, HiKind types.Kind
	Lo, Hi         int64
	box            *[2]types.Datum
}

// Datums returns the column's bounds as datums (NULL when the page holds no
// non-null value).
func (c ZoneBounds) Datums() (lo, hi types.Datum) {
	if c.box != nil {
		return c.box[0], c.box[1]
	}
	return fromImage(c.LoKind, c.Lo), fromImage(c.HiKind, c.Hi)
}
