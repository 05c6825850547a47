package storage

// A page is frozen while it is full and every slot is a committed, undeleted
// version: every slot is then visible to every reader whose snapshot is at
// or after the youngest of those commits (the page's asOf), so a page scan
// at or after asOf hands out the page's columns over all its slots without
// a per-slot visibility check. Frozen is one bit, kept with asOf in the
// page's frozen word (0 while thawed); there is no second copy of the data.
// Nothing is frozen at load, restore or recovery; the first page scan that
// finds a page settled freezes it.
//
// Exactness. A page is frozen only under freezeMu and only if the page's seq
// is unchanged since before the freezing scan read the stamps; every writer
// that is about to change a slot of a frozen page — an end stamp or delete
// intent, an aborted insert, a vacuum reclaim — first thaws the page (seq
// goes odd, the bit is cleared, both under freezeMu) and only then stores
// its stamp, after which stamped() closes the bracket. Hence, at every
// instant, a set bit implies that every slot of the page still satisfies
// the freeze condition, and a scan that read the stamps while a writer was
// inside its bracket cannot freeze. A reader that loaded the bit just before
// a thaw reads slots that are exact for its snapshot: the stamp that follows
// is either an intent of another transaction (invisible to it) or a commit
// timestamp above every snapshot handed out before the commit publishes.
// The two in-place writes to a page's columns — Vacuum's payload clear and
// replay's placeholder resurrection — only touch slots that are not visible
// (vacant or being reclaimed), after a thaw, and their callers exclude
// readers (DESIGN.md §20).

// gather appends to sel the slots of p visible at snap to tid, and reports
// how many slots it looked at and whether p is frozen now: when the page
// turns out settled — full, every slot committed, undeleted and visible to
// this snapshot — it freezes the page.
func (h *Heap) gather(p *page, snap, tid int64, sel []int32) ([]int32, int, bool) {
	seq := p.seq.Load()
	n := int(p.used.Load())
	settled := n == len(p.stamps) && seq&1 == 0
	var asOf int64
	for si := 0; si < n; si++ {
		st := &p.stamps[si]
		b, e := st.load()
		if !Visible(b, e, snap, tid) {
			settled = false
			continue
		}
		if b < 0 || e != 0 {
			settled = false // own uncommitted insert, or a delete this snapshot predates
		} else if b > asOf {
			asOf = b
		}
		sel = append(sel, int32(si))
	}
	return sel, n, settled && h.freeze(p, seq, asOf)
}

// freeze sets p's frozen bit with its asOf unless a writer has thawed the
// page since seq was read (the stamps the caller checked may be stale then).
// It reports whether the page is frozen.
func (h *Heap) freeze(p *page, seq uint32, asOf int64) bool {
	h.freezeMu.Lock()
	defer h.freezeMu.Unlock()
	if p.seq.Load() != seq {
		return false
	}
	if p.frozen.Load() == 0 { // else a concurrent scan froze the same stamps first
		p.frozen.Store(asOf)
	}
	return true
}

// thaw opens a writer's bracket on p: the page cannot freeze until stamped,
// and a frozen page is thawed before the caller's stamp becomes visible.
// Writers are serialized by the caller, so brackets never overlap.
func (h *Heap) thaw(p *page) {
	h.freezeMu.Lock()
	p.seq.Add(1)
	if p.frozen.Swap(0) != 0 {
		h.thaws.Add(1)
	}
	h.freezeMu.Unlock()
}

// stamped closes the bracket thaw opened, after the writer's stamp is stored.
func (p *page) stamped() { p.seq.Add(1) }

// ThawAll thaws every page, returning the heap to the state a restart
// leaves it in; scans re-freeze lazily. Experiments and tests use it to
// measure and compare cold against warm pages. Like every mutator it must
// not run concurrently with another writer.
func (h *Heap) ThawAll() {
	for _, p := range h.pageList() {
		h.thaw(p)
		p.stamped()
	}
}

// FreezeStats reports how many pages are frozen and how many frozen pages
// writers have thawed over the heap's lifetime.
func (h *Heap) FreezeStats() (frozenPages int, thaws int64) {
	for _, p := range h.pageList() {
		if p.frozen.Load() != 0 {
			frozenPages++
		}
	}
	return frozenPages, h.thaws.Load()
}

// PageBytes reports the memory the heap's pages hold: per slot, every
// column's typed value (a string's header; its bytes are the written
// datum's), the null masks of nullable columns, and the version stamps.
func (h *Heap) PageBytes() int64 {
	per := 16 // begin and end stamps
	for _, c := range h.def.Columns {
		per += colBytes(c)
	}
	return int64(len(h.pageList())) * int64(h.RowsPerPage()) * int64(per)
}
