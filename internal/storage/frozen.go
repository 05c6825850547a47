package storage

import (
	"softdb/internal/types"
	"softdb/internal/vec"
)

// A page is frozen while it is full and every slot is a committed, undeleted
// version: its row window is then the same for every reader whose snapshot
// is at or after the youngest of those commits, so page scans hand out the
// window itself (no per-slot visibility check, no gather) together with a
// vec.PageImage that caches the window's typed column vectors. Nothing is
// frozen at load, restore or recovery; the first page scan that finds a page
// settled freezes it, and only columns some batch reads are ever imaged.
//
// Exactness. An image is published only under freezeMu and only if the
// page's seq is unchanged since before the freezing scan read the stamps;
// every writer that is about to change a slot of a published page — an end
// stamp or delete intent, an aborted insert, a vacuum reclaim — first thaws the page (seq goes odd, the image
// is cleared, both under freezeMu) and only then stores its stamp, after
// which stamped() closes the bracket. Hence, at every instant, a published
// image implies that every slot of the page still satisfies the freeze
// condition, and a scan that read the stamps while a writer was inside its
// bracket cannot publish. A reader that loaded the image just before a thaw
// keeps a window that is exact for its snapshot: the stamp that follows is
// either an intent of another transaction (invisible to it) or a commit
// timestamp above every snapshot handed out before the commit publishes.

// frozenImage is the published state of a frozen page.
type frozenImage struct {
	// asOf is the youngest begin stamp on the page: the image serves exactly
	// the snapshots at or after it. Older readers gather slot by slot.
	asOf int64
	cols *vec.PageImage
}

// gather collects the rows of p visible at snap to tid into buf. When the
// page turns out settled — full, every slot committed, undeleted and visible
// to this snapshot — it freezes the page and returns the image, in which
// case p.rows is the window to use and buf holds the same rows.
func (h *Heap) gather(p *page, snap, tid int64, buf []types.Row) ([]types.Row, *frozenImage) {
	seq := p.seq.Load()
	n := int(p.used.Load())
	settled := n == len(p.rows) && seq&1 == 0
	var asOf int64
	for si := 0; si < n; si++ {
		st := &p.stamps[si]
		b, e := st.begin.Load(), st.end.Load()
		if !Visible(b, e, snap, tid) {
			settled = false
			continue
		}
		if b < 0 || e != 0 {
			settled = false // own uncommitted insert, or a delete this snapshot predates
		} else if b > asOf {
			asOf = b
		}
		buf = append(buf, p.rows[si])
	}
	if !settled {
		return buf, nil
	}
	return buf, h.freeze(p, seq, asOf)
}

// freeze publishes an image for p unless a writer has thawed the page since
// seq was read (the stamps the caller checked may be stale then). It returns
// the page's image, or nil when the page stays thawed.
func (h *Heap) freeze(p *page, seq uint32, asOf int64) *frozenImage {
	fi := &frozenImage{asOf: asOf, cols: vec.NewPageImage(len(h.def.Columns))}
	h.freezeMu.Lock()
	defer h.freezeMu.Unlock()
	if p.seq.Load() != seq {
		return nil
	}
	if cur := p.image.Load(); cur != nil {
		return cur // a concurrent scan froze the same stamps first
	}
	p.image.Store(fi)
	return fi
}

// thaw opens a writer's bracket on p: no image can be published until
// stamped, and a published one is cleared before the caller's stamp becomes
// visible. Writers are serialized by the caller, so brackets never overlap.
func (h *Heap) thaw(p *page) {
	h.freezeMu.Lock()
	p.seq.Add(1)
	if p.image.Swap(nil) != nil {
		h.thaws.Add(1)
	}
	h.freezeMu.Unlock()
}

// stamped closes the bracket thaw opened, after the writer's stamp is stored.
func (p *page) stamped() { p.seq.Add(1) }

// ThawAll drops every page image, returning the heap to the state a restart
// leaves it in; scans re-freeze lazily. Experiments and tests use it to
// measure and compare cold against warm images. Like every mutator it must
// not run concurrently with another writer.
func (h *Heap) ThawAll() {
	for _, p := range h.pageList() {
		h.thaw(p)
		p.stamped()
	}
}

// ImageStats reports how many pages are frozen, the bytes their built column
// vectors hold, and how many images writers have thawed over the heap's
// lifetime.
func (h *Heap) ImageStats() (frozenPages int, imageBytes, thaws int64) {
	for _, p := range h.pageList() {
		if fi := p.image.Load(); fi != nil {
			frozenPages++
			imageBytes += fi.cols.Bytes()
		}
	}
	return frozenPages, imageBytes, h.thaws.Load()
}
