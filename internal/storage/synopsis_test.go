package storage

import (
	"math"
	"testing"

	"softdb/internal/schema"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// synInt reads the int column's synopsis of page pi, failing the test when
// the page or synopsis is missing.
func synInt(t *testing.T, h *Heap, pi int) ColSynopsis {
	t.Helper()
	syn := h.Synopsis(pi)
	if syn == nil {
		t.Fatalf("page %d has no synopsis", pi)
	}
	cs := syn.Col(0)
	if cs == nil {
		t.Fatalf("page %d synopsis misses column 0", pi)
	}
	return *cs
}

// allPages lists every page of h.
func allPages(h *Heap) []int32 {
	list := make([]int32, h.PageCount())
	for i := range list {
		list[i] = int32(i)
	}
	return list
}

// checkZone compares every page's zone entry with the synopsis recomputed
// from the page's non-aborted slots with Datum.Compare, in slot order. A page
// without a published entry must hold no non-aborted slot. Bounds must be
// identical datums when exact is set and only compare equal otherwise (a tie
// between -0 and +0 keeps the value merged first, and a replay may merge a
// page's slots out of slot order).
func checkZone(t *testing.T, h *Heap, exact bool) {
	t.Helper()
	for pi, p := range h.pageList() {
		want := &PageSynopsis{Cols: make([]ColSynopsis, len(h.def.Columns))}
		for si := int32(0); si < p.used.Load(); si++ {
			if p.stamps[si].begin.Load() == Aborted {
				continue
			}
			want.Rows++
			for ci := range p.cols {
				d, cs := p.cols[ci].datum(int(si)), &want.Cols[ci]
				if d.IsNull() {
					cs.Nulls++
					continue
				}
				if cs.Min.IsNull() || d.Compare(cs.Min) < 0 {
					cs.Min = d
				}
				if cs.Max.IsNull() || d.Compare(cs.Max) > 0 {
					cs.Max = d
				}
			}
		}
		got := h.Synopsis(pi)
		if got == nil {
			if want.Rows != 0 {
				t.Fatalf("page %d: no zone entry over %d non-aborted rows", pi, want.Rows)
			}
			continue
		}
		if got.Rows != want.Rows {
			t.Fatalf("page %d: zone rows %d, recomputed %d", pi, got.Rows, want.Rows)
		}
		for ci := range want.Cols {
			g, w := got.Cols[ci], want.Cols[ci]
			same := g.Nulls == w.Nulls && g.Min.Compare(w.Min) == 0 && g.Max.Compare(w.Max) == 0
			if !same || (exact && g != w) {
				t.Fatalf("page %d col %d: zone %+v, recomputed %+v", pi, ci, g, w)
			}
		}
	}
}

// mixedDef has a nullable column of each class: INT, FLOAT, DATE (an INT
// image of another kind) and STRING. A page column stores its own kind
// only, as schema.ValidateRow delivers it.
func mixedDef() *schema.Table {
	return mustTable("m",
		schema.Column{Name: "i", Type: types.KindInt, Nullable: true},
		schema.Column{Name: "f", Type: types.KindFloat, Nullable: true},
		schema.Column{Name: "d", Type: types.KindDate, Nullable: true},
		schema.Column{Name: "s", Type: types.KindString, Nullable: true},
	)
}

func TestSynopsisInsertMaintenance(t *testing.T) {
	h := NewHeap(testDef())
	if h.Synopsis(0) != nil {
		t.Error("empty heap should have no synopsis")
	}
	h.Insert(types.Row{types.NewInt(5), types.NewString("x")})
	h.Insert(types.Row{types.NewInt(2), types.Null})
	h.Insert(types.Row{types.NewInt(9), types.Null})
	cs := synInt(t, h, 0)
	if cs.Min.Int() != 2 || cs.Max.Int() != 9 || cs.Nulls != 0 {
		t.Errorf("col a synopsis: %+v", cs)
	}
	syn := h.Synopsis(0)
	if syn.Rows != 3 {
		t.Errorf("rows: %d", syn.Rows)
	}
	if b := syn.Col(1); b.Nulls != 2 || b.Min.Str() != "x" || b.Max.Str() != "x" {
		t.Errorf("col b synopsis: %+v", b)
	}
	if syn.Col(2) != nil || syn.Col(-1) != nil {
		t.Error("out-of-range column should be nil")
	}

	// Every class, ±Inf, -0, strings, and an uncommitted insert (covered
	// eagerly): every insert keeps the entry equal to a recompute.
	m := NewHeap(mixedDef())
	rows := []types.Row{
		{types.NewInt(7), types.NewFloat(1.5), types.NewDate(100), types.NewString("m")},
		{types.NewInt(6), types.NewFloat(2), types.NewDate(99), types.NewString("a")},
		{types.NewInt(7), types.NewFloat(math.Inf(1)), types.NewDate(101), types.Null},
		{types.Null, types.NewFloat(math.Inf(-1)), types.Null, types.NewString("zz")},
		{types.NewInt(1 << 60), types.NewFloat(-0.0), types.NewDate(-5), types.NewString("")},
	}
	for _, r := range rows {
		m.Insert(r)
		checkZone(t, m, true)
	}
	m.InsertVersion(types.Row{types.NewInt(-3), types.NewFloat(9e300), types.NewDate(1 << 40), types.NewString("~")}, 7)
	checkZone(t, m, true)
	got := m.Synopsis(0)
	if c := got.Col(0); c.Min.Int() != -3 || c.Max.Int() != 1<<60 || c.Nulls != 1 {
		t.Errorf("INT column: %+v", c)
	}
	if c := got.Col(1); !math.IsInf(c.Min.Float(), -1) || !math.IsInf(c.Max.Float(), 1) {
		t.Errorf("FLOAT column with ±Inf: %+v", c)
	}
	if c := got.Col(2); c.Min.Kind() != types.KindDate || c.Min.Date() != -5 || c.Max.Date() != 1<<40 {
		t.Errorf("DATE column: %+v", c)
	}
	if c := got.Col(3); c.Min.Str() != "" || c.Max.Str() != "~" || c.Nulls != 1 {
		t.Errorf("STRING column: %+v", c)
	}

	// A NULL-only page has an entry with no bounds.
	n := NewHeap(mixedDef())
	n.Insert(types.Row{types.Null, types.Null, types.Null, types.Null})
	if c := synInt(t, n, 0); !c.Min.IsNull() || c.Nulls != 1 {
		t.Errorf("NULL-only page: %+v", c)
	}

	// Reads race writes safely: a write to the page invalidates an entry a
	// reader is holding, and a writer inside its bracket makes the entry
	// unknown.
	z := m.Zone()
	e, ok := z.Entry(0)
	if !ok || !e.Valid() {
		t.Fatal("settled entry is not readable")
	}
	m.Insert(rows[0])
	if e.Valid() {
		t.Error("an entry read before a write still validates")
	}
	b, i := m.zoneSlot(0)
	b.begin(i)
	if _, ok := z.Entry(0); ok {
		t.Error("an entry under a writer's bracket is readable")
	}
	b.end(i, b.rows(i))
	if e, ok := z.Entry(0); !ok || e.Rows != 7 {
		t.Errorf("entry after the bracket closed: %+v, %v", e, ok)
	}
}

func TestSynopsisUpdateDeleteRecompute(t *testing.T) {
	h := NewHeap(testDef())
	var ids []RowID
	for _, v := range []int64{10, 20, 30} {
		ids = append(ids, h.Insert(types.Row{types.NewInt(v), types.Null}))
	}
	// A committed delete keeps widening the entry (older snapshots still
	// see the row) until vacuum reclaims it.
	ts := int64(10)
	del := func(id RowID) {
		ts++
		h.SetEnd(id, ts)
	}
	update := func(id RowID, row types.Row) RowID {
		del(id)
		return h.InsertCommitted(row, ts)
	}
	// Delete the max: recompute must tighten, not keep the stale bound.
	del(ids[2])
	if cs := synInt(t, h, 0); cs.Max.Int() != 30 {
		t.Errorf("an ended version left the entry before vacuum: %+v", cs)
	}
	h.Vacuum(ts)
	if cs := synInt(t, h, 0); cs.Min.Int() != 10 || cs.Max.Int() != 20 {
		t.Errorf("after delete: %+v", cs)
	}
	// Update the min upward: bounds move on both ends.
	ids[0] = update(ids[0], types.Row{types.NewInt(15), types.Null})
	h.Vacuum(ts)
	if cs := synInt(t, h, 0); cs.Min.Int() != 15 || cs.Max.Int() != 20 {
		t.Errorf("after update: %+v", cs)
	}
	// Update to NULL: value leaves the range, null count appears.
	ids[1] = update(ids[1], types.Row{types.Null, types.Null})
	h.Vacuum(ts)
	if cs := synInt(t, h, 0); cs.Min.Int() != 15 || cs.Max.Int() != 15 || cs.Nulls != 1 {
		t.Errorf("after null update: %+v", cs)
	}
	// Delete everything: an all-dead page publishes Rows == 0 with NULL
	// bounds — the "always skippable" shape.
	del(ids[0])
	del(ids[1])
	h.Vacuum(ts)
	syn := h.Synopsis(0)
	if syn.Rows != 0 {
		t.Errorf("all-dead page rows: %d", syn.Rows)
	}
	if cs := syn.Col(0); !cs.Min.IsNull() || !cs.Max.IsNull() {
		t.Errorf("all-dead page bounds: %+v", cs)
	}

	// Every recomputing writer over every class, ±Inf, strings and NULLs:
	// abort, an update (end plus insert), vacuum, then a rebuild from the
	// dump.
	m := NewHeap(mixedDef())
	r := func(i int64, f float64, d int64, s string) types.Row {
		return types.Row{types.NewInt(i), types.NewFloat(f), types.NewDate(d), types.NewString(s)}
	}
	keep := m.Insert(r(7, 1, 10, "m"))
	mixed := m.Insert(r(8, 3, 11, "q"))
	aborted := m.InsertVersion(types.Row{types.Null, types.NewFloat(math.Inf(1)), types.Null, types.NewString("zz")}, 5)
	checkZone(t, m, true)
	m.AbortInsert(aborted) // sheds the NULL and +Inf again
	checkZone(t, m, true)
	if c := synInt(t, m, 0); c.Nulls != 0 || m.Synopsis(0).Rows != 2 {
		t.Errorf("abort did not shed the aborted version: %+v", m.Synopsis(0))
	}
	m.SetEnd(mixed, 2)
	m.InsertCommitted(types.Row{types.Null, types.NewFloat(math.Inf(-1)), types.NewDate(3), types.Null}, 2)
	checkZone(t, m, true)
	ended := m.Insert(r(-40, -40, -40, "a"))
	m.SetEnd(ended, 3)
	checkZone(t, m, true) // a committed-ended version still counts
	if n := m.Vacuum(10); n != 2 {
		t.Fatalf("vacuum reclaimed %d versions, want 2", n)
	}
	checkZone(t, m, true)
	if c := synInt(t, m, 0); c.Min.Int() != 7 || c.Max.Int() != 7 || c.Nulls != 1 {
		t.Errorf("after vacuum: %+v", c)
	}
	m.SetEnd(keep, 20)
	checkZone(t, m, true)
	re := RebuildHeap(m.Def(), m.DumpPages(), m.Version())
	checkZone(t, re, true)
	// Replay out of slot order through InsertAtRID: placeholders widen
	// nothing, a page of placeholders has no entry, resurrected slots widen.
	dump := m.DumpPages()
	rp := NewHeap(m.Def())
	per := rp.RowsPerPage()
	for si := len(dump[0]) - 1; si >= 0; si-- {
		if s := dump[0][si]; !s.Dead {
			rp.InsertAtRID(s.Row, RowID{Page: 0, Slot: int32(si)}, CommittedMin)
		}
	}
	rp.InsertAtRID(r(1, 1, 1, "x"), RowID{Page: 2, Slot: 0}, CommittedMin)
	checkZone(t, rp, false)
	if rp.Synopsis(1) != nil || rp.Synopsis(2) == nil {
		t.Errorf("placeholder-only page 1 of %d rows/page has an entry, or page 2 has none", per)
	}
}

func TestSynopsisPerPageIndependence(t *testing.T) {
	h := NewHeap(testDef())
	per := h.RowsPerPage()
	for i := 0; i < 2*per; i++ {
		h.Insert(types.Row{types.NewInt(int64(i)), types.Null})
	}
	lo, hi := synInt(t, h, 0), synInt(t, h, 1)
	if lo.Min.Int() != 0 || lo.Max.Int() != int64(per-1) {
		t.Errorf("page 0: %+v", lo)
	}
	if hi.Min.Int() != int64(per) || hi.Max.Int() != int64(2*per-1) {
		t.Errorf("page 1: %+v", hi)
	}

	// Across zone blocks: entries of pages in different blocks stay apart,
	// and a write to one page leaves every other page's entry as it was.
	m := NewHeap(mixedDef())
	mper := m.RowsPerPage()
	var ids []RowID
	for i := 0; i < (2*zoneBlockPages+3)*mper; i++ {
		p := int64(i / mper)
		row := types.Row{types.NewInt(p), types.NewFloat(float64(p) / 2), types.NewDate(p), types.NewString(string(rune('a' + p%26)))}
		if p%5 == 0 {
			row[0] = types.NewInt(-p)
		}
		ids = append(ids, m.Insert(row))
	}
	checkZone(t, m, true)
	before := m.Synopsis(zoneBlockPages)
	m.SetEnd(ids[(zoneBlockPages+1)*mper], 5)
	m.Vacuum(5)
	if after := m.Synopsis(zoneBlockPages); after.Rows != before.Rows || after.Cols[0] != before.Cols[0] {
		t.Errorf("write to page %d moved page %d's entry", zoneBlockPages+1, zoneBlockPages)
	}
	checkZone(t, m, true)
	if c := synInt(t, m, 2*zoneBlockPages); c.Min.Compare(types.NewInt(2*zoneBlockPages)) != 0 {
		t.Errorf("page %d in the third block: %+v", 2*zoneBlockPages, c)
	}
}

func TestScanPagesSkipAndCounters(t *testing.T) {
	h := NewHeap(testDef())
	per := h.RowsPerPage()
	for i := 0; i < 3*per; i++ {
		h.Insert(types.Row{types.NewInt(int64(i)), types.Null})
	}
	// Keep the pages whose zone entry reaches the second page — all but
	// page 0 — and read exactly those.
	z := h.Zone()
	var list []int32
	for pi := 0; pi < z.Pages(); pi++ {
		e, ok := z.Entry(pi)
		c, _ := e.Bounds(0)
		if ok && c.HiKind == types.KindInt && c.Hi < int64(per) && e.Valid() {
			continue
		}
		list = append(list, int32(pi))
	}
	var c Counters
	var seen int
	var got []int
	done := h.ScanPageListAt(list, SnapLatest, 0, &c, func(pi int, b *vec.Batch, _ *ZoneEntry) bool {
		got = append(got, pi)
		seen += b.Len()
		return true
	})
	if done != 2 || len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("listed pages 1, 2: delivered %v, finished %d", got, done)
	}
	if c.PagesRead != 2 || c.RowsRead != int64(2*per) || seen != 2*per || c.PagesSkipped != 0 {
		t.Errorf("read accounting: %+v seen=%d", c, seen)
	}

	// Every page.
	c = Counters{}
	h.ScanPageListAt(allPages(h), SnapLatest, 0, &c, func(int, *vec.Batch, *ZoneEntry) bool { return true })
	if c.PagesRead != 3 || c.RowsRead != int64(3*per) {
		t.Errorf("full list: %+v", c)
	}

	// Early stop: fn returning false ends iteration after the first batch
	// and reports where.
	c = Counters{}
	calls := 0
	done = h.ScanPageListAt([]int32{1, 2}, SnapLatest, 0, &c, func(int, *vec.Batch, *ZoneEntry) bool { calls++; return false })
	if calls != 1 || c.PagesRead != 1 || done != 0 {
		t.Errorf("early stop: calls=%d done=%d %+v", calls, done, c)
	}

	// A page with no visible row is charged but not delivered.
	e := NewHeap(testDef())
	e.AbortInsert(e.InsertVersion(types.Row{types.NewInt(1), types.Null}, 3))
	c = Counters{}
	done = e.ScanPageListAt(allPages(e), SnapLatest, 0, &c, func(int, *vec.Batch, *ZoneEntry) bool {
		t.Error("empty page delivered")
		return true
	})
	if done != 1 || c.PagesRead != 1 || c.RowsRead != 0 {
		t.Errorf("empty page: done=%d %+v", done, c)
	}

	// A list that outlives a truncate reads nothing past the end.
	h.Truncate()
	if done := h.ScanPageListAt(list, SnapLatest, 0, nil, func(int, *vec.Batch, *ZoneEntry) bool { return true }); done != len(list) {
		t.Errorf("truncated heap: finished %d of %d", done, len(list))
	}
}
