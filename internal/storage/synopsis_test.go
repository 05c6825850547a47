package storage

import (
	"testing"

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
}

func TestSynopsisUpdateDeleteRecompute(t *testing.T) {
	h := NewHeap(testDef())
	var ids []RowID
	for _, v := range []int64{10, 20, 30} {
		ids = append(ids, h.Insert(types.Row{types.NewInt(v), types.Null}))
	}
	// Delete the max: recompute must tighten, not keep the stale bound.
	h.Delete(ids[2])
	if cs := synInt(t, h, 0); cs.Min.Int() != 10 || cs.Max.Int() != 20 {
		t.Errorf("after delete: %+v", cs)
	}
	// Update the min upward: bounds move on both ends.
	h.Update(ids[0], types.Row{types.NewInt(15), types.Null})
	if cs := synInt(t, h, 0); cs.Min.Int() != 15 || cs.Max.Int() != 20 {
		t.Errorf("after update: %+v", cs)
	}
	// Update to NULL: value leaves the range, null count appears.
	h.Update(ids[1], types.Row{types.Null, types.Null})
	if cs := synInt(t, h, 0); cs.Min.Int() != 15 || cs.Max.Int() != 15 || cs.Nulls != 1 {
		t.Errorf("after null update: %+v", cs)
	}
	// Delete everything: an all-dead page publishes Rows == 0 with NULL
	// bounds — the "always skippable" shape.
	h.Delete(ids[0])
	h.Delete(ids[1])
	syn := h.Synopsis(0)
	if syn.Rows != 0 {
		t.Errorf("all-dead page rows: %d", syn.Rows)
	}
	if cs := syn.Col(0); !cs.Min.IsNull() || !cs.Max.IsNull() {
		t.Errorf("all-dead page bounds: %+v", cs)
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
}

func TestScanPagesSkipAndCounters(t *testing.T) {
	h := NewHeap(testDef())
	per := h.RowsPerPage()
	for i := 0; i < 3*per; i++ {
		h.Insert(types.Row{types.NewInt(int64(i)), types.Null})
	}
	// Skip pages whose max stays below the second page — exactly page 0.
	var c Counters
	var seen int
	h.ScanPages(0, int(h.PageCount()), &c,
		func(syn *PageSynopsis) bool { return syn.Col(0).Max.Int() < int64(per) },
		func(rows []types.Row, syn *PageSynopsis, _ *vec.PageImage) bool {
			if syn == nil {
				t.Error("scanned page delivered without its synopsis")
			}
			seen += len(rows)
			return true
		})
	if c.PagesSkipped != 1 {
		t.Errorf("skipped: %d", c.PagesSkipped)
	}
	if c.PagesRead != 2 || c.RowsRead != int64(2*per) || seen != 2*per {
		t.Errorf("read accounting: %+v seen=%d", c, seen)
	}

	// A skipped page charges no page or row reads; identity holds.
	if c.PagesRead+c.PagesSkipped != int64(h.PageCount()) {
		t.Errorf("pages read+skipped != total: %+v vs %d", c, h.PageCount())
	}

	// Nil skip reads everything.
	c = Counters{}
	h.ScanPages(0, int(h.PageCount()), &c, nil, func(rows []types.Row, _ *PageSynopsis, _ *vec.PageImage) bool { return true })
	if c.PagesSkipped != 0 || c.PagesRead != 3 {
		t.Errorf("nil skip: %+v", c)
	}

	// Early stop: fn returning false ends iteration after the first batch.
	c = Counters{}
	calls := 0
	h.ScanPages(0, int(h.PageCount()), &c, nil, func(rows []types.Row, _ *PageSynopsis, _ *vec.PageImage) bool { calls++; return false })
	if calls != 1 || c.PagesRead != 1 {
		t.Errorf("early stop: calls=%d %+v", calls, c)
	}

	// Out-of-range bounds clamp.
	c = Counters{}
	h.ScanPages(-5, 99, &c, nil, func(rows []types.Row, _ *PageSynopsis, _ *vec.PageImage) bool { return true })
	if c.PagesRead != 3 {
		t.Errorf("clamped scan: %+v", c)
	}
}
