package storage

import (
	"math/rand"
	"testing"

	"softdb/internal/schema"
	"softdb/internal/types"
)

func testDef() *schema.Table {
	return mustTable("t",
		schema.Column{Name: "a", Type: types.KindInt},
		schema.Column{Name: "b", Type: types.KindString, Nullable: true},
	)
}

func TestInsertFetch(t *testing.T) {
	h := NewHeap(testDef())
	id := h.Insert(types.Row{types.NewInt(1), types.NewString("x")})
	var c Counters
	row, ok := h.Fetch(id, &c)
	if !ok || row[0].Int() != 1 {
		t.Fatalf("fetch: %v %v", row, ok)
	}
	if c.PagesRead != 1 || c.RowsRead != 1 {
		t.Errorf("counters: %+v", c)
	}
	if h.RowCount() != 1 {
		t.Error("RowCount")
	}
}

func TestFetchInvalid(t *testing.T) {
	h := NewHeap(testDef())
	if _, ok := h.Fetch(RowID{Page: 5, Slot: 0}, nil); ok {
		t.Error("fetch past end should fail")
	}
	id := h.Insert(types.Row{types.NewInt(1), types.Null})
	if _, ok := h.Fetch(RowID{Page: id.Page, Slot: 99}, nil); ok {
		t.Error("fetch bad slot should fail")
	}
}

func TestDeleteHidesRow(t *testing.T) {
	h := NewHeap(testDef())
	id := h.Insert(types.Row{types.NewInt(1), types.Null})
	if !h.SetEnd(id, 5) {
		t.Fatal("end live row")
	}
	if h.SetEnd(RowID{Page: 9, Slot: 9}, 5) {
		t.Error("ending an invalid id should report false")
	}
	if _, ok := h.Fetch(id, nil); ok {
		t.Error("deleted row should not fetch")
	}
	if _, ok := h.GetAt(id, 4, 0); !ok {
		t.Error("a snapshot before the delete should still see the row")
	}
	if h.RowCount() != 0 {
		t.Error("RowCount after delete")
	}
	count := 0
	h.Scan(nil, func(RowID, types.Row) bool { count++; return true })
	if count != 0 {
		t.Error("scan should skip deleted rows")
	}
}

func TestPagePacking(t *testing.T) {
	h := NewHeap(testDef())
	perPage := h.RowsPerPage()
	if perPage < 10 {
		t.Fatalf("expected many small rows per page, got %d", perPage)
	}
	for i := 0; i < perPage+1; i++ {
		h.Insert(types.Row{types.NewInt(int64(i)), types.Null})
	}
	if h.PageCount() != 2 {
		t.Errorf("rows should spill to a second page: %d pages", h.PageCount())
	}
	var c Counters
	h.Scan(&c, func(RowID, types.Row) bool { return true })
	if c.PagesRead != 2 {
		t.Errorf("full scan should read 2 pages, read %d", c.PagesRead)
	}
	if c.RowsRead != int64(perPage+1) {
		t.Errorf("full scan rows: %d", c.RowsRead)
	}
}

func TestScanEarlyStop(t *testing.T) {
	h := NewHeap(testDef())
	for i := 0; i < 10; i++ {
		h.Insert(types.Row{types.NewInt(int64(i)), types.Null})
	}
	seen := 0
	h.Scan(nil, func(_ RowID, _ types.Row) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Errorf("early stop: saw %d", seen)
	}
}

func TestVersionBumps(t *testing.T) {
	h := NewHeap(testDef())
	v0 := h.Version()
	id := h.Insert(types.Row{types.NewInt(1), types.Null})
	if h.Version() == v0 {
		t.Error("insert should bump version")
	}
	v1 := h.Version()
	h.SetEnd(id, 5)
	if h.Version() == v1 {
		t.Error("delete should bump version")
	}
}

// The WAL replays N logged mutations onto a snapshot taken at version V and
// must land at exactly V+N, so the bump discipline is load-bearing: exactly
// +1 per successful mutation, no bump on a failed one.
func TestVersionBumpExactlyOnce(t *testing.T) {
	h := NewHeap(testDef())
	v := h.Version()
	id := h.Insert(types.Row{types.NewInt(1), types.Null})
	if h.Version() != v+1 {
		t.Fatalf("insert: version %d, want %d", h.Version(), v+1)
	}
	if !h.SetEnd(id, -9) || h.Version() != v+1 {
		t.Fatalf("uncommitted delete: version %d, want %d", h.Version(), v+1)
	}
	if !h.SetEnd(id, 5) || h.Version() != v+2 {
		t.Fatalf("committed delete: version %d, want %d", h.Version(), v+2)
	}
	if h.SetEnd(RowID{Page: 7, Slot: 7}, 6) {
		t.Fatal("delete of invalid id should fail")
	}
	if h.Version() != v+2 {
		t.Fatalf("failed delete must not bump: version %d, want %d", h.Version(), v+2)
	}
	h.Truncate()
	if h.Version() != v+3 {
		t.Fatalf("truncate: version %d, want %d", h.Version(), v+3)
	}
}

// DumpPages/RebuildHeap must reproduce the exact physical layout — dead
// slots included — so RowIDs assigned after recovery match the original's.
func TestDumpRebuildRoundTrip(t *testing.T) {
	h := NewHeap(testDef())
	perPage := h.RowsPerPage()
	var ids []RowID
	for i := 0; i < perPage+3; i++ {
		ids = append(ids, h.Insert(types.Row{types.NewInt(int64(i)), types.NewString("v")}))
	}
	h.SetEnd(ids[1], 5)
	h.SetEnd(ids[perPage], 5)
	h.SetEnd(ids[2], 6)
	h.InsertCommitted(types.Row{types.NewInt(-2), types.Null}, 6)

	r := RebuildHeap(h.Def(), h.DumpPages(), h.Version())
	if r.Version() != h.Version() {
		t.Fatalf("version: %d, want %d", r.Version(), h.Version())
	}
	if r.RowCount() != h.RowCount() || r.PageCount() != h.PageCount() {
		t.Fatalf("shape: rows %d/%d pages %d/%d", r.RowCount(), h.RowCount(), r.PageCount(), h.PageCount())
	}
	// Dead slots stay dead...
	if _, ok := r.Fetch(ids[1], nil); ok {
		t.Fatal("deleted slot resurrected")
	}
	// ...live rows fetch identically...
	for _, id := range []RowID{ids[0], ids[perPage+1], ids[perPage+2]} {
		want, _ := h.Fetch(id, nil)
		got, ok := r.Fetch(id, nil)
		if !ok || !got.Equal(want) {
			t.Fatalf("row %v: got %v want %v", id, got, want)
		}
	}
	// ...and the next insert lands at the same RowID in both heaps.
	a := h.Insert(types.Row{types.NewInt(99), types.Null})
	b := r.Insert(types.Row{types.NewInt(99), types.Null})
	if a != b {
		t.Fatalf("post-rebuild insert RowID: %v vs %v", a, b)
	}
	// The rebuilt heap republishes page synopses for zone-map pruning.
	if r.PageCount() > 0 && r.Synopsis(0) == nil {
		t.Fatal("rebuilt heap has no page synopsis")
	}
}

func TestTruncate(t *testing.T) {
	h := NewHeap(testDef())
	for i := 0; i < 100; i++ {
		h.Insert(types.Row{types.NewInt(int64(i)), types.Null})
	}
	h.Truncate()
	if h.RowCount() != 0 || h.PageCount() != 0 {
		t.Error("truncate should empty the heap")
	}
}

// Property: after a random sequence of inserts and deletes, ScanAll returns
// exactly the live set.
func TestRandomizedLiveSet(t *testing.T) {
	h := NewHeap(testDef())
	r := rand.New(rand.NewSource(11))
	live := map[RowID]int64{}
	var ids []RowID
	for i := 0; i < 5000; i++ {
		if r.Intn(3) > 0 || len(ids) == 0 {
			v := int64(i)
			id := h.Insert(types.Row{types.NewInt(v), types.Null})
			live[id] = v
			ids = append(ids, id)
		} else {
			id := ids[r.Intn(len(ids))]
			if _, ok := live[id]; ok {
				h.SetEnd(id, int64(i))
				delete(live, id)
			}
		}
	}
	if h.RowCount() != int64(len(live)) {
		t.Fatalf("RowCount = %d, want %d", h.RowCount(), len(live))
	}
	seen := map[RowID]int64{}
	h.Scan(nil, func(id RowID, row types.Row) bool {
		seen[id] = row[0].Int()
		return true
	})
	if len(seen) != len(live) {
		t.Fatalf("scan saw %d rows, want %d", len(seen), len(live))
	}
	for id, v := range live {
		if seen[id] != v {
			t.Fatalf("row %v: got %d want %d", id, seen[id], v)
		}
	}
}

// mustTable is a test-local NewTable that panics on error; the schema
// package itself no longer exports a panicking constructor.
func mustTable(name string, cols ...schema.Column) *schema.Table {
	def, err := schema.NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return def
}

// appendVersion appends one uncommitted version owned by transaction tid
// through the engine's batch write.
func appendVersion(h *Heap, row types.Row, tid int64) RowID {
	return h.AppendVersions([]types.Row{row}, tid, nil)[0]
}

// commitVersion commit-stamps the uncommitted version at id with ts, a
// one-slot CommitRun.
func commitVersion(h *Heap, id RowID, ts int64) {
	h.CommitRun(int(id.Page), id.Slot, id.Slot+1, ts)
}
