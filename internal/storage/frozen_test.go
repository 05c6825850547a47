package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softdb/internal/types"
	"softdb/internal/vec"
)

// pageScan is what one ScanPageListAt call over every page delivered,
// flattened for comparison.
type pageScan struct {
	rows   []string
	frozen int
	io     Counters
}

func scanPages(h *Heap, snap, tid int64) pageScan {
	var out pageScan
	h.ScanPageListAt(allPages(h), snap, tid, &out.io, func(_ int, b *vec.Batch, _ *ZoneEntry) bool {
		for i := 0; i < b.Len(); i++ {
			out.rows = append(out.rows, b.Row(i).String())
		}
		return true
	})
	out.frozen = int(out.io.PagesFrozen)
	return out
}

// scanSlots is the slot-by-slot reference: ScanRangeAt never consults the
// frozen bit.
func scanSlots(h *Heap, snap, tid int64) (rows []string, io Counters) {
	h.ScanRangeAt(0, int(h.PageCount()), snap, tid, &io, func(_ RowID, r types.Row) bool {
		rows = append(rows, r.String())
		return true
	})
	return rows, io
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fillPages inserts enough committed rows for n full pages plus one row on a
// tail page, stamping row i with commit timestamp i+1.
func fillPages(h *Heap, n int) []RowID {
	per := h.RowsPerPage()
	ids := make([]RowID, 0, n*per+1)
	for i := 0; i < n*per+1; i++ {
		id := appendVersion(h, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprint("r", i))}, 1)
		commitVersion(h, id, int64(i+1))
		ids = append(ids, id)
	}
	return ids
}

func TestFreezeCondition(t *testing.T) {
	h := NewHeap(testDef())
	ids := fillPages(h, 3)
	per := h.RowsPerPage()
	if fp, _ := h.FreezeStats(); fp != 0 {
		t.Fatalf("%d pages frozen before any scan: nothing may freeze at load", fp)
	}

	// The first page scan freezes every full, settled page on the spot; the
	// partial tail page is gathered. Rows and charges equal the slot walk.
	got := scanPages(h, SnapLatest, 0)
	want, wantIO := scanSlots(h, SnapLatest, 0)
	if !sameRows(got.rows, want) {
		t.Fatalf("page scan rows differ from slot scan")
	}
	if got.frozen != 3 || got.io.PagesFrozen != 3 {
		t.Fatalf("frozen pages: delivered %d, charged %d, want 3", got.frozen, got.io.PagesFrozen)
	}
	if got.io.PagesRead != wantIO.PagesRead || got.io.RowsRead != wantIO.RowsRead {
		t.Fatalf("charges: page scan %+v, slot scan %+v", got.io, wantIO)
	}
	if fp, _ := h.FreezeStats(); fp != 3 {
		t.Fatalf("after a scan: %d frozen pages, want 3", fp)
	}

	// A reader older than the youngest row of a page gathers slot by slot
	// and sees only what its snapshot admits.
	old := int64(per + per/2) // inside page 1
	got = scanPages(h, old, 0)
	want, _ = scanSlots(h, old, 0)
	if !sameRows(got.rows, want) || len(got.rows) != int(old) {
		t.Fatalf("old snapshot: %d rows, want %d", len(got.rows), old)
	}
	if got.frozen != 1 {
		t.Fatalf("old snapshot took %d frozen pages, want 1 (only page 0 is entirely older)", got.frozen)
	}

	// Pages holding an uncommitted insert, an aborted slot or a deleted
	// version do not freeze.
	h.ThawAll()
	tail := appendVersion(h, types.Row{types.NewInt(-1), types.Null}, 7) // tail page: uncommitted
	h.SetEnd(ids[0], 1000)                                               // page 0: committed delete
	if got = scanPages(h, SnapLatest, 0); got.frozen != 2 {
		t.Fatalf("%d pages frozen, want 2 (page 0 holds a deleted version)", got.frozen)
	}
	if got = scanPages(h, 999, 0); got.frozen != 2 {
		t.Fatalf("a reader that still sees the deleted row must gather its page; %d frozen", got.frozen)
	}
	h.AbortInsert(tail)
	for h.PageCount() < 5 { // fill the tail page and beyond; it holds an aborted slot
		id := appendVersion(h, types.Row{types.NewInt(0), types.Null}, 8)
		commitVersion(h, id, 2000)
	}
	if got = scanPages(h, SnapLatest, 0); got.frozen != 2 {
		t.Fatalf("%d pages frozen, want 2 (page 3 holds an aborted slot)", got.frozen)
	}
}

// TestThawBeforeStamp drives every writer that changes a slot of a frozen
// page and checks the page is thawed before the change is visible, and that
// it freezes again once it is settled.
func TestThawBeforeStamp(t *testing.T) {
	frozenPages := func(h *Heap) int { fp, _ := h.FreezeStats(); return fp }
	cases := []struct {
		name     string
		write    func(h *Heap, id RowID)
		refreeze bool // the page settles again without further writes
	}{
		{"delete intent then rollback", func(h *Heap, id RowID) { h.SetEnd(id, -9); h.ClearEnd(id) }, true},
		{"delete intent", func(h *Heap, id RowID) { h.SetEnd(id, -9) }, false},
		{"committed delete", func(h *Heap, id RowID) { h.SetEnd(id, -9); h.SetEnd(id, 5000) }, false},
		{"committed delete then vacuum", func(h *Heap, id RowID) { h.SetEnd(id, 5000); h.Vacuum(6000) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHeap(testDef())
			ids := fillPages(h, 2)
			scanPages(h, SnapLatest, 0)
			if frozenPages(h) != 2 {
				t.Fatalf("setup: %d frozen pages", frozenPages(h))
			}
			_, thaws := h.FreezeStats()
			tc.write(h, ids[1])
			if _, after := h.FreezeStats(); after != thaws+1 {
				t.Fatalf("thaws went %d -> %d, want one page thawed", thaws, after)
			}
			if fp := frozenPages(h); fp != 1 {
				t.Fatalf("%d pages still frozen right after the write, want 1", fp)
			}
			got := scanPages(h, SnapLatest, 0)
			want, _ := scanSlots(h, SnapLatest, 0)
			if !sameRows(got.rows, want) {
				t.Fatalf("rows after write differ from slot scan")
			}
			wantFrozen := 1
			if tc.refreeze {
				wantFrozen = 2
			}
			if fp := frozenPages(h); fp != wantFrozen {
				t.Fatalf("%d pages frozen after the next scan, want %d", fp, wantFrozen)
			}
		})
	}

	// Vacuum reclaims only versions no frozen page can hold (a page with an
	// ended or aborted slot is not frozen), and leaves frozen pages alone.
	h := NewHeap(testDef())
	ids := fillPages(h, 2)
	h.SetEnd(ids[0], 50)
	scanPages(h, SnapLatest, 0)
	if fp := frozenPages(h); fp != 1 {
		t.Fatalf("%d frozen pages before vacuum, want 1", fp)
	}
	if n := h.Vacuum(100); n != 1 {
		t.Fatalf("vacuum reclaimed %d versions, want 1", n)
	}
	if fp := frozenPages(h); fp != 1 {
		t.Fatalf("vacuum of another page thawed a frozen one: %d left", fp)
	}
}

// TestStaleImageExactForItsSnapshot is the invariant DESIGN.md §20 states: a
// reader that found a page frozen just before a writer thawed it keeps
// reading slots that are exact for its own snapshot, because the stamp that
// follows the thaw is either another transaction's intent (invisible to the
// reader) or a commit timestamp above every snapshot handed out so far. The
// writer runs inside the reader's page callback, i.e. strictly between the
// reader's load of the frozen bit and its use of the page's columns.
func TestStaleImageExactForItsSnapshot(t *testing.T) {
	h := NewHeap(testDef())
	ids := fillPages(h, 1)
	per := h.RowsPerPage()
	scanPages(h, SnapLatest, 0)

	snap := int64(per + 1) // the commit clock when the reader started
	commit := snap + 1     // the writer's commit timestamp: always above snap
	var window []string
	var io Counters
	h.ScanPageListAt([]int32{0}, snap, 0, &io, func(_ int, b *vec.Batch, _ *ZoneEntry) bool {
		h.SetEnd(ids[3], -42)    // delete intent: thaws, then stamps
		h.SetEnd(ids[3], commit) // commit: restamps above the reader's snapshot
		if fp, _ := h.FreezeStats(); fp != 0 {
			t.Error("page stayed frozen past the writer's stamp")
		}
		// The page's columns are still what the reader's window holds.
		c := b.Col(0, vec.ClassInt)
		if c == nil || len(c.Ints) != per || c.Ints[3] != 3 || b.Sel != nil {
			t.Errorf("stale page column: %+v (sel %v)", c, b.Sel)
		}
		for i := 0; i < b.Len(); i++ {
			window = append(window, b.Row(i).String())
		}
		return true
	})
	if io.PagesFrozen != 1 {
		t.Fatal("reader did not get the frozen page")
	}
	var want []string
	h.ScanRangeAt(0, 1, snap, 0, nil, func(_ RowID, r types.Row) bool {
		want = append(want, r.String())
		return true
	})
	if !sameRows(window, want) || len(window) != per {
		t.Fatalf("stale window (%d rows) is not what snapshot %d sees slot by slot (%d rows)", len(window), snap, len(want))
	}
	// A reader that starts after the commit sees the row gone.
	after := scanPages(h, commit, 0)
	if len(after.rows) != per || after.frozen != 0 { // per-1 on page 0, 1 on the tail
		t.Fatalf("post-commit reader: %d rows, %d frozen pages", len(after.rows), after.frozen)
	}
}

// TestPageBatchIsThePage checks the memory model of typed pages: a page
// scan hands out the page's own column arrays (no copy per scan, the same
// arrays on every scan) with their null masks, and a column read as another
// class is refused rather than converted.
func TestPageBatchIsThePage(t *testing.T) {
	h := NewHeap(testDef())
	fillPages(h, 2)
	appendVersion(h, types.Row{types.NewInt(7), types.Null}, 3) // tail page: uncommitted, NULL b
	per := h.RowsPerPage()
	type seen struct {
		ints *int64
		strs *string
		a, s vec.Col
	}
	read := func() []seen {
		var out []seen
		h.ScanPageListAt(allPages(h), SnapLatest, 3, nil, func(_ int, b *vec.Batch, _ *ZoneEntry) bool {
			a, s := b.Col(0, vec.ClassInt), b.Col(1, vec.ClassStr)
			if a == nil || s == nil || b.Col(1, vec.ClassInt) != nil || b.Col(0, vec.ClassFloat) != nil {
				t.Fatalf("page columns: int %v, str %v; another class must be refused", a, s)
			}
			out = append(out, seen{&a.Ints[0], &s.Strs[0], *a, *s})
			return true
		})
		return out
	}
	first, second := read(), read()
	if len(first) != 3 {
		t.Fatalf("%d pages delivered, want 3", len(first))
	}
	for pi := range first {
		if first[pi].ints != second[pi].ints || first[pi].strs != second[pi].strs {
			t.Fatalf("page %d: a second scan got other arrays", pi)
		}
	}
	if c := first[0].a; c.HasNulls || len(c.Ints) != per || c.Ints[per-1] != int64(per-1) {
		t.Fatalf("full page INT column: %d values, HasNulls %v", len(c.Ints), c.HasNulls)
	}
	if tail := first[2].s; !tail.HasNulls || len(tail.Strs) != 2 || !tail.Nulls[1] || tail.Nulls[0] {
		t.Fatalf("tail page STRING column: %+v", tail)
	}
	if want := int64(3 * per * (16 + 9 + 17)); h.PageBytes() != want {
		t.Fatalf("PageBytes %d, want %d", h.PageBytes(), want)
	}
}

// TestRebuildStartsCold: a heap rebuilt from a dump (checkpoint restore,
// crash recovery) has no frozen page and freezes lazily, with the same
// answers.
func TestRebuildStartsCold(t *testing.T) {
	h := NewHeap(testDef())
	fillPages(h, 3)
	before := scanPages(h, SnapLatest, 0)
	re := RebuildHeap(h.Def(), h.DumpPages(), h.Version())
	if fp, thaws := re.FreezeStats(); fp != 0 || thaws != 0 {
		t.Fatalf("rebuilt heap is not cold: %d pages, %d thaws", fp, thaws)
	}
	after := scanPages(re, SnapLatest, 0)
	if !sameRows(before.rows, after.rows) || before.io != after.io {
		t.Fatalf("rebuilt heap scans differently: %+v vs %+v", before.io, after.io)
	}
	if fp, _ := re.FreezeStats(); fp != 3 {
		t.Fatalf("rebuilt heap froze %d pages on its first scan, want 3", fp)
	}
}

// TestFrozenScansUnderWriters runs page scans against a serialized writer
// (insert, delete, update, rollback, vacuum — the engine's mix) and checks
// every scan against the slot-by-slot walk at the same snapshot. The commit
// clock follows the engine's ordering: a commit timestamp is published only
// after every stamp carrying it is stored, and a reader's snapshot is the
// last published timestamp.
func TestFrozenScansUnderWriters(t *testing.T) {
	h := NewHeap(testDef())
	ids := fillPages(h, 8)
	var clock atomic.Int64
	clock.Store(int64(len(ids)))
	var horizonMu sync.Mutex
	pinned := map[int64]int{} // readers' snapshots, for the vacuum horizon
	pin := func() int64 {
		horizonMu.Lock()
		defer horizonMu.Unlock()
		s := clock.Load()
		pinned[s]++
		return s
	}
	unpin := func(s int64) {
		horizonMu.Lock()
		defer horizonMu.Unlock()
		if pinned[s]--; pinned[s] == 0 {
			delete(pinned, s)
		}
	}
	horizon := func() int64 {
		horizonMu.Lock()
		defer horizonMu.Unlock()
		m := clock.Load()
		for s := range pinned {
			if s < m {
				m = s
			}
		}
		return m
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the single writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		// Committed deletes and updates leave their page unfreezable for good
		// (an ended version, then a reclaimed slot), so they stay on the
		// first two pages; everywhere else pages keep thawing for an intent
		// and settling again when it rolls back, and appended pages freeze as
		// they fill. Rolled-back inserts (an aborted slot) are rare.
		per := h.RowsPerPage()
		churn := append([]RowID(nil), ids[:2*per]...)
		live := append([]RowID(nil), ids[2*per:]...)
		tid := int64(1 << 40)
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			runtime.Gosched()
			tid++
			switch r := rng.Intn(100); {
			case n%500 == 0: // insert, roll back
				h.AbortInsert(appendVersion(h, types.Row{types.NewInt(-1), types.Null}, tid))
			case r < 40: // insert, commit
				id := appendVersion(h, types.Row{types.NewInt(int64(n)), types.Null}, tid)
				ts := clock.Load() + 1
				commitVersion(h, id, ts)
				clock.Store(ts)
				live = append(live, id)
			case r < 43 && len(churn) > 0: // delete, commit
				id := churn[len(churn)-1]
				churn = churn[:len(churn)-1]
				h.SetEnd(id, -tid)
				ts := clock.Load() + 1
				h.SetEnd(id, ts)
				clock.Store(ts)
			case r < 46 && len(churn) > 0: // update = delete + insert under one commit
				old := churn[len(churn)-1]
				churn = churn[:len(churn)-1]
				row, _ := h.GetAny(old)
				h.SetEnd(old, -tid)
				id := appendVersion(h, types.Row{row[0], types.NewString("u")}, tid)
				ts := clock.Load() + 1
				h.SetEnd(old, ts)
				commitVersion(h, id, ts)
				clock.Store(ts)
				live = append(live, id)
			default: // delete, roll back
				id := live[rng.Intn(len(live))]
				h.SetEnd(id, -tid)
				h.ClearEnd(id)
			}
			if n%64 == 0 {
				h.Vacuum(horizon())
			}
		}
	}()

	var scans, frozen atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := pin()
				got := scanPages(h, snap, 0)
				want, wantIO := scanSlots(h, snap, 0)
				unpin(snap)
				if !sameRows(got.rows, want) {
					t.Errorf("snapshot %d: page scan saw %d rows, slot scan %d", snap, len(got.rows), len(want))
					return
				}
				if got.io.RowsRead != wantIO.RowsRead {
					t.Errorf("snapshot %d: rows charged %d vs %d", snap, got.io.RowsRead, wantIO.RowsRead)
					return
				}
				scans.Add(1)
				frozen.Add(int64(got.frozen))
			}
		}()
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if scans.Load() == 0 || frozen.Load() == 0 {
		t.Fatalf("%d scans took %d frozen pages: the race never met a frozen page", scans.Load(), frozen.Load())
	}
	if _, thaws := h.FreezeStats(); thaws == 0 {
		t.Fatal("the writer never thawed a page")
	}
}

// A scan that reads a slot's stamps while Vacuum reclaims the slot must not
// judge it visible. Vacuum stores begin = Aborted, clears the slot's values
// and then stores end = Aborted; a reader that loaded begin first could pair
// the old begin with end = Aborted, which reads as "never ended", and hand
// out the cleared slot. Every version here ended at 2, the snapshot the
// scans read at, so no slot may ever be visible to them. Under -race, a
// scan that reads begin first fails this within a few runs.
func TestScanNeverSeesSlotVacuumReclaims(t *testing.T) {
	for round := 0; round < 40; round++ {
		h := NewHeap(testDef())
		for i := 0; i < 4*h.RowsPerPage(); i++ {
			id := h.Insert(types.Row{types.NewInt(int64(i + 1)), types.NewString("x")})
			h.SetEnd(id, 2)
		}
		pages := make([]int32, h.PageCount())
		for i := range pages {
			pages[i] = int32(i)
		}
		var vacuumed atomic.Bool
		var seen atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for last := false; !last; {
				last = vacuumed.Load()
				h.ScanPageListAt(pages, 2, 0, nil, func(_ int, b *vec.Batch, _ *ZoneEntry) bool {
					seen.Add(int64(b.Len()))
					return true
				})
			}
		}()
		if n := h.Vacuum(2); n != 4*h.RowsPerPage() {
			t.Fatalf("vacuum reclaimed %d slots, want %d", n, 4*h.RowsPerPage())
		}
		vacuumed.Store(true)
		<-done
		if n := seen.Load(); n != 0 {
			t.Fatalf("round %d: scans at snapshot 2 saw %d slots of versions ended at 2", round, n)
		}
	}
}
