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
	h.ScanPageListAt(allPages(h), snap, tid, &out.io, func(_ int, rows []types.Row, img *vec.PageImage, _ *ZoneEntry) bool {
		if img != nil {
			out.frozen++
		}
		for _, r := range rows {
			out.rows = append(out.rows, r.String())
		}
		return true
	})
	return out
}

// scanSlots is the slot-by-slot reference: ScanRangeAt never consults an
// image.
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
		id := h.InsertVersion(types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprint("r", i))}, 1)
		h.SetBegin(id, int64(i+1))
		ids = append(ids, id)
	}
	return ids
}

func TestFreezeCondition(t *testing.T) {
	h := NewHeap(testDef())
	ids := fillPages(h, 3)
	per := h.RowsPerPage()
	if fp, _, _ := h.ImageStats(); fp != 0 {
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
	if fp, bytes, _ := h.ImageStats(); fp != 3 || bytes != 0 {
		t.Fatalf("after a scan that read no column: %d frozen pages, %d image bytes; want 3, 0", fp, bytes)
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
	tail := h.InsertVersion(types.Row{types.NewInt(-1), types.Null}, 7) // tail page: uncommitted
	h.SetEnd(ids[0], 1000)                                              // page 0: committed delete
	if got = scanPages(h, SnapLatest, 0); got.frozen != 2 {
		t.Fatalf("%d pages frozen, want 2 (page 0 holds a deleted version)", got.frozen)
	}
	if got = scanPages(h, 999, 0); got.frozen != 2 {
		t.Fatalf("a reader that still sees the deleted row must gather its page; %d frozen", got.frozen)
	}
	h.AbortInsert(tail)
	for h.PageCount() < 5 { // fill the tail page and beyond; it holds an aborted slot
		id := h.InsertVersion(types.Row{types.NewInt(0), types.Null}, 8)
		h.SetBegin(id, 2000)
	}
	if got = scanPages(h, SnapLatest, 0); got.frozen != 2 {
		t.Fatalf("%d pages frozen, want 2 (page 3 holds an aborted slot)", got.frozen)
	}
}

// TestThawBeforeStamp drives every writer that changes a slot of a frozen
// page and checks the image is gone before the change is visible, and that
// the page freezes again once it is settled.
func TestThawBeforeStamp(t *testing.T) {
	frozenPages := func(h *Heap) int { fp, _, _ := h.ImageStats(); return fp }
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
			_, _, thaws := h.ImageStats()
			tc.write(h, ids[1])
			if _, _, after := h.ImageStats(); after != thaws+1 {
				t.Fatalf("thaws went %d -> %d, want one image dropped", thaws, after)
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

	// Vacuum reclaims only versions no page image can hold (a page with an
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
// reader that loaded a page image just before a writer thawed it keeps a
// window that is exact for its own snapshot, because the stamp that follows
// the thaw is either another transaction's intent (invisible to the reader)
// or a commit timestamp above every snapshot handed out so far. The writer
// runs inside the reader's page callback, i.e. strictly between the
// reader's image load and its use of the window.
func TestStaleImageExactForItsSnapshot(t *testing.T) {
	h := NewHeap(testDef())
	ids := fillPages(h, 1)
	per := h.RowsPerPage()
	scanPages(h, SnapLatest, 0)

	snap := int64(per + 1) // the commit clock when the reader started
	commit := snap + 1     // the writer's commit timestamp: always above snap
	var window []string
	var sawImage bool
	h.ScanPageListAt([]int32{0}, snap, 0, nil, func(_ int, rows []types.Row, img *vec.PageImage, _ *ZoneEntry) bool {
		sawImage = img != nil
		h.SetEnd(ids[3], -42)    // delete intent: thaws, then stamps
		h.SetEnd(ids[3], commit) // commit: restamps above the reader's snapshot
		if fp, _, _ := h.ImageStats(); fp != 0 {
			t.Error("image survived the writer's stamp")
		}
		// The image's vectors are still readable and still describe the
		// window the reader holds.
		var b vec.Batch
		b.ResetImage(rows, img)
		c := b.Col(0, vec.ClassInt)
		if c == nil || len(c.Ints) != len(rows) || c.Ints[3] != 3 {
			t.Errorf("stale image column: %+v", c)
		}
		for _, r := range rows {
			window = append(window, r.String())
		}
		return true
	})
	if !sawImage {
		t.Fatal("reader did not get the frozen window")
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

// TestImageColumnsLazy checks the memory model: an image holds vectors only
// for columns some batch read, null-free columns share one mask, and every
// batch over the page gets the same vector back.
func TestImageColumnsLazy(t *testing.T) {
	h := NewHeap(testDef())
	fillPages(h, 2)
	per := h.RowsPerPage()
	readCol := func(ord int, class vec.Class) (first *vec.Col) {
		h.ScanPageListAt([]int32{0, 1}, SnapLatest, 0, nil, func(_ int, rows []types.Row, img *vec.PageImage, _ *ZoneEntry) bool {
			var b vec.Batch
			b.ResetImage(rows, img)
			if c := b.Col(ord, class); first == nil {
				first = c
			}
			return true
		})
		return first
	}
	a1 := readCol(0, vec.ClassInt)
	if _, bytes, _ := h.ImageStats(); bytes != int64(2*per*8) {
		t.Fatalf("one INT column imaged on two pages: %d bytes, want %d", bytes, 2*per*8)
	}
	if a2 := readCol(0, vec.ClassInt); a1 == nil || a1 != a2 {
		t.Fatal("second scan did not get the cached vector")
	}
	if a1.HasNulls || a1.Ints[per-1] != int64(per-1) {
		t.Fatalf("imaged column contents: %+v", a1)
	}
	readCol(1, vec.ClassStr)
	if _, bytes, _ := h.ImageStats(); bytes != int64(2*per*(8+16)) {
		t.Fatalf("INT + STRING columns imaged: %d bytes, want %d", bytes, 2*per*(8+16))
	}
	// A class the column cannot carry is remembered as a failure, not retried
	// with private buffers, and costs nothing.
	if c := readCol(1, vec.ClassStr); c == nil {
		t.Fatal("string column lost")
	}
	h.ThawAll()
	if c := readCol(1, vec.ClassInt); c != nil {
		t.Fatal("string column extracted as ints")
	}
	if _, bytes, _ := h.ImageStats(); bytes != 0 {
		t.Fatalf("failed extraction retained %d bytes", bytes)
	}
}

// TestRebuildStartsCold: a heap rebuilt from a dump (checkpoint restore,
// crash recovery) carries no image and freezes lazily, with the same answers.
func TestRebuildStartsCold(t *testing.T) {
	h := NewHeap(testDef())
	fillPages(h, 3)
	before := scanPages(h, SnapLatest, 0)
	re := RebuildHeap(h.Def(), h.DumpPages(), h.Version())
	if fp, bytes, thaws := re.ImageStats(); fp != 0 || bytes != 0 || thaws != 0 {
		t.Fatalf("rebuilt heap is not cold: %d pages, %d bytes, %d thaws", fp, bytes, thaws)
	}
	after := scanPages(re, SnapLatest, 0)
	if !sameRows(before.rows, after.rows) || before.io != after.io {
		t.Fatalf("rebuilt heap scans differently: %+v vs %+v", before.io, after.io)
	}
	if fp, _, _ := re.ImageStats(); fp != 3 {
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
				h.AbortInsert(h.InsertVersion(types.Row{types.NewInt(-1), types.Null}, tid))
			case r < 40: // insert, commit
				id := h.InsertVersion(types.Row{types.NewInt(int64(n)), types.Null}, tid)
				ts := clock.Load() + 1
				h.SetBegin(id, ts)
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
				id := h.InsertVersion(types.Row{row[0], types.NewString("u")}, tid)
				ts := clock.Load() + 1
				h.SetEnd(old, ts)
				h.SetBegin(id, ts)
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
	if _, _, thaws := h.ImageStats(); thaws == 0 {
		t.Fatal("the writer never thawed a page")
	}
}
