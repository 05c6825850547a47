package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/schema"
	"softdb/internal/storage"
	"softdb/internal/types"
)

// qualifies reports whether row can contribute under every prune predicate:
// an inclusion predicate admits a value inside its interval (and a NULL only
// when NULLs qualify), an exclusion predicate everything but a value inside
// its interval. A pruned scan may drop only rows that do not qualify.
func qualifies(preds []plan.PrunePred, row types.Row) bool {
	for _, p := range preds {
		v := row[p.Col]
		in := p.Interval.Contains(v)
		if p.Exclude {
			if in {
				return false
			}
		} else if !in && !(v.IsNull() && p.NullsQualify) {
			return false
		}
	}
	return true
}

// TestPrunedScanNeverActsOnTornEntry runs pruned SeqScans at pinned
// snapshots while one writer inserts, aborts, deletes and vacuums on the same
// heap, and checks that every pruned scan returns exactly the qualifying rows
// of an unpruned slot walk at the same snapshot. The pruned column is the
// last of 40, so a writer recomputing an entry stores many words between the
// row count and that column's null count, and a page holds a dozen rows. Many
// pages hold a single non-NULL value among NULLs: when an abort or a vacuum
// sheds a NULL there, a reader that paired the new row count with the old
// null count would take the page for all-NULL and skip its one qualifying
// row. The sequence number makes such an entry unknown, and the page is read.
func TestPrunedScanNeverActsOnTornEntry(t *testing.T) {
	const last = 39
	cols := make([]schema.Column, last+1)
	for i := range cols {
		cols[i] = schema.Column{Name: fmt.Sprint("c", i), Type: types.KindInt, Nullable: true}
	}
	h := storage.NewHeap(mustTable("torn", cols...))
	row := func(id int64, v types.Datum) types.Row {
		r := make(types.Row, last+1)
		for c := range r {
			r[c] = types.NewInt(id % int64(c+1))
		}
		r[0], r[last] = types.NewInt(id), v
		return r
	}
	// value draws the pruned column: mostly NULL, a 7 now and then, and whole
	// runs of 150 (pages an exclusion predicate can skip).
	value := func(rng *rand.Rand, id int64) types.Datum {
		switch {
		case id/100%4 == 3:
			return types.NewInt(150)
		case rng.Intn(8) == 0:
			return types.NewInt(7)
		default:
			return types.Null
		}
	}
	var clock atomic.Int64
	var nextID int64
	rng := rand.New(rand.NewSource(27))
	var live []storage.RowID
	for ; nextID < 600; nextID++ {
		id := h.InsertVersion(row(nextID, value(rng, nextID)), 1)
		h.SetBegin(id, clock.Add(1))
		live = append(live, id)
	}

	var horizonMu sync.Mutex
	pinned := map[int64]int{}
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
			m = min(m, s)
		}
		return m
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the single writer
		defer wg.Done()
		tid := int64(1 << 40)
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if n%16 == 0 {
				runtime.Gosched()
			}
			tid++
			switch r := rng.Intn(100); {
			case r < 45: // an uncommitted NULL, rolled back: the abort sheds it
				h.AbortInsert(h.InsertVersion(row(-1, types.Null), tid))
			case r < 75: // insert, commit
				id := h.InsertVersion(row(nextID, value(rng, nextID)), tid)
				nextID++
				h.SetBegin(id, clock.Load()+1)
				clock.Add(1)
				live = append(live, id)
			case len(live) > 0: // delete, commit; a later vacuum reclaims it
				i := rng.Intn(len(live))
				id := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				h.SetEnd(id, -tid)
				h.SetEnd(id, clock.Load()+1)
				clock.Add(1)
			}
			if n%32 == 0 {
				h.Vacuum(horizon())
			}
		}
	}()

	predSets := [][]plan.PrunePred{
		{{Col: last, Interval: expr.Between(types.NewInt(0), types.NewInt(10), true, true), Source: "filter"}},
		{{Col: last, Interval: expr.Between(types.NewInt(5), types.NewInt(9), true, true), NullsQualify: true, Source: "corr"}},
		{{Col: last, Interval: expr.Between(types.NewInt(100), types.NewInt(200), true, true), Exclude: true, Source: "hole"}},
		{
			{Col: last, Interval: expr.AtLeast(types.NewInt(7), true), Source: "filter"},
			{Col: last, Interval: expr.Between(types.NewInt(140), types.NewInt(160), true, true), Exclude: true, Source: "hole"},
		},
	}
	var scans, skipped atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				preds := predSets[i%len(predSets)]
				snap := pin()
				ctx := &Ctx{Snap: snap}
				got, err := Collect(&SeqScan{Table: "torn", Heap: h, Prune: preds}, ctx, 0)
				var want []string
				h.ScanRangeAt(0, int(h.PageCount()), snap, 0, nil, func(_ storage.RowID, row types.Row) bool {
					if qualifies(preds, row) {
						want = append(want, row.String())
					}
					return true
				})
				unpin(snap)
				if err != nil {
					t.Error(err)
					return
				}
				var have []string
				for _, row := range got {
					if qualifies(preds, row) {
						have = append(have, row.String())
					}
				}
				sort.Strings(have)
				sort.Strings(want)
				if fmt.Sprint(have) != fmt.Sprint(want) {
					t.Errorf("snapshot %d, preds %v: pruned scan kept %d qualifying rows, the slot walk %d", snap, preds, len(have), len(want))
					return
				}
				scans.Add(1)
				skipped.Add(ctx.IO.PagesSkipped)
			}
		}(r)
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if scans.Load() == 0 || skipped.Load() == 0 {
		t.Fatalf("%d scans skipped %d pages: the race never pruned", scans.Load(), skipped.Load())
	}
}

// TestFilteredScanNeverOutrunsLegacyWrites runs filtered SeqScans while one
// writer inserts and retracts rows of the same heap. Committed rows go in
// through Insert. Outliers go in as versions of the scanning transaction,
// visible to its scans, and the writer later aborts them: AbortInsert
// recomputes the page's entry and shrinks it, the one writer that takes a
// row out of an entry while readers run. Most pages hold values inside the
// filter's range plus an outlier or two, so aborting the outliers makes the
// filter provable for the page. A scan that took a page's entry after
// reading its rows could find an entry that no longer covers a row it read,
// skip the filter for the whole page and return that row unfiltered. Every
// row a scan returns must satisfy the filter.
func TestFilteredScanNeverOutrunsLegacyWrites(t *testing.T) {
	const width = 40 // a dozen rows a page, and 40 columns per recompute
	cols := make([]schema.Column, width)
	for i := range cols {
		cols[i] = schema.Column{Name: fmt.Sprint("c", i), Type: types.KindInt}
	}
	def := mustTable("legacy", cols...)
	row := func(id, v int64) types.Row {
		r := make(types.Row, width)
		for c := range r {
			r[c] = types.NewInt(id % int64(c+1))
		}
		r[0], r[1] = types.NewInt(id), types.NewInt(v)
		return r
	}
	// The writer fills a heap to heapRows versions, then starts a fresh one,
	// so scans stay short and deletes keep finding outliers to remove.
	const heapRows = 2400
	const scanTID = 9
	var cur atomic.Pointer[storage.Heap]
	cur.Store(storage.NewHeap(def))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the single writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(2727))
		h := cur.Load()
		var outliers []storage.RowID
		var id int64
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if n%16 == 0 {
				runtime.Gosched()
			}
			if id == heapRows {
				h, outliers, id = storage.NewHeap(def), nil, 0
				cur.Store(h)
			}
			if r := rng.Intn(3); r > 0 || len(outliers) == 0 {
				if rng.Intn(6) == 0 {
					outliers = append(outliers, h.InsertVersion(row(id, 50), scanTID))
				} else {
					h.Insert(row(id, int64(rng.Intn(11))))
				}
				id++
				continue
			}
			i := rng.Intn(len(outliers))
			h.AbortInsert(outliers[i])
			outliers[i] = outliers[len(outliers)-1]
			outliers = outliers[:len(outliers)-1]
		}
	}()

	v := expr.NewColumn("legacy", "c1", 1, types.KindInt)
	filter := []expr.Expr{
		expr.NewBinary(expr.OpGe, v, iconst(0)),
		expr.NewBinary(expr.OpLe, v, iconst(10)),
	}
	var scans, shorts atomic.Int64
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx := &Ctx{TID: scanTID}
				got, err := Collect(&SeqScan{Table: "legacy", Heap: cur.Load(), Filter: filter}, ctx, 0)
				if err != nil {
					t.Error(err)
					return
				}
				for _, row := range got {
					if x := row[1].Int(); x < 0 || x > 10 {
						t.Errorf("filtered scan returned c1 = %d (row %s)", x, row)
						return
					}
				}
				scans.Add(1)
				shorts.Add(ctx.ShortCircuits)
			}
		}()
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if scans.Load() == 0 || shorts.Load() == 0 {
		t.Fatalf("%d scans short-circuited %d rows: the race never proved a page", scans.Load(), shorts.Load())
	}
}
