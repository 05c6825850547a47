package storage

import (
	"bytes"
	"math"
	"testing"

	"softdb/internal/schema"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// modelSlot is one slot of heapModel: the row it holds (nil when vacant:
// an aborted placeholder or a vacuumed version) and its stamps.
type modelSlot struct {
	row        types.Row
	begin, end int64
}

// heapModel is the heap as the row-store it replaced: per page a slice of
// rows plus stamps, every writer spelled out slot by slot.
type heapModel struct {
	pages [][]modelSlot
	per   int
}

func (m *heapModel) slot(id RowID) *modelSlot {
	if int(id.Page) >= len(m.pages) || int(id.Slot) >= len(m.pages[id.Page]) {
		return nil
	}
	return &m.pages[id.Page][id.Slot]
}

func (m *heapModel) append(s modelSlot) RowID {
	if n := len(m.pages); n == 0 || len(m.pages[n-1]) == m.per {
		m.pages = append(m.pages, nil)
	}
	pi := len(m.pages) - 1
	m.pages[pi] = append(m.pages[pi], s)
	return RowID{Page: int32(pi), Slot: int32(len(m.pages[pi]) - 1)}
}

// insertAtRID is InsertAtRID spelled out: resurrect a vacant slot, or pad
// with placeholders (and empty new pages) up to rid and append there.
func (m *heapModel) insertAtRID(row types.Row, rid RowID, begin int64) bool {
	if s := m.slot(rid); s != nil {
		if s.row != nil || s.begin != Aborted {
			return false
		}
		if begin != Aborted {
			*s = modelSlot{row: row, begin: begin}
		}
		return true
	}
	placeholder := modelSlot{begin: Aborted, end: Aborted}
	for {
		n := len(m.pages)
		switch {
		case n == 0 || (int(rid.Page) > n-1 && len(m.pages[n-1]) == m.per):
			m.pages = append(m.pages, nil) // the heap grows an empty page
		case int(rid.Page) > n-1 || len(m.pages[n-1]) < int(rid.Slot):
			m.pages[n-1] = append(m.pages[n-1], placeholder)
		default:
			end := int64(0)
			if row == nil {
				end = Aborted
			}
			m.pages[n-1] = append(m.pages[n-1], modelSlot{row: row, begin: begin, end: end})
			return true
		}
	}
}

func (m *heapModel) vacuum(horizon int64) int {
	n := 0
	for pi := range m.pages {
		for si := range m.pages[pi] {
			s := &m.pages[pi][si]
			switch {
			case s.begin == Aborted:
			case s.begin > 0 && s.end > 0 && s.end <= horizon:
				n++
			default:
				continue
			}
			*s = modelSlot{begin: Aborted, end: Aborted}
		}
	}
	return n
}

// fuzzBytes reads the fuzz input a byte at a time, then zeros.
type fuzzBytes struct{ data []byte }

func (f *fuzzBytes) next() int {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return int(b)
}

// edgeValue draws a value of kind k at the edges the typed columns must
// carry exactly: NULL, ±0, ±Inf, ±2^53±1, the int64 extremes, "".
func edgeValue(f *fuzzBytes, k types.Kind) types.Datum {
	c := f.next()
	if c%7 == 0 {
		return types.Null
	}
	ints := []int64{0, 1, -1, 1<<53 + 1, 1<<53 - 1, -(1<<53 + 1), -(1<<53 - 1), math.MaxInt64, math.MinInt64, int64(c)}
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1<<53 + 2, -(1 << 53), math.MaxFloat64, math.SmallestNonzeroFloat64, float64(c) / 4}
	strs := []string{"", "a", "\x00", "zz", string(rune(c))}
	switch k {
	case types.KindInt:
		return types.NewInt(ints[c%len(ints)])
	case types.KindDate:
		return types.NewDate(ints[c%len(ints)] % (1 << 40))
	case types.KindBool:
		return types.NewBool(c%2 == 0)
	case types.KindFloat:
		return types.NewFloat(floats[c%len(floats)])
	default:
		return types.NewString(strs[c%len(strs)])
	}
}

// sameDatum is exact equality: the same kind, the same key image, and for a
// FLOAT the same bits (-0 is not 0 here).
func sameDatum(a, b types.Datum) bool {
	if a.Kind() != b.Kind() || !bytes.Equal(types.AppendKey(nil, a), types.AppendKey(nil, b)) {
		return false
	}
	return a.Kind() != types.KindFloat || math.Float64bits(a.Float()) == math.Float64bits(b.Float())
}

func sameRow(a, b types.Row) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !sameDatum(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzHeapMatchesRowModel drives a heap and heapModel through the same
// random writers — InsertVersion, SetBegin, AbortInsert, SetEnd, ClearEnd,
// Vacuum, InsertAtRID (gap fill and placeholder resurrection), RebuildHeap
// from a dump, Truncate, ThawAll — over values at every kind's edges, and
// checks every read path against the model after each step: page scans
// (thawed, freezing and frozen), ScanAt, ScanColsAt, GetAt, GetAny,
// ScanVersions, the checkpoint dump, and every page's zone entry, which must
// also hold exactly the words zoneRecompute stores for the page (bounds
// that only compare equal once a replay has resurrected a slot out of slot
// order).
func FuzzHeapMatchesRowModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 200, 1, 2, 3, 9, 200, 4, 5, 6, 2, 1, 3, 3, 4, 5, 5, 9, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{9, 255, 0, 7, 13, 2, 40}, 30))
	f.Add(bytes.Repeat([]byte{0, 17, 1, 3, 0, 0, 6, 90, 7, 1, 8, 5, 4, 3}, 25))
	def, err := schema.NewTable("m",
		schema.Column{Name: "i", Type: types.KindInt, Nullable: true},
		schema.Column{Name: "f", Type: types.KindFloat, Nullable: true},
		schema.Column{Name: "d", Type: types.KindDate, Nullable: true},
		schema.Column{Name: "b", Type: types.KindBool, Nullable: true},
		schema.Column{Name: "s", Type: types.KindString, Nullable: true},
	)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{data}
		h := NewHeap(def)
		m := &heapModel{per: h.RowsPerPage()}
		clock, tid := int64(1), int64(1000)
		resurrected := false // a replay merged a slot out of slot order
		row := func() types.Row {
			r := make(types.Row, len(def.Columns))
			for ci, c := range def.Columns {
				r[ci] = edgeValue(in, c.Type)
			}
			return r
		}
		pick := func() (RowID, *modelSlot) {
			if len(m.pages) == 0 {
				return RowID{}, nil
			}
			pi := in.next() % len(m.pages)
			if len(m.pages[pi]) == 0 {
				return RowID{}, nil
			}
			si := in.next() % len(m.pages[pi])
			return RowID{Page: int32(pi), Slot: int32(si)}, &m.pages[pi][si]
		}
		for step := 0; step < 64 && len(in.data) > 0; step++ {
			switch op := in.next() % 12; op {
			case 0, 1: // an uncommitted insert
				tid++
				r := row()
				if got, want := h.InsertVersion(r, tid), m.append(modelSlot{row: r.Clone(), begin: -tid}); got != want {
					t.Fatalf("InsertVersion at %v, model %v", got, want)
				}
			case 2: // commit or roll back an insert
				id, s := pick()
				if s == nil || s.begin >= 0 {
					continue
				}
				if in.next()%3 == 0 {
					h.AbortInsert(id)
					s.begin = Aborted
				} else {
					clock++
					h.SetBegin(id, clock)
					s.begin = clock
				}
			case 3: // a delete intent, committed or not
				id, s := pick()
				if s == nil || s.begin <= 0 || s.begin == Aborted || s.end > 0 {
					continue
				}
				e := -tid
				if in.next()%2 == 0 {
					clock++
					e = clock
				}
				h.SetEnd(id, e)
				s.end = e
			case 4: // roll back a delete intent
				id, s := pick()
				if s == nil || s.end >= 0 {
					continue
				}
				h.ClearEnd(id)
				s.end = 0
			case 5:
				horizon := int64(in.next()) % (clock + 1)
				if got, want := h.Vacuum(horizon), m.vacuum(horizon); got != want {
					t.Fatalf("Vacuum(%d) reclaimed %d, model %d", horizon, got, want)
				}
			case 6: // replay: a placeholder, a resurrection, or a gap fill
				rid := RowID{Page: int32(len(m.pages) - 1 + in.next()%3), Slot: int32(in.next() % m.per)}
				if rid.Page < 0 {
					rid.Page = 0
				}
				if id, s := pick(); s != nil && in.next()%2 == 0 {
					rid = id
				}
				r, begin := row(), int64(CommittedMin)
				if in.next()%4 == 0 {
					r, begin = nil, Aborted
				}
				var own types.Row
				if r != nil {
					own = r.Clone()
				}
				n := len(m.pages)
				behind := int(rid.Page) < n-1 || (int(rid.Page) == n-1 && int(rid.Slot) < len(m.pages[n-1]))
				got, want := h.InsertAtRID(r, rid, begin), m.insertAtRID(own, rid, begin)
				if got != want {
					t.Fatalf("InsertAtRID(%v, %d) = %v, model %v", rid, begin, got, want)
				}
				resurrected = resurrected || (got && behind && r != nil)
			case 7: // a restart from a checkpoint, taken at a quiescent point
				quiescent := true
				for _, ps := range m.pages {
					for _, s := range ps {
						quiescent = quiescent && s.begin >= 0 && s.end >= 0
					}
				}
				if !quiescent {
					continue
				}
				for pi := range m.pages {
					for si := range m.pages[pi] {
						s := &m.pages[pi][si]
						if Visible(s.begin, s.end, SnapLatest, 0) {
							*s = modelSlot{row: s.row, begin: CommittedMin}
						} else {
							*s = modelSlot{begin: Aborted, end: Aborted}
						}
					}
				}
				h = RebuildHeap(def, h.DumpPages(), h.Version())
			case 8:
				h.Truncate()
				m.pages = nil
			case 9: // a run of committed inserts, enough to fill pages
				for k := in.next() % (2 * m.per); k >= 0; k-- {
					r := row()
					clock++
					id := h.InsertCommitted(r, clock)
					if want := m.append(modelSlot{row: r.Clone(), begin: clock}); id != want {
						t.Fatalf("InsertCommitted at %v, model %v", id, want)
					}
				}
			case 10:
				h.ThawAll()
			default:
				checkModel(t, h, m, clock, tid)
				checkZoneAddMatchesRecompute(t, h, !resurrected)
			}
		}
		checkModel(t, h, m, clock, tid)
		checkZoneAddMatchesRecompute(t, h, !resurrected)
	})
}

// checkColumns compares Columns, over every column and over the last and
// first, with the latest-visible rows the model holds.
func checkColumns(t *testing.T, h *Heap, want []types.Row) {
	t.Helper()
	kinds := h.Kinds()
	last := len(kinds) - 1
	for _, ords := range [][]int{nil, {last, 0}} {
		cols := h.Columns(ords)
		if ords == nil {
			ords = make([]int, len(kinds))
			for i := range ords {
				ords[i] = i
			}
		}
		got := make([]types.Row, len(cols[0].Nulls))
		wantSub := make([]types.Row, len(want))
		for r := range got {
			for i, ci := range ords {
				got[r] = append(got[r], cols[i].Datum(kinds[ci], r))
			}
		}
		for r, row := range want {
			for _, ci := range ords {
				wantSub[r] = append(wantSub[r], row[ci])
			}
		}
		compareRows(t, "Columns", SnapLatest, got, wantSub)
		for i, ci := range ords {
			c := &cols[i]
			if c.Class != vec.ClassOf(kinds[ci]) || len(c.Nulls) != len(got) {
				t.Fatalf("Columns: column %d has class %d over %d rows, want %d over %d", ci, c.Class, len(c.Nulls), vec.ClassOf(kinds[ci]), len(got))
			}
			for _, null := range c.Nulls {
				if null && !c.HasNulls {
					t.Fatalf("Columns: column %d holds a NULL but HasNulls is false", ci)
				}
			}
		}
	}
}

// checkModel compares every read path of h with the model at a few
// snapshots, the latest first.
func checkModel(t *testing.T, h *Heap, m *heapModel, clock, tid int64) {
	t.Helper()
	if h.PageCount() != int64(len(m.pages)) {
		t.Fatalf("%d pages, model %d", h.PageCount(), len(m.pages))
	}
	for _, view := range [][2]int64{{SnapLatest, 0}, {clock, tid}, {clock / 2, 0}} {
		snap, vt := view[0], view[1]
		var want []types.Row
		var wantIDs []RowID
		for pi, ps := range m.pages {
			for si, s := range ps {
				if Visible(s.begin, s.end, snap, vt) {
					want = append(want, s.row)
					wantIDs = append(wantIDs, RowID{Page: int32(pi), Slot: int32(si)})
				}
			}
		}
		// Page scans twice: the first may freeze pages, the second reads
		// them frozen.
		for pass := 0; pass < 2; pass++ {
			var got []types.Row
			list := make([]int32, h.PageCount())
			for i := range list {
				list[i] = int32(i)
			}
			h.ScanPageListAt(list, snap, vt, nil, func(_ int, b *vec.Batch, _ *ZoneEntry) bool {
				for i := 0; i < b.Len(); i++ {
					got = append(got, b.Row(i))
				}
				return true
			})
			compareRows(t, "ScanPageListAt", snap, got, want)
		}
		var got []types.Row
		var ids []RowID
		h.ScanAt(snap, vt, nil, func(id RowID, r types.Row) bool {
			got, ids = append(got, r.Clone()), append(ids, id)
			return true
		})
		compareRows(t, "ScanAt", snap, got, want)
		for i, id := range ids {
			if id != wantIDs[i] {
				t.Fatalf("ScanAt at %d: id %v, model %v", snap, id, wantIDs[i])
			}
		}
		// ScanColsAt over the first and last columns: those as the model
		// has them, every other column NULL.
		cols := []int{0, len(h.Def().Columns) - 1}
		var sub, wantSub []types.Row
		h.ScanColsAt(snap, vt, cols, func(_ RowID, r types.Row) bool {
			sub = append(sub, r.Clone())
			return true
		})
		for _, r := range want {
			w := make(types.Row, len(r))
			for _, ci := range cols {
				w[ci] = r[ci]
			}
			wantSub = append(wantSub, w)
		}
		compareRows(t, "ScanColsAt", snap, sub, wantSub)
		if snap == SnapLatest && vt == 0 {
			checkColumns(t, h, want)
		}
	}
	var versions []types.Row
	h.ScanVersions(func(_ RowID, r types.Row) bool {
		versions = append(versions, r.Clone())
		return true
	})
	var wantVersions []types.Row
	dump := h.DumpPages()
	for pi, ps := range m.pages {
		for si, s := range ps {
			id := RowID{Page: int32(pi), Slot: int32(si)}
			if s.begin != Aborted {
				wantVersions = append(wantVersions, s.row)
			}
			got, ok := h.GetAt(id, SnapLatest, 0)
			if vis := Visible(s.begin, s.end, SnapLatest, 0); ok != vis || (ok && !sameRow(got, s.row)) {
				t.Fatalf("GetAt(%v) = %v, %v; model %v (stamps %d, %d)", id, got, ok, s.row, s.begin, s.end)
			}
			got, ok = h.GetAny(id)
			if vis := visibleAnyCommitted(s.begin, s.end); ok != vis || (ok && !sameRow(got, s.row)) {
				t.Fatalf("GetAny(%v) = %v, %v; model %v", id, got, ok, s.row)
			}
			d := dump[pi][si]
			if vis := Visible(s.begin, s.end, SnapLatest, 0); d.Dead == vis || (vis && !sameRow(d.Row, s.row)) || (!vis && d.Row != nil) {
				t.Fatalf("dump slot %v = %+v; model %v (stamps %d, %d)", id, d, s.row, s.begin, s.end)
			}
		}
	}
	compareRows(t, "ScanVersions", 0, versions, wantVersions)
	for pi, ps := range m.pages {
		var rows, nulls [5]int64
		var lo, hi [5]types.Datum
		var live int64
		for _, s := range ps {
			if s.begin == Aborted {
				continue
			}
			live++
			for ci, d := range s.row {
				switch {
				case d.IsNull():
					nulls[ci]++
				default:
					rows[ci]++
					if lo[ci].IsNull() || d.Compare(lo[ci]) < 0 {
						lo[ci] = d
					}
					if hi[ci].IsNull() || d.Compare(hi[ci]) > 0 {
						hi[ci] = d
					}
				}
			}
		}
		syn := h.Synopsis(pi)
		if syn == nil {
			if live != 0 {
				t.Fatalf("page %d: no zone entry over %d versions", pi, live)
			}
			continue
		}
		if syn.Rows != live {
			t.Fatalf("page %d: zone rows %d, model %d", pi, syn.Rows, live)
		}
		for ci, c := range syn.Cols {
			if c.Nulls != nulls[ci] || c.Min.Compare(lo[ci]) != 0 || c.Max.Compare(hi[ci]) != 0 || c.Min.Kind() != lo[ci].Kind() {
				t.Fatalf("page %d col %d: zone %+v, model [%v, %v] nulls %d", pi, ci, c, lo[ci], hi[ci], nulls[ci])
			}
		}
	}
}

func compareRows(t *testing.T, path string, snap int64, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s at %d: %d rows, model %d", path, snap, len(got), len(want))
	}
	for i := range got {
		if !sameRow(got[i], want[i]) {
			t.Fatalf("%s at %d, row %d: %v, model %v", path, snap, i, got[i], want[i])
		}
	}
}
