package stats_test

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"softdb/internal/engine"
	"softdb/internal/schema"
	"softdb/internal/stats"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/workload"
)

// collectModel is Collect as it was over Datum views: every visible row is
// built by Heap.Scan, each column's non-NULL datums are sorted with
// Datum.Compare, and the runs, MCVs and histogram are read off the sorted
// datums. The typed builder must reproduce it exactly.
func collectModel(heap *storage.Heap, buckets int) *stats.TableStats {
	if buckets <= 0 {
		buckets = stats.DefaultBuckets
	}
	def := heap.Def()
	ts := &stats.TableStats{
		Table:    def.Name,
		RowCount: heap.RowCount(),
		Pages:    heap.PageCount(),
		Columns:  make(map[string]*stats.ColumnStats, len(def.Columns)),
		Version:  heap.Version(),
	}
	values := make([][]types.Datum, len(def.Columns))
	nulls := make([]int64, len(def.Columns))
	heap.Scan(nil, func(_ storage.RowID, row types.Row) bool {
		for i, d := range row {
			if d.IsNull() {
				nulls[i]++
			} else {
				values[i] = append(values[i], d)
			}
		}
		return true
	})
	for i, col := range def.Columns {
		ts.Columns[strings.ToLower(col.Name)] = columnModel(col.Name, col.Type, values[i], nulls[i], buckets)
	}
	return ts
}

func columnModel(name string, kind types.Kind, vals []types.Datum, nullCount int64, buckets int) *stats.ColumnStats {
	cs := &stats.ColumnStats{
		Column:       name,
		Kind:         kind,
		RowCount:     int64(len(vals)) + nullCount,
		NullCount:    nullCount,
		Min:          types.Null,
		Max:          types.Null,
		ClusterRatio: 1,
	}
	if len(vals) >= 2 {
		asc := 0
		for i := 1; i < len(vals); i++ {
			if vals[i-1].Compare(vals[i]) <= 0 {
				asc++
			}
		}
		cs.ClusterRatio = float64(asc) / float64(len(vals)-1)
	}
	if len(vals) == 0 {
		return cs
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
	cs.Min, cs.Max = vals[0], vals[len(vals)-1]
	type runFreq struct {
		v types.Datum
		n int64
	}
	var runs []runFreq
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j].Compare(vals[i]) == 0 {
			j++
		}
		runs = append(runs, runFreq{vals[i], int64(j - i)})
		i = j
	}
	cs.NDV = int64(len(runs))
	byCount := append([]runFreq(nil), runs...)
	sort.Slice(byCount, func(i, j int) bool {
		if byCount[i].n != byCount[j].n {
			return byCount[i].n > byCount[j].n
		}
		return byCount[i].v.Compare(byCount[j].v) < 0
	})
	for i := 0; i < len(byCount) && i < stats.DefaultMCVs; i++ {
		if byCount[i].n <= 1 {
			break
		}
		cs.MCVs = append(cs.MCVs, stats.ValueFreq{Value: byCount[i].v, Count: byCount[i].n})
	}
	if buckets > len(runs) {
		buckets = len(runs)
	}
	if buckets > 0 {
		h := &stats.Histogram{Total: int64(len(vals))}
		target := max(len(vals)/buckets, 1)
		count, distinct := int64(0), int64(0)
		for i, r := range runs {
			count += r.n
			distinct++
			if count >= int64(target) || i == len(runs)-1 {
				h.UpperBounds = append(h.UpperBounds, r.v)
				h.Counts = append(h.Counts, count)
				h.Distinct = append(h.Distinct, distinct)
				count, distinct = 0, 0
			}
		}
		cs.Hist = h
	}
	return cs
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

// edgeValue draws a value of kind k from the edges a typed sort and run
// pass must order and group exactly as Datum.Compare does: NULL (in runs),
// ±0, ±Inf, ±2^53±1, the int64 extremes, "" and a NUL byte.
func edgeValue(f *fuzzBytes, k types.Kind) types.Datum {
	c := f.next()
	if c%6 == 0 {
		return types.Null
	}
	c /= 6
	ints := []int64{0, 1, -1, 1<<53 + 1, 1<<53 - 1, -(1<<53 + 1), -(1<<53 - 1), math.MaxInt64, math.MinInt64, int64(c % 5)}
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1<<53 + 2, 1<<53 - 1, -(1 << 53), -(1<<53 - 1), math.MaxFloat64, math.SmallestNonzeroFloat64, float64(c%5) / 4}
	strs := []string{"", "a", "\x00", "zz", "a\x00", string(rune('a' + c%5))}
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

// fuzzHeap builds a heap with one nullable column of every kind from data:
// committed inserts, uncommitted and aborted inserts, committed and
// uncommitted deletes, and vacuums, so Collect's visibility is checked
// against Scan's.
func fuzzHeap(data []byte) *storage.Heap {
	f := &fuzzBytes{data: data}
	def := &schema.Table{Name: "t", Columns: []schema.Column{
		{Name: "i", Type: types.KindInt, Nullable: true},
		{Name: "f", Type: types.KindFloat, Nullable: true},
		{Name: "s", Type: types.KindString, Nullable: true},
		{Name: "b", Type: types.KindBool, Nullable: true},
		{Name: "d", Type: types.KindDate, Nullable: true},
	}}
	h := storage.NewHeap(def)
	var rids []storage.RowID
	tid, ts := int64(1), int64(2)
	row := func() types.Row {
		r := make(types.Row, len(def.Columns))
		for i, c := range def.Columns {
			r[i] = edgeValue(f, c.Type)
		}
		return r
	}
	for steps := 0; len(f.data) > 0 && steps < 400; steps++ {
		switch op := f.next() % 8; op {
		case 0, 1, 2:
			rids = append(rids, h.InsertCommitted(row(), ts))
			ts++
		case 3: // uncommitted insert
			rids = append(rids, h.AppendVersions([]types.Row{row()}, tid, nil)[0])
			tid++
		case 4: // aborted insert
			rid := h.AppendVersions([]types.Row{row()}, tid, nil)[0]
			tid++
			h.AbortInsert(rid)
		case 5, 6: // committed (5) or uncommitted (6) delete of a visible row
			if len(rids) == 0 {
				continue
			}
			rid := rids[f.next()%len(rids)]
			if _, ok := h.Get(rid); !ok {
				continue
			}
			if op == 5 {
				h.SetEnd(rid, ts)
				ts++
			} else {
				h.SetEnd(rid, -tid)
				tid++
			}
		case 7:
			h.Vacuum(ts)
		}
	}
	return h
}

// checkZeroSigns asserts what DeepEqual cannot see: a float zero in a
// column's stats is +0 when the column's visible values hold both −0 and
// +0, and otherwise the zero the column holds. That is the one way the
// typed builder may differ from the model, whose unstable sort represents
// a run mixing −0 and +0 by whichever of them it put first.
func checkZeroSigns(t *testing.T, heap *storage.Heap, got *stats.TableStats) {
	t.Helper()
	for ci, c := range heap.Def().Columns {
		if c.Type != types.KindFloat {
			continue
		}
		var neg, pos bool
		heap.Scan(nil, func(_ storage.RowID, row types.Row) bool {
			if d := row[ci]; !d.IsNull() && d.Float() == 0 {
				neg = neg || math.Signbit(d.Float())
				pos = pos || !math.Signbit(d.Float())
			}
			return true
		})
		cs := got.Column(c.Name)
		ds := []types.Datum{cs.Min, cs.Max}
		for _, m := range cs.MCVs {
			ds = append(ds, m.Value)
		}
		if cs.Hist != nil {
			ds = append(ds, cs.Hist.UpperBounds...)
		}
		for _, d := range ds {
			if d.IsNull() || d.Float() != 0 {
				continue
			}
			if want := neg && !pos; math.Signbit(d.Float()) != want {
				t.Fatalf("column %s (−0 present %v, +0 present %v): stats hold zero %v", c.Name, neg, pos, d.Float())
			}
		}
	}
}

// FuzzCollectMatchesDatumModel checks the typed stats builder against the
// Datum model over random heaps of every kind with edge values, NULL runs
// and every kind of version.
func FuzzCollectMatchesDatumModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(4))
	f.Add([]byte{0, 6, 12, 0, 7, 13, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 5, 0, 6, 1, 3, 3, 3, 3, 3, 3, 4, 9, 9, 9, 9, 9, 7}, uint8(2))
	seed := make([]byte, 600)
	for i := range seed {
		seed[i] = byte(i * 37 % 251)
	}
	f.Add(seed, uint8(32))
	f.Add(seed[:300], uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, buckets uint8) {
		h := fuzzHeap(data)
		b := int(buckets%40) + 1
		want := collectModel(h, b)
		got := stats.Collect(h, b)
		if !reflect.DeepEqual(got, want) {
			for name, cs := range got.Columns {
				if w := want.Columns[name]; !reflect.DeepEqual(cs, w) {
					t.Fatalf("column %s:\n got %+v %+v %v\nwant %+v %+v %v", name, cs, cs.Hist, cs.MCVs, w, w.Hist, w.MCVs)
				}
			}
			t.Fatalf("table stats differ:\n got %+v\nwant %+v", got, want)
		}
		checkZeroSigns(t, h, got)
	})
}

// TestCollectMatchesDatumModelOnWorkloads builds the tables of the four
// softbench set-ups at a small scale — purchase with its soft correlation
// and date index, the star schema, orders/lineitem, orders_wide, a sharded
// events table, and a purchase table after an UPDATE/DELETE tail — plus an
// exception summary table, and checks Collect against the Datum model on
// every table and summary table.
func TestCollectMatchesDatumModelOnWorkloads(t *testing.T) {
	db := engine.Open()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(workload.LoadPurchase(db, workload.PurchaseConfig{N: 3000, Seed: 1, ShipWindowMode: "soft", IndexOrderDate: true}))
	must(workload.LoadStar(db, workload.StarConfig{DimRows: 100, FactRows: 2000, Seed: 2, FKMode: "informational"}))
	must(workload.LoadOrdersLineitem(db, workload.HolesConfig{Orders: 800, LinesPer: 4, Seed: 5, BandLo: 200, BandHi: 400}))
	must(workload.LoadDenormalized(db, 2000, 50, 7))
	for _, stmt := range []string{
		"CREATE TABLE events (k INT NOT NULL, v INT, grp INT)",
		"CREATE INDEX idx_events_k ON events (k)",
		"CREATE TABLE tail (id INT NOT NULL, amount FLOAT, note VARCHAR, day DATE, flag BOOL)",
		"CREATE SUMMARY TABLE events_big AS (SELECT * FROM events WHERE v > 1500)",
	} {
		_, err := db.Exec(stmt)
		must(err)
	}
	var vals []string
	for i := 0; i < 2000; i++ {
		k := (i * 1009) % 2000
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", k, k, k%10))
		if len(vals) == 200 {
			_, err := db.Exec("INSERT INTO events VALUES " + strings.Join(vals, ", "))
			must(err)
			vals = vals[:0]
		}
	}
	vals = vals[:0]
	for i := 0; i < 600; i++ {
		amount, note, flag := fmt.Sprintf("%d.5", i%37-18), fmt.Sprintf("'n%d'", i%13), "TRUE"
		switch i % 9 {
		case 0:
			amount, note, flag = "NULL", "NULL", "NULL"
		case 1:
			amount, note, flag = "-0.0", "''", "FALSE"
		case 2:
			amount = "0.0"
		}
		vals = append(vals, fmt.Sprintf("(%d, %s, %s, DATE '2001-01-%02d', %s)", i, amount, note, 1+i%28, flag))
	}
	_, err := db.Exec("INSERT INTO tail VALUES " + strings.Join(vals, ", "))
	must(err)
	for _, stmt := range []string{
		"UPDATE purchase SET ship_date = ship_date + 1 WHERE id < 300",
		"DELETE FROM purchase WHERE id >= 2900",
		"UPDATE tail SET amount = amount + 1 WHERE id < 100",
		"DELETE FROM tail WHERE id >= 550",
		"ANALYZE events",
		"ANALYZE tail",
	} {
		_, err := db.Exec(stmt)
		must(err)
	}
	cat := db.Catalog()
	checked := 0
	for _, name := range cat.TableNames() {
		te, err := cat.Table(name)
		must(err)
		heaps := []*storage.Heap{te.Heap}
		for _, st := range cat.SummariesOn(name) {
			heaps = append(heaps, st.Heap)
		}
		for _, h := range heaps {
			got, want := stats.Collect(h, stats.DefaultBuckets), collectModel(h, stats.DefaultBuckets)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: typed stats differ from the Datum model", h.Def().Name)
			}
			checkZeroSigns(t, h, got)
			checked++
		}
	}
	if checked < 9 {
		t.Fatalf("checked %d heaps, want every set-up table and the summary table", checked)
	}
}
