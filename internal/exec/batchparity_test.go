package exec

import (
	"context"
	"fmt"
	"testing"

	"softdb/internal/btree"
	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/refexec"
	"softdb/internal/schema"
	"softdb/internal/sql"
	"softdb/internal/storage"
	"softdb/internal/types"
)

// wideHeap is an orders_wide-shaped table: id INT (indexed), cust_id INT,
// cust_name STRING (determined by cust_id), amount FLOAT with NULLs, qty INT.
func wideHeap(t *testing.T, n int) (*storage.Heap, *catalog.Index) {
	t.Helper()
	def := mustTable("w",
		schema.Column{Name: "id", Type: types.KindInt},
		schema.Column{Name: "cust_id", Type: types.KindInt, Nullable: true},
		schema.Column{Name: "cust_name", Type: types.KindString, Nullable: true},
		schema.Column{Name: "amount", Type: types.KindFloat, Nullable: true},
		schema.Column{Name: "qty", Type: types.KindInt, Nullable: true},
	)
	h := storage.NewHeap(def)
	ix := &catalog.Index{Name: "iw", Table: "w", Columns: []string{"id"}, Ordinal: []int{0}, Tree: btree.New(types.KindInt)}
	for i := 0; i < n; i++ {
		cust := types.Datum(types.NewInt(int64(i*7%23 - 3)))
		name := types.Datum(types.NewString(fmt.Sprint("c", i*7%23)))
		if i%31 == 0 {
			cust, name = types.Null, types.Null
		}
		amount := types.Datum(types.NewFloat(float64(i%13) + 0.25))
		if i%11 == 0 {
			amount = types.Null
		}
		row := types.Row{types.NewInt(int64(i)), cust, name, amount, types.NewInt(int64(i % 5))}
		ix.Tree.Insert(types.Row{row[0]}, h.Insert(row))
	}
	return h, ix
}

// sameAnswer runs op and requires the rows the reference interpreter gives
// for the logical plan ref, in order.
func sameAnswer(t *testing.T, name string, op Operator, ref plan.Node) {
	t.Helper()
	got, err := Collect(op, NewCtx(context.Background(), CtxOptions{}), 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := refexec.Run(context.Background(), ref, storage.SnapLatest, 0)
	if err != nil {
		t.Fatalf("%s reference: %v", name, err)
	}
	if d := refexec.Diff(got, want, true); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
}

// TestSortAndRedundantGroupBatchParity: an ORDER BY over a GROUP BY whose
// key was FD-reduced to one hashed INT column (the redundant columns riding
// along), over page scans and index scans on either access path, gives the
// reference interpreter's rows when Sort pulls batches and the aggregate
// takes the int-key fold.
func TestSortAndRedundantGroupBatchParity(t *testing.T) {
	h, ix := wideHeap(t, 3000)
	wcol := func(ord int) *expr.Column {
		c := h.Def().Columns[ord]
		return expr.NewColumn("w", c.Name, ord, c.Type)
	}
	idRange := []expr.Expr{
		expr.NewBinary(expr.OpGe, wcol(0), iconst(100)),
		expr.NewBinary(expr.OpLt, wcol(0), iconst(2200)),
	}
	indexScan := func(prune []plan.PrunePred) *IndexScan {
		return &IndexScan{Table: "w", Heap: h, Index: ix, Filter: idRange, Prune: prune,
			Lo: btree.Bound{Key: types.Row{types.NewInt(100)}, Inclusive: true},
			Hi: btree.Bound{Key: types.Row{types.NewInt(2200)}}}
	}
	// Without prune predicates every table row would be read, more than the
	// range's entries are worth: the scan stays on its entry path. With the
	// filter's own, the pages outside the range drop out and it switches.
	scans := map[string]func() Operator{
		"index scan":           func() Operator { return indexScan(nil) },
		"index scan page path": func() Operator { return indexScan(FilterPrunePreds(idRange, 5)) },
		"page scan":            func() Operator { return &SeqScan{Table: "w", Heap: h, Filter: idRange} },
	}
	for name, want := range map[string]int64{"index scan": 0, "index scan page path": 1} {
		ctx := NewCtx(context.Background(), CtxOptions{})
		if _, err := Collect(scans[name](), ctx, 0); err != nil {
			t.Fatal(err)
		}
		if ctx.PagePaths != want {
			t.Fatalf("%s: %d page-path switches, want %d", name, ctx.PagePaths, want)
		}
	}
	aggs := []plan.AggSpec{
		{Kind: sql.AggSum, Arg: wcol(3)}, {Kind: sql.AggCount, Arg: wcol(3)}, {Kind: sql.AggAvg, Arg: wcol(4)},
		{Kind: sql.AggCountStar}, {Kind: sql.AggMax, Arg: wcol(3)}, {Kind: sql.AggMin, Arg: wcol(2)},
	}
	// The reference reads the same heap through a logical scan.
	refScan := &plan.Scan{Table: "w", Entry: &catalog.TableEntry{Def: h.Def(), Heap: h}, Def: h.Def(), Filter: idRange}
	refAgg := func(group ...int) *plan.Aggregate {
		a := &plan.Aggregate{Input: refScan, Aggs: aggs}
		for _, ord := range group {
			a.GroupBy = append(a.GroupBy, wcol(ord))
			a.GroupNames = append(a.GroupNames, refScan.Cols()[ord])
		}
		return a
	}
	for name, scan := range scans {
		for _, warm := range []bool{false, true} { // second pass: page images built
			// GROUP BY cust_id, cust_name [redundant] ORDER BY cust_id DESC.
			sameAnswer(t, fmt.Sprintf("%s group+sort warm=%v", name, warm), &Sort{
				Keys: []plan.SortKey{{Ordinal: 0, Desc: true}},
				Input: &HashAggregate{Input: scan(), Aggs: aggs,
					GroupBy:   []expr.Expr{wcol(1), wcol(2)},
					Redundant: []bool{false, true}},
			}, &plan.Sort{Keys: []plan.SortKey{{Ordinal: 0, Desc: true}}, Input: refAgg(1, 2)})
			// The hashed column second: GROUP BY cust_name [redundant], cust_id.
			sameAnswer(t, fmt.Sprintf("%s redundant-first warm=%v", name, warm), &HashAggregate{Input: scan(), Aggs: aggs,
				GroupBy:   []expr.Expr{wcol(2), wcol(1)},
				Redundant: []bool{true, false}}, refAgg(2, 1))
			// ORDER BY over a projection: Sort retains the owned rows.
			proj := []expr.Expr{wcol(0), wcol(1), wcol(3)}
			keys := []plan.SortKey{{Ordinal: 1}, {Ordinal: 0, Desc: true}}
			sameAnswer(t, fmt.Sprintf("%s project+sort warm=%v", name, warm),
				&Sort{Keys: keys, Input: &Project{Input: scan(), Exprs: proj}},
				&plan.Sort{Keys: keys, Input: &plan.Project{Input: refScan, Exprs: proj}})
			// ORDER BY straight over the scan: borrowed rows are cloned. Every
			// scan yields id order, so ties keep the same order too.
			keys = []plan.SortKey{{Ordinal: 4}, {Ordinal: 3, Desc: true}}
			sameAnswer(t, fmt.Sprintf("%s sort warm=%v", name, warm),
				&Sort{Keys: keys, Input: scan()}, &plan.Sort{Keys: keys, Input: refScan})
		}
	}
	// A non-column redundant entry keeps the generic keyer (its per-row
	// evaluation could fail where a first-row read would not).
	ha := &HashAggregate{GroupBy: []expr.Expr{wcol(1), expr.NewBinary(expr.OpAdd, wcol(4), iconst(1))}, Redundant: []bool{false, true}}
	if c := ha.intKeyColumn(); c != nil {
		t.Fatal("int keyer chosen over a computed redundant group expression")
	}
}

// TestPageSet: one page allocates nothing; every page is new exactly once.
func TestPageSet(t *testing.T) {
	var s pageSet
	if !s.add(7, 10) || s.add(7, 10) || s.bits != nil {
		t.Fatalf("single-page set: %+v", s)
	}
	seen := map[int32]bool{7: true}
	for _, p := range []int32{3, 900, 3, 64, 900, 7, 0, 63, 901, 64, 0} {
		if got := s.add(p, 10); got == seen[p] {
			t.Fatalf("add(%d) = %v with seen=%v", p, got, seen[p])
		}
		seen[p] = true
	}
}

// TestRangeEntries: the entry-count estimate interpolates the first chunk's
// key span over the bound range, counting INT/DATE keys as discrete values,
// skipping the NULL keys an open lower side collects, taking the tree's
// largest key for an open upper side, and declining every key kind it
// cannot interpolate.
func TestRangeEntries(t *testing.T) {
	tree := btree.New(types.KindInt)
	tree.Insert(types.Row{types.NewInt(9999)}, storage.RowID{})
	scan := func(hi btree.Bound) *IndexScan {
		return &IndexScan{Index: &catalog.Index{Tree: tree}, Hi: hi}
	}
	chunk := func(keys ...types.Datum) indexChunk {
		var ch indexChunk
		for _, k := range keys {
			switch {
			case ch.first != nil:
			case k.IsNull():
				ch.nulls++
			default:
				ch.first = types.Row{k}
			}
			ch.rids = append(ch.rids, storage.RowID{})
			ch.last = types.Row{k}
		}
		return ch
	}
	ints := func(from, n int64) []types.Datum {
		var out []types.Datum
		for i := int64(0); i < n; i++ {
			out = append(out, types.NewInt(from+i))
		}
		return out
	}
	incl := func(d types.Datum) btree.Bound { return btree.Bound{Key: types.Row{d}, Inclusive: true} }
	excl := func(d types.Datum) btree.Bound { return btree.Bound{Key: types.Row{d}} }
	cases := []struct {
		name  string
		hi    btree.Bound
		chunk indexChunk
		est   float64
		ok    bool
	}{
		{"int closed", excl(types.NewInt(400)), chunk(ints(100, 100)...), 300, true},
		{"int inclusive", incl(types.NewInt(399)), chunk(ints(100, 100)...), 300, true},
		{"int open above uses the tree's max", btree.Bound{}, chunk(ints(0, 100)...), 10000, true},
		{"one repeated int key", excl(types.NewInt(10)), chunk(types.NewInt(5), types.NewInt(5), types.NewInt(5), types.NewInt(5)), 20, true},
		{"leading NULLs skipped", excl(types.NewInt(200)), chunk(append([]types.Datum{types.Null, types.Null}, ints(0, 100)...)...), 200, true},
		{"date", excl(types.NewDate(1000)), chunk(types.NewDate(0), types.NewDate(0), types.NewDate(1), types.NewDate(1)), 2000, true},
		{"float", excl(types.NewFloat(10)), chunk(types.NewFloat(0), types.NewFloat(1), types.NewFloat(2)), 15, true},
		{"one float key", excl(types.NewFloat(10)), chunk(types.NewFloat(1), types.NewFloat(1)), 0, false},
		{"string", excl(types.NewString("z")), chunk(types.NewString("a"), types.NewString("b")), 0, false},
		{"only NULLs", excl(types.NewInt(5)), chunk(types.Null, types.Null), 0, false},
	}
	for _, c := range cases {
		est, ok := scan(c.hi).rangeEntries(c.chunk)
		if ok != c.ok || (ok && est != c.est) {
			t.Errorf("%s: rangeEntries = %.1f, %v; want %.1f, %v", c.name, est, ok, c.est, c.ok)
		}
	}
}
