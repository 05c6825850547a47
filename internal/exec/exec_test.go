package exec

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"softdb/internal/btree"
	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/schema"
	"softdb/internal/sql"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/vec"
)

func intRows(vals ...int64) []types.Row {
	out := make([]types.Row, len(vals))
	for i, v := range vals {
		out[i] = types.Row{types.NewInt(v)}
	}
	return out
}

func col(i int) *expr.Column { return expr.NewColumn("t", "c", i, types.KindInt) }

func iconst(v int64) *expr.Const { return expr.NewConst(types.NewInt(v)) }

func collect(t *testing.T, op Operator) []types.Row {
	t.Helper()
	rows, err := Collect(op, &Ctx{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func testHeap(t *testing.T, n int) *storage.Heap {
	t.Helper()
	def := mustTable("t",
		schema.Column{Name: "a", Type: types.KindInt},
		schema.Column{Name: "b", Type: types.KindInt},
	)
	h := storage.NewHeap(def)
	for i := 0; i < n; i++ {
		h.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 2))})
	}
	return h
}

func TestSeqScanFilter(t *testing.T) {
	h := testHeap(t, 100)
	op := &SeqScan{Table: "t", Heap: h, Filter: []expr.Expr{
		expr.NewBinary(expr.OpLt, col(0), iconst(10)),
	}}
	rows := collect(t, op)
	if len(rows) != 10 {
		t.Errorf("rows: %d", len(rows))
	}
	ctx := &Ctx{}
	_, _ = Collect(op, ctx, 0)
	if ctx.IO.PagesRead != h.PageCount() {
		t.Errorf("seq scan pages: %d want %d", ctx.IO.PagesRead, h.PageCount())
	}
}

func TestIndexScanRangeAndPageDedup(t *testing.T) {
	h := testHeap(t, 1000)
	ix := &catalog.Index{Name: "ia", Table: "t", Columns: []string{"a"}, Ordinal: []int{0}, Tree: btree.New(types.KindInt)}
	h.Scan(nil, func(id storage.RowID, row types.Row) bool {
		ix.Tree.Insert(ix.KeyFor(row), id)
		return true
	})
	op := &IndexScan{
		Table: "t", Heap: h, Index: ix,
		Lo: btree.Bound{Key: types.Row{types.NewInt(100)}, Inclusive: true},
		Hi: btree.Bound{Key: types.Row{types.NewInt(199)}, Inclusive: true},
	}
	ctx := &Ctx{}
	rows, err := Collect(op, ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Clustered data: 100 contiguous rows span very few heap pages, each
	// charged once despite 100 fetches.
	if ctx.IO.PagesRead > 10 {
		t.Errorf("clustered index scan should dedupe pages: %d", ctx.IO.PagesRead)
	}
	// Residual filter still applies.
	op.Filter = []expr.Expr{expr.Eq(col(1), iconst(300))}
	rows = collect(t, op)
	if len(rows) != 1 || rows[0][0].Int() != 150 {
		t.Errorf("residual: %v", rows)
	}
}

func TestFilterProjectLimit(t *testing.T) {
	src := &Values{Rows: intRows(1, 2, 3, 4, 5)}
	f := &Filter{Input: src, Conds: []expr.Expr{expr.NewBinary(expr.OpGt, col(0), iconst(2))}}
	p := &Project{Input: f, Exprs: []expr.Expr{expr.NewBinary(expr.OpMul, col(0), iconst(10))}}
	l := &Limit{Input: p, N: 2}
	rows := collect(t, l)
	if len(rows) != 2 || rows[0][0].Int() != 30 || rows[1][0].Int() != 40 {
		t.Errorf("pipeline: %v", rows)
	}
	// Limit 0 yields nothing.
	if rows := collect(t, &Limit{Input: src, N: 0}); len(rows) != 0 {
		t.Errorf("limit 0: %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	src := &Values{Rows: intRows(3, 1, 3, 2, 1)}
	rows := collect(t, &Distinct{Input: src})
	if len(rows) != 3 {
		t.Errorf("distinct: %v", rows)
	}
}

func TestSortAscDescStable(t *testing.T) {
	src := &Values{Rows: []types.Row{
		{types.NewInt(2), types.NewString("b")},
		{types.NewInt(1), types.NewString("c")},
		{types.NewInt(2), types.NewString("a")},
	}}
	s := &Sort{Input: src, Keys: []plan.SortKey{{Ordinal: 0}, {Ordinal: 1, Desc: true}}}
	rows := collect(t, s)
	want := []string{"(1, 'c')", "(2, 'b')", "(2, 'a')"}
	for i, r := range rows {
		if r.String() != want[i] {
			t.Errorf("row %d: %s want %s", i, r, want[i])
		}
	}

	// The permutation sort against sort.SliceStable with the generic
	// comparator: same order (stability included — column 0 is a unique id
	// no key reads) and the same comparison count, over typed and generic key
	// columns, DESC and multi-key lists, with enough rows for symMerge.
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 200; trial++ {
		n := []int{0, 1, 2, 19, 20, 21, 41, 97, 300}[trial%9]
		rows := sortOracleRows(rng, n)
		keys := make([]plan.SortKey, 1+rng.Intn(3))
		for i := range keys {
			keys[i] = plan.SortKey{Ordinal: 1 + rng.Intn(6), Desc: rng.Intn(2) == 0}
		}
		wantRows, wantCmps := sliceStableOracle(rows, keys)
		ctx := &Ctx{}
		got, err := Collect(&Sort{Input: &Values{Rows: rows}, Keys: keys}, ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wantRows) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), len(wantRows))
		}
		for i := range got {
			if got[i][0] != wantRows[i][0] {
				t.Fatalf("trial %d (keys %v, %d rows): row %d is %v, sort.SliceStable puts %v", trial, keys, n, i, got[i], wantRows[i])
			}
		}
		if ctx.Comparisons != wantCmps {
			t.Fatalf("trial %d (keys %v, %d rows): %d comparisons, sort.SliceStable %d", trial, keys, n, ctx.Comparisons, wantCmps)
		}
	}
}

// sortOracleRows draws rows of (unique id, INT with duplicates, INT and DATE
// mixed with NULLs, FLOAT, STRING, BOOL, DATE) — key columns 1, 6 and 5 take
// the int path, 2, 3 and 4 Datum.Compare.
func sortOracleRows(rng *rand.Rand, n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		v := int64(rng.Intn(8))
		mixed := types.NewInt(v)
		switch rng.Intn(4) {
		case 0:
			mixed = types.NewDate(v)
		case 1:
			mixed = types.Null
		}
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewInt(v % 3),
			mixed,
			types.NewFloat(float64(rng.Intn(5)) / 2),
			types.NewString(fmt.Sprint("s", rng.Intn(4))),
			types.NewBool(rng.Intn(2) == 0),
			types.NewDate(int64(rng.Intn(6))),
		}
	}
	return rows
}

// sliceStableOracle is the sort Sort ran before its permutation sort: a
// row-swapping sort.SliceStable with the generic per-key comparator, counting
// one comparison per key column compared.
func sliceStableOracle(in []types.Row, keys []plan.SortKey) ([]types.Row, int64) {
	rows := append([]types.Row(nil), in...)
	var cmps int64
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			cmps++
			c := rows[i][k.Ordinal].Compare(rows[j][k.Ordinal])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return rows, cmps
}

func TestUnionAllOrderAndEarlyStop(t *testing.T) {
	u := &UnionAll{Arms: []Operator{
		&Values{Rows: intRows(1, 2)},
		&Values{Rows: intRows(3)},
	}}
	rows := collect(t, u)
	if len(rows) != 3 || rows[2][0].Int() != 3 {
		t.Errorf("union: %v", rows)
	}
	// Early stop across arms: the first arm's batch stops the union.
	batches, n := 0, 0
	err := u.Run(&Ctx{}, func(b *vec.Batch) bool { batches++; n += b.Len(); return false })
	if err != nil || batches != 1 || n != 2 {
		t.Errorf("early stop: %d batches, %d rows", batches, n)
	}
}

func TestNestedLoopJoin(t *testing.T) {
	outer := &Values{Rows: intRows(1, 2, 3)}
	inner := &Values{Rows: intRows(2, 3, 4)}
	j := &NestedLoopJoin{Outer: outer, Inner: inner, Cond: []expr.Expr{
		expr.Eq(col(0), col(1)),
	}}
	rows := collect(t, j)
	if len(rows) != 2 {
		t.Fatalf("nlj: %v", rows)
	}
	if rows[0][0].Int() != 2 || rows[0][1].Int() != 2 {
		t.Errorf("nlj row: %v", rows[0])
	}
}

func TestHashJoinWithDuplicatesAndNulls(t *testing.T) {
	left := &Values{Rows: []types.Row{
		{types.NewInt(1), types.NewString("a")},
		{types.NewInt(1), types.NewString("b")},
		{types.Null, types.NewString("n")},
	}}
	right := &Values{Rows: []types.Row{
		{types.NewInt(1)},
		{types.NewInt(1)},
		{types.Null},
	}}
	j := &HashJoin{
		Left: left, Right: right,
		LeftKeys: []expr.Expr{col(0)},
		RightKey: []expr.Expr{col(0)},
	}
	rows := collect(t, j)
	// 2 left × 2 right matching rows = 4; NULL keys never match.
	if len(rows) != 4 {
		t.Fatalf("hash join: %d rows: %v", len(rows), rows)
	}
	for _, r := range rows {
		if len(r) != 3 {
			t.Errorf("arity: %v", r)
		}
	}
}

func TestHashJoinResidual(t *testing.T) {
	left := &Values{Rows: []types.Row{
		{types.NewInt(1), types.NewInt(10)},
		{types.NewInt(1), types.NewInt(20)},
	}}
	right := &Values{Rows: []types.Row{{types.NewInt(1), types.NewInt(15)}}}
	j := &HashJoin{
		Left: left, Right: right,
		LeftKeys: []expr.Expr{col(0)},
		RightKey: []expr.Expr{col(0)},
		Residual: []expr.Expr{expr.NewBinary(expr.OpLt, col(1), col(3))},
	}
	rows := collect(t, j)
	if len(rows) != 1 || rows[0][1].Int() != 10 {
		t.Errorf("residual: %v", rows)
	}
}

func TestHashAggregate(t *testing.T) {
	src := &Values{Rows: []types.Row{
		{types.NewInt(1), types.NewInt(10)},
		{types.NewInt(2), types.NewInt(20)},
		{types.NewInt(1), types.NewInt(30)},
		{types.NewInt(1), types.Null},
	}}
	agg := &HashAggregate{
		Input:   src,
		GroupBy: []expr.Expr{col(0)},
		Aggs: []plan.AggSpec{
			{Kind: sql.AggCountStar},
			{Kind: sql.AggCount, Arg: col(1)},
			{Kind: sql.AggSum, Arg: col(1)},
			{Kind: sql.AggMin, Arg: col(1)},
			{Kind: sql.AggMax, Arg: col(1)},
			{Kind: sql.AggAvg, Arg: col(1)},
		},
	}
	rows := collect(t, agg)
	if len(rows) != 2 {
		t.Fatalf("groups: %v", rows)
	}
	// Deterministic group order: group 1 first.
	g1 := rows[0]
	if g1[0].Int() != 1 || g1[1].Int() != 3 || g1[2].Int() != 2 || g1[3].Int() != 40 {
		t.Errorf("group 1: %v", g1)
	}
	if g1[4].Int() != 10 || g1[5].Int() != 30 || g1[6].Float() != 20 {
		t.Errorf("group 1 min/max/avg: %v", g1)
	}

	// Charges on every keyer: per row one probe and one comparison per
	// hashed group column; per group one reservation of its key row plus
	// accGroupBytes per aggregate, so a budget one byte short trips on the
	// last group. "int to generic" hands the int keyer's groups over when a
	// second batch holds FLOATs in the INT key column (1.0 joins group 1).
	tail := []types.Row{{types.NewFloat(1), types.NewInt(5)}, {types.NewFloat(2.5), types.NewInt(6)}}
	for _, c := range []struct {
		name      string
		input     Operator
		groupBy   []expr.Expr
		redundant []bool
		hashed    int
		want      string
	}{
		{"scalar", src, nil, nil, 0, "(4, 3, 60, 10, 30, 20)"},
		{"int", src, []expr.Expr{col(0)}, nil, 1, "(1, 3, 2, 40, 10, 30, 20) (2, 1, 1, 20, 20, 20, 20)"},
		{"int redundant", src, []expr.Expr{col(0), col(1)}, []bool{false, true}, 1,
			"(1, 10, 3, 2, 40, 10, 30, 20) (2, 20, 1, 1, 20, 20, 20, 20)"},
		{"generic", src, []expr.Expr{col(0), col(1)}, nil, 2,
			"(1, NULL, 1, 0, NULL, NULL, NULL, NULL) (1, 10, 1, 1, 10, 10, 10, 10) (1, 30, 1, 1, 30, 30, 30, 30) (2, 20, 1, 1, 20, 20, 20, 20)"},
		{"int to generic", &UnionAll{Arms: []Operator{src, &Values{Rows: tail}}}, []expr.Expr{col(0)}, nil, 1,
			"(1, 4, 3, 45, 5, 30, 15) (2, 1, 1, 20, 20, 20, 20) (2.5, 1, 1, 6, 6, 6, 6)"},
	} {
		run := func(budget int64) (*Ctx, []types.Row, error) {
			ctx := NewCtx(context.Background(), CtxOptions{MemBudget: budget})
			op := &HashAggregate{Input: c.input, GroupBy: c.groupBy, Redundant: c.redundant, Aggs: agg.Aggs}
			rows, err := Collect(op, ctx, 0)
			return ctx, rows, err
		}
		ctx, rows, err := run(1 << 30)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got []string
		var reserved, in int64
		for _, r := range rows {
			got = append(got, r.String())
			reserved += r[:len(c.groupBy)].MemSize() + int64(len(agg.Aggs))*accGroupBytes
		}
		in = int64(len(src.Rows))
		if c.name == "int to generic" {
			in += int64(len(tail))
		}
		if s := strings.Join(got, " "); s != c.want {
			t.Errorf("%s: %s, want %s", c.name, s, c.want)
		}
		if ctx.HashProbes != in || ctx.Comparisons != in*int64(c.hashed) || ctx.MemReserved() != reserved {
			t.Errorf("%s: probes %d cmp %d reserved %d, want %d, %d, %d",
				c.name, ctx.HashProbes, ctx.Comparisons, ctx.MemReserved(), in, in*int64(c.hashed), reserved)
		}
		if _, _, err := run(reserved); err != nil {
			t.Errorf("%s: an exact budget failed: %v", c.name, err)
		}
		ctx, _, err = run(reserved - 1)
		if qe, ok := AsQueryError(err); !ok || qe.Kind != KindMemBudget || ctx.MemReserved() != reserved {
			t.Errorf("%s: a budget one byte short: %v after %d bytes, want a budget error at %d", c.name, err, ctx.MemReserved(), reserved)
		}
	}
}

func TestHashAggregateRedundantGroup(t *testing.T) {
	// Group by (a, b) where b is redundant (b = a*2 in the data).
	src := &Values{Rows: []types.Row{
		{types.NewInt(1), types.NewInt(2)},
		{types.NewInt(1), types.NewInt(2)},
		{types.NewInt(3), types.NewInt(6)},
	}}
	agg := &HashAggregate{
		Input:     src,
		GroupBy:   []expr.Expr{col(0), col(1)},
		Aggs:      []plan.AggSpec{{Kind: sql.AggCountStar}},
		Redundant: []bool{false, true},
	}
	rows := collect(t, agg)
	if len(rows) != 2 {
		t.Fatalf("groups: %v", rows)
	}
	// Redundant column still appears in output.
	if rows[0][1].Int() != 2 || rows[1][1].Int() != 6 {
		t.Errorf("redundant values: %v", rows)
	}
}

func TestScalarAggregateOnEmpty(t *testing.T) {
	agg := &HashAggregate{
		Input: &Values{},
		Aggs: []plan.AggSpec{
			{Kind: sql.AggCountStar},
			{Kind: sql.AggSum, Arg: col(0)},
		},
	}
	rows := collect(t, agg)
	if len(rows) != 1 || rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Errorf("empty scalar: %v", rows)
	}
}

func TestSortComparisonCounting(t *testing.T) {
	vals := make([]int64, 200)
	for i := range vals {
		vals[i] = int64(200 - i)
	}
	// Heavy duplication on the first key so the second key is consulted.
	src2col := &Values{}
	for _, v := range vals {
		src2col.Rows = append(src2col.Rows, types.Row{types.NewInt(v % 5), types.NewInt(v)})
	}
	one := &Sort{Input: src2col, Keys: []plan.SortKey{{Ordinal: 0}}}
	two := &Sort{Input: src2col, Keys: []plan.SortKey{{Ordinal: 0}, {Ordinal: 1}}}
	c1, c2 := &Ctx{}, &Ctx{}
	if _, err := Collect(one, c1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(two, c2, 0); err != nil {
		t.Fatal(err)
	}
	if c2.Comparisons <= c1.Comparisons {
		t.Errorf("two keys should cost more column comparisons: %d vs %d", c1.Comparisons, c2.Comparisons)
	}
	// Both counts are sort.SliceStable's, on a typed and a generic key
	// column alike.
	for _, c := range []struct {
		ctx  *Ctx
		keys []plan.SortKey
	}{{c1, one.Keys}, {c2, two.Keys}} {
		if _, want := sliceStableOracle(src2col.Rows, c.keys); c.ctx.Comparisons != want {
			t.Errorf("keys %v: %d comparisons, sort.SliceStable %d", c.keys, c.ctx.Comparisons, want)
		}
	}
	generic := &Values{}
	for i, r := range src2col.Rows {
		v := r[0]
		if i%7 == 0 {
			v = types.NewFloat(v.Float()) // one FLOAT sends the key to Datum.Compare
		}
		generic.Rows = append(generic.Rows, types.Row{v, r[1]})
	}
	for _, desc := range []bool{false, true} {
		keys := []plan.SortKey{{Ordinal: 0, Desc: desc}, {Ordinal: 1}}
		ctx := &Ctx{}
		got, err := Collect(&Sort{Input: generic, Keys: keys}, ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, cmps := sliceStableOracle(generic.Rows, keys)
		if ctx.Comparisons != cmps || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("generic key (desc=%v): %d comparisons vs %d, or order differs", desc, ctx.Comparisons, cmps)
		}
	}
}

func TestFormatTree(t *testing.T) {
	op := &Limit{Input: &Filter{Input: &Values{}, Conds: []expr.Expr{iconstBool(true)}}, N: 1}
	s := Format(op)
	if !contains(s, "Limit 1") || !contains(s, "Filter") {
		t.Errorf("format:\n%s", s)
	}
}

func iconstBool(b bool) expr.Expr { return expr.NewConst(types.NewBool(b)) }

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// Property: hash join matches nested-loop join on random inputs.
func TestJoinEquivalenceProperty(t *testing.T) {
	for seed := 0; seed < 20; seed++ {
		lvals := make([]int64, 30)
		rvals := make([]int64, 30)
		for i := range lvals {
			lvals[i] = int64((i*7 + seed) % 10)
			rvals[i] = int64((i*11 + seed) % 10)
		}
		left := &Values{Rows: intRows(lvals...)}
		right := &Values{Rows: intRows(rvals...)}
		hj := &HashJoin{Left: left, Right: right,
			LeftKeys: []expr.Expr{col(0)}, RightKey: []expr.Expr{col(0)}}
		nl := &NestedLoopJoin{Outer: left, Inner: right,
			Cond: []expr.Expr{expr.Eq(col(0), col(1))}}
		h := collect(t, hj)
		n := collect(t, nl)
		if len(h) != len(n) {
			t.Fatalf("seed %d: hash %d rows, nlj %d rows", seed, len(h), len(n))
		}
		sortRows(h)
		sortRows(n)
		for i := range h {
			if !h[i].Equal(n[i]) {
				t.Fatalf("seed %d row %d: %v vs %v", seed, i, h[i], n[i])
			}
		}
	}
}

func sortRows(rows []types.Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Compare(rows[j]) < 0 })
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
