package opt

import (
	"strings"
	"testing"

	"softdb/internal/catalog"
	"softdb/internal/exec"
	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/schema"
	"softdb/internal/stats"
	"softdb/internal/types"
)

// setup builds a catalog with two joined tables and statistics.
func setup(t *testing.T, rows int) (*catalog.Catalog, *catalog.TableEntry, *catalog.TableEntry) {
	t.Helper()
	cat := catalog.New()
	big := mustTable("big",
		schema.Column{Name: "id", Type: types.KindInt},
		schema.Column{Name: "k", Type: types.KindInt},
		schema.Column{Name: "v", Type: types.KindInt},
	)
	small := mustTable("small",
		schema.Column{Name: "k", Type: types.KindInt},
		schema.Column{Name: "label", Type: types.KindString},
	)
	bt, err := cat.CreateTable(big)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cat.CreateTable(small)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		bt.Heap.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 50)), types.NewInt(int64(i))})
	}
	for i := 0; i < 50; i++ {
		st.Heap.Insert(types.Row{types.NewInt(int64(i)), types.NewString("l")})
	}
	bt.Stats = stats.Collect(bt.Heap, 16)
	st.Stats = stats.Collect(st.Heap, 16)
	return cat, bt, st
}

func scanNode(te *catalog.TableEntry, alias string, filter ...expr.Expr) *plan.Scan {
	return &plan.Scan{Table: te.Def.Name, Alias: alias, Entry: te, Def: te.Def, Filter: filter}
}

func TestAccessPathSelection(t *testing.T) {
	cat, bt, _ := setup(t, 10000)
	if _, err := cat.CreateIndex("idx_id", "big", []string{"id"}, false); err != nil {
		t.Fatal(err)
	}
	o := &Optimizer{Cat: cat}
	// Selective range: index.
	sel := scanNode(bt, "big",
		expr.NewBinary(expr.OpGe, expr.NewColumn("big", "id", 0, types.KindInt), expr.NewConst(types.NewInt(100))),
		expr.NewBinary(expr.OpLe, expr.NewColumn("big", "id", 0, types.KindInt), expr.NewConst(types.NewInt(120))),
	)
	res, err := o.Optimize(sel)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exec.Format(res.Root), "IndexScan") {
		t.Errorf("selective range should pick index:\n%s", exec.Format(res.Root))
	}
	if res.EstRows < 5 || res.EstRows > 100 {
		t.Errorf("estimate: %.1f", res.EstRows)
	}
	// Unselective: sequential.
	unsel := scanNode(bt, "big",
		expr.NewBinary(expr.OpGe, expr.NewColumn("big", "id", 0, types.KindInt), expr.NewConst(types.NewInt(0))),
	)
	res, err = o.Optimize(unsel)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exec.Format(res.Root), "SeqScan") {
		t.Errorf("unselective should seq scan:\n%s", exec.Format(res.Root))
	}
	// NoIndexes forces sequential even when selective.
	o.NoIndexes = true
	res, _ = o.Optimize(sel)
	if strings.Contains(exec.Format(res.Root), "IndexScan") {
		t.Error("NoIndexes should disable index paths")
	}
}

func TestPinnedIndex(t *testing.T) {
	cat, bt, _ := setup(t, 1000)
	ix, err := cat.CreateIndex("idx_id", "big", []string{"id"}, false)
	if err != nil {
		t.Fatal(err)
	}
	// A wide range normally prefers seq scan; pinning forces the index.
	s := scanNode(bt, "big",
		expr.NewBinary(expr.OpGe, expr.NewColumn("big", "id", 0, types.KindInt), expr.NewConst(types.NewInt(0))))
	s.PinnedIndex = ix
	o := &Optimizer{Cat: cat}
	res, err := o.Optimize(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exec.Format(res.Root), "IndexScan") {
		t.Errorf("pinned index ignored:\n%s", exec.Format(res.Root))
	}
}

func joinGroup(bt, st *catalog.TableEntry) *plan.JoinGroup {
	// big(id,k,v) ⋈ small(k,label) on big.k = small.k; global ordinals:
	// big 0..2, small 3..4.
	return &plan.JoinGroup{
		Tables: []plan.Node{scanNode(bt, "b"), scanNode(st, "s")},
		Conjuncts: []expr.Expr{expr.Eq(
			expr.NewColumn("b", "k", 1, types.KindInt),
			expr.NewColumn("s", "k", 3, types.KindInt),
		)},
	}
}

func TestJoinLoweringProducesHashJoin(t *testing.T) {
	cat, bt, st := setup(t, 5000)
	o := &Optimizer{Cat: cat}
	res, err := o.Optimize(joinGroup(bt, st))
	if err != nil {
		t.Fatal(err)
	}
	text := exec.Format(res.Root)
	if !strings.Contains(text, "HashJoin") {
		t.Errorf("equi-join should hash:\n%s", text)
	}
	// Execute and validate count: every big row matches exactly one small.
	rows, err := exec.Collect(res.Root, &exec.Ctx{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5000 {
		t.Errorf("join rows: %d", len(rows))
	}
	// Column order restored: output must be big cols then small cols.
	if len(rows[0]) != 5 {
		t.Fatalf("arity: %d", len(rows[0]))
	}
	if rows[0][4].Kind() != types.KindString {
		t.Errorf("column order: %v", rows[0])
	}
	// Estimate within 3x.
	if res.EstRows < 5000/3 || res.EstRows > 5000*3 {
		t.Errorf("join estimate: %.0f", res.EstRows)
	}
}

func TestJoinOrderingThreeTables(t *testing.T) {
	cat, bt, st := setup(t, 3000)
	tiny := mustTable("tiny",
		schema.Column{Name: "k", Type: types.KindInt},
	)
	tt, err := cat.CreateTable(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tt.Heap.Insert(types.Row{types.NewInt(int64(i))})
	}
	tt.Stats = stats.Collect(tt.Heap, 4)
	jg := &plan.JoinGroup{
		Tables: []plan.Node{scanNode(bt, "b"), scanNode(st, "s"), scanNode(tt, "t")},
		Conjuncts: []expr.Expr{
			expr.Eq(expr.NewColumn("b", "k", 1, types.KindInt), expr.NewColumn("s", "k", 3, types.KindInt)),
			expr.Eq(expr.NewColumn("s", "k", 3, types.KindInt), expr.NewColumn("t", "k", 5, types.KindInt)),
		},
	}
	o := &Optimizer{Cat: cat}
	res, err := o.Optimize(jg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(res.Root, &exec.Ctx{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// big.k in 0..49, tiny.k in 0..4 → 5 of 50 keys survive; 3000/50=60 per key.
	want := 60 * 5
	if len(rows) != want {
		t.Errorf("3-way join rows: %d want %d", len(rows), want)
	}
	// Greedy should produce the same result set.
	o.ForceGreedyJoins = true
	res2, err := o.Optimize(joinGroupCopy(jg, bt, st, tt))
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := exec.Collect(res2.Root, &exec.Ctx{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != want {
		t.Errorf("greedy join rows: %d want %d", len(rows2), want)
	}
}

func joinGroupCopy(jg *plan.JoinGroup, bt, st, tt *catalog.TableEntry) *plan.JoinGroup {
	return &plan.JoinGroup{
		Tables: []plan.Node{scanNode(bt, "b"), scanNode(st, "s"), scanNode(tt, "t")},
		Conjuncts: []expr.Expr{
			expr.Eq(expr.NewColumn("b", "k", 1, types.KindInt), expr.NewColumn("s", "k", 3, types.KindInt)),
			expr.Eq(expr.NewColumn("s", "k", 3, types.KindInt), expr.NewColumn("t", "k", 5, types.KindInt)),
		},
	}
}

func TestCrossJoinFallsBackToNLJ(t *testing.T) {
	cat, bt, st := setup(t, 100)
	jg := &plan.JoinGroup{Tables: []plan.Node{scanNode(bt, "b"), scanNode(st, "s")}}
	o := &Optimizer{Cat: cat}
	res, err := o.Optimize(jg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exec.Format(res.Root), "NestedLoopJoin") {
		t.Errorf("cross join should be NLJ:\n%s", exec.Format(res.Root))
	}
	rows, _ := exec.Collect(res.Root, &exec.Ctx{}, 0)
	if len(rows) != 100*50 {
		t.Errorf("cross rows: %d", len(rows))
	}
}

func TestEmptyLowering(t *testing.T) {
	cat, _, _ := setup(t, 10)
	o := &Optimizer{Cat: cat}
	res, err := o.Optimize(&plan.Empty{Reason: "pruned"})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := exec.Collect(res.Root, &exec.Ctx{}, 0)
	if len(rows) != 0 || res.EstRows != 0 {
		t.Error("empty plan")
	}
}

func TestCardenasPages(t *testing.T) {
	if got := cardenasPages(100, 0); got != 0 {
		t.Errorf("k=0: %g", got)
	}
	if got := cardenasPages(100, 1); got < 0.9 || got > 1.1 {
		t.Errorf("k=1: %g", got)
	}
	if got := cardenasPages(100, 1e9); got != 100 {
		t.Errorf("huge k: %g", got)
	}
	// Monotone in k.
	prev := 0.0
	for k := 1.0; k < 1000; k *= 2 {
		got := cardenasPages(50, k)
		if got < prev {
			t.Fatalf("not monotone at k=%g", k)
		}
		prev = got
	}
}

func TestSSCEstimationToggle(t *testing.T) {
	cat, bt, _ := setup(t, 5000)
	s := scanNode(bt, "big",
		expr.NewBinary(expr.OpGe, expr.NewColumn("big", "v", 2, types.KindInt), expr.NewConst(types.NewInt(0))))
	s.EstOnly = []stats.EstimationPredicate{{
		Pred:       expr.NewBinary(expr.OpLt, expr.NewColumn("big", "id", 0, types.KindInt), expr.NewConst(types.NewInt(100))),
		Confidence: 0.9,
		Source:     "ssc",
	}}
	o := &Optimizer{Cat: cat}
	withTwin, err := o.Optimize(s)
	if err != nil {
		t.Fatal(err)
	}
	o.NoSSCEstimation = true
	without, err := o.Optimize(s)
	if err != nil {
		t.Fatal(err)
	}
	if withTwin.EstRows >= without.EstRows {
		t.Errorf("twin should reduce estimate: %.0f vs %.0f", withTwin.EstRows, without.EstRows)
	}
}

func TestLimitAndSortLowering(t *testing.T) {
	cat, bt, _ := setup(t, 100)
	var top plan.Node = scanNode(bt, "big")
	top = &plan.Sort{Input: top, Keys: []plan.SortKey{{Ordinal: 2, Desc: true}}}
	top = &plan.Limit{Input: top, N: 3}
	o := &Optimizer{Cat: cat}
	res, err := o.Optimize(top)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := exec.Collect(res.Root, &exec.Ctx{}, 0)
	if len(rows) != 3 || rows[0][2].Int() != 99 {
		t.Errorf("top-3: %v", rows)
	}
	if res.EstRows != 3 {
		t.Errorf("limit estimate: %.1f", res.EstRows)
	}
	// Eliminated sort is skipped in lowering.
	el := &plan.Sort{Input: scanNode(bt, "big"), Keys: []plan.SortKey{{Ordinal: 0}}, Eliminated: true}
	res, _ = o.Optimize(el)
	if strings.Contains(exec.Format(res.Root), "Sort") {
		t.Error("eliminated sort should not lower")
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
