package rewrite

import (
	"math"
	"strings"
	"testing"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/schema"
	"softdb/internal/types"
)

func col(i int, k types.Kind) *expr.Column { return expr.NewColumn("t", "c", i, k) }

func iconst(v int64) *expr.Const { return expr.NewConst(types.NewInt(v)) }

// --- linear form extraction ---

func TestExtractLinearForm(t *testing.T) {
	// 2*c0 + c1 - 3
	e := expr.NewBinary(expr.OpSub,
		expr.NewBinary(expr.OpAdd,
			expr.NewBinary(expr.OpMul, iconst(2), col(0, types.KindInt)),
			col(1, types.KindInt)),
		iconst(3))
	f, ok := ExtractLinearForm(e)
	if !ok {
		t.Fatal("should extract")
	}
	if f.Coeffs[0] != 2 || f.Coeffs[1] != 1 || f.Const != -3 {
		t.Errorf("form: %+v", f)
	}
	// c0 / 2
	e = expr.NewBinary(expr.OpDiv, col(0, types.KindInt), iconst(2))
	f, ok = ExtractLinearForm(e)
	if !ok || f.Coeffs[0] != 0.5 {
		t.Errorf("division: %+v ok=%v", f, ok)
	}
	// Nonlinear: c0 * c1.
	e = expr.NewBinary(expr.OpMul, col(0, types.KindInt), col(1, types.KindInt))
	if _, ok := ExtractLinearForm(e); ok {
		t.Error("product of columns is not linear")
	}
	// Negation.
	f, ok = ExtractLinearForm(expr.NewUnary(expr.OpNeg, col(0, types.KindInt)))
	if !ok || f.Coeffs[0] != -1 {
		t.Errorf("negation: %+v", f)
	}
	// c0 - c0 cancels.
	e = expr.NewBinary(expr.OpSub, col(0, types.KindInt), col(0, types.KindInt))
	f, ok = ExtractLinearForm(e)
	if !ok || len(f.Coeffs) != 0 {
		t.Errorf("cancellation: %+v", f)
	}
}

func TestBoundFromComparison(t *testing.T) {
	// ship(2) <= order(1) + 21  →  c1 - c2 >= -21 (normalized on c1).
	e := expr.NewBinary(expr.OpLe,
		col(2, types.KindDate),
		expr.NewBinary(expr.OpAdd, col(1, types.KindDate), iconst(21)))
	lb, ok := boundFromComparison(e)
	if !ok {
		t.Fatal("should normalize")
	}
	if lb.ColA != 1 || lb.ColB != 2 || lb.K != 1 {
		t.Errorf("bound: %s", lb)
	}
	if lb.Lo != -21 || !math.IsInf(lb.Hi, 1) {
		t.Errorf("range: %s", lb)
	}
	// Single column: c0 >= 5.
	e = expr.NewBinary(expr.OpGe, col(0, types.KindInt), iconst(5))
	lb, ok = boundFromComparison(e)
	if !ok || !lb.singleColumn() || lb.Lo != 5 {
		t.Errorf("single: %s", lb)
	}
	// Equality pins both ends: c0 = 7.
	e = expr.NewBinary(expr.OpEq, col(0, types.KindInt), iconst(7))
	lb, _ = boundFromComparison(e)
	if lb.Lo != 7 || lb.Hi != 7 {
		t.Errorf("equality: %s", lb)
	}
	// <> unsupported.
	e = expr.NewBinary(expr.OpNe, col(0, types.KindInt), iconst(7))
	if _, ok := boundFromComparison(e); ok {
		t.Error("<> should not normalize")
	}
	// Same-sign two-column forms (c0 + c1 <= 5) still normalize (K < 0).
	e = expr.NewBinary(expr.OpLe,
		expr.NewBinary(expr.OpAdd, col(0, types.KindInt), col(1, types.KindInt)),
		iconst(5))
	lb, ok = boundFromComparison(e)
	if !ok || lb.K != -1 {
		t.Errorf("sum form: %s ok=%v", lb, ok)
	}
}

func TestDeriveOther(t *testing.T) {
	// c0 - c1 ∈ [-21, 0]  (i.e. c1 - 21 <= c0 <= c1)
	lb := LinearBound{ColA: 0, ColB: 1, K: 1, Lo: -21, Hi: 0}
	// Known c1 = [100, 100] → c0 ∈ [79, 100].
	iv, ok := lb.deriveOther(1, floatInterval{lo: 100, hi: 100})
	if !ok || iv.lo != 79 || iv.hi != 100 {
		t.Errorf("derive A from B: %+v", iv)
	}
	// Known c0 = [100, 100] → c1 ∈ [100, 121].
	iv, ok = lb.deriveOther(0, floatInterval{lo: 100, hi: 100})
	if !ok || iv.lo != 100 || iv.hi != 121 {
		t.Errorf("derive B from A: %+v", iv)
	}
	// Negative K: c0 + 2*c1 = 10 → c0 - (-2)c1 ∈ [10,10].
	lb = LinearBound{ColA: 0, ColB: 1, K: -2, Lo: 10, Hi: 10}
	iv, ok = lb.deriveOther(1, floatInterval{lo: 1, hi: 2})
	// c0 = 10 - 2*c1 → c1∈[1,2] ⇒ c0 ∈ [6, 8].
	if !ok || iv.lo != 6 || iv.hi != 8 {
		t.Errorf("negative K: %+v", iv)
	}
}

func TestFloatToIntervalRounding(t *testing.T) {
	// Outward rounding for introduced predicates (superset).
	iv := floatToInterval(floatInterval{lo: 1.5, hi: 3.5}, types.KindInt)
	if !iv.Contains(types.NewInt(1)) || !iv.Contains(types.NewInt(4)) || iv.Contains(types.NewInt(0)) || iv.Contains(types.NewInt(5)) {
		t.Errorf("outward: %s", iv)
	}
	// Floats keep exact bounds.
	iv = floatToInterval(floatInterval{lo: 1.5, hi: 3.5}, types.KindFloat)
	if iv.Contains(types.NewFloat(1.4)) || !iv.Contains(types.NewFloat(1.5)) {
		t.Errorf("float: %s", iv)
	}
}

// --- rewriter over plans ---

func setupCat(t *testing.T) (*catalog.Catalog, *catalog.TableEntry) {
	t.Helper()
	cat := catalog.New()
	def := mustTable("purchase",
		schema.Column{Name: "id", Type: types.KindInt},
		schema.Column{Name: "order_date", Type: types.KindDate},
		schema.Column{Name: "ship_date", Type: types.KindDate, Nullable: true},
	)
	te, err := cat.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		te.Heap.Insert(types.Row{
			types.NewInt(int64(i)), types.NewDate(int64(i)), types.NewDate(int64(i + 10)),
		})
	}
	if _, err := cat.CreateIndex("idx_od", "purchase", []string{"order_date"}, false); err != nil {
		t.Fatal(err)
	}
	return cat, te
}

func scanOf(t *testing.T, te *catalog.TableEntry, filters ...expr.Expr) *plan.Scan {
	t.Helper()
	return &plan.Scan{Table: te.Def.Name, Alias: te.Def.Name, Entry: te, Def: te.Def, Filter: filters}
}

func shipEq(day int64) expr.Expr {
	return expr.Eq(expr.NewColumn("purchase", "ship_date", 2, types.KindDate),
		expr.NewConst(types.NewDate(day)))
}

func windowCheck() expr.Expr {
	ship := expr.NewColumn("purchase", "ship_date", 2, types.KindDate)
	order := expr.NewColumn("purchase", "order_date", 1, types.KindDate)
	return expr.And(
		expr.NewBinary(expr.OpGe, ship, order),
		expr.NewBinary(expr.OpLe, ship, expr.NewBinary(expr.OpAdd, order, iconst(21))),
	)
}

func TestPredicateIntroductionRule(t *testing.T) {
	cat, te := setupCat(t)
	if err := cat.AddConstraint(&catalog.Constraint{
		Name: "win", Kind: catalog.Check, Mode: catalog.ModeSoftAbsolute,
		Table: "purchase", CheckExpr: windowCheck(), Confidence: 1,
	}); err != nil {
		t.Fatal(err)
	}
	r := New(cat)
	out := r.Rewrite(scanOf(t, te, shipEq(50)))
	scan := out.(*plan.Scan)
	iv, _ := expr.ExtractInterval(scan.Filter, 1)
	if !iv.HasLo || !iv.HasHi {
		t.Fatalf("order_date window not introduced: %v (trace %v)", scan.Filter, r.Trace)
	}
	if iv.Lo.Date() != 29 || iv.Hi.Date() != 50 {
		t.Errorf("window: %s", iv)
	}
	// Disabled rule introduces nothing.
	r2 := &Rewriter{Cat: cat, Opt: Options{NoPredIntro: true}}
	out2 := r2.Rewrite(scanOf(t, te, shipEq(50)))
	iv2, _ := expr.ExtractInterval(out2.(*plan.Scan).Filter, 1)
	if iv2.HasLo || iv2.HasHi {
		t.Error("disabled rule should not fire")
	}
}

func TestPredIntroRequiresIndexAsymmetry(t *testing.T) {
	cat, te := setupCat(t)
	// Add index on ship_date too: no asymmetry, no introduction.
	if _, err := cat.CreateIndex("idx_sd", "purchase", []string{"ship_date"}, false); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddConstraint(&catalog.Constraint{
		Name: "win", Kind: catalog.Check, Mode: catalog.ModeSoftAbsolute,
		Table: "purchase", CheckExpr: windowCheck(), Confidence: 1,
	}); err != nil {
		t.Fatal(err)
	}
	r := New(cat)
	out := r.Rewrite(scanOf(t, te, shipEq(50)))
	iv, _ := expr.ExtractInterval(out.(*plan.Scan).Filter, 1)
	if iv.HasLo || iv.HasHi {
		t.Errorf("no asymmetry: should not introduce; filter %v", out.(*plan.Scan).Filter)
	}
}

func TestInactiveConstraintIgnored(t *testing.T) {
	cat, te := setupCat(t)
	con := &catalog.Constraint{
		Name: "win", Kind: catalog.Check, Mode: catalog.ModeSoftAbsolute,
		Table: "purchase", CheckExpr: windowCheck(), Confidence: 1,
	}
	if err := cat.AddConstraint(con); err != nil {
		t.Fatal(err)
	}
	con.Active = false
	r := New(cat)
	out := r.Rewrite(scanOf(t, te, shipEq(50)))
	iv, _ := expr.ExtractInterval(out.(*plan.Scan).Filter, 1)
	if iv.HasLo || iv.HasHi {
		t.Error("inactive ASC must not drive rewrites")
	}
}

func TestSSCProducesTwinNotFilter(t *testing.T) {
	cat, te := setupCat(t)
	if err := cat.AddConstraint(&catalog.Constraint{
		Name: "win", Kind: catalog.Check, Mode: catalog.ModeSoftStatistical,
		Table: "purchase", CheckExpr: windowCheck(), Confidence: 0.95,
	}); err != nil {
		t.Fatal(err)
	}
	r := New(cat)
	out := r.Rewrite(scanOf(t, te, shipEq(50)))
	scan := out.(*plan.Scan)
	iv, _ := expr.ExtractInterval(scan.Filter, 1)
	if iv.HasLo || iv.HasHi {
		t.Error("SSC must not add real filters")
	}
	if len(scan.EstOnly) == 0 {
		t.Fatalf("SSC should add estimation-only twins; trace %v", r.Trace)
	}
	if scan.EstOnly[0].Confidence != 0.95 {
		t.Errorf("twin confidence: %v", scan.EstOnly[0])
	}
}

func TestBranchPruneSingleColumn(t *testing.T) {
	cat, te := setupCat(t)
	monthCheck := expr.Eq(expr.NewColumn("purchase", "id", 0, types.KindInt), iconst(1))
	if err := cat.AddConstraint(&catalog.Constraint{
		Name: "m", Kind: catalog.Check, Mode: catalog.ModeEnforced,
		Table: "purchase", CheckExpr: monthCheck, Confidence: 1,
	}); err != nil {
		t.Fatal(err)
	}
	r := New(cat)
	contradicting := expr.Eq(expr.NewColumn("purchase", "id", 0, types.KindInt), iconst(2))
	out := r.Rewrite(scanOf(t, te, contradicting))
	if _, ok := out.(*plan.Empty); !ok {
		t.Fatalf("contradicting filter should prune: %s", plan.Format(out))
	}
	// Compatible filter survives.
	compatible := expr.Eq(expr.NewColumn("purchase", "id", 0, types.KindInt), iconst(1))
	out = r.Rewrite(scanOf(t, te, compatible))
	if _, ok := out.(*plan.Scan); !ok {
		t.Errorf("compatible filter should keep the scan: %s", plan.Format(out))
	}
}

func TestHoleTrimRule(t *testing.T) {
	cat, te := setupCat(t)
	lineDef := mustTable("lineitem",
		schema.Column{Name: "okey", Type: types.KindInt},
		schema.Column{Name: "shipdate", Type: types.KindDate},
	)
	le, err := cat.CreateTable(lineDef)
	if err != nil {
		t.Fatal(err)
	}
	jh := &catalog.JoinHoles{
		Name:      "h",
		LeftTable: "purchase", RightTable: "lineitem",
		JoinLeft: "id", JoinRight: "okey",
		AttrLeft: "order_date", AttrRight: "shipdate",
		Holes: []catalog.Rect{{
			A: expr.Between(types.NewDate(10), types.NewDate(40), true, true),
			B: expr.Unbounded(),
		}},
	}
	if err := cat.AddJoinHoles(jh); err != nil {
		t.Fatal(err)
	}
	pScan := scanOf(t, te, expr.And(
		expr.NewBinary(expr.OpGe, expr.NewColumn("purchase", "order_date", 1, types.KindDate), expr.NewConst(types.NewDate(20))),
		expr.NewBinary(expr.OpLe, expr.NewColumn("purchase", "order_date", 1, types.KindDate), expr.NewConst(types.NewDate(80))),
	))
	lScan := &plan.Scan{Table: "lineitem", Alias: "lineitem", Entry: le, Def: lineDef, Filter: []expr.Expr{
		expr.NewBinary(expr.OpGe, expr.NewColumn("lineitem", "shipdate", 1, types.KindDate), expr.NewConst(types.NewDate(0))),
	}}
	jg := &plan.JoinGroup{
		Tables: []plan.Node{pScan, lScan},
		Conjuncts: []expr.Expr{expr.Eq(
			expr.NewColumn("purchase", "id", 0, types.KindInt),
			expr.NewColumn("lineitem", "okey", 3, types.KindInt),
		)},
	}
	r := New(cat)
	out := r.Rewrite(jg)
	outJG := out.(*plan.JoinGroup)
	trimmed := outJG.Tables[0].(*plan.Scan)
	iv, _ := expr.ExtractInterval(trimmed.Filter, 1)
	if iv.Contains(types.NewDate(40)) || !iv.Contains(types.NewDate(41)) || !iv.Contains(types.NewDate(80)) {
		t.Errorf("hole should trim [20,40] away: %s (trace %v)", iv, r.Trace)
	}
}

func TestDeterminesClosure(t *testing.T) {
	cat, _ := setupCat(t)
	if err := cat.AddConstraint(&catalog.Constraint{
		Name: "pk", Kind: catalog.PrimaryKey, Mode: catalog.ModeEnforced,
		Table: "purchase", Columns: []string{"id"}, Confidence: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddConstraint(&catalog.Constraint{
		Name: "fd1", Kind: catalog.FuncDep, Mode: catalog.ModeSoftAbsolute,
		Table: "purchase", Columns: []string{"order_date"}, DepColumns: []string{"ship_date"}, Confidence: 1,
	}); err != nil {
		t.Fatal(err)
	}
	r := New(cat)
	if !r.determines("purchase", []string{"id"}, "ship_date") {
		t.Error("key determines everything")
	}
	if !r.determines("purchase", []string{"order_date"}, "ship_date") {
		t.Error("declared FD")
	}
	if r.determines("purchase", []string{"ship_date"}, "order_date") {
		t.Error("reverse FD should not hold")
	}
	if !r.determines("purchase", []string{"ship_date"}, "ship_date") {
		t.Error("reflexive")
	}
}

func TestTraceMessages(t *testing.T) {
	cat, te := setupCat(t)
	if err := cat.AddConstraint(&catalog.Constraint{
		Name: "win", Kind: catalog.Check, Mode: catalog.ModeSoftAbsolute,
		Table: "purchase", CheckExpr: windowCheck(), Confidence: 1,
	}); err != nil {
		t.Fatal(err)
	}
	r := New(cat)
	r.Rewrite(scanOf(t, te, shipEq(50)))
	if len(r.Trace) == 0 || !strings.Contains(r.Trace[0], "predicate-introduction") {
		t.Errorf("trace: %v", r.Trace)
	}
}

// TestUnionCollapseFoldsIntoPruning: pruning all arms but one records one
// event per pruned arm, the last of which says the union collapsed, and the
// trace is those events rendered.
func TestUnionCollapseFoldsIntoPruning(t *testing.T) {
	cat, te := setupCat(t)
	id := expr.NewColumn("purchase", "id", 0, types.KindInt)
	empty := func() *plan.Scan {
		return scanOf(t, te, expr.NewBinary(expr.OpGe, id, iconst(10)), expr.NewBinary(expr.OpLe, id, iconst(5)))
	}
	kept := scanOf(t, te)
	r := New(cat)
	if got := r.Rewrite(&plan.UnionAll{Arms: []plan.Node{empty(), kept, empty()}}); got != kept {
		t.Fatalf("union should collapse to its live arm: %T", got)
	}
	const collapsed = "; union collapsed to a single arm"
	if len(r.Events) != 2 || strings.HasSuffix(r.Events[0].Detail, collapsed) ||
		!strings.HasSuffix(r.Events[1].Detail, collapsed) {
		t.Fatalf("events: %v", r.Events)
	}
	for i, e := range r.Events {
		if !e.Shaped || len(r.Trace) != 2 || r.Trace[i] != e.TraceLine() {
			t.Errorf("trace %q does not render events %v", r.Trace, r.Events)
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
