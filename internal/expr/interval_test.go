package expr

import (
	"math/rand"
	"testing"

	"softdb/internal/types"
)

func di(v int64) types.Datum { return types.NewInt(v) }

func TestIntervalBasics(t *testing.T) {
	iv := Between(di(1), di(10), true, true)
	if !iv.Contains(di(1)) || !iv.Contains(di(10)) || iv.Contains(di(11)) {
		t.Error("closed interval membership")
	}
	open := Between(di(1), di(10), false, false)
	if open.Contains(di(1)) || open.Contains(di(10)) || !open.Contains(di(5)) {
		t.Error("open interval membership")
	}
	if !Unbounded().Contains(di(1 << 60)) {
		t.Error("unbounded contains everything")
	}
	if Unbounded().Contains(types.Null) {
		t.Error("NULL is in no interval")
	}
}

func TestIntervalEmpty(t *testing.T) {
	if !Between(di(5), di(1), true, true).Empty() {
		t.Error("inverted bounds are empty")
	}
	if !Between(di(5), di(5), true, false).Empty() {
		t.Error("half-open point is empty")
	}
	if Between(di(5), di(5), true, true).Empty() {
		t.Error("closed point is non-empty")
	}
}

func TestIntervalIntersect(t *testing.T) {
	a := Between(di(0), di(10), true, true)
	b := Between(di(5), di(20), true, true)
	x := a.Intersect(b)
	if !x.Contains(di(5)) || !x.Contains(di(10)) || x.Contains(di(4)) || x.Contains(di(11)) {
		t.Errorf("intersection: %s", x)
	}
	if !a.Intersect(Between(di(11), di(12), true, true)).Empty() {
		t.Error("disjoint intersection is empty")
	}
	// Unbounded is identity.
	if a.Intersect(Unbounded()).String() != a.String() {
		t.Error("intersect with unbounded")
	}
	// Touching endpoints with mixed inclusivity.
	c := Between(di(0), di(5), true, false).Intersect(Between(di(5), di(9), true, true))
	if !c.Empty() {
		t.Errorf("[0,5) ∩ [5,9] should be empty: %s", c)
	}
	d := Between(di(0), di(5), true, true).Intersect(Between(di(5), di(9), true, true))
	if d.Empty() || !d.Contains(di(5)) {
		t.Errorf("[0,5] ∩ [5,9] is {5}: %s", d)
	}
	if d.EqualityConstant == nil || d.EqualityConstant.Int() != 5 {
		t.Error("point intersection should expose equality constant")
	}
}

func TestIntervalDisjointCovered(t *testing.T) {
	jan := Between(di(1), di(31), true, true)
	mar := Between(di(60), di(90), true, true)
	if !jan.Disjoint(mar) {
		t.Error("jan and mar disjoint")
	}
	if jan.Disjoint(Between(di(31), di(60), true, true)) {
		t.Error("touching closed intervals are not disjoint")
	}
	if !Between(di(5), di(6), true, true).CoveredBy(jan) {
		t.Error("covered")
	}
	if jan.CoveredBy(Between(di(5), di(6), true, true)) {
		t.Error("not covered")
	}
	if !jan.CoveredBy(Unbounded()) {
		t.Error("everything covered by unbounded")
	}
	if Unbounded().CoveredBy(jan) {
		t.Error("unbounded not covered by finite")
	}
}

func TestExtractInterval(t *testing.T) {
	c0 := col(0, types.KindInt)
	conj := []Expr{
		NewBinary(OpGe, c0, iconst(3)),
		NewBinary(OpLt, c0, iconst(9)),
		NewBinary(OpEq, col(1, types.KindInt), iconst(7)), // other column
	}
	iv, rest := ExtractInterval(conj, 0)
	if !iv.Contains(di(3)) || iv.Contains(di(9)) || !iv.Contains(di(8)) {
		t.Errorf("extracted: %s", iv)
	}
	if len(rest) != 1 {
		t.Errorf("rest: %d", len(rest))
	}
}

func TestExtractIntervalSwappedOperands(t *testing.T) {
	c0 := col(0, types.KindInt)
	// 5 <= c0 means c0 >= 5.
	conj := []Expr{NewBinary(OpLe, iconst(5), c0)}
	iv, _ := ExtractInterval(conj, 0)
	if iv.Contains(di(4)) || !iv.Contains(di(5)) {
		t.Errorf("swapped: %s", iv)
	}
}

func TestExtractIntervalContradiction(t *testing.T) {
	c0 := col(0, types.KindInt)
	conj := []Expr{
		NewBinary(OpEq, c0, iconst(1)),
		NewBinary(OpEq, c0, iconst(2)),
	}
	iv, _ := ExtractInterval(conj, 0)
	if !iv.Empty() {
		t.Errorf("x=1 AND x=2 should be empty: %s", iv)
	}
}

func TestExtractIntervalConstExpr(t *testing.T) {
	c0 := col(0, types.KindDate)
	base, _ := types.ParseDate("1999-12-15")
	// c0 >= DATE '1999-12-15' - 21
	e := NewBinary(OpGe, c0, NewBinary(OpSub, NewConst(base), iconst(21)))
	iv, _ := ExtractInterval([]Expr{e}, 0)
	if !iv.HasLo || iv.Lo.String() != "1999-11-24" {
		t.Errorf("const-expr bound: %s", iv)
	}
}

func TestIntervalToPredicateRoundTrip(t *testing.T) {
	c0 := col(0, types.KindInt)
	iv := Between(di(2), di(8), true, false)
	p := IntervalToPredicate(c0, iv)
	back, rest := ExtractInterval(SplitConjuncts(p), 0)
	if len(rest) != 0 || back.String() != iv.String() {
		t.Errorf("round trip: %s vs %s (rest %d)", back, iv, len(rest))
	}
	if IntervalToPredicate(c0, Unbounded()) != nil {
		t.Error("unbounded renders as nil")
	}
	if !IsConstFalse(IntervalToPredicate(c0, Interval{ExactEmpty: true})) {
		t.Error("empty renders as FALSE")
	}
	eq := IntervalToPredicate(c0, Point(di(4)))
	if eq.String() != "(t.c = 4)" {
		t.Errorf("point renders as equality: %s", eq)
	}
}

// Property: Contains agrees with Intersect-with-point.
func TestIntervalContainsConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	randIv := func() Interval {
		lo, hi := int64(r.Intn(20)), int64(r.Intn(20))
		return Between(di(lo), di(hi), r.Intn(2) == 0, r.Intn(2) == 0)
	}
	for i := 0; i < 5000; i++ {
		iv := randIv()
		v := di(int64(r.Intn(20)))
		want := !iv.Intersect(Point(v)).Empty()
		if got := iv.Contains(v); got != want {
			t.Fatalf("Contains(%s, %s) = %v, want %v", iv, v, got, want)
		}
	}
}

// Property: Disjoint is symmetric, CoveredBy implies not Disjoint for
// non-empty intervals.
func TestIntervalProperties(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	randIv := func() Interval {
		lo, hi := int64(r.Intn(12)), int64(r.Intn(12))
		return Between(di(lo), di(hi), r.Intn(2) == 0, r.Intn(2) == 0)
	}
	for i := 0; i < 5000; i++ {
		a, b := randIv(), randIv()
		if a.Disjoint(b) != b.Disjoint(a) {
			t.Fatalf("Disjoint not symmetric: %s %s", a, b)
		}
		if !a.Empty() && a.CoveredBy(b) && a.Disjoint(b) {
			t.Fatalf("covered but disjoint: %s %s", a, b)
		}
	}
}

func TestTransformAndRemap(t *testing.T) {
	e := NewBinary(OpAnd,
		NewBinary(OpEq, col(0, types.KindInt), iconst(1)),
		NewBinary(OpLt, col(2, types.KindInt), iconst(5)),
	)
	remapped := RemapColumns(e, map[int]int{0: 7, 2: 9})
	idx := ColumnIndexes(remapped)
	if len(idx) != 2 || idx[0] != 7 || idx[1] != 9 {
		t.Errorf("remap: %v", idx)
	}
	// Original untouched.
	idx = ColumnIndexes(e)
	if idx[0] != 0 || idx[1] != 2 {
		t.Errorf("original mutated: %v", idx)
	}
	shifted := ShiftColumns(e, 10)
	idx = ColumnIndexes(shifted)
	if idx[0] != 10 || idx[1] != 12 {
		t.Errorf("shift: %v", idx)
	}
}

func TestReferencesOnly(t *testing.T) {
	e := NewBinary(OpEq, col(3, types.KindInt), col(5, types.KindInt))
	if !ReferencesOnly(e, map[int]bool{3: true, 5: true}) {
		t.Error("allowed set covers")
	}
	if ReferencesOnly(e, map[int]bool{3: true}) {
		t.Error("missing column should fail")
	}
}

func TestFoldConstants(t *testing.T) {
	e := NewBinary(OpAdd, iconst(2), iconst(3))
	f := FoldConstants(e)
	c, ok := f.(*Const)
	if !ok || c.Value.Int() != 5 {
		t.Errorf("fold 2+3: %s", f)
	}
	// AND TRUE simplification around a column.
	p := NewBinary(OpAnd, NewConst(types.NewBool(true)), NewBinary(OpEq, col(0, types.KindInt), iconst(1)))
	fp := FoldConstants(p)
	if fp.String() != "(t.c = 1)" {
		t.Errorf("AND TRUE: %s", fp)
	}
	// x AND FALSE folds to FALSE.
	pf := NewBinary(OpAnd, NewBinary(OpEq, col(0, types.KindInt), iconst(1)), NewConst(types.NewBool(false)))
	if !IsConstFalse(FoldConstants(pf)) {
		t.Errorf("AND FALSE: %s", FoldConstants(pf))
	}
	// OR TRUE folds to TRUE.
	po := NewBinary(OpOr, NewBinary(OpEq, col(0, types.KindInt), iconst(1)), NewConst(types.NewBool(true)))
	if !IsConstTrue(FoldConstants(po)) {
		t.Errorf("OR TRUE: %s", FoldConstants(po))
	}
	// Division by zero is left unfolded for runtime.
	bad := NewBinary(OpDiv, iconst(1), iconst(0))
	if _, ok := FoldConstants(bad).(*Const); ok {
		t.Error("error folds should be left intact")
	}
}

func TestSplitConjunctsDropsTrue(t *testing.T) {
	p := NewBinary(OpEq, col(0, types.KindInt), iconst(1))
	cs := SplitConjuncts(And(p, NewConst(types.NewBool(true))))
	if len(cs) != 1 {
		t.Errorf("TRUE conjunct should drop: %d", len(cs))
	}
	if SplitConjuncts(nil) != nil {
		t.Error("nil splits to nil")
	}
}

func TestContainsConjunct(t *testing.T) {
	p := NewBinary(OpEq, col(0, types.KindInt), iconst(1))
	q := NewBinary(OpEq, col(0, types.KindInt), iconst(2))
	if !ContainsConjunct([]Expr{p, q}, NewBinary(OpEq, col(0, types.KindInt), iconst(2))) {
		t.Error("should find equivalent conjunct")
	}
	if ContainsConjunct([]Expr{p}, q) {
		t.Error("should not find missing conjunct")
	}
}

// Literal provenance: bounds that come from statement literals keep their
// origin through extraction and intersection; a shape decided by comparing
// values of different origin — two literals, a literal and a plain
// constant — records that comparison as a guard with its sign, and the
// guard holds for exactly the literal vectors that reproduce the sign; one
// decided between images of the same literal records nothing.
func TestIntervalLiteralProvenance(t *testing.T) {
	col := NewColumn("t", "a", 0, types.KindInt)
	lit := func(v int64, slot int) *Const { return &Const{Value: types.NewInt(v), From: Origin{Slot: slot}} }
	cmp := func(op Op, c *Const) Expr { return NewBinary(op, col, c) }

	point, _ := ExtractInterval([]Expr{cmp(OpEq, lit(7, 1))}, 0)
	if lo, hi := point.Origins(); !point.FromLiteral() || len(point.Guards()) != 0 || lo.Slot != 1 || hi.Slot != 1 {
		t.Fatalf("point from one literal: %+v", point.Lit)
	}
	if b := point.Bind([]types.Datum{types.NewInt(9)}); b.Lo.Int() != 9 || b.Hi.Int() != 9 || b.EqualityConstant.Int() != 9 {
		t.Errorf("rebound point: %s", b)
	}

	ints := func(vs ...int64) []types.Datum {
		out := make([]types.Datum, len(vs))
		for i, v := range vs {
			out[i] = types.NewInt(v)
		}
		return out
	}
	between, _ := ExtractInterval([]Expr{cmp(OpGe, lit(3, 1)), cmp(OpLe, lit(8, 2))}, 0)
	if g := between.Guards(); len(g) != 1 || g[0].Sign != -1 || g[0].X.From.Slot != 1 || g[0].Y.From.Slot != 2 {
		t.Fatalf("a range between two literals may be empty or a point for other literals: %+v", g)
	}
	if !GuardsHold(between.Guards(), ints(0, 1)) || GuardsHold(between.Guards(), ints(5, 5)) || GuardsHold(between.Guards(), ints(6, 5)) {
		t.Error("the guard admits exactly lo < hi")
	}
	empty, _ := ExtractInterval([]Expr{cmp(OpGe, lit(9, 1)), cmp(OpLe, lit(8, 2))}, 0)
	if !empty.Empty() || !GuardsHold(empty.Guards(), ints(2, 1)) || GuardsHold(empty.Guards(), ints(1, 2)) {
		t.Errorf("an empty range holds where lo > hi: %+v", empty.Guards())
	}
	mixed, _ := ExtractInterval([]Expr{cmp(OpGe, lit(3, 1)), cmp(OpGe, NewConst(types.NewInt(5)))}, 0)
	if lo, _ := mixed.Origins(); lo.Slot != 0 || !GuardsHold(mixed.Guards(), ints(4)) || GuardsHold(mixed.Guards(), ints(5)) || GuardsHold(mixed.Guards(), ints(6)) {
		t.Errorf("the constant 5 wins the lower bound while the literal stays below it: %+v", mixed.Guards())
	}
	plain, _ := ExtractInterval([]Expr{cmp(OpGe, NewConst(types.NewInt(3))), cmp(OpLe, NewConst(types.NewInt(8)))}, 0)
	if plain.FromLiteral() {
		t.Error("no literal involved")
	}

	// [x, x+21]: both bounds are images of literal 1, so lo <= hi whatever
	// the literal is, and the interval rebinds through its origins.
	derived := AtLeast(types.NewInt(10), true).WithOrigins(Origin{Slot: 1}, Origin{}).
		Intersect(AtMost(types.NewInt(31), true).WithOrigins(Origin{}, Origin{Slot: 1, Add: 21, Round: 1}))
	if len(derived.Guards()) != 0 {
		t.Errorf("bounds that are offsets of one literal compare the same for every literal: %+v", derived.Guards())
	}
	if b := derived.Bind([]types.Datum{types.NewInt(100)}); b.Lo.Int() != 100 || b.Hi.Int() != 121 {
		t.Errorf("rebound derived range: %s", b)
	}
	if covered, g := plain.Covered(plain); !covered || len(g) != 0 {
		t.Errorf("constants against constants need no guard: %v %+v", covered, g)
	}
	if covered, g := point.Covered(plain); !covered || len(g) != 2 || !GuardsHold(g, ints(4)) || GuardsHold(g, ints(8)) || GuardsHold(g, ints(3)) {
		t.Errorf("a literal inside [3, 8] is covered while it stays strictly inside: %v %+v", covered, g)
	}
	if g := (Guard{X: Side{Value: types.NewInt(3), From: Origin{Slot: 1}}, Y: Side{Value: types.NewInt(5)}, Sign: -1}); !g.Same(Guard{X: Side{Value: types.NewInt(4), From: Origin{Slot: 1}}, Y: Side{Value: types.NewInt(5)}, Sign: -1}) ||
		g.Same(Guard{X: Side{Value: types.NewInt(3), From: Origin{Slot: 1}}, Y: Side{Value: types.NewInt(6)}, Sign: -1}) {
		t.Error("Same compares origins, constants and sign, not a literal's value")
	}

	// Predicates rebuilt from an interval carry the origins on.
	pred := IntervalToPredicate(col, derived)
	if got := Bind(pred, []types.Datum{types.NewInt(50)}).String(); got != "((t.a >= 50) AND (t.a <= 71))" {
		t.Errorf("rebound predicate: %s", got)
	}
	if !FoldsLiteral(NewBinary(OpEq, col, NewBinary(OpAdd, lit(1, 1), NewConst(types.NewInt(2))))) || FoldsLiteral(pred) {
		t.Error("FoldsLiteral: only constant subtrees over a literal fold one away")
	}
}
