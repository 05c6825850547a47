package expr

import (
	"math"

	"softdb/internal/types"
	"softdb/internal/vec"
)

// This file compiles a conjunct list into a predicate program: an ordered
// list of stages that filter a columnar batch's selection vector with
// type-specialized tight loops instead of a per-row Datum tree-walk. Range
// comparisons over one column (=, <, <=, >, >=, BETWEEN spelled as two
// comparisons) fuse into a single interval stage; <>, IS NULL and
// IS NOT NULL get dedicated stages, and so does a comparison of two INT,
// DATE or FLOAT columns, one of them offset by a constant (col op col
// [± const]); everything else runs through the generic per-row EvalBool
// fallback.
//
// A stage is provably TRUE for a whole page when the page synopsis covers
// it (see Stage.ProvableTrue) — scans exploit that to skip per-row
// evaluation entirely on all-qualifying pages.
//
// Semantics match the row-at-a-time path (evalFilters/EvalBool) row for
// row: a NULL comparison operand rejects, interval contradictions reject
// everything, and value comparisons reuse Datum.Compare ordering. The one
// documented divergence is error *ordering*: the row path walks conjuncts
// in textual order per row, while the program runs stage by stage over the
// batch, so when several conjuncts would error the reported row/conjunct
// may differ (the presence of an error is preserved — see
// FuzzKernelParity).

// StageMode classifies one predicate program stage.
type StageMode uint8

const (
	// StageRange keeps rows whose column value lies in Iv.
	StageRange StageMode = iota
	// StageNe keeps rows whose non-null column value differs from Ne.
	StageNe
	// StageIsNull keeps rows whose column is NULL.
	StageIsNull
	// StageIsNotNull keeps rows whose column is not NULL.
	StageIsNotNull
	// StageGeneric tree-walks Cond per row via EvalBool.
	StageGeneric
	// StageColCol keeps rows whose column Col compares by Op with column
	// Col2 plus (or, with Sub, minus) Add, a constant; Add is NULL when
	// there is no offset.
	StageColCol
)

// rangeLoop selects the compiled tight loop for a range/ne stage.
type rangeLoop uint8

const (
	loopFallback rangeLoop = iota // per-row Datum.Compare, no extraction
	loopEmpty                     // contradiction: drop every row
	loopIntInt                    // int-image column, int-image bounds
	loopIntFloat                  // int-image column, float-widened bounds
	loopFloat                     // float column, numeric bounds
	loopStr                       // string column, string bounds
)

// Stage is one step of a compiled predicate program.
type Stage struct {
	Mode StageMode
	// Col is the column ordinal tested by non-generic stages (-1 otherwise).
	Col int
	// Kind is the column's static kind for non-generic stages.
	Kind types.Kind
	// Iv is the fused interval for StageRange.
	Iv Interval
	// Ne is the constant for StageNe.
	Ne types.Datum
	// Cond is the original conjunct for StageGeneric (and StageColCol,
	// whose arithmetic errors it reports).
	Cond Expr
	// Col2 (of static kind Kind2), Op, Add and Sub describe StageColCol's
	// right side; Op is normalized to put Col on the left. The right side
	// sums in int64 (wrapping) when Col2 and Add are INT or DATE, in
	// float64 otherwise.
	Col2  int
	Kind2 types.Kind
	Op    Op
	Add   types.Datum
	Sub   bool

	colRef *Column
	loop   rangeLoop
	// ints is the closed int64 image of Iv for loopIntInt stages: over a
	// null-free column the loop is one unsigned compare per row.
	ints closedInts
	// num is Iv (StageRange) or the point Ne (StageNe) as plain numbers, for
	// ProvableTrue's per-page test.
	num   NumInterval
	numOK bool
}

// closedInts is the set of int64 values lo..lo+span; !ok when the interval
// it was resolved from has a bound no int64 expresses (an exclusive bound at
// the end of the range).
type closedInts struct {
	lo   int64
	span uint64
	ok   bool
}

// resolveInts turns a non-empty interval with INT/DATE bounds into the
// closed range of int64 values it holds.
func resolveInts(iv Interval) closedInts {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if iv.HasLo {
		if lo = iv.Lo.IntImage(); !iv.LoIncl {
			if lo == math.MaxInt64 {
				return closedInts{}
			}
			lo++
		}
	}
	if iv.HasHi {
		if hi = iv.Hi.IntImage(); !iv.HiIncl {
			if hi == math.MinInt64 {
				return closedInts{}
			}
			hi--
		}
	}
	if lo > hi {
		return closedInts{}
	}
	return closedInts{lo: lo, span: uint64(hi) - uint64(lo), ok: true}
}

// filter keeps the positions of sel whose value lies in the range. Every
// position is written and the count advances only on a hit, which compiles
// to a conditional move: no branch for mid-selectivity predicates to
// mispredict.
func (r closedInts) filter(vals []int64, sel, out []int32) []int32 {
	out = out[:len(sel)]
	n := 0
	for _, idx := range sel {
		out[n] = idx
		if uint64(vals[idx])-uint64(r.lo) <= r.span {
			n++
		}
	}
	return out[:n]
}

// PredProgram is a compiled conjunction. It is immutable after compilation
// and safe for concurrent use; all run-time scratch lives in the caller.
type PredProgram struct {
	Stages []Stage
}

// CompilePredicate compiles conds (an implicit AND) into a predicate
// program. A nil/empty conds yields a program with zero stages that keeps
// everything.
func CompilePredicate(conds []Expr) *PredProgram {
	p := &PredProgram{}
	remaining := conds
	// Fuse all range comparisons per column, in first-occurrence order.
	for {
		var target *Column
		for _, c := range remaining {
			if col, op, _, ok := comparisonOnColumn(c); ok && op != OpNe && col.Index >= 0 {
				target = col
				break
			}
		}
		if target == nil {
			break
		}
		iv, rest := ExtractInterval(remaining, target.Index)
		iv = iv.Plain()
		st := Stage{Mode: StageRange, Col: target.Index, Kind: target.Kind, Iv: iv, colRef: target}
		st.loop = planRangeLoop(target.Kind, iv)
		if st.loop == loopIntInt {
			st.ints = resolveInts(iv)
		}
		st.num, st.numOK = iv.Numeric()
		p.Stages = append(p.Stages, st)
		remaining = rest
	}
	for _, c := range remaining {
		if col, op, val, ok := comparisonOnColumn(c); ok && op == OpNe && col.Index >= 0 {
			st := Stage{Mode: StageNe, Col: col.Index, Kind: col.Kind, Ne: val, colRef: col}
			st.loop = planNeLoop(col.Kind, val)
			if !val.IsNull() {
				st.num, st.numOK = Point(val).Numeric()
			}
			p.Stages = append(p.Stages, st)
			continue
		}
		if st, ok := colColStage(c); ok {
			p.Stages = append(p.Stages, st)
			continue
		}
		if u, ok := c.(*Unary); ok && (u.Op == OpIsNull || u.Op == OpIsNotNull) {
			if col, isCol := u.X.(*Column); isCol && col.Index >= 0 {
				mode := StageIsNull
				if u.Op == OpIsNotNull {
					mode = StageIsNotNull
				}
				p.Stages = append(p.Stages, Stage{Mode: mode, Col: col.Index, Kind: col.Kind, colRef: col})
				continue
			}
		}
		p.Stages = append(p.Stages, Stage{Mode: StageGeneric, Col: -1, Cond: c})
	}
	return p
}

// boundClass groups the interval's present bounds: intOnly (all INT/DATE),
// numeric (INT/DATE/FLOAT with at least one FLOAT), strOnly, or mixed.
func boundKinds(iv Interval) (allIntImage, allNumeric, anyFloat, allStr bool) {
	allIntImage, allNumeric, allStr = true, true, true
	check := func(d types.Datum) {
		switch d.Kind() {
		case types.KindInt, types.KindDate:
			allStr = false
		case types.KindFloat:
			allIntImage, allStr = false, false
			anyFloat = true
		case types.KindString:
			allIntImage, allNumeric = false, false
		default:
			allIntImage, allNumeric, allStr = false, false, false
		}
	}
	if iv.HasLo {
		check(iv.Lo)
	}
	if iv.HasHi {
		check(iv.Hi)
	}
	return
}

func planRangeLoop(kind types.Kind, iv Interval) rangeLoop {
	if iv.Empty() {
		return loopEmpty
	}
	if iv.IsUnbounded() {
		// Keeps only non-null rows of any kind; the fallback handles it.
		return loopFallback
	}
	allInt, allNum, anyFloat, allStr := boundKinds(iv)
	switch kind {
	case types.KindInt, types.KindDate:
		if allInt {
			return loopIntInt
		}
		if allNum && anyFloat {
			return loopIntFloat
		}
	case types.KindFloat:
		if allNum {
			return loopFloat
		}
	case types.KindString:
		if allStr {
			return loopStr
		}
	}
	return loopFallback
}

func planNeLoop(kind types.Kind, val types.Datum) rangeLoop {
	if val.IsNull() {
		return loopEmpty // col <> NULL is never TRUE
	}
	switch kind {
	case types.KindInt, types.KindDate:
		switch val.Kind() {
		case types.KindInt, types.KindDate:
			return loopIntInt
		case types.KindFloat:
			return loopIntFloat
		}
	case types.KindFloat:
		if val.IsNumeric() {
			return loopFloat
		}
	case types.KindString:
		if val.Kind() == types.KindString {
			return loopStr
		}
	}
	return loopFallback
}

// Typed reports whether stage i runs a type-specialized loop (as opposed
// to the per-row fallback). Exposed for tests and benchmarks.
func (p *PredProgram) Typed(i int) bool {
	s := &p.Stages[i]
	switch s.Mode {
	case StageRange, StageNe:
		return s.loop != loopFallback
	case StageIsNull, StageIsNotNull, StageColCol:
		return true
	default:
		return false
	}
}

// ProvableTrue reports whether the stage is TRUE for every row of a page
// whose column summary is min/max over its non-null values (NULL datums when
// the page has none) with the given null and row counts. A provably-true
// stage may be skipped for the page without evaluating any row. Numeric
// bounds take scalar compares (see NumInterval); the verdict is the Interval
// algebra's either way.
func (s *Stage) ProvableTrue(min, max types.Datum, nulls, rows int64) bool {
	if min.IsNull() && (s.Mode == StageRange || s.Mode == StageNe) {
		return false
	}
	lo, okLo := numOf(min)
	hi, okHi := numOf(max)
	if v, ok := s.ProvableTrueNum(lo, hi, okLo && okHi, nulls, rows); ok {
		return v
	}
	switch s.Mode {
	case StageRange:
		return Between(min, max, true, true).CoveredBy(s.Iv)
	case StageNe:
		return Between(min, max, true, true).Disjoint(Point(s.Ne))
	default:
		return false
	}
}

// ProvableTrueNum is ProvableTrue over a page column summary whose bounds
// are unboxed: numeric says lo and hi hold the page's bounds (both INT, DATE
// or FLOAT), and is false for a page with no non-null value or with bounds of
// another kind. decided is false when only the Interval algebra over the
// bound datums can tell; the caller then asks ProvableTrue.
func (s *Stage) ProvableTrueNum(lo, hi Num, numeric bool, nulls, rows int64) (provable, decided bool) {
	switch s.Mode {
	case StageRange:
		switch {
		case nulls != 0 || rows == nulls:
			return false, true
		case numeric && s.numOK:
			return s.num.CoversNum(lo, hi), true
		}
		return false, false
	case StageNe:
		switch {
		case nulls != 0 || rows == nulls || s.Ne.IsNull():
			return false, true
		case numeric && s.numOK:
			return s.num.DisjointNum(lo, hi), true
		}
		return false, false
	case StageIsNotNull:
		return nulls == 0, true
	case StageIsNull:
		return rows > 0 && nulls == rows, true
	default:
		return false, true
	}
}

// RunStage filters sel (ascending positions in b's window) through stage i,
// writing survivors into out[:0] and returning the shrunk slice. out must
// have capacity ≥ len(sel) and may not alias sel.
func (p *PredProgram) RunStage(i int, b *vec.Batch, sel []int32, out []int32) ([]int32, error) {
	s := &p.Stages[i]
	out = out[:0]
	switch s.Mode {
	case StageRange:
		return s.runRange(b, sel, out)
	case StageNe:
		return s.runNe(b, sel, out)
	case StageColCol:
		return s.runColCol(b, sel, out)
	case StageIsNull, StageIsNotNull:
		wantNull := s.Mode == StageIsNull
		for _, idx := range sel {
			d, ok := b.Datum(int(idx), s.Col)
			if !ok {
				_, err := s.colRef.Eval(b.View(int(idx)))
				return nil, err
			}
			if d.IsNull() == wantNull {
				out = append(out, idx)
			}
		}
		return out, nil
	default:
		for _, idx := range sel {
			ok, err := EvalBool(s.Cond, b.View(int(idx)))
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, idx)
			}
		}
		return out, nil
	}
}

func (s *Stage) runRange(b *vec.Batch, sel, out []int32) ([]int32, error) {
	if s.loop == loopEmpty {
		return out, nil
	}
	iv := &s.Iv
	switch s.loop {
	case loopIntInt:
		if c := b.Col(s.Col, vec.ClassInt); c != nil {
			if !c.HasNulls && s.ints.ok {
				return s.ints.filter(c.Ints, sel, out), nil
			}
			var lo, hi int64
			if iv.HasLo {
				lo = iv.Lo.IntImage()
			}
			if iv.HasHi {
				hi = iv.Hi.IntImage()
			}
			for _, idx := range sel {
				if c.Nulls[idx] {
					continue
				}
				v := c.Ints[idx]
				if iv.HasLo && (v < lo || (v == lo && !iv.LoIncl)) {
					continue
				}
				if iv.HasHi && (v > hi || (v == hi && !iv.HiIncl)) {
					continue
				}
				out = append(out, idx)
			}
			return out, nil
		}
	case loopIntFloat:
		if c := b.Col(s.Col, vec.ClassInt); c != nil {
			var lo, hi float64
			if iv.HasLo {
				lo = iv.Lo.Float()
			}
			if iv.HasHi {
				hi = iv.Hi.Float()
			}
			for _, idx := range sel {
				if c.Nulls[idx] {
					continue
				}
				v := float64(c.Ints[idx])
				if iv.HasLo && (v < lo || (types.CompareFloat(v, lo) == 0 && !iv.LoIncl)) {
					continue
				}
				if iv.HasHi && (v > hi || (types.CompareFloat(v, hi) == 0 && !iv.HiIncl)) {
					continue
				}
				out = append(out, idx)
			}
			return out, nil
		}
	case loopFloat:
		if c := b.Col(s.Col, vec.ClassFloat); c != nil {
			var lo, hi float64
			if iv.HasLo {
				lo = iv.Lo.Float()
			}
			if iv.HasHi {
				hi = iv.Hi.Float()
			}
			for _, idx := range sel {
				if c.Nulls[idx] {
					continue
				}
				v := c.Floats[idx]
				if iv.HasLo {
					cc := types.CompareFloat(v, lo)
					if cc < 0 || (cc == 0 && !iv.LoIncl) {
						continue
					}
				}
				if iv.HasHi {
					cc := types.CompareFloat(v, hi)
					if cc > 0 || (cc == 0 && !iv.HiIncl) {
						continue
					}
				}
				out = append(out, idx)
			}
			return out, nil
		}
	case loopStr:
		if c := b.Col(s.Col, vec.ClassStr); c != nil {
			var lo, hi string
			if iv.HasLo {
				lo = iv.Lo.Str()
			}
			if iv.HasHi {
				hi = iv.Hi.Str()
			}
			for _, idx := range sel {
				if c.Nulls[idx] {
					continue
				}
				v := c.Strs[idx]
				if iv.HasLo && (v < lo || (v == lo && !iv.LoIncl)) {
					continue
				}
				if iv.HasHi && (v > hi || (v == hi && !iv.HiIncl)) {
					continue
				}
				out = append(out, idx)
			}
			return out, nil
		}
	}
	// Fallback: per-row interval containment via Datum.Compare — identical
	// ordering semantics, no extraction required.
	for _, idx := range sel {
		d, ok := b.Datum(int(idx), s.Col)
		if !ok {
			_, err := s.colRef.Eval(b.View(int(idx)))
			return nil, err
		}
		if iv.Contains(d) {
			out = append(out, idx)
		}
	}
	return out, nil
}

func (s *Stage) runNe(b *vec.Batch, sel, out []int32) ([]int32, error) {
	if s.loop == loopEmpty {
		return out, nil
	}
	switch s.loop {
	case loopIntInt:
		if c := b.Col(s.Col, vec.ClassInt); c != nil {
			ne := s.Ne.IntImage()
			for _, idx := range sel {
				if !c.Nulls[idx] && c.Ints[idx] != ne {
					out = append(out, idx)
				}
			}
			return out, nil
		}
	case loopIntFloat:
		if c := b.Col(s.Col, vec.ClassInt); c != nil {
			ne := s.Ne.Float()
			for _, idx := range sel {
				if !c.Nulls[idx] && types.CompareFloat(float64(c.Ints[idx]), ne) != 0 {
					out = append(out, idx)
				}
			}
			return out, nil
		}
	case loopFloat:
		if c := b.Col(s.Col, vec.ClassFloat); c != nil {
			ne := s.Ne.Float()
			for _, idx := range sel {
				if !c.Nulls[idx] && types.CompareFloat(c.Floats[idx], ne) != 0 {
					out = append(out, idx)
				}
			}
			return out, nil
		}
	case loopStr:
		if c := b.Col(s.Col, vec.ClassStr); c != nil {
			ne := s.Ne.Str()
			for _, idx := range sel {
				if !c.Nulls[idx] && c.Strs[idx] != ne {
					out = append(out, idx)
				}
			}
			return out, nil
		}
	}
	for _, idx := range sel {
		v, ok := b.Datum(int(idx), s.Col)
		if !ok {
			_, err := s.colRef.Eval(b.View(int(idx)))
			return nil, err
		}
		if !v.IsNull() && v.Compare(s.Ne) != 0 {
			out = append(out, idx)
		}
	}
	return out, nil
}

// colColStage compiles e when it compares a column with another column, bare
// or offset by a constant (col op col2, col op col2 + k, col op col2 - k,
// col op k + col2, with the bare column on either side), and both sides are
// INT, DATE or FLOAT in a combination whose arithmetic never fails by kind:
// a DATE is never added to a FLOAT, nor two DATEs to each other, nor a DATE
// subtracted from anything. The loop then computes what Binary.Eval does:
// the right side sums in int64, wrapping, when col2 and k are INT or DATE,
// and in float64 when either is FLOAT, and the two sides compare as
// Datum.Compare compares them — as integers when neither is FLOAT, by
// types.CompareFloat otherwise.
func colColStage(e Expr) (Stage, bool) {
	b, ok := e.(*Binary)
	if !ok || !b.Op.IsComparison() {
		return Stage{}, false
	}
	op := b.Op
	col, isCol := b.L.(*Column)
	other := b.R
	if !isCol {
		col, isCol = b.R.(*Column)
		other, op = b.L, op.Swap()
	}
	if !isCol || col.Index < 0 {
		return Stage{}, false
	}
	st := Stage{Mode: StageColCol, Col: col.Index, Kind: col.Kind, Op: op, Cond: e, colRef: col, Add: types.Null}
	var col2 *Column
	switch o := other.(type) {
	case *Column:
		col2 = o
	case *Binary:
		var k *Const
		switch {
		case o.Op == OpAdd || o.Op == OpSub:
			col2, _ = o.L.(*Column)
			k, _ = o.R.(*Const)
			if o.Op == OpAdd && col2 == nil {
				col2, _ = o.R.(*Column)
				k, _ = o.L.(*Const)
			}
		}
		if col2 == nil || k == nil || k.Value.IsNull() {
			return Stage{}, false
		}
		st.Add, st.Sub = k.Value, o.Op == OpSub
	default:
		return Stage{}, false
	}
	if col2.Index < 0 || !numericKind(col.Kind) || !numericKind(col2.Kind) || (!st.Add.IsNull() && !numericKind(st.Add.Kind())) {
		return Stage{}, false
	}
	st.Col2, st.Kind2 = col2.Index, col2.Kind
	if !st.Add.IsNull() {
		ka, kb := col2.Kind, st.Add.Kind()
		dates := ka == types.KindDate || kb == types.KindDate
		floats := ka == types.KindFloat || kb == types.KindFloat
		if dates && (floats || (ka == kb) || (st.Sub && kb == types.KindDate)) {
			return Stage{}, false
		}
	}
	return st, true
}

func numericKind(k types.Kind) bool {
	return k == types.KindInt || k == types.KindDate || k == types.KindFloat
}

// holds reports whether a comparison that orders c by Op holds.
func holds(op Op, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// floatAt reads position i of a numeric column of kind k as a float64.
func floatAt(c *vec.Col, k types.Kind, i int32) float64 {
	if k == types.KindFloat {
		return c.Floats[i]
	}
	return float64(c.Ints[i])
}

func (s *Stage) runColCol(b *vec.Batch, sel, out []int32) ([]int32, error) {
	k1, k2 := b.Col(s.Col, vec.ClassOf(s.Kind)), b.Col(s.Col2, vec.ClassOf(s.Kind2))
	if k1 == nil || k2 == nil {
		// Not a typed batch of these kinds: tree-walk.
		for _, idx := range sel {
			ok, err := EvalBool(s.Cond, b.View(int(idx)))
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, idx)
			}
		}
		return out, nil
	}
	leftFloat := s.Kind == types.KindFloat
	if s.Kind2 != types.KindFloat && s.Add.Kind() != types.KindFloat {
		var add int64
		if !s.Add.IsNull() {
			add = s.Add.IntImage()
			if s.Sub {
				add = -add // wraps exactly as x - k does
			}
		}
		for _, idx := range sel {
			if k1.Nulls[idx] || k2.Nulls[idx] {
				continue
			}
			r := k2.Ints[idx] + add
			c := 0
			if leftFloat {
				c = types.CompareFloat(k1.Floats[idx], float64(r))
			} else {
				c = cmpInt(k1.Ints[idx], r)
			}
			if holds(s.Op, c) {
				out = append(out, idx)
			}
		}
		return out, nil
	}
	var add float64
	if !s.Add.IsNull() {
		add = s.Add.Float()
	}
	for _, idx := range sel {
		if k2.Nulls[idx] {
			continue
		}
		r := floatAt(k2, s.Kind2, idx)
		if !s.Add.IsNull() {
			if s.Sub {
				r -= add
			} else {
				r += add
			}
			if math.IsNaN(r) {
				// The sum fails to evaluate, whatever the other side holds.
				_, err := EvalBool(s.Cond, b.View(int(idx)))
				return nil, err
			}
		}
		if k1.Nulls[idx] {
			continue
		}
		if holds(s.Op, types.CompareFloat(floatAt(k1, s.Kind, idx), r)) {
			out = append(out, idx)
		}
	}
	return out, nil
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
