// Package stats implements softdb's runtime statistics: per-column
// min/max, null counts, distinct-value estimates, equi-depth histograms,
// and most-common-value lists, plus the selectivity estimation the
// cost-based optimizer builds cardinality estimates from. It is the
// analogue of DB2's runstats catalog statistics that the paper's
// statistical soft constraints extend.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"softdb/internal/expr"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// DefaultBuckets is the histogram resolution used by Collect.
const DefaultBuckets = 32

// DefaultMCVs is how many most-common values are kept per column.
const DefaultMCVs = 10

// ValueFreq is one most-common-value entry.
type ValueFreq struct {
	Value types.Datum
	Count int64
}

// Histogram is an equi-depth histogram. Bucket i spans (LowerBound(i),
// UpperBounds[i]] with Counts[i] rows and Distinct[i] distinct values;
// LowerBound(0) is just below Min.
type Histogram struct {
	UpperBounds []types.Datum
	Counts      []int64
	Distinct    []int64
	Total       int64
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.UpperBounds) }

// ColumnStats summarizes one column.
type ColumnStats struct {
	Column    string
	Kind      types.Kind
	RowCount  int64
	NullCount int64
	NDV       int64 // distinct non-null values
	Min, Max  types.Datum
	Hist      *Histogram
	MCVs      []ValueFreq
	// ClusterRatio is the fraction of adjacent storage-order row pairs
	// whose values are non-decreasing — DB2's CLUSTERRATIO analogue. 1.0
	// means an index range scan on this column touches contiguous pages.
	ClusterRatio float64
}

// TableStats summarizes one table at a point in time.
type TableStats struct {
	Table    string
	RowCount int64
	Pages    int64
	Columns  map[string]*ColumnStats // keyed by lower-cased column name
	Version  int64                   // heap version the stats were collected at
}

// Column returns stats for the named column (case-insensitive), or nil.
func (ts *TableStats) Column(name string) *ColumnStats {
	if ts == nil {
		return nil
	}
	return ts.Columns[strings.ToLower(name)]
}

// Collect reads the heap's columns and builds complete table statistics.
func Collect(heap *storage.Heap, buckets int) *TableStats {
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	def := heap.Def()
	ts := &TableStats{
		Table:    def.Name,
		RowCount: heap.RowCount(),
		Pages:    heap.PageCount(),
		Columns:  make(map[string]*ColumnStats, len(def.Columns)),
		Version:  heap.Version(),
	}
	cols := heap.Columns(nil)
	for i, c := range def.Columns {
		ts.Columns[strings.ToLower(c.Name)] = BuildColumnStats(c.Name, c.Type, &cols[i], buckets)
	}
	return ts
}

// BuildColumnStats computes statistics over one column's values in storage
// order, as Heap.Columns reads them: col holds the values in kind's class
// and its null mask. col is not modified.
func BuildColumnStats(name string, kind types.Kind, col *vec.Col, buckets int) *ColumnStats {
	cs := &ColumnStats{
		Column:   name,
		Kind:     kind,
		RowCount: int64(len(col.Nulls)),
		Min:      types.Null,
		Max:      types.Null,
	}
	for _, null := range col.Nulls {
		if null {
			cs.NullCount++
		}
	}
	switch col.Class {
	case vec.ClassInt:
		vals := nonNull(col.Ints, col.Nulls)
		switch kind {
		case types.KindDate:
			build(cs, vals, types.NewDate, buckets)
		case types.KindBool:
			build(cs, vals, func(v int64) types.Datum { return types.NewBool(v != 0) }, buckets)
		default:
			build(cs, vals, types.NewInt, buckets)
		}
	case vec.ClassFloat:
		vals := nonNull(col.Floats, col.Nulls)
		// −0 and +0 are one value; a run holding both is represented by +0
		// (a sort leaves which of them comes first to chance). x + 0 is x
		// for every other float.
		var neg, pos bool
		for _, f := range vals {
			neg = neg || f == 0 && math.Signbit(f)
			pos = pos || f == 0 && !math.Signbit(f)
		}
		if neg && pos {
			for i := range vals {
				vals[i] += 0
			}
		}
		build(cs, vals, types.NewFloat, buckets)
	case vec.ClassStr:
		build(cs, nonNull(col.Strs, col.Nulls), types.NewString, buckets)
	}
	return cs
}

// nonNull copies the non-NULL values of a column, in storage order.
func nonNull[T any](vals []T, nulls []bool) []T {
	out := make([]T, 0, len(vals))
	for i, v := range vals {
		if !nulls[i] {
			out = append(out, v)
		}
	}
	return out
}

// build fills cs from a column's non-NULL values in storage order: the
// cluster ratio, then — over the values sorted in place — min and max, the
// distinct count, the most common values and the equi-depth histogram.
// datum makes a value's datum.
func build[T cmp.Ordered](cs *ColumnStats, vals []T, datum func(T) types.Datum, buckets int) {
	cs.ClusterRatio = clusterRatio(vals)
	if len(vals) == 0 {
		return
	}
	slices.Sort(vals)
	cs.Min, cs.Max = datum(vals[0]), datum(vals[len(vals)-1])

	// Distinct count and the DefaultMCVs most common values (count
	// descending, then value ascending), among values seen more than once.
	type runFreq struct {
		v T
		n int64
	}
	top := make([]runFreq, 0, DefaultMCVs)
	for i := 0; i < len(vals); {
		j := runEnd(vals, i)
		cs.NDV++
		if n := int64(j - i); n > 1 {
			// Runs arrive in value order, so a tie keeps the earlier value.
			at := len(top)
			for at > 0 && top[at-1].n < n {
				at--
			}
			if at < DefaultMCVs {
				if len(top) < DefaultMCVs {
					top = append(top, runFreq{})
				}
				copy(top[at+1:], top[at:])
				top[at] = runFreq{vals[i], n}
			}
		}
		i = j
	}
	for _, r := range top {
		cs.MCVs = append(cs.MCVs, ValueFreq{Value: datum(r.v), Count: r.n})
	}

	// Equi-depth histogram over the sorted values.
	if int64(buckets) > cs.NDV {
		buckets = int(cs.NDV)
	}
	if buckets > 0 {
		h := &Histogram{Total: int64(len(vals))}
		target := max(len(vals)/buckets, 1)
		count, distinct := 0, int64(0)
		for i := 0; i < len(vals); {
			j := runEnd(vals, i)
			count += j - i
			distinct++
			if count >= target || j == len(vals) {
				h.UpperBounds = append(h.UpperBounds, datum(vals[i]))
				h.Counts = append(h.Counts, int64(count))
				h.Distinct = append(h.Distinct, distinct)
				count, distinct = 0, 0
			}
			i = j
		}
		cs.Hist = h
	}
}

// runEnd returns the end of the run of values equal to vals[i].
func runEnd[T cmp.Ordered](vals []T, i int) int {
	j := i + 1
	for j < len(vals) && vals[j] == vals[i] {
		j++
	}
	return j
}

// clusterRatio measures how well storage order agrees with value order.
func clusterRatio[T cmp.Ordered](vals []T) float64 {
	if len(vals) < 2 {
		return 1
	}
	asc := 0
	for i := 1; i < len(vals); i++ {
		if vals[i-1] <= vals[i] {
			asc++
		}
	}
	return float64(asc) / float64(len(vals)-1)
}

// nonNullFraction is the share of rows with a non-null value.
func (cs *ColumnStats) nonNullFraction() float64 {
	if cs.RowCount == 0 {
		return 0
	}
	return float64(cs.RowCount-cs.NullCount) / float64(cs.RowCount)
}

// SelectivityEq estimates the fraction of rows equal to v.
func (cs *ColumnStats) SelectivityEq(v types.Datum) float64 {
	if cs == nil || cs.RowCount == 0 {
		return defaultEqSelectivity
	}
	if v.IsNull() {
		return 0
	}
	nonNull := cs.RowCount - cs.NullCount
	if nonNull == 0 {
		return 0
	}
	for _, m := range cs.MCVs {
		if m.Value.Compare(v) == 0 {
			return float64(m.Count) / float64(cs.RowCount)
		}
	}
	if !cs.Min.IsNull() && (v.Compare(cs.Min) < 0 || v.Compare(cs.Max) > 0) {
		return 0
	}
	if cs.NDV > 0 {
		return 1 / float64(cs.NDV) * cs.nonNullFraction()
	}
	return defaultEqSelectivity
}

// SelectivityInterval estimates the fraction of rows whose value falls in iv
// using the histogram, assuming uniformity within buckets.
func (cs *ColumnStats) SelectivityInterval(iv expr.Interval) float64 {
	if iv.Empty() {
		return 0
	}
	if iv.IsUnbounded() {
		if cs == nil {
			return 1
		}
		return cs.nonNullFraction()
	}
	if iv.EqualityConstant != nil {
		return cs.SelectivityEq(*iv.EqualityConstant)
	}
	if cs == nil || cs.RowCount == 0 || cs.Hist == nil || cs.Hist.Total == 0 {
		return defaultRangeSelectivity
	}
	h := cs.Hist
	var covered float64
	lower := cs.Min
	for i, ub := range h.UpperBounds {
		bucket := expr.Between(lower, ub, i == 0, true)
		if bucket.Empty() {
			// Single-value bucket at the low edge.
			bucket = expr.Point(ub)
		}
		frac := overlapFraction(bucket, iv)
		covered += frac * float64(h.Counts[i])
		lower = ub
	}
	sel := covered / float64(cs.RowCount)
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// overlapFraction estimates what fraction of the bucket's rows fall inside
// iv, interpolating linearly for numeric bounds and falling back to coarse
// fractions otherwise.
func overlapFraction(bucket, iv expr.Interval) float64 {
	x := bucket.Intersect(iv)
	if x.Empty() {
		return 0
	}
	if bucket.CoveredBy(iv) {
		return 1
	}
	// Interpolate numerically where possible.
	if bucket.HasLo && bucket.HasHi && bucket.Lo.IsNumeric() && bucket.Hi.IsNumeric() {
		blo, bhi := bucket.Lo.Float(), bucket.Hi.Float()
		width := bhi - blo
		if width <= 0 {
			return 1
		}
		xlo, xhi := blo, bhi
		if x.HasLo {
			xlo = x.Lo.Float()
		}
		if x.HasHi {
			xhi = x.Hi.Float()
		}
		f := (xhi - xlo) / width
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		return f
	}
	return 0.5
}

// Default selectivities used when statistics are unavailable; the classic
// System R constants.
const (
	defaultEqSelectivity    = 0.1
	defaultRangeSelectivity = 1.0 / 3
	defaultNeSelectivity    = 0.9
	defaultOtherSelectivity = 1.0 / 3
)

// VirtualStat couples a virtual column's canonical expression with its
// collected distribution — §5.1's second mechanism for conveying SSC
// information to the optimizer.
type VirtualStat struct {
	// Canon is the expression's alias-insensitive rendering
	// (expr.Canonical over the bound expression).
	Canon string
	Stats *ColumnStats
}

// Estimator computes filter factors for predicate conjuncts over one
// table's rows using that table's statistics. EstimationPredicates are the
// paper's §5.1 "special predicates": they participate in selectivity
// estimation but are never applied to rows. Each carries the confidence of
// the SSC that generated it.
type Estimator struct {
	Stats *TableStats
	// ColumnName maps a bound ordinal to the column name in Stats.
	ColumnName func(ordinal int) string
	// Virtuals carries distribution statistics for expressions over the
	// table's columns; predicates whose non-constant side matches a
	// virtual column canonically are estimated from its histogram.
	Virtuals []VirtualStat
}

// EstimationPredicate is a predicate used only for cardinality estimation,
// twinned to an original predicate per §5.1.
type EstimationPredicate struct {
	Pred       expr.Expr
	Confidence float64 // fraction of rows for which the twinned form holds
	Source     string  // SSC name, for EXPLAIN
}

// Selectivity estimates the combined filter factor of the conjuncts,
// assuming independence across columns (the baseline the paper's SSCs
// improve upon). Interval-combinable conjuncts on the same column are
// folded first, so `a >= 5 AND a < 9` is one range, not two independent
// predicates.
func (e *Estimator) Selectivity(conjuncts []expr.Expr) float64 {
	if len(conjuncts) == 0 {
		return 1
	}
	sel := 1.0
	byColumn := map[int][]expr.Expr{}
	byVirtual := map[string][]expr.Interval{}
	var rest []expr.Expr
	for _, c := range conjuncts {
		cols := expr.ColumnIndexes(c)
		if len(cols) == 1 {
			byColumn[cols[0]] = append(byColumn[cols[0]], c)
			continue
		}
		// Multi-column predicate: try a virtual-column match (§5.1).
		if canon, iv, ok := e.virtualInterval(c); ok {
			byVirtual[canon] = append(byVirtual[canon], iv)
			continue
		}
		rest = append(rest, c)
	}
	cols := make([]int, 0, len(byColumn))
	for c := range byColumn {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	for _, ord := range cols {
		sel *= e.columnSelectivity(ord, byColumn[ord])
	}
	vkeys := make([]string, 0, len(byVirtual))
	for k := range byVirtual {
		vkeys = append(vkeys, k)
	}
	sort.Strings(vkeys)
	for _, k := range vkeys {
		iv := expr.Unbounded()
		for _, part := range byVirtual[k] {
			iv = iv.Intersect(part)
		}
		sel *= e.virtualStats(k).SelectivityInterval(iv)
	}
	for _, c := range rest {
		sel *= e.singleSelectivity(c)
	}
	return clamp01(sel)
}

// virtualInterval matches a predicate against the registered virtual
// columns, returning the canonical key and the implied interval.
func (e *Estimator) virtualInterval(c expr.Expr) (string, expr.Interval, bool) {
	if len(e.Virtuals) == 0 {
		return "", expr.Interval{}, false
	}
	lhs, op, val, ok := expr.DecomposeComparison(c)
	if !ok {
		return "", expr.Interval{}, false
	}
	canon := expr.Canonical(lhs)
	if e.virtualStats(canon) == nil {
		return "", expr.Interval{}, false
	}
	iv, ok := expr.IntervalForOp(op, val)
	if !ok {
		return "", expr.Interval{}, false
	}
	return canon, iv, true
}

func (e *Estimator) virtualStats(canon string) *ColumnStats {
	for _, v := range e.Virtuals {
		if v.Canon == canon && v.Stats != nil {
			return v.Stats
		}
	}
	return nil
}

// SelectivityWithSSCs estimates selectivity after replacing original
// predicates with their twinned estimation predicates where that produces a
// tighter estimate, scaling by the SSC confidence. This implements the
// paper's §5.1 proposal: the twinned predicate is reduced to a range on a
// single column (where statistics are reliable) and the confidence factor
// bounds the error introduced by the rewrite.
func (e *Estimator) SelectivityWithSSCs(conjuncts []expr.Expr, twinned []EstimationPredicate) float64 {
	if len(twinned) == 0 {
		return e.Selectivity(conjuncts)
	}
	// The twinned predicates land on columns that already carry original
	// predicates; folding them into the same per-column interval replaces
	// the cross-column independence product with a single-column histogram
	// lookup on the column whose statistics are reliable.
	all := append([]expr.Expr(nil), conjuncts...)
	confidence := 1.0
	for _, tp := range twinned {
		all = append(all, tp.Pred)
		confidence *= tp.Confidence
	}
	sel := e.Selectivity(all)
	// The twin only holds for `confidence` of rows: rows outside the SSC
	// may still satisfy the original predicates, so the true selectivity is
	// bounded by sel*conf + (1-conf). We report the confidence-weighted
	// estimate, which is the paper's "statistical adjustment".
	adjusted := sel*confidence + (1-confidence)*e.Selectivity(conjuncts)
	return clamp01(adjusted)
}

func (e *Estimator) columnSelectivity(ord int, conjuncts []expr.Expr) float64 {
	iv, rest := expr.ExtractInterval(conjuncts, ord)
	sel := 1.0
	if !iv.IsUnbounded() {
		var cs *ColumnStats
		if e.ColumnName != nil && e.Stats != nil {
			cs = e.Stats.Column(e.ColumnName(ord))
		}
		sel = cs.SelectivityInterval(iv)
	}
	for _, c := range rest {
		sel *= e.singleSelectivity(c)
	}
	return sel
}

func (e *Estimator) singleSelectivity(c expr.Expr) float64 {
	switch n := c.(type) {
	case *expr.Binary:
		switch n.Op {
		case expr.OpEq:
			return defaultEqSelectivity
		case expr.OpNe:
			return defaultNeSelectivity
		case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			return defaultRangeSelectivity
		case expr.OpOr:
			l := e.singleSelectivity(n.L)
			r := e.singleSelectivity(n.R)
			return clamp01(l + r - l*r)
		case expr.OpAnd:
			return e.singleSelectivity(n.L) * e.singleSelectivity(n.R)
		}
	case *expr.Unary:
		switch n.Op {
		case expr.OpIsNull:
			if col, ok := n.X.(*expr.Column); ok && e.Stats != nil && e.ColumnName != nil {
				if cs := e.Stats.Column(e.ColumnName(col.Index)); cs != nil && cs.RowCount > 0 {
					return float64(cs.NullCount) / float64(cs.RowCount)
				}
			}
			return 0.05
		case expr.OpIsNotNull:
			if col, ok := n.X.(*expr.Column); ok && e.Stats != nil && e.ColumnName != nil {
				if cs := e.Stats.Column(e.ColumnName(col.Index)); cs != nil && cs.RowCount > 0 {
					return 1 - float64(cs.NullCount)/float64(cs.RowCount)
				}
			}
			return 0.95
		case expr.OpNot:
			return clamp01(1 - e.singleSelectivity(n.X))
		}
	case *expr.InList:
		return clamp01(float64(len(n.List)) * defaultEqSelectivity)
	case *expr.Like:
		if n.Negate {
			return defaultNeSelectivity
		}
		return defaultEqSelectivity
	case *expr.Const:
		if expr.IsConstFalse(n) {
			return 0
		}
		return 1
	}
	return defaultOtherSelectivity
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// String renders a compact summary of column statistics.
func (cs *ColumnStats) String() string {
	if cs == nil {
		return "<no stats>"
	}
	return fmt.Sprintf("%s: rows=%d nulls=%d ndv=%d min=%s max=%s buckets=%d mcvs=%d",
		cs.Column, cs.RowCount, cs.NullCount, cs.NDV, cs.Min, cs.Max,
		func() int {
			if cs.Hist == nil {
				return 0
			}
			return cs.Hist.Buckets()
		}(), len(cs.MCVs))
}
