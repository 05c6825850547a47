package mining

import (
	"cmp"
	"fmt"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/schema"
	"softdb/internal/storage"
	"softdb/internal/vec"
)

// MineRanges produces Sybase-style min/max soft constraints: for every
// orderable column with at least minRows non-null values, a check
// constraint `col BETWEEN min AND max` as an absolute soft constraint.
// These back range abbreviation in queries and single-column branch
// pruning.
func MineRanges(def *schema.Table, heap *storage.Heap, minRows int) []*catalog.Constraint {
	if minRows <= 0 {
		minRows = 16
	}
	cols := heap.Columns(nil)
	var out []*catalog.Constraint
	for i, col := range def.Columns {
		var n, lo, hi int
		switch cc := &cols[i]; cc.Class {
		case vec.ClassInt:
			n, lo, hi = extremes(cc.Ints, cc.Nulls)
		case vec.ClassFloat:
			n, lo, hi = extremes(cc.Floats, cc.Nulls)
		default:
			n, lo, hi = extremes(cc.Strs, cc.Nulls)
		}
		if n < minRows {
			continue
		}
		c := expr.NewColumn(def.Name, col.Name, i, col.Type)
		check := expr.And(
			expr.NewBinary(expr.OpGe, c, expr.NewConst(cols[i].Datum(col.Type, lo))),
			expr.NewBinary(expr.OpLe, c, expr.NewConst(cols[i].Datum(col.Type, hi))),
		)
		out = append(out, &catalog.Constraint{
			Name:       fmt.Sprintf("range_%s_%s", def.Name, col.Name),
			Kind:       catalog.Check,
			Mode:       catalog.ModeSoftAbsolute,
			Table:      def.Name,
			CheckExpr:  check,
			Confidence: 1,
			Active:     true,
		})
	}
	return out
}

// extremes counts a column's non-NULL values and finds the rows of the
// first smallest and the first largest of them (-1 when there are none).
func extremes[T cmp.Ordered](vals []T, nulls []bool) (n, lo, hi int) {
	lo, hi = -1, -1
	for r, v := range vals {
		if nulls[r] {
			continue
		}
		n++
		if lo < 0 || v < vals[lo] {
			lo = r
		}
		if hi < 0 || v > vals[hi] {
			hi = r
		}
	}
	return n, lo, hi
}
