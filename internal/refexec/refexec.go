// Package refexec is softdb's reference interpreter. It evaluates the logical
// plan plan.Builder produces — views expanded, nothing rewritten, nothing
// optimized — directly against the heaps at one MVCC snapshot, and shares no
// code with what it checks: it imports none of exec, opt, rewrite, vec,
// btree or stats (a test enforces it).
//
// Scans walk every slot through Heap.ScanAt (no synopsis, frozen image or
// index) and apply their filter with expr.EvalBool; estimation-only and
// prune-only predicates and pinned indexes are ignored, since none of them
// may change an answer. Joins hash on bare-column equalities and otherwise
// loop; aggregates keep their own accumulators. The paper's contract is that
// a soft characterization may change a plan and never an answer, so the
// engine's answer to a query must equal this one.
package refexec

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/sql"
	"softdb/internal/storage"
	"softdb/internal/types"
)

// Run evaluates n at snapshot snap as transaction tid (0 for none; its own
// writes are visible) and returns the rows, which the caller owns. snap is a
// storage snapshot: storage.SnapLatest reads the latest committed state.
// Cancellation of ctx is observed every few thousand rows.
func Run(ctx context.Context, n plan.Node, snap, tid int64) ([]types.Row, error) {
	in := &interp{ctx: ctx, snap: snap, tid: tid}
	return in.eval(n)
}

type interp struct {
	ctx       context.Context
	snap, tid int64
	work      int
}

// tick counts one row of work and reports a canceled context every 4096.
func (in *interp) tick() error {
	if in.work++; in.work%4096 == 0 {
		return in.ctx.Err()
	}
	return nil
}

func (in *interp) eval(n plan.Node) ([]types.Row, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return in.scan(t)
	case *plan.JoinGroup:
		return in.join(t)
	case *plan.Aggregate:
		return in.aggregate(t)
	case *plan.Empty:
		return nil, nil
	case *plan.UnionAll:
		var out []types.Row
		for _, arm := range t.Arms {
			rows, err := in.eval(arm)
			if err != nil {
				return nil, err
			}
			out = append(out, rows...)
		}
		return out, nil
	}
	kids := n.Inputs()
	if len(kids) != 1 {
		return nil, fmt.Errorf("refexec: unsupported plan node %T", n)
	}
	rows, err := in.eval(kids[0])
	if err != nil {
		return nil, err
	}
	switch t := n.(type) {
	case *plan.Derived:
		return rows, nil
	case *plan.Filter:
		out := rows[:0]
		for _, r := range rows {
			ok, err := holds(t.Conds, r)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, r)
			}
		}
		return out, nil
	case *plan.Project:
		for i, r := range rows {
			p := make(types.Row, len(t.Exprs))
			for j, e := range t.Exprs {
				if p[j], err = e.Eval(r); err != nil {
					return nil, err
				}
			}
			rows[i] = p
		}
		return rows, nil
	case *plan.Distinct:
		seen := map[string]bool{}
		out := rows[:0]
		for _, r := range rows {
			if k := string(types.AppendKey(nil, r...)); !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
		return out, nil
	case *plan.Sort:
		sort.SliceStable(rows, func(i, j int) bool {
			for _, k := range t.Keys {
				if c := rows[i][k.Ordinal].Compare(rows[j][k.Ordinal]); c != 0 {
					return (c < 0) != k.Desc
				}
			}
			return false
		})
		return rows, nil
	case *plan.Limit:
		return rows[:min(int64(len(rows)), max(t.N, 0))], nil
	}
	return nil, fmt.Errorf("refexec: unsupported plan node %T", n)
}

// holds reports whether every conjunct is TRUE for row.
func holds(conds []expr.Expr, row types.Row) (bool, error) {
	for _, c := range conds {
		if ok, err := expr.EvalBool(c, row); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// scan reads every row of the scan's heap visible at the snapshot that passes
// its filter.
func (in *interp) scan(s *plan.Scan) ([]types.Row, error) {
	h := s.EntryHeap()
	if h == nil {
		return nil, fmt.Errorf("refexec: %s has no stored rows", s.Table)
	}
	var out []types.Row
	var err error
	h.ScanAt(in.snap, in.tid, nil, func(_ storage.RowID, row types.Row) bool {
		var ok bool
		if err = in.tick(); err == nil {
			ok, err = holds(s.Filter, row)
		}
		if ok {
			out = append(out, row.Clone())
		}
		return err == nil
	})
	return out, err
}

// join evaluates an inner join group. Every intermediate row is as wide as
// the group's whole schema, so conjuncts, bound to the concatenation of the
// inputs in binding order, evaluate on it as they stand. Inputs join one at a
// time, starting with the first and preferring one that a bare-column
// equality links to those already in, which is then hashed (keyed by
// types.AppendKey); a conjunct runs as soon as every input it reads is in.
func (in *interp) join(j *plan.JoinGroup) ([]types.Row, error) {
	n := len(j.Tables)
	inputs := make([][]types.Row, n)
	off := make([]int, n+1) // off[i] is input i's first ordinal, off[n] the width
	for i, t := range j.Tables {
		rows, err := in.eval(t)
		if err != nil {
			return nil, err
		}
		inputs[i] = rows
		off[i+1] = off[i] + len(t.Cols())
	}
	owner := func(ord int) int { return sort.SearchInts(off[1:], ord+1) }
	reads := make([][]int, len(j.Conjuncts))
	for c, e := range j.Conjuncts {
		for _, ord := range expr.ColumnIndexes(e) {
			reads[c] = append(reads[c], owner(ord))
		}
	}
	joined := make([]bool, n)
	applied := make([]bool, len(j.Conjuncts))
	// ready takes the conjuncts the joined inputs now cover.
	ready := func() []expr.Expr {
		var out []expr.Expr
	next:
		for c, e := range j.Conjuncts {
			if applied[c] {
				continue
			}
			for _, i := range reads[c] {
				if !joined[i] {
					continue next
				}
			}
			applied[c] = true
			out = append(out, e)
		}
		return out
	}
	// links returns input i's bare-column equalities with the joined inputs:
	// the joined side's ordinals and input i's. An equality of INT or DATE
	// with FLOAT is left to its conjunct, which compares in FLOAT.
	links := func(i int) (lk, rk []int) {
		for c, e := range j.Conjuncts {
			b, ok := e.(*expr.Binary)
			if applied[c] || !ok || b.Op != expr.OpEq {
				continue
			}
			l, lok := b.L.(*expr.Column)
			r, rok := b.R.(*expr.Column)
			if !lok || !rok || types.KeyInFloat(l.Kind, r.Kind) {
				continue
			}
			if li, ri := owner(l.Index), owner(r.Index); ri == i && joined[li] {
				lk, rk = append(lk, l.Index), append(rk, r.Index)
			} else if li == i && joined[ri] {
				lk, rk = append(lk, r.Index), append(rk, l.Index)
			}
		}
		return lk, rk
	}

	rows := []types.Row{make(types.Row, off[n])}
	for step := 0; step < n; step++ {
		next, lk, rk := -1, []int(nil), []int(nil)
		for i := 0; i < n && lk == nil; i++ {
			if !joined[i] {
				if next < 0 {
					next = i
				}
				if lk, rk = links(i); lk != nil {
					next = i
				}
			}
		}
		joined[next] = true
		conds := ready()
		var out []types.Row
		combine := func(l, r types.Row) error {
			if err := in.tick(); err != nil {
				return err
			}
			w := make(types.Row, off[n])
			copy(w, l)
			copy(w[off[next]:], r)
			ok, err := holds(conds, w)
			if ok {
				out = append(out, w)
			}
			return err
		}
		matches := func(types.Row) []types.Row { return inputs[next] }
		if lk != nil {
			table := map[string][]types.Row{}
			for _, r := range inputs[next] {
				if k, ok := hashKey(r, rk, off[next]); ok {
					table[k] = append(table[k], r)
				}
			}
			matches = func(l types.Row) []types.Row {
				k, ok := hashKey(l, lk, 0)
				if !ok {
					return nil
				}
				return table[k]
			}
		}
		for _, l := range rows {
			for _, r := range matches(l) {
				if err := combine(l, r); err != nil {
					return nil, err
				}
			}
		}
		rows = out
	}
	return rows, nil
}

// hashKey is the key image of row's values at ords (shifted by base); ok is
// false when one is NULL, which no equality matches.
func hashKey(row types.Row, ords []int, base int) (string, bool) {
	vals := make(types.Row, len(ords))
	for i, ord := range ords {
		if vals[i] = row[ord-base]; vals[i].IsNull() {
			return "", false
		}
	}
	return string(types.AppendKey(nil, vals...)), true
}

// ErrSumOverflow is the cause of the error a SUM fails with when the exact
// total of its integer values leaves the INT range.
var ErrSumOverflow = errors.New("SUM overflows INT")

// acc accumulates one aggregate over one group.
type acc struct {
	count int64
	// ihi:isum is the exact 128-bit total of the integer values summed.
	ihi, isum int64
	fsum      float64
	float     bool // a FLOAT value was summed
	best      types.Datum
	distinct  map[string]bool
}

func (a *acc) add(spec plan.AggSpec, row types.Row) error {
	if spec.Kind == sql.AggCountStar {
		a.count++
		return nil
	}
	v, err := spec.Arg.Eval(row)
	if err != nil || v.IsNull() {
		return err
	}
	a.count++
	switch spec.Kind {
	case sql.AggCountDistinct:
		if a.distinct == nil {
			a.distinct = map[string]bool{}
		}
		a.distinct[string(types.AppendKey(nil, v))] = true
	case sql.AggSum, sql.AggAvg:
		switch v.Kind() {
		case types.KindFloat:
			a.float = true
		case types.KindInt, types.KindDate, types.KindBool:
			i := v.IntImage()
			lo, carry := bits.Add64(uint64(a.isum), uint64(i), 0)
			a.isum, a.ihi = int64(lo), a.ihi+int64(carry)+i>>63
		default:
			return fmt.Errorf("refexec: cannot SUM or AVG a %s value", v.Kind())
		}
		a.fsum += v.Float()
	case sql.AggMin:
		if a.count == 1 || v.Compare(a.best) < 0 {
			a.best = v
		}
	case sql.AggMax:
		if a.count == 1 || v.Compare(a.best) > 0 {
			a.best = v
		}
	}
	return nil
}

// result finalizes the aggregate; kind is its output column's kind. An
// integer SUM whose exact total does not fit an INT is an error.
func (a *acc) result(spec sql.AggKind, kind types.Kind) (types.Datum, error) {
	switch {
	case spec == sql.AggCountStar || spec == sql.AggCount:
		return types.NewInt(a.count), nil
	case spec == sql.AggCountDistinct:
		return types.NewInt(int64(len(a.distinct))), nil
	case a.count == 0:
		return types.Null, nil
	case spec == sql.AggAvg:
		return types.NewFloatChecked(a.fsum / float64(a.count))
	case spec != sql.AggSum:
		return a.best, nil
	case kind == types.KindFloat || a.float:
		return types.NewFloatChecked(a.fsum)
	case a.ihi != a.isum>>63:
		return types.Null, ErrSumOverflow
	}
	return types.NewInt(a.isum), nil
}

// aggregate groups by every GroupBy expression (redundant ones included) and
// emits groups in ascending key order; with no GroupBy it yields one row
// even over no input.
func (in *interp) aggregate(a *plan.Aggregate) ([]types.Row, error) {
	rows, err := in.eval(a.Input)
	if err != nil {
		return nil, err
	}
	type group struct {
		key  types.Row
		accs []acc
	}
	byKey := map[string]*group{}
	var groups []*group
	for _, r := range rows {
		key := make(types.Row, len(a.GroupBy))
		for i, g := range a.GroupBy {
			if key[i], err = g.Eval(r); err != nil {
				return nil, err
			}
		}
		k := string(types.AppendKey(nil, key...))
		grp := byKey[k]
		if grp == nil {
			grp = &group{key: key, accs: make([]acc, len(a.Aggs))}
			byKey[k] = grp
			groups = append(groups, grp)
		}
		for i, spec := range a.Aggs {
			if err := grp.accs[i].add(spec, r); err != nil {
				return nil, err
			}
		}
	}
	if len(a.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, &group{accs: make([]acc, len(a.Aggs))})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key.Compare(groups[j].key) < 0 })
	cols := a.Cols()
	kinds := cols[len(cols)-len(a.Aggs):]
	out := make([]types.Row, len(groups))
	for gi, grp := range groups {
		row := append(make(types.Row, 0, len(grp.key)+len(a.Aggs)), grp.key...)
		for i, spec := range a.Aggs {
			v, err := grp.accs[i].result(spec.Kind, kinds[i].Kind)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out[gi] = row
	}
	return out, nil
}

// Diff compares an answer with the reference's and describes the first
// difference, or returns "" when they agree. Rows are compared in order when
// ordered, and as multisets otherwise. FLOAT values are compared at four
// decimals, as softbench's correctness gate does, since a sum over a
// different row order may differ in its last bits.
func Diff(got, want []types.Row, ordered bool) string {
	g, w := render(got, ordered), render(want, ordered)
	if len(g) != len(w) {
		return fmt.Sprintf("%d rows, reference %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("row %d is %s, reference %s", i, g[i], w[i])
		}
	}
	return ""
}

func render(rows []types.Row, ordered bool) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, d := range row {
			if d.Kind() == types.KindFloat {
				parts[j] = strconv.FormatFloat(d.Float(), 'f', 4, 64)
			} else {
				parts[j] = d.String()
			}
		}
		out[i] = "(" + strings.Join(parts, ", ") + ")"
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}
