package shard

import (
	"context"
	"fmt"
	"math/big"
	"slices"
	"strings"

	"softdb/internal/client"
	"softdb/internal/exec"
	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/sql"
	"softdb/internal/types"
)

// selectPlan is a multi-shard SELECT split into two phases of one plan: the
// statement every contacted shard runs, and the router's phase, a tree of
// the engine's own operators over the shards' rows (merge). Single-target
// queries never build one — they proxy verbatim, so every engine feature
// works unreduced on one shard.
//
// A shard's result is the original select items, so its row description
// carries the names one node would give, then the trailing helper columns
// helpers counts: a plain SELECT's ORDER BY keys, and an aggregate SELECT's
// AVG counts and the GROUP BY keys it does not select. An AVG item is sent
// as its FLOAT sum, and its name is rebuilt from its count's (names).
// The router's operators read the helpers and drop them, as the single-node
// builder drops its hidden sort columns.
type selectPlan struct {
	perShard *sql.Select
	helpers  int
	distinct bool
	// keys order the merged rows. An aggregate SELECT's ordinals index its
	// select items; a plain SELECT's index its helper columns.
	keys  []plan.SortKey
	limit int64 // -1: none
	// An aggregate SELECT's merge: groupBy are the per-shard ordinals of the
	// group key, and items says how each select item merges.
	groupBy []int
	items   []mergeItem
}

// mergeItem merges one select item of an aggregate SELECT. A GROUP BY
// passthrough (AggNone) reads group key position src; an aggregate folds the
// partial in per-shard column src (AVG: its FLOAT sum, with its count in
// src2; a split SUM: its high part, with its low part in src2).
type mergeItem struct {
	kind      sql.AggKind
	src, src2 int
	named     bool // an AVG with an alias
}

func errUnsupported(what string) error {
	return fmt.Errorf("shard: %s is not supported across shards (route the query to a single shard, or add a partition-key predicate)", what)
}

func exprKey(e expr.Expr) string { return strings.ToLower(e.String()) }

// planSelect splits s for fan-out over more than one shard.
func planSelect(s *sql.Select) (*selectPlan, error) {
	if s.UnionAll != nil {
		return nil, errUnsupported("UNION ALL")
	}
	if s.Having != nil {
		return nil, errUnsupported("HAVING")
	}
	if len(s.GroupBy) == 0 && !slices.ContainsFunc(s.Items, func(it sql.SelectItem) bool { return it.Agg != sql.AggNone }) {
		return planPlainSelect(s), nil
	}
	return planAggSelect(s)
}

// planPlainSelect handles projection-only queries: each shard runs the
// statement with its ORDER BY keys appended as helper columns (ORDER BY and
// LIMIT push down — a shard's top-k is a superset of its share of the global
// top-k), and the router dedupes under DISTINCT, sorts on the helpers, drops
// them and re-applies LIMIT.
func planPlainSelect(s *sql.Select) *selectPlan {
	perShard := *s
	perShard.Items = append([]sql.SelectItem(nil), s.Items...)
	p := &selectPlan{perShard: &perShard, distinct: s.Distinct, limit: s.Limit}
	for i, oi := range s.OrderBy {
		p.helper(sql.SelectItem{Expr: unalias(oi.Expr, s.Items)})
		p.keys = append(p.keys, plan.SortKey{Ordinal: i, Desc: oi.Desc})
	}
	return p
}

// unalias replaces an ORDER BY key naming a select item's alias with that
// item's expression, which the helper column can select.
func unalias(key expr.Expr, items []sql.SelectItem) expr.Expr {
	if c, ok := key.(*expr.Column); ok && c.Qualifier == "" {
		for _, it := range items {
			if it.Alias != "" && strings.EqualFold(it.Alias, c.Name) {
				return it.Expr
			}
		}
	}
	return key
}

// planAggSelect decomposes aggregates into per-shard partials: COUNT, SUM,
// MIN and MAX run as written and fold again at the router; AVG sends its
// FLOAT sum in its own place and its count as a helper, because one node's
// AVG sums in FLOAT (an exact INT sum could overflow on a shard where one
// node's AVG answers).
func planAggSelect(s *sql.Select) (*selectPlan, error) {
	if s.Distinct {
		return nil, errUnsupported("DISTINCT with aggregates")
	}
	perShard := &sql.Select{Items: slices.Clone(s.Items), From: s.From, Where: s.Where, GroupBy: s.GroupBy, Limit: -1}
	p := &selectPlan{perShard: perShard, limit: s.Limit, groupBy: make([]int, len(s.GroupBy))}
	for i := range p.groupBy {
		p.groupBy[i] = -1
	}
	for i, it := range s.Items {
		switch {
		case it.Star:
			return nil, errUnsupported("* with aggregates")
		case it.Agg == sql.AggCountDistinct:
			return nil, errUnsupported("COUNT(DISTINCT)")
		case it.Agg == sql.AggAvg:
			// The shard sums in FLOAT at the item's position, under the
			// item's alias; the count is a helper. An unaliased AVG takes
			// its name from the count's (see names).
			perShard.Items[i] = sql.SelectItem{Agg: sql.AggSum, Expr: expr.NewUnary(expr.OpFloat, it.Expr), Alias: it.Alias}
			count := p.helper(sql.SelectItem{Agg: sql.AggCount, Expr: it.Expr})
			p.items = append(p.items, mergeItem{kind: sql.AggAvg, src: i, src2: count, named: it.Alias != ""})
		case it.Agg != sql.AggNone:
			p.items = append(p.items, mergeItem{kind: it.Agg, src: i})
		default:
			g := slices.IndexFunc(s.GroupBy, func(g expr.Expr) bool { return exprKey(g) == exprKey(it.Expr) })
			if g < 0 {
				return nil, fmt.Errorf("shard: %s must appear in GROUP BY or an aggregate", it.Expr)
			}
			p.groupBy[g] = i
			p.items = append(p.items, mergeItem{kind: sql.AggNone, src: g})
		}
	}
	for g, at := range p.groupBy {
		if at < 0 {
			p.groupBy[g] = p.helper(sql.SelectItem{Expr: s.GroupBy[g]})
		}
	}
	for _, oi := range s.OrderBy {
		i := groupedOrderItem(oi.Expr, s.Items)
		if i < 0 {
			return nil, fmt.Errorf("shard: ORDER BY %s must reference the select list of a grouped query", oi.Expr)
		}
		p.keys = append(p.keys, plan.SortKey{Ordinal: i, Desc: oi.Desc})
	}
	return p, nil
}

// helper appends a helper column to the per-shard statement.
func (p *selectPlan) helper(it sql.SelectItem) int {
	p.perShard.Items = append(p.perShard.Items, it)
	p.helpers++
	return len(p.perShard.Items) - 1
}

// split is the radix a split SUM cuts its values at.
const split = 1 << 32

// splitSums sends every SUM as the sums of its values' high and low parts
// (x / 2^32 and x - x / 2^32 * 2^32 in INT arithmetic), neither of which
// can leave the INT range on a shard, for the router to add back exactly
// (wideSum). A SUM whose partial overflowed on one shard may still fit
// overall, as one node's exact sum does.
func (p *selectPlan) splitSums() {
	per := *p.perShard
	per.Items = append([]sql.SelectItem(nil), per.Items...)
	p.perShard = &per
	radix := expr.NewConst(types.NewInt(split))
	for i, it := range p.items {
		if it.kind != sql.AggSum {
			continue
		}
		x := per.Items[it.src].Expr
		hi := expr.NewBinary(expr.OpDiv, x, radix)
		per.Items[it.src].Expr = hi
		p.items[i].src2 = p.helper(sql.SelectItem{Agg: sql.AggSum,
			Expr: expr.NewBinary(expr.OpSub, x, expr.NewBinary(expr.OpMul, hi, radix))})
	}
}

// wideSum adds a split SUM's parts, in columns hi and lo, back together:
// hi * 2^32 + lo, exactly when both are INT — failing as one node's SUM does
// when the total leaves the INT range — and in FLOAT when they are FLOAT.
type wideSum struct{ hi, lo int }

func (w *wideSum) Eval(row types.Row) (types.Datum, error) {
	h, l := row[w.hi], row[w.lo]
	switch {
	case h.IsNull():
		return types.Null, nil
	case h.Kind() == types.KindFloat || l.Kind() == types.KindFloat:
		return types.NewFloatChecked(h.Float()*split + l.Float())
	}
	t := new(big.Int).Lsh(big.NewInt(h.Int()), 32)
	if !t.Add(t, big.NewInt(l.Int())).IsInt64() {
		// The total is the router's HashAggregate SUM, finished here.
		return types.Null, &exec.QueryError{Op: "HashAggregate", Kind: exec.KindError, Err: exec.ErrSumOverflow}
	}
	return types.NewInt(t.Int64()), nil
}

func (w *wideSum) Type() types.Kind { return types.KindNull }

func (w *wideSum) String() string { return fmt.Sprintf("(#%d * %d + #%d)", w.hi, split, w.lo) }

// groupedOrderItem maps a grouped query's ORDER BY key to the select item it
// names, as the single-node builder binds it: by alias, by the name of a
// bare-column item, or by the written form of a non-aggregate item.
func groupedOrderItem(key expr.Expr, items []sql.SelectItem) int {
	if c, ok := key.(*expr.Column); ok && c.Qualifier == "" {
		for i, it := range items {
			name := it.Alias
			if ic, ok := it.Expr.(*expr.Column); ok && name == "" && it.Agg == sql.AggNone {
				name = ic.Name
			}
			if strings.EqualFold(name, c.Name) {
				return i
			}
		}
	}
	for i, it := range items {
		if it.Agg == sql.AggNone && exprKey(it.Expr) == exprKey(key) {
			return i
		}
	}
	return -1
}

// col references column i of the operator below.
func col(i int) expr.Expr { return typedCol(i, types.KindNull) }

// typedCol references column i of the operator below as being of kind k.
func typedCol(i int, k types.Kind) expr.Expr {
	return expr.NewColumn("", fmt.Sprintf("#%d", i), i, k)
}

// sharedKind returns the kind the non-NULL values of column i of rows
// share: KindNull when they are of mixed kinds or all NULL. The shards'
// wire rows carry no column types; a typed group key lets HashAggregate
// take its typed keyer.
func sharedKind(rows []types.Row, i int) types.Kind {
	kind := types.KindNull
	for _, r := range rows {
		switch k := r[i].Kind(); {
		case k == types.KindNull || k == kind:
		case kind == types.KindNull:
			kind = k
		default:
			return types.KindNull
		}
	}
	return kind
}

// merge builds the router's phase over rows, the shards' rows in shard
// order, each width columns wide: Values, then HashAggregate and a Project
// onto the select items, or Distinct; then Sort, a Project that drops the
// helper columns, and Limit.
func (p *selectPlan) merge(rows []types.Row, width, shards int) exec.Operator {
	var top exec.Operator = &exec.Values{Rows: rows, Desc: fmt.Sprintf("Values [rows of %d shards]", shards)}
	// A plain SELECT's keys index its helpers, after its items; an
	// aggregate SELECT's index its projected items.
	at := width - p.helpers
	if p.items != nil {
		top, at = p.aggregate(top, rows), 0
	} else if p.distinct {
		top = &exec.Distinct{Input: top}
	}
	if len(p.keys) > 0 {
		keys := slices.Clone(p.keys)
		for i := range keys {
			keys[i].Ordinal += at
		}
		top = &exec.Sort{Input: top, Keys: keys}
	}
	if p.items == nil && p.helpers > 0 {
		cols := make([]expr.Expr, at)
		for i := range cols {
			cols[i] = col(i)
		}
		top = &exec.Project{Input: top, Exprs: cols}
	}
	if p.limit >= 0 {
		top = &exec.Limit{Input: top, N: p.limit}
	}
	return top
}

// aggregate folds the partial columns per group — COUNT partials sum, SUM
// sums, MIN and MAX take theirs, AVG divides its summed FLOAT sum by its
// summed count — and projects the select items. in yields rows; each
// group key is typed with the kind its values there share.
func (p *selectPlan) aggregate(in exec.Operator, rows []types.Row) exec.Operator {
	agg := &exec.HashAggregate{Input: in}
	for _, at := range p.groupBy {
		agg.GroupBy = append(agg.GroupBy, typedCol(at, sharedKind(rows, at)))
	}
	// fold adds an aggregate over per-shard column src; it returns the
	// aggregate's output column.
	fold := func(kind sql.AggKind, src int) int {
		agg.Aggs = append(agg.Aggs, plan.AggSpec{Kind: kind, Arg: col(src)})
		return len(agg.GroupBy) + len(agg.Aggs) - 1
	}
	outs := make([]expr.Expr, len(p.items))
	for i, it := range p.items {
		switch it.kind {
		case sql.AggNone:
			outs[i] = col(it.src)
		case sql.AggAvg:
			outs[i] = expr.NewBinary(expr.OpDiv, col(fold(sql.AggSum, it.src)), col(fold(sql.AggSum, it.src2)))
		case sql.AggCount, sql.AggCountStar:
			outs[i] = col(fold(sql.AggSum, it.src))
		case sql.AggSum:
			hi := fold(sql.AggSum, it.src)
			if outs[i] = col(hi); it.src2 > 0 {
				outs[i] = &wideSum{hi: hi, lo: fold(sql.AggSum, it.src2)}
			}
		default:
			outs[i] = col(fold(it.kind, it.src))
		}
	}
	return &exec.Project{Input: agg, Exprs: outs}
}

// run merges the shards' results, in shard order, through the router's
// phase under the session's context.
func (p *selectPlan) run(ctx context.Context, results []*client.Result) (*client.Result, error) {
	var rows []types.Row
	for _, res := range results {
		rows = append(rows, res.Rows...)
	}
	cols := results[0].Columns
	out, err := exec.Collect(p.merge(rows, len(cols), len(results)), exec.NewCtx(ctx, exec.CtxOptions{}), len(rows))
	if err != nil {
		return nil, err
	}
	return &client.Result{Columns: p.names(cols), Rows: out}, nil
}

// names returns the result's column names from the per-shard statement's,
// cols: the select items' own, where an unaliased AVG(x), which a shard
// answers as its FLOAT sum, is named as one node names it — "avg" and the
// rest of its count helper's name, "count(x)" with x bound as the shard
// bound it.
func (p *selectPlan) names(cols []string) []string {
	if p.items == nil {
		return cols[:len(cols)-p.helpers]
	}
	out := slices.Clone(cols[:len(p.items)])
	for i, it := range p.items {
		if it.kind == sql.AggAvg && !it.named {
			out[i] = "avg" + strings.TrimPrefix(cols[it.src2], "count")
		}
	}
	return out
}
