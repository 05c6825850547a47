package shard

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"softdb/internal/exec"
	"softdb/internal/expr"
	"softdb/internal/sql"
	"softdb/internal/types"
)

// selectPlan is a multi-shard SELECT's split into a per-shard statement
// and a router-side merge. Single-target queries never build one — they
// proxy verbatim, so every engine feature works unreduced on one shard;
// the plan exists only where the router genuinely has to combine rows.
type selectPlan struct {
	perShard *sql.Select
	agg      *aggPlan // nil: plain row merge
	distinct bool
	order    []orderKey
	hasOrder bool
	limit    int64 // -1: none
}

type orderKey struct {
	col  int
	desc bool
}

// aggPlan maps per-shard partial-aggregate rows onto final output rows.
// Per-shard output layout: the original select items verbatim (so the
// shard's row description carries the exact column names the engine would
// produce single-node, aliases included), then appended helper columns —
// SUM and COUNT partials for each AVG, and any GROUP BY expression absent
// from the select list (needed to key the combine). The helper columns are
// sliced off the merged result. AVG partials recombine exactly: the final
// SUM/COUNT division is the one the engine's accumulator does single-node.
type aggPlan struct {
	groupSrc []int // per-shard column indices forming the group key
	outs     []aggOut
}

type aggOut struct {
	name string
	kind sql.AggKind // AggNone: group-key passthrough
	src  int         // per-shard column index holding the partial
	src2 int         // AVG's COUNT partial (src is its SUM partial)
}

func errUnsupported(what string) error {
	return fmt.Errorf("shard: %s is not supported across shards (route the query to a single shard, or add a partition-key predicate)", what)
}

func exprKey(e expr.Expr) string { return strings.ToLower(e.String()) }

// schemaFn resolves a table's column names (the router fetches them from
// a shard and caches); nil when no resolver is available.
type schemaFn func(table string) ([]string, error)

// planSelect splits s for fan-out over more than one shard.
func planSelect(s *sql.Select, schema schemaFn) (*selectPlan, error) {
	if s.UnionAll != nil {
		return nil, errUnsupported("UNION ALL")
	}
	if s.Having != nil {
		return nil, errUnsupported("HAVING")
	}
	hasAgg := false
	for _, it := range s.Items {
		if it.Agg != sql.AggNone {
			hasAgg = true
		}
	}
	if !hasAgg && len(s.GroupBy) == 0 {
		return planPlainSelect(s, schema)
	}
	return planAggSelect(s)
}

// planPlainSelect handles projection-only queries: each shard runs the
// statement as written (ORDER BY and LIMIT push down — a shard's top-k
// superset of the global top-k), and the router concatenates, dedupes
// under DISTINCT, re-sorts, and re-applies LIMIT.
func planPlainSelect(s *sql.Select, schema schemaFn) (*selectPlan, error) {
	p := &selectPlan{perShard: s, distinct: s.Distinct, limit: s.Limit}
	if len(s.OrderBy) == 0 {
		return p, nil
	}
	// Re-sorting at the router needs every sort key resolvable to an
	// output column of the per-shard result. Star items are expanded via
	// the schema so item indexes stay aligned with column offsets.
	outCols, err := outputColumns(s, schema)
	if err != nil {
		return nil, err
	}
	items, err := expandItems(s, schema)
	if err != nil {
		return nil, err
	}
	for _, oi := range s.OrderBy {
		idx := resolveOrderExpr(oi.Expr, items, outCols)
		if idx < 0 {
			return nil, errUnsupported(fmt.Sprintf("ORDER BY %s (not an output column)", oi.Expr))
		}
		p.order = append(p.order, orderKey{col: idx, desc: oi.Desc})
	}
	p.hasOrder = true
	return p, nil
}

// planAggSelect decomposes aggregates into per-shard partials.
func planAggSelect(s *sql.Select) (*selectPlan, error) {
	if s.Distinct {
		return nil, errUnsupported("DISTINCT with aggregates")
	}
	perShard := &sql.Select{From: s.From, Where: s.Where, GroupBy: s.GroupBy, Limit: -1}
	perShard.Items = append(perShard.Items, s.Items...)
	groupKeys := map[string]bool{}
	for _, g := range s.GroupBy {
		groupKeys[exprKey(g)] = true
	}
	ap := &aggPlan{}
	next := len(s.Items)
	scalarAt := map[string]int{} // exprKey of a scalar item -> its position
	for i, it := range s.Items {
		switch {
		case it.Star:
			return nil, errUnsupported("* with aggregates")
		case it.Agg == sql.AggCountDistinct:
			return nil, errUnsupported("COUNT(DISTINCT)")
		case it.Agg == sql.AggAvg:
			// The shard's own AVG column at position i is only there for
			// its name; the value is recomputed from the appended partials.
			perShard.Items = append(perShard.Items,
				sql.SelectItem{Agg: sql.AggSum, Expr: it.Expr},
				sql.SelectItem{Agg: sql.AggCount, Expr: it.Expr})
			ap.outs = append(ap.outs, aggOut{name: itemName(it), kind: sql.AggAvg, src: next, src2: next + 1})
			next += 2
		case it.Agg != sql.AggNone:
			ap.outs = append(ap.outs, aggOut{name: itemName(it), kind: it.Agg, src: i})
		default:
			if !groupKeys[exprKey(it.Expr)] {
				return nil, fmt.Errorf("shard: %s must appear in GROUP BY or an aggregate", it.Expr)
			}
			scalarAt[exprKey(it.Expr)] = i
			ap.outs = append(ap.outs, aggOut{name: itemName(it), kind: sql.AggNone, src: i})
		}
	}
	for _, g := range s.GroupBy {
		if at, ok := scalarAt[exprKey(g)]; ok {
			ap.groupSrc = append(ap.groupSrc, at)
			continue
		}
		perShard.Items = append(perShard.Items, sql.SelectItem{Expr: g})
		ap.groupSrc = append(ap.groupSrc, next)
		next++
	}
	p := &selectPlan{perShard: perShard, agg: ap, limit: s.Limit}
	if len(s.OrderBy) > 0 {
		finalCols := make([]string, len(ap.outs))
		finalItems := make([]sql.SelectItem, len(s.Items))
		copy(finalItems, s.Items)
		for i, o := range ap.outs {
			finalCols[i] = o.name
		}
		for _, oi := range s.OrderBy {
			idx := resolveOrderExpr(oi.Expr, finalItems, finalCols)
			if idx < 0 {
				return nil, errUnsupported(fmt.Sprintf("ORDER BY %s (not an output column)", oi.Expr))
			}
			p.order = append(p.order, orderKey{col: idx, desc: oi.Desc})
		}
		p.hasOrder = true
	}
	return p, nil
}

// itemName predicts the engine's output column name for a select item,
// mirroring plan.Builder naming: the alias when present, the written
// column name for bare columns, COUNT(*)/AGG(expr) lowercased for
// aggregates, and the expression's display form otherwise.
func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch {
	case it.Agg == sql.AggCountStar:
		return "count(*)"
	case it.Agg != sql.AggNone:
		return strings.ToLower(fmt.Sprintf("%s(%s)", it.Agg, it.Expr))
	default:
		if c, ok := it.Expr.(*expr.Column); ok {
			return c.Name
		}
		return it.Expr.String()
	}
}

// outputColumns predicts the per-shard result's column names for a plain
// select, expanding * through the schema resolver.
func outputColumns(s *sql.Select, schema schemaFn) ([]string, error) {
	var out []string
	expand := func(table string) error {
		if schema == nil {
			return errUnsupported("ORDER BY combined with *")
		}
		cols, err := schema(table)
		if err != nil {
			return err
		}
		out = append(out, cols...)
		return nil
	}
	for _, it := range s.Items {
		if it.Star {
			if it.StarQualifier != "" {
				for _, ref := range s.From {
					if strings.EqualFold(ref.Name(), it.StarQualifier) {
						if err := expand(ref.Table); err != nil {
							return nil, err
						}
					}
				}
				continue
			}
			for _, ref := range s.From {
				if err := expand(ref.Table); err != nil {
					return nil, err
				}
			}
			continue
		}
		out = append(out, itemName(it))
	}
	return out, nil
}

// expandItems mirrors outputColumns but yields select items: each star
// column becomes a bare-column placeholder, keeping item indexes aligned
// with column offsets for ORDER BY resolution.
func expandItems(s *sql.Select, schema schemaFn) ([]sql.SelectItem, error) {
	var out []sql.SelectItem
	expand := func(table string) error {
		if schema == nil {
			return errUnsupported("ORDER BY combined with *")
		}
		cols, err := schema(table)
		if err != nil {
			return err
		}
		for _, c := range cols {
			out = append(out, sql.SelectItem{Expr: &expr.Column{Name: c}})
		}
		return nil
	}
	for _, it := range s.Items {
		if it.Star {
			for _, ref := range s.From {
				if it.StarQualifier != "" && !strings.EqualFold(ref.Name(), it.StarQualifier) {
					continue
				}
				if err := expand(ref.Table); err != nil {
					return nil, err
				}
			}
			continue
		}
		out = append(out, it)
	}
	return out, nil
}

// resolveOrderExpr maps an ORDER BY expression to an output column index:
// by alias, by written-form equality with an item's expression, or by
// bare-column match against a predicted output name.
func resolveOrderExpr(e expr.Expr, items []sql.SelectItem, cols []string) int {
	key := exprKey(e)
	for i, it := range items {
		if it.Star {
			continue
		}
		if it.Alias != "" && strings.EqualFold(it.Alias, key) {
			return i
		}
		if it.Expr != nil && it.Agg == sql.AggNone && exprKey(it.Expr) == key {
			return i
		}
	}
	if c, ok := e.(*expr.Column); ok {
		for i, name := range cols {
			if strings.EqualFold(name, c.Name) {
				return i
			}
		}
	}
	return -1
}

// mergeRows combines per-shard result rows per the plan. shardRows holds
// each contacted shard's rows in shard order; cols is the first shard's
// column set (identical across shards by construction).
func (p *selectPlan) mergeRows(shardRows [][]types.Row) ([]types.Row, error) {
	var rows []types.Row
	if p.agg != nil {
		var err error
		if rows, err = p.agg.combine(shardRows); err != nil {
			return nil, err
		}
	} else {
		for _, rs := range shardRows {
			rows = append(rows, rs...)
		}
		if p.distinct {
			seen := make(map[string]bool, len(rows))
			dedup := rows[:0]
			var image []byte
			for _, r := range rows {
				if image = types.AppendKey(image[:0], r...); !seen[string(image)] {
					seen[string(image)] = true
					dedup = append(dedup, r)
				}
			}
			rows = dedup
		}
	}
	if p.hasOrder {
		sort.SliceStable(rows, func(i, j int) bool {
			for _, k := range p.order {
				c := rows[i][k.col].Compare(rows[j][k.col])
				if c == 0 {
					continue
				}
				return (c < 0) != k.desc
			}
			return false
		})
	}
	if p.limit >= 0 && int64(len(rows)) > p.limit {
		rows = rows[:p.limit]
	}
	return rows, nil
}

// columns returns the merged result's column names. A plain merge passes
// the per-shard columns through; an aggregate merge slices off the
// appended helper columns — the leading names are the shard engine's own
// naming of the original select items, byte-identical to a single-node
// run. Falls back to the predicted names when no shard responded.
func (p *selectPlan) columns(shardCols []string) []string {
	if p.agg == nil {
		return shardCols
	}
	if len(shardCols) >= len(p.agg.outs) {
		return shardCols[:len(p.agg.outs)]
	}
	out := make([]string, len(p.agg.outs))
	for i, o := range p.agg.outs {
		out[i] = o.name
	}
	return out
}

// partial accumulates one aggregate column across shards. A SUM follows the
// engine's result rule: FLOAT when any partial is, and otherwise the exact
// integer total, which must fit an INT. So a router combine gives the
// single-node answer, overflow and NaN errors included.
type partial struct {
	count int64
	sum   float64 // every SUM partial; AVG's SUM partials
	// hi:lo is the exact 128-bit total of the INT SUM partials.
	hi, lo int64
	float  bool // a SUM partial was FLOAT
	seen   bool
	min    types.Datum
	max    types.Datum
}

func (pa *partial) add(kind sql.AggKind, row types.Row, o aggOut) {
	switch kind {
	case sql.AggCount, sql.AggCountStar:
		pa.count += row[o.src].Int()
	case sql.AggSum:
		v := row[o.src]
		if v.IsNull() {
			return
		}
		pa.seen = true
		pa.sum += v.Float()
		if v.Kind() == types.KindFloat {
			pa.float = true
			return
		}
		i := v.IntImage()
		lo, carry := bits.Add64(uint64(pa.lo), uint64(i), 0)
		pa.lo, pa.hi = int64(lo), pa.hi+int64(carry)+i>>63
	case sql.AggAvg:
		v := row[o.src]
		if !v.IsNull() {
			pa.seen = true
			pa.sum += v.Float()
		}
		pa.count += row[o.src2].Int()
	case sql.AggMin:
		v := row[o.src]
		if !v.IsNull() && (pa.min.IsNull() || v.Compare(pa.min) < 0) {
			pa.min = v
		}
	case sql.AggMax:
		v := row[o.src]
		if !v.IsNull() && (pa.max.IsNull() || v.Compare(pa.max) > 0) {
			pa.max = v
		}
	}
}

func (pa *partial) result(kind sql.AggKind) (types.Datum, error) {
	switch kind {
	case sql.AggCount, sql.AggCountStar:
		return types.NewInt(pa.count), nil
	case sql.AggSum:
		switch {
		case !pa.seen:
			return types.Null, nil
		case pa.float:
			return types.NewFloatChecked(pa.sum)
		case pa.hi != pa.lo>>63:
			return types.Null, exec.ErrSumOverflow
		}
		return types.NewInt(pa.lo), nil
	case sql.AggAvg:
		if pa.count == 0 {
			return types.Null, nil
		}
		return types.NewFloatChecked(pa.sum / float64(pa.count))
	case sql.AggMin:
		return pa.min, nil
	case sql.AggMax:
		return pa.max, nil
	default:
		return types.Null, nil
	}
}

// combine merges per-shard partial-aggregate rows into final rows, one
// per group, in first-seen shard order (callers re-sort under ORDER BY).
func (ap *aggPlan) combine(shardRows [][]types.Row) ([]types.Row, error) {
	type group struct {
		first    types.Row // a representative row (group-key passthrough)
		partials []*partial
	}
	var order []*group
	groups := map[string]*group{}
	var image []byte
	for _, rs := range shardRows {
		for _, row := range rs {
			image = image[:0]
			for _, gi := range ap.groupSrc {
				image = types.AppendKey(image, row[gi])
			}
			g, ok := groups[string(image)]
			if !ok {
				g = &group{first: row, partials: make([]*partial, len(ap.outs))}
				for i := range g.partials {
					g.partials[i] = &partial{min: types.Null, max: types.Null}
				}
				groups[string(image)] = g
				order = append(order, g)
			}
			for i, o := range ap.outs {
				if o.kind != sql.AggNone {
					g.partials[i].add(o.kind, row, o)
				}
			}
		}
	}
	out := make([]types.Row, 0, len(order))
	for _, g := range order {
		row := make(types.Row, len(ap.outs))
		for i, o := range ap.outs {
			if o.kind == sql.AggNone {
				row[i] = g.first[o.src]
				continue
			}
			v, err := g.partials[i].result(o.kind)
			if err != nil {
				return nil, &exec.QueryError{Op: "router.merge", Kind: exec.KindError, Err: err}
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return out, nil
}
