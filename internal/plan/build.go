package plan

import (
	"fmt"
	"strings"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/sql"
	"softdb/internal/types"
)

// Derived wraps a sub-plan bound under an alias (view references).
type Derived struct {
	Input Node
	Alias string
}

// Cols implements Node, re-qualifying the input's columns with the alias.
func (d *Derived) Cols() []ColumnInfo {
	in := d.Input.Cols()
	out := make([]ColumnInfo, len(in))
	for i, c := range in {
		c.Qualifier = d.Alias
		out[i] = c
	}
	return out
}

// Inputs implements Node.
func (d *Derived) Inputs() []Node { return []Node{d.Input} }

// Describe implements Node.
func (d *Derived) Describe() string { return "Derived AS " + d.Alias }

// Builder binds parsed SQL to logical plans against a catalog and a view
// registry.
type Builder struct {
	Catalog *catalog.Catalog
	// Views maps lower-cased view names to their defining queries.
	Views map[string]*sql.Select
	// LiteralBound is set to "constant-folding" when building folded a
	// constant expression over a statement literal: what the subtree folds
	// to (a value, TRUE, FALSE, or an evaluation error left in place)
	// depends on the literal, so the plan is only valid for its own.
	LiteralBound string
}

// fold folds constants in a bound predicate, noting when that consumes a
// statement literal.
func (b *Builder) fold(e expr.Expr) expr.Expr {
	if expr.FoldsLiteral(e) {
		b.LiteralBound = "constant-folding"
	}
	return expr.FoldConstants(e)
}

// BuildSelect builds the plan for a (possibly UNION ALL-chained) select.
func (b *Builder) BuildSelect(sel *sql.Select) (Node, error) {
	var arms []Node
	for s := sel; s != nil; s = s.UnionAll {
		arm, err := b.buildArm(s)
		if err != nil {
			return nil, err
		}
		arms = append(arms, arm)
	}
	if len(arms) == 1 {
		return arms[0], nil
	}
	// Arms must agree in arity; kinds are checked loosely (numeric kinds
	// inter-operate).
	want := arms[0].Cols()
	for i, a := range arms[1:] {
		if len(a.Cols()) != len(want) {
			return nil, fmt.Errorf("plan: UNION ALL arm %d has %d columns, want %d", i+2, len(a.Cols()), len(want))
		}
	}
	return &UnionAll{Arms: arms}, nil
}

// buildArm builds a single select block.
func (b *Builder) buildArm(sel *sql.Select) (Node, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("plan: SELECT without FROM is not supported")
	}
	// Resolve FROM sources.
	var sources []Node
	seen := map[string]bool{}
	for _, ref := range sel.From {
		name := strings.ToLower(ref.Name())
		if seen[name] {
			return nil, fmt.Errorf("plan: duplicate table binding %s", ref.Name())
		}
		seen[name] = true
		src, err := b.resolveSource(ref)
		if err != nil {
			return nil, err
		}
		sources = append(sources, src)
	}
	group := &JoinGroup{Tables: sources}
	blockCols := group.Cols()

	// Bind and distribute WHERE conjuncts.
	if sel.Where != nil {
		bound, err := BindExpr(sel.Where, blockCols)
		if err != nil {
			return nil, err
		}
		bound = b.fold(bound)
		for _, c := range expr.SplitConjuncts(bound) {
			b.placeConjunct(group, c)
		}
	}

	var top Node = group
	// Singleton group with no conjuncts collapses to the source itself.
	if len(group.Tables) == 1 && len(group.Conjuncts) == 0 {
		top = group.Tables[0]
	}

	hasAgg := len(sel.GroupBy) > 0
	for _, it := range sel.Items {
		if it.Agg != sql.AggNone {
			hasAgg = true
		}
	}

	var outExprs []expr.Expr
	var outCols []ColumnInfo
	if hasAgg {
		agg, exprs, cols, err := b.buildAggregate(sel, top, blockCols)
		if err != nil {
			return nil, err
		}
		top = agg
		outExprs, outCols = exprs, cols
	} else {
		exprs, cols, err := b.buildProjection(sel.Items, blockCols)
		if err != nil {
			return nil, err
		}
		outExprs, outCols = exprs, cols
	}

	// Bind ORDER BY keys against the projected output, appending hidden
	// columns for keys not in the select list.
	var keys []SortKey
	for _, oi := range sel.OrderBy {
		ord, err := b.bindOrderKey(oi.Expr, outExprs, outCols, top.Cols(), hasAgg, &outExprs, &outCols)
		if err != nil {
			return nil, err
		}
		keys = append(keys, SortKey{Ordinal: ord, Desc: oi.Desc})
	}

	// Projection node (omitted when it is the identity over the input).
	if !isIdentityProjection(outExprs, outCols, top.Cols()) {
		top = &Project{Input: top, Exprs: outExprs, Names: outCols}
	}
	// HAVING binds against the projected output: select-list aliases and
	// grouping columns are in scope; aggregates are referenced through
	// their aliases.
	if sel.Having != nil {
		if !hasAgg {
			return nil, fmt.Errorf("plan: HAVING requires GROUP BY")
		}
		bound, err := BindExpr(sel.Having, top.Cols())
		if err != nil {
			return nil, fmt.Errorf("plan: HAVING may reference select-list aliases and grouping columns: %w", err)
		}
		top = &Filter{Input: top, Conds: expr.SplitConjuncts(b.fold(bound))}
	}
	if sel.Distinct {
		top = &Distinct{Input: top}
	}
	if len(keys) > 0 {
		top = &Sort{Input: top, Keys: keys}
	}
	// Strip hidden sort columns.
	if hasHidden(outCols) {
		var exprs []expr.Expr
		var cols []ColumnInfo
		for i, c := range top.Cols() {
			if c.Hidden {
				continue
			}
			cc := c
			exprs = append(exprs, expr.NewColumn(c.Qualifier, c.Name, i, c.Kind))
			cols = append(cols, cc)
		}
		top = &Project{Input: top, Exprs: exprs, Names: cols}
	}
	if sel.Limit >= 0 {
		top = &Limit{Input: top, N: sel.Limit}
	}
	return top, nil
}

func hasHidden(cols []ColumnInfo) bool {
	for _, c := range cols {
		if c.Hidden {
			return true
		}
	}
	return false
}

// resolveSource resolves one FROM reference to a scan or derived plan.
func (b *Builder) resolveSource(ref sql.TableRef) (Node, error) {
	alias := ref.Name()
	if te, err := b.Catalog.Table(ref.Table); err == nil {
		return &Scan{Table: te.Def.Name, Alias: alias, Entry: te, Def: te.Def}, nil
	}
	if st, ok := b.Catalog.SummaryTable(ref.Table); ok {
		if st.Informational {
			return nil, fmt.Errorf("plan: informational summary table %s is not routable", st.Name)
		}
		return &Scan{Table: st.Name, Alias: alias, Summary: st, Def: st.Def}, nil
	}
	if b.Views != nil {
		if vq, ok := b.Views[strings.ToLower(ref.Table)]; ok {
			sub, err := b.BuildSelect(vq)
			if err != nil {
				return nil, fmt.Errorf("plan: expanding view %s: %w", ref.Table, err)
			}
			return &Derived{Input: sub, Alias: alias}, nil
		}
	}
	return nil, fmt.Errorf("plan: unknown table or view %s", ref.Table)
}

// placeConjunct pushes a single-scan conjunct into that scan's filter,
// otherwise leaves it on the join group.
func (b *Builder) placeConjunct(group *JoinGroup, c expr.Expr) {
	if expr.IsConstTrue(c) {
		return
	}
	ords := expr.ColumnIndexes(c)
	owner := -1
	for i := range group.Tables {
		off := group.Offset(i)
		n := len(group.Tables[i].Cols())
		all := true
		for _, o := range ords {
			if o < off || o >= off+n {
				all = false
				break
			}
		}
		if all {
			owner = i
			break
		}
	}
	if owner >= 0 {
		if scan, ok := group.Tables[owner].(*Scan); ok {
			local := expr.ShiftColumns(c, -group.Offset(owner))
			scan.Filter = append(scan.Filter, local)
			return
		}
	}
	group.Conjuncts = append(group.Conjuncts, c)
}

// buildProjection expands stars and binds select expressions.
func (b *Builder) buildProjection(items []sql.SelectItem, blockCols []ColumnInfo) ([]expr.Expr, []ColumnInfo, error) {
	var exprs []expr.Expr
	var cols []ColumnInfo
	for _, it := range items {
		if it.Star {
			for i, c := range blockCols {
				if it.StarQualifier != "" && !strings.EqualFold(c.Qualifier, it.StarQualifier) {
					continue
				}
				exprs = append(exprs, expr.NewColumn(c.Qualifier, c.Name, i, c.Kind))
				cols = append(cols, c)
			}
			if it.StarQualifier != "" && len(exprs) == 0 {
				return nil, nil, fmt.Errorf("plan: %s.* matches no table", it.StarQualifier)
			}
			continue
		}
		if it.Agg != sql.AggNone {
			return nil, nil, fmt.Errorf("plan: aggregate %s outside GROUP BY context", it.Agg)
		}
		bound, err := BindExpr(it.Expr, blockCols)
		if err != nil {
			return nil, nil, err
		}
		ci := deriveColumnInfo(bound, blockCols)
		if it.Alias != "" {
			ci.Name = it.Alias
		}
		exprs = append(exprs, bound)
		cols = append(cols, ci)
	}
	return exprs, cols, nil
}

// buildAggregate builds the Aggregate node plus the output projection over
// its results.
func (b *Builder) buildAggregate(sel *sql.Select, input Node, blockCols []ColumnInfo) (Node, []expr.Expr, []ColumnInfo, error) {
	var groupBy []expr.Expr
	var groupNames []ColumnInfo
	for _, g := range sel.GroupBy {
		bound, err := BindExpr(g, blockCols)
		if err != nil {
			return nil, nil, nil, err
		}
		groupBy = append(groupBy, bound)
		groupNames = append(groupNames, deriveColumnInfo(bound, blockCols))
	}
	agg := &Aggregate{Input: input, GroupBy: groupBy, GroupNames: groupNames}

	// Walk the select list: aggregates become AggSpecs, scalars must match
	// a group expression.
	type outRef struct {
		ordinal int
		info    ColumnInfo
	}
	var outs []outRef
	for _, it := range sel.Items {
		if it.Star {
			return nil, nil, nil, fmt.Errorf("plan: * is not allowed with GROUP BY")
		}
		if it.Agg != sql.AggNone {
			spec := AggSpec{Kind: it.Agg}
			if it.Agg != sql.AggCountStar {
				bound, err := BindExpr(it.Expr, blockCols)
				if err != nil {
					return nil, nil, nil, err
				}
				spec.Arg = bound
			}
			spec.Name = it.Alias
			if spec.Name == "" {
				spec.Name = strings.ToLower(spec.Describe())
			}
			agg.Aggs = append(agg.Aggs, spec)
			ord := len(groupBy) + len(agg.Aggs) - 1
			outs = append(outs, outRef{ordinal: ord, info: ColumnInfo{Name: spec.Name, Kind: aggKind(spec)}})
			continue
		}
		bound, err := BindExpr(it.Expr, blockCols)
		if err != nil {
			return nil, nil, nil, err
		}
		found := -1
		for gi, g := range groupBy {
			if expr.Equivalent(g, bound) {
				found = gi
				break
			}
		}
		if found < 0 {
			return nil, nil, nil, fmt.Errorf("plan: %s must appear in GROUP BY or an aggregate", it.Expr)
		}
		info := groupNames[found]
		if it.Alias != "" {
			info.Name = it.Alias
		}
		outs = append(outs, outRef{ordinal: found, info: info})
	}
	aggCols := agg.Cols()
	var exprs []expr.Expr
	var cols []ColumnInfo
	for _, o := range outs {
		src := aggCols[o.ordinal]
		exprs = append(exprs, expr.NewColumn(src.Qualifier, src.Name, o.ordinal, o.info.Kind))
		cols = append(cols, o.info)
	}
	return agg, exprs, cols, nil
}

func aggKind(spec AggSpec) types.Kind {
	switch spec.Kind {
	case sql.AggCount, sql.AggCountStar, sql.AggCountDistinct:
		return types.KindInt
	case sql.AggAvg:
		return types.KindFloat
	default:
		if spec.Arg != nil {
			return spec.Arg.Type()
		}
		return types.KindInt
	}
}

// bindOrderKey resolves an ORDER BY expression to an output ordinal,
// appending a hidden projection column when the key is not already in the
// output. Matching tries (1) output alias, (2) expression equivalence with
// an output expression, (3) a fresh binding over the pre-projection schema.
func (b *Builder) bindOrderKey(key expr.Expr, outExprs []expr.Expr, outCols []ColumnInfo,
	inputCols []ColumnInfo, hasAgg bool, exprsOut *[]expr.Expr, colsOut *[]ColumnInfo) (int, error) {
	// Alias match: a bare column name equal to an output column name.
	if c, ok := key.(*expr.Column); ok && c.Qualifier == "" {
		for i, oc := range outCols {
			if strings.EqualFold(oc.Name, c.Name) {
				return i, nil
			}
		}
	}
	// Expression match over the block schema.
	if bound, err := BindExpr(key, inputCols); err == nil {
		for i, oe := range outExprs {
			if expr.Equivalent(oe, bound) {
				return i, nil
			}
		}
		if hasAgg {
			return 0, fmt.Errorf("plan: ORDER BY %s must reference the select list of a grouped query", key)
		}
		// Hidden column.
		ci := deriveColumnInfo(bound, inputCols)
		ci.Hidden = true
		*exprsOut = append(*exprsOut, bound)
		*colsOut = append(*colsOut, ci)
		return len(*colsOut) - 1, nil
	}
	return 0, fmt.Errorf("plan: cannot resolve ORDER BY %s", key)
}

// isIdentityProjection reports whether the projection is exactly the input
// schema in order with unchanged names.
func isIdentityProjection(exprs []expr.Expr, cols []ColumnInfo, input []ColumnInfo) bool {
	if len(exprs) != len(input) {
		return false
	}
	for i, e := range exprs {
		c, ok := e.(*expr.Column)
		if !ok || c.Index != i {
			return false
		}
		if !strings.EqualFold(cols[i].Name, input[i].Name) {
			return false
		}
	}
	return true
}

// deriveColumnInfo names a projected expression, propagating provenance for
// plain column references.
func deriveColumnInfo(e expr.Expr, input []ColumnInfo) ColumnInfo {
	if c, ok := e.(*expr.Column); ok && c.Index >= 0 && c.Index < len(input) {
		return input[c.Index]
	}
	return ColumnInfo{Name: e.String(), Kind: e.Type()}
}

// BindExpr resolves unbound column references (Index < 0) in e against the
// given schema, by qualifier+name or unique unqualified name. Bound columns
// are validated against the schema bounds.
func BindExpr(e expr.Expr, cols []ColumnInfo) (expr.Expr, error) {
	var bindErr error
	out := expr.Transform(e, func(n expr.Expr) expr.Expr {
		c, ok := n.(*expr.Column)
		if !ok || bindErr != nil {
			return n
		}
		if c.Index >= 0 {
			if c.Index >= len(cols) {
				bindErr = fmt.Errorf("plan: column %s ordinal %d out of range", c.Name, c.Index)
			}
			return n
		}
		found := -1
		for i, ci := range cols {
			if !strings.EqualFold(ci.Name, c.Name) {
				continue
			}
			if c.Qualifier != "" && !strings.EqualFold(ci.Qualifier, c.Qualifier) {
				continue
			}
			if found >= 0 {
				bindErr = fmt.Errorf("plan: ambiguous column %s", c)
				return n
			}
			found = i
		}
		if found < 0 {
			bindErr = fmt.Errorf("plan: unknown column %s", c)
			return n
		}
		return expr.NewColumn(cols[found].Qualifier, cols[found].Name, found, cols[found].Kind)
	})
	if bindErr != nil {
		return nil, bindErr
	}
	return out, nil
}
