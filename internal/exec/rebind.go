package exec

import (
	"softdb/internal/btree"
	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/types"
)

// Rebind instantiates a plan template for another literal vector: it
// returns a copy of the operator tree in which every constant computed from
// a statement literal — filter, join and projection constants, index
// bounds, prune intervals — is recomputed from lits through its
// expr.Origin. The tree keeps its shape and operator order (estimates
// recorded by preorder position still line up); expression subtrees and
// operators' other fields are shared with the template, which is not
// modified. ok is false when the tree holds an operator Rebind does not
// know, in which case it cannot serve as a template.
func Rebind(op Operator, lits []types.Datum) (Operator, bool) {
	var out Operator
	if kids := op.Inputs(); len(kids) > 0 {
		bound := make([]Operator, len(kids))
		for i, k := range kids {
			b, ok := Rebind(k, lits)
			if !ok {
				return nil, false
			}
			bound[i] = b
		}
		if out = withInputs(op, bound); out == nil {
			return nil, false
		}
	}
	switch t := op.(type) {
	case *SeqScan:
		c := *t
		c.Filter, c.Prune = expr.BindAll(t.Filter, lits), bindPrune(t.Prune, lits)
		return &c, true
	case *IndexScan:
		c := *t
		c.Lo, c.Hi = bindBound(t.Lo, t.LoFrom, lits), bindBound(t.Hi, t.HiFrom, lits)
		c.Filter, c.Prune = expr.BindAll(t.Filter, lits), bindPrune(t.Prune, lits)
		return &c, true
	case *IndexMinMax, *Values:
		return op, true
	}
	switch c := out.(type) {
	case *Filter:
		c.Conds = expr.BindAll(c.Conds, lits)
	case *Project:
		c.Exprs = expr.BindAll(c.Exprs, lits)
	case *NestedLoopJoin:
		c.Cond = expr.BindAll(c.Cond, lits)
	case *HashJoin:
		c.LeftKeys, c.RightKey = expr.BindAll(c.LeftKeys, lits), expr.BindAll(c.RightKey, lits)
		c.Residual = expr.BindAll(c.Residual, lits)
	case *HashAggregate:
		c.GroupBy, c.Aggs = expr.BindAll(c.GroupBy, lits), bindAggs(c.Aggs, lits)
	case *Limit, *Distinct, *Sort, *UnionAll:
	default:
		return nil, false
	}
	return out, true
}

// bindBound recomputes a single-column index bound from its origin.
func bindBound(b btree.Bound, from expr.Origin, lits []types.Datum) btree.Bound {
	if from.Slot <= 0 || b.Key == nil {
		return b
	}
	b.Key = types.Row{from.Apply(lits, b.Key[0])}
	return b
}

func bindPrune(preds []plan.PrunePred, lits []types.Datum) []plan.PrunePred {
	var out []plan.PrunePred
	for i, p := range preds {
		if !p.Interval.FromLiteral() {
			continue
		}
		if out == nil {
			out = append([]plan.PrunePred(nil), preds...)
		}
		out[i].Interval = p.Interval.Bind(lits)
	}
	if out == nil {
		return preds
	}
	return out
}

func bindAggs(aggs []plan.AggSpec, lits []types.Datum) []plan.AggSpec {
	var out []plan.AggSpec
	for i, a := range aggs {
		if a.Arg == nil {
			continue
		}
		b := expr.Bind(a.Arg, lits)
		if b == a.Arg {
			continue
		}
		if out == nil {
			out = append([]plan.AggSpec(nil), aggs...)
		}
		out[i].Arg = b
	}
	if out == nil {
		return aggs
	}
	return out
}
