package exec

import (
	"time"

	"softdb/internal/obs"
	"softdb/internal/storage"
	"softdb/internal/vec"
)

// Instrument wraps an operator tree for tracing: every node is replaced by a
// span wrapper that accumulates emitted rows, busy time, and I/O deltas into
// an obs.SpanNode tree mirroring the plan shape. est, when non-nil, supplies
// the optimizer's row estimate for an original plan node so EXPLAIN ANALYZE
// can print estimated vs. actual side by side.
//
// Operators are stateless across runs; Instrument builds fresh wrappers
// around shared (plan-cached) operators, so concurrent queries can
// instrument the same plan independently.
func Instrument(root Operator, est func(Operator) (float64, bool)) (Operator, *obs.SpanNode) {
	return InstrumentInformed(root, est, nil)
}

// InstrumentInformed is Instrument with a second plan-node lookup:
// informed, when non-nil, names the constraints whose information shaped a
// node's cardinality estimate. The names land on the span tree so the
// engine can split per-node q-error into constraint-informed and blind
// populations for the economy ledger.
func InstrumentInformed(root Operator, est func(Operator) (float64, bool), informed func(Operator) []string) (Operator, *obs.SpanNode) {
	var wrap func(op Operator) (Operator, *obs.SpanNode)
	wrap = func(op Operator) (Operator, *obs.SpanNode) {
		node := &obs.SpanNode{Desc: op.Describe()}
		if est != nil {
			if rows, ok := est(op); ok {
				node.EstRows, node.HasEst = rows, true
			}
		}
		if informed != nil {
			node.Informed = informed(op)
		}
		if kids := op.Inputs(); len(kids) > 0 {
			wrapped := make([]Operator, len(kids))
			spans := make([]*obs.SpanNode, len(kids))
			for i, k := range kids {
				wrapped[i], spans[i] = wrap(k)
			}
			if rewired := withInputs(op, wrapped); rewired != nil {
				op = rewired
				node.Children = spans
			}
			// Unknown operator shape: keep the original children (they run
			// untraced) rather than break the plan.
		}
		return &spanOp{inner: op, node: node}, node
	}
	return wrap(root)
}

// spanOp measures one operator. Figures are inclusive of the subtree the
// wrapped Run drives, and cumulative across calls (nested-loop re-runs).
type spanOp struct {
	inner Operator
	node  *obs.SpanNode
}

// Run implements Operator; deltas are measured around the inner run.
func (s *spanOp) Run(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	before := ctx.IO.Load()
	start := time.Now()
	var rows int64
	outer := ctx.span
	ctx.span = s.node
	err := s.inner.Run(ctx, func(b *vec.Batch) bool {
		rows += int64(b.Len())
		return emit(b)
	})
	ctx.span = outer
	s.record(ctx, before, start, rows)
	return err
}

// record adds one call's figures: rows emitted, busy time since start and
// the I/O charged to ctx since before.
func (s *spanOp) record(ctx *Ctx, before storage.Counters, start time.Time, rows int64) {
	after := ctx.IO.Load()
	s.node.Nanos.Add(time.Since(start).Nanoseconds())
	s.node.Rows.Add(rows)
	s.node.Pages.Add(after.PagesRead - before.PagesRead)
	s.node.PagesSkipped.Add(after.PagesSkipped - before.PagesSkipped)
	s.node.PagesFrozen.Add(after.PagesFrozen - before.PagesFrozen)
	s.node.RowsRead.Add(after.RowsRead - before.RowsRead)
	s.node.Calls.Add(1)
}

func (s *spanOp) Describe() string { return s.inner.Describe() }

func (s *spanOp) Inputs() []Operator { return s.inner.Inputs() }

// withInputs returns a shallow copy of op with its children replaced, or nil
// when the operator is not a known shape. Copies keep the original operator
// untouched so plan-cached trees stay shareable.
func withInputs(op Operator, kids []Operator) Operator {
	switch t := op.(type) {
	case *Filter:
		c := *t
		c.Input = kids[0]
		return &c
	case *Project:
		c := *t
		c.Input = kids[0]
		return &c
	case *Limit:
		c := *t
		c.Input = kids[0]
		return &c
	case *Distinct:
		c := *t
		c.Input = kids[0]
		return &c
	case *Sort:
		c := *t
		c.Input = kids[0]
		return &c
	case *UnionAll:
		c := *t
		c.Arms = kids
		return &c
	case *NestedLoopJoin:
		c := *t
		c.Outer, c.Inner = kids[0], kids[1]
		return &c
	case *HashJoin:
		c := *t
		c.Left, c.Right = kids[0], kids[1]
		return &c
	case *HashAggregate:
		c := *t
		c.Input = kids[0]
		return &c
	default:
		return nil
	}
}
