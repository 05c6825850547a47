package exec

import (
	"fmt"
	"testing"

	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/sql"
	"softdb/internal/types"
)

// buildRerunTrees returns named operator trees covering scan, filter,
// both join flavors, and aggregation over the same two heaps.
func buildRerunTrees(t *testing.T) map[string]Operator {
	t.Helper()
	outer := testHeap(t, 500)
	inner := testHeap(t, 200)
	joinCond := []expr.Expr{expr.NewBinary(expr.OpEq, col(0), expr.NewColumn("u", "a", 2, types.KindInt))}
	aggs := []plan.AggSpec{
		{Kind: sql.AggCountStar, Name: "n"},
		{Kind: sql.AggSum, Arg: col(1), Name: "s"},
		{Kind: sql.AggMin, Arg: col(0), Name: "lo"},
	}
	groupBy := []expr.Expr{expr.NewBinary(expr.OpSub, col(0),
		expr.NewBinary(expr.OpMul, expr.NewBinary(expr.OpDiv, col(0), iconst(10)), iconst(10)))}
	return map[string]Operator{
		"seqscan": &SeqScan{Table: "t", Heap: outer, Filter: []expr.Expr{
			expr.NewBinary(expr.OpLt, col(0), iconst(100)),
		}},
		"filter": &Filter{
			Input: &SeqScan{Table: "t", Heap: outer},
			Conds: []expr.Expr{expr.NewBinary(expr.OpGe, col(1), iconst(500))},
		},
		"nested-loop-join": &NestedLoopJoin{
			Outer: &SeqScan{Table: "t", Heap: outer, Filter: []expr.Expr{expr.NewBinary(expr.OpLt, col(0), iconst(50))}},
			Inner: &SeqScan{Table: "u", Heap: inner},
			Cond:  joinCond,
		},
		"hash-join": &HashJoin{
			Left:     &SeqScan{Table: "u", Heap: inner},
			Right:    &SeqScan{Table: "t", Heap: outer},
			LeftKeys: []expr.Expr{col(0)},
			RightKey: []expr.Expr{col(0)},
		},
		"hash-aggregate": &HashAggregate{
			Input:   &SeqScan{Table: "t", Heap: outer},
			GroupBy: groupBy,
			Aggs:    aggs,
		},
		"agg-over-join": &HashAggregate{
			Input: &HashJoin{
				Left:     &SeqScan{Table: "u", Heap: inner},
				Right:    &SeqScan{Table: "t", Heap: outer},
				LeftKeys: []expr.Expr{col(0)},
				RightKey: []expr.Expr{col(0)},
			},
			Aggs: []plan.AggSpec{{Kind: sql.AggCountStar, Name: "n"}},
		},
	}
}

// TestOperatorsAreReRunnable runs each full operator tree twice with fresh
// contexts: the package documents operators as re-runnable (nested-loop
// join depends on it), so a second Run must reproduce the first run's rows
// and charge exactly the same counters.
func TestOperatorsAreReRunnable(t *testing.T) {
	for name, op := range buildRerunTrees(t) {
		t.Run(name, func(t *testing.T) {
			ctx1 := &Ctx{}
			first, err := Collect(op, ctx1, 0)
			if err != nil {
				t.Fatal(err)
			}
			ctx2 := &Ctx{}
			second, err := Collect(op, ctx2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(first) == 0 {
				t.Fatal("trees under test must produce rows")
			}
			if got, want := rowKeys(second), rowKeys(first); got != want {
				t.Errorf("rerun rows diverged:\nfirst:  %s\nsecond: %s", want, got)
			}
			if ctx1.String() != ctx2.String() {
				t.Errorf("rerun counters diverged: first %s, second %s", ctx1, ctx2)
			}
		})
	}
}

// rowKeys renders a sorted multiset fingerprint of rows.
func rowKeys(rows []types.Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = string(types.AppendKey(nil, r...))
	}
	sortStrings(keys)
	return fmt.Sprint(keys)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
