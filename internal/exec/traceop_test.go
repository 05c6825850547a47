package exec

import (
	"strings"
	"testing"

	"softdb/internal/expr"
)

func TestInstrumentSerialTree(t *testing.T) {
	h := testHeap(t, 100)
	base := &Filter{
		Input: &SeqScan{Table: "t", Heap: h},
		Conds: []expr.Expr{expr.NewBinary(expr.OpLt, col(0), iconst(10))},
	}
	scan := base.Input
	inst, span := Instrument(base, func(op Operator) (float64, bool) {
		if op == scan {
			return 100, true
		}
		return 0, false
	})

	ctx := &Ctx{}
	rows, err := Collect(inst, ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows: %d", len(rows))
	}
	if got := span.Rows.Load(); got != 10 {
		t.Errorf("filter span rows = %d, want 10", got)
	}
	if len(span.Children) != 1 {
		t.Fatalf("children: %d", len(span.Children))
	}
	child := span.Children[0]
	if got := child.Rows.Load(); got != 100 {
		t.Errorf("scan span rows = %d, want 100", got)
	}
	if !child.HasEst || child.EstRows != 100 {
		t.Errorf("scan estimate not recorded: %+v", child)
	}
	if child.Pages.Load() != h.PageCount() {
		t.Errorf("scan span pages = %d, want %d", child.Pages.Load(), h.PageCount())
	}
	if child.Calls.Load() != 1 || child.Nanos.Load() <= 0 {
		t.Errorf("scan span calls=%d nanos=%d", child.Calls.Load(), child.Nanos.Load())
	}
	if !strings.Contains(child.Desc, "SeqScan t") {
		t.Errorf("desc: %q", child.Desc)
	}
	// The original tree is untouched: its input is still the raw scan.
	if base.Input != scan {
		t.Error("Instrument mutated the original tree")
	}
}

func TestInstrumentNestedLoopCalls(t *testing.T) {
	outer := &Values{Rows: intRows(1, 2, 3)}
	innerv := &Values{Rows: intRows(10, 20)}
	j := &NestedLoopJoin{Outer: outer, Inner: innerv}
	inst, span := Instrument(j, nil)
	if _, err := Collect(inst, &Ctx{}, 0); err != nil {
		t.Fatal(err)
	}
	if got := span.Rows.Load(); got != 6 {
		t.Errorf("join rows = %d", got)
	}
	// Inner side re-runs once per outer row.
	if got := span.Children[1].Calls.Load(); got != 3 {
		t.Errorf("inner calls = %d, want 3", got)
	}
}
