package exec

import (
	"fmt"
	"testing"

	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/sql"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// repeatRows emits the same rows as one batch, times times.
type repeatRows struct {
	rows  []types.Row
	times int
}

func (r *repeatRows) Run(_ *Ctx, emit func(b *vec.Batch) bool) error {
	var b vec.Batch
	for i := 0; i < r.times; i++ {
		b.Reset(r.rows)
		if !emit(&b) {
			break
		}
	}
	return nil
}

func (r *repeatRows) Describe() string   { return "repeatRows" }
func (r *repeatRows) Inputs() []Operator { return nil }

// TestKeyedRowsAlreadyPresentAllocateNothing: once the generic keyer and
// Distinct hold a key, a row with that key allocates nothing. A run over 101
// copies of a batch allocates what a run over one copy does.
func TestKeyedRowsAlreadyPresentAllocateNothing(t *testing.T) {
	var rows []types.Row
	for i := 0; i < 64; i++ {
		rows = append(rows, types.Row{types.NewInt(1<<53 + int64(i%16)), types.NewString(fmt.Sprint("cust", i%16))})
	}
	ops := map[string]func(in Operator) Operator{
		"Distinct": func(in Operator) Operator { return &Distinct{Input: in} },
		"generic keyer": func(in Operator) Operator {
			return &HashAggregate{Input: in,
				GroupBy: []expr.Expr{col(0), expr.NewColumn("t", "name", 1, types.KindString)},
				Aggs:    []plan.AggSpec{{Kind: sql.AggCountStar}}}
		},
	}
	for name, op := range ops {
		allocs := func(times int) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := Collect(op(&repeatRows{rows: rows, times: times}), &Ctx{}, 0); err != nil {
					t.Fatal(err)
				}
			})
		}
		if once, many := allocs(1), allocs(101); many != once {
			t.Errorf("%s: %v allocations over 101 batches, %v over one", name, many, once)
		}
	}
}
