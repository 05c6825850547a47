package bench

import (
	"fmt"
	"slices"
	"time"

	"softdb/internal/expr"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// V1Kernels measures the vectorized predicate kernels against the per-row
// expression tree-walk they replace: for each hot comparator family
// (equality, <, BETWEEN, IS NULL) the compiled stage runs over a columnar
// batch's selection vector, the baseline evaluates the same conjunct with
// EvalBool row by row, and the report shows ns/row for both. A generic
// (column-to-column) predicate is included to show the fallback stage costs
// about the same as the tree-walk it wraps. Beside the clocks it counts the
// expression evaluations each side makes per row, in one untimed pass: a
// typed stage makes none, the generic stage one per row, like the
// tree-walk it wraps.
func V1Kernels(rows int) (*Report, error) {
	rep := &Report{
		ID:     "V1",
		Title:  "vectorized kernels: typed tight loops vs per-row tree-walk",
		Claim:  "constraint benefits (pages skipped, joins eliminated) convert to wall-time only when surviving pages flow through tight loops; typed kernels cut per-row predicate cost multi-x while the generic fallback stays at parity",
		Header: []string{"kernel", "typed", "evals/row kernel", "evals/row tree-walk", "ns/row kernel", "ns/row tree-walk", "speedup"},
	}

	data := v1Rows(rows)
	for _, kc := range v1Cases() {
		conds := kc.Conds
		prog := expr.CompilePredicate(conds)
		typed := len(prog.Stages) == 1 && prog.Typed(0)
		if typed != kc.Typed {
			return nil, fmt.Errorf("V1 %s: compiled typed=%v, case declares %v", kc.Name, typed, kc.Typed)
		}

		// The clocks run the counting program too, so a stage that
		// evaluates rows by tree-walk is counted rather than failing on a
		// typed stage's missing Cond.
		prog, kernelEvals, walkEvals, err := countEvals(prog, conds, data)
		if err != nil {
			return nil, err
		}
		kernelNs, kernelKept, err := timeKernel(prog, data)
		if err != nil {
			return nil, err
		}
		walkNs, walkKept, err := timeTreeWalk(conds, data)
		if err != nil {
			return nil, err
		}
		if kernelKept != walkKept {
			return nil, fmt.Errorf("V1 %s: kernel kept %d rows, tree-walk kept %d", kc.Name, kernelKept, walkKept)
		}
		rep.AddRow(kc.Name, typed, fmt.Sprintf("%.2f", kernelEvals), fmt.Sprintf("%.2f", walkEvals),
			fmt.Sprintf("%.1f", kernelNs), fmt.Sprintf("%.1f", walkNs),
			fmt.Sprintf("%.2f", walkNs/kernelNs))
	}

	rep.Notef("batch of %d rows; kernel times include selection-vector writes", rows)
	return rep, nil
}

// v1Case is one measured kernel family of the V1 experiment.
type v1Case struct {
	Name  string
	Conds []expr.Expr
	// Typed declares whether CompilePredicate must produce a single
	// type-specialized stage for this predicate; V1Kernels re-verifies it.
	Typed bool
}

// v1Cases returns the kernel families over the v1Rows schema
// (#0 a INT, #1 b FLOAT, #2 c INT with NULLs).
func v1Cases() []v1Case {
	split := func(e expr.Expr) []expr.Expr { return expr.SplitConjuncts(e) }
	return []v1Case{
		{"eq-int", split(expr.NewBinary(expr.OpEq, intCol(0, "a"), expr.NewConst(types.NewInt(12)))), true},
		{"lt-float", split(expr.NewBinary(expr.OpLt, floatCol(1, "b"), expr.NewConst(types.NewFloat(12.5)))), true},
		{"between-int", split(expr.NewBinary(expr.OpAnd,
			expr.NewBinary(expr.OpGe, intCol(0, "a"), expr.NewConst(types.NewInt(8))),
			expr.NewBinary(expr.OpLe, intCol(0, "a"), expr.NewConst(types.NewInt(31))))), true},
		{"is-null", split(expr.NewUnary(expr.OpIsNull, intCol(2, "c"))), true},
		{"generic-col-col", split(expr.NewBinary(expr.OpLt, intCol(0, "a"), intCol(2, "c"))), false},
	}
}

func intCol(ord int, name string) *expr.Column {
	return expr.NewColumn("", name, ord, types.KindInt)
}

func floatCol(ord int, name string) *expr.Column {
	return expr.NewColumn("", name, ord, types.KindFloat)
}

// v1Rows builds the measurement rows: a INT (dense small domain),
// b FLOAT, c INT with ~10% NULLs.
func v1Rows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		c := types.Datum(types.NewInt(int64(i % 37)))
		if i%10 == 3 {
			c = types.Null
		}
		rows[i] = types.Row{
			types.NewInt(int64(i % 50)),
			types.NewFloat(float64(i%100) / 4),
			c,
		}
	}
	return rows
}

// v1Reps picks a repetition count that keeps the experiment fast at smoke
// scale yet stable at full scale.
func v1Reps(rows int) int {
	reps := 1 << 22 / rows
	if reps < 8 {
		reps = 8
	}
	return reps
}

// evalCounter counts the evaluations of the expression it wraps.
type evalCounter struct {
	expr.Expr
	n int
}

func (e *evalCounter) Eval(row types.Row) (types.Datum, error) {
	e.n++
	return e.Expr.Eval(row)
}

// countEvals runs prog and the tree-walk once each over rows and returns
// the expression evaluations per row each made, and the program it
// counted. That program is prog with every stage's Cond wrapped in a
// counter (a typed stage's by the conjunction of conds, which it was
// compiled from: V1's programs have one stage), so a stage that evaluates
// rows by tree-walk counts whatever its mode claims.
func countEvals(prog *expr.PredProgram, conds []expr.Expr, rows []types.Row) (counted *expr.PredProgram, kernel, walk float64, err error) {
	counted = &expr.PredProgram{Stages: slices.Clone(prog.Stages)}
	stageCounters := make([]evalCounter, len(counted.Stages))
	for i := range counted.Stages {
		sc := &stageCounters[i]
		if sc.Expr = counted.Stages[i].Cond; sc.Expr == nil {
			sc.Expr = expr.And(conds...)
		}
		counted.Stages[i].Cond = sc
	}
	if _, _, err := runKernel(counted, rows, 1); err != nil {
		return nil, 0, 0, err
	}
	kernelN := 0
	for _, sc := range stageCounters {
		kernelN += sc.n
	}
	counters := make([]evalCounter, len(conds))
	wrapped := make([]expr.Expr, len(conds))
	for i, c := range conds {
		counters[i].Expr = c
		wrapped[i] = &counters[i]
	}
	if _, err := walkRows(wrapped, rows); err != nil {
		return nil, 0, 0, err
	}
	walked := 0
	for _, c := range counters {
		walked += c.n
	}
	n := float64(len(rows))
	return counted, float64(kernelN) / n, float64(walked) / n, nil
}

func timeKernel(prog *expr.PredProgram, rows []types.Row) (nsPerRow float64, kept int, err error) {
	return runKernel(prog, rows, v1Reps(len(rows)))
}

// runKernel runs prog over rows reps times and returns the ns per row and
// the rows kept.
func runKernel(prog *expr.PredProgram, rows []types.Row, reps int) (nsPerRow float64, kept int, err error) {
	var b vec.Batch
	b.Reset(rows)
	ident := vec.IdentitySel(nil, len(rows))
	out := make([]int32, 0, len(rows))
	start := time.Now()
	for r := 0; r < reps; r++ {
		sel := ident
		for i := range prog.Stages {
			sel, err = prog.RunStage(i, &b, sel, out)
			if err != nil {
				return 0, 0, err
			}
		}
		kept = len(sel)
	}
	total := time.Since(start)
	return float64(total.Nanoseconds()) / float64(reps*len(rows)), kept, nil
}

func timeTreeWalk(conds []expr.Expr, rows []types.Row) (nsPerRow float64, kept int, err error) {
	reps := v1Reps(len(rows))
	start := time.Now()
	for r := 0; r < reps; r++ {
		if kept, err = walkRows(conds, rows); err != nil {
			return 0, 0, err
		}
	}
	total := time.Since(start)
	return float64(total.Nanoseconds()) / float64(reps*len(rows)), kept, nil
}

// walkRows evaluates conds row by row with EvalBool, stopping at a row's
// first conjunct that is not TRUE, and returns the rows kept.
func walkRows(conds []expr.Expr, rows []types.Row) (kept int, err error) {
	for _, row := range rows {
		pass := true
		for _, c := range conds {
			ok, err := expr.EvalBool(c, row)
			if err != nil {
				return 0, err
			}
			if !ok {
				pass = false
				break
			}
		}
		if pass {
			kept++
		}
	}
	return kept, nil
}
