package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/schema"
	"softdb/internal/storage"
	"softdb/internal/types"
)

// algebraSkipper is the page-skip decision written against the expr.Interval
// algebra alone — what makeSkipper computed before numeric predicates got
// unboxed bounds. It is the oracle the typed skipper must match page for
// page, attribution included.
func algebraSkipper(preds []plan.PrunePred, rec *SkipRecorder) func(*storage.PageSynopsis) bool {
	return func(syn *storage.PageSynopsis) bool {
		if syn.Rows == 0 {
			return true
		}
		for _, p := range preds {
			if p.Check != nil && !p.Check() {
				continue
			}
			cs := syn.Col(p.Col)
			if cs == nil {
				continue
			}
			nonNull := syn.Rows - cs.Nulls
			if p.Exclude {
				if cs.Nulls == 0 && nonNull > 0 &&
					expr.Between(cs.Min, cs.Max, true, true).CoveredBy(p.Interval.Plain()) {
					rec.Add(p.Source)
					return true
				}
				continue
			}
			if cs.Nulls > 0 && p.NullsQualify {
				continue
			}
			if nonNull == 0 {
				rec.Add(p.Source)
				return true
			}
			if expr.Between(cs.Min, cs.Max, true, true).Disjoint(p.Interval.Plain()) {
				rec.Add(p.Source)
				return true
			}
		}
		return false
	}
}

// skipperHeap holds an INT, a FLOAT, a DATE and a STRING column, clustered
// with noise, NULL runs and all-NULL pages, so synopses come in every shape.
func skipperHeap(rng *rand.Rand) *storage.Heap {
	def := mustTable("s",
		schema.Column{Name: "i", Type: types.KindInt, Nullable: true},
		schema.Column{Name: "f", Type: types.KindFloat, Nullable: true},
		schema.Column{Name: "d", Type: types.KindDate, Nullable: true},
		schema.Column{Name: "s", Type: types.KindString, Nullable: true},
	)
	h := storage.NewHeap(def)
	per := h.RowsPerPage()
	for i := 0; i < 40*per; i++ {
		page := i / per
		v := int64(page*10 + rng.Intn(12))
		row := types.Row{types.NewInt(v), types.NewFloat(float64(v) / 4), types.NewDate(10000 + v), types.NewString(fmt.Sprint("k", page%7))}
		for c := range row {
			if page%9 == 8 || (page%5 == c && rng.Intn(3) == 0) {
				row[c] = types.Null // page 8, 17, ...: every column all-NULL
			}
		}
		h.Insert(row)
	}
	return h
}

func randBound(rng *rand.Rand, col int) types.Datum {
	v := int64(rng.Intn(420) - 10)
	switch col {
	case 1:
		return types.NewFloat(float64(v) / 4)
	case 2:
		if rng.Intn(4) == 0 {
			return types.NewInt(10000 + v) // INT bound on a DATE column
		}
		return types.NewDate(10000 + v)
	case 3:
		return types.NewString(fmt.Sprint("k", rng.Intn(8)))
	default:
		if rng.Intn(4) == 0 {
			return types.NewFloat(float64(v) + 0.5) // FLOAT bound on an INT column
		}
		return types.NewInt(v)
	}
}

func randInterval(rng *rand.Rand, col int) expr.Interval {
	switch rng.Intn(5) {
	case 0:
		return expr.AtLeast(randBound(rng, col), rng.Intn(2) == 0)
	case 1:
		return expr.AtMost(randBound(rng, col), rng.Intn(2) == 0)
	case 2:
		return expr.Point(randBound(rng, col))
	case 3:
		return expr.Interval{ExactEmpty: true}
	default:
		return expr.Between(randBound(rng, col), randBound(rng, col), rng.Intn(2) == 0, rng.Intn(2) == 0)
	}
}

// TestTypedSkipperMatchesIntervalAlgebra: over random predicate lists the
// typed skipper skips exactly the pages the Interval algebra skips and
// credits each to the same (first matching) source; CountSkippablePages
// shares the decision; and Stage.ProvableTrue proves exactly the pages the
// algebra proves.
func TestTypedSkipperMatchesIntervalAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	h := skipperHeap(rng)
	pages := int(h.PageCount())
	var skipped int
	for trial := 0; trial < 3000; trial++ {
		preds := make([]plan.PrunePred, 1+rng.Intn(3))
		for i := range preds {
			col := rng.Intn(4)
			preds[i] = plan.PrunePred{Col: col, Interval: randInterval(rng, col),
				Exclude: rng.Intn(4) == 0, NullsQualify: rng.Intn(3) == 0,
				Source: fmt.Sprint("src", i)}
			if rng.Intn(6) == 0 {
				off := rng.Intn(2) == 0
				preds[i].Check = func() bool { return !off }
			}
		}
		typedRec, algebraRec := NewSkipRecorder(), NewSkipRecorder()
		typed, algebra := makeSkipper(preds, typedRec), algebraSkipper(preds, algebraRec)
		var want int64
		for pi := 0; pi < pages; pi++ {
			syn := h.Synopsis(pi)
			w := algebra(syn)
			if got := typed != nil && typed(syn); got != w {
				t.Fatalf("trial %d page %d: typed skip=%v, algebra skip=%v (preds %+v, synopsis %+v)", trial, pi, got, w, preds, syn)
			}
			if w {
				want++
			}
		}
		tc, ac := typedRec.Counts(), algebraRec.Counts()
		for src, n := range ac {
			if tc[src] != n {
				t.Fatalf("trial %d: source %s credited %d pages typed, %d by the algebra", trial, src, tc[src], n)
			}
		}
		if len(tc) != len(ac) {
			t.Fatalf("trial %d: attribution %v vs %v", trial, tc, ac)
		}
		if got := CountSkippablePages(h, preds); got != want {
			t.Fatalf("trial %d: CountSkippablePages %d, want %d", trial, got, want)
		}
		skipped += int(want)

		// One compiled range or <> stage against every page.
		col := rng.Intn(4)
		kind := []types.Kind{types.KindInt, types.KindFloat, types.KindDate, types.KindString}[col]
		ref := expr.NewColumn("s", "c", col, kind)
		op := []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}[rng.Intn(6)]
		conds := []expr.Expr{expr.NewBinary(op, ref, expr.NewConst(randBound(rng, col)))}
		if rng.Intn(2) == 0 {
			conds = append(conds, expr.NewBinary(expr.OpLe, ref, expr.NewConst(randBound(rng, col))))
		}
		prog := expr.CompilePredicate(conds)
		for pi := 0; pi < pages; pi++ {
			syn := h.Synopsis(pi)
			for si := range prog.Stages {
				st := &prog.Stages[si]
				cs := syn.Col(st.Col)
				var want bool
				if hasBounds := !cs.Min.IsNull(); hasBounds && cs.Nulls == 0 {
					page := expr.Between(cs.Min, cs.Max, true, true)
					switch st.Mode {
					case expr.StageRange:
						want = page.CoveredBy(st.Iv)
					case expr.StageNe:
						want = !st.Ne.IsNull() && page.Disjoint(expr.Point(st.Ne))
					}
				}
				if got := stageProvable(st, syn); got != want {
					t.Fatalf("trial %d page %d: stage %v provable=%v, algebra says %v (synopsis %+v)", trial, pi, conds, got, want, cs)
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no predicate list ever skipped a page")
	}
}
