package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/schema"
	"softdb/internal/storage"
	"softdb/internal/types"
)

// algebraSkipper is the page-skip decision written against the expr.Interval
// algebra over Datum bounds alone. It is the oracle the prune pass over the
// column-layout zone map must match page for page, attribution included. A
// scan with no active predicate skips nothing, not even dead-only pages.
func algebraSkipper(preds []plan.PrunePred, rec *SkipRecorder) func(*storage.PageSynopsis) bool {
	active := false
	for _, p := range preds {
		active = active || p.Check == nil || p.Check()
	}
	return func(syn *storage.PageSynopsis) bool {
		if !active {
			return false
		}
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
					rec.AddN(p.Source, 1)
					return true
				}
				continue
			}
			if cs.Nulls > 0 && p.NullsQualify {
				continue
			}
			if nonNull == 0 {
				rec.AddN(p.Source, 1)
				return true
			}
			if expr.Between(cs.Min, cs.Max, true, true).Disjoint(p.Interval.Plain()) {
				rec.AddN(p.Source, 1)
				return true
			}
		}
		return false
	}
}

// algebraShortCircuitSource is shortCircuitSource over Datum bounds.
func algebraShortCircuitSource(preds []plan.PrunePred, syn *storage.PageSynopsis) string {
	for _, p := range preds {
		if p.Source == "filter" || (p.Check != nil && !p.Check()) {
			continue
		}
		cs := syn.Col(p.Col)
		if cs == nil {
			continue
		}
		nonNull := syn.Rows - cs.Nulls
		if p.Exclude {
			if nonNull == 0 ||
				(!cs.Min.IsNull() && expr.Between(cs.Min, cs.Max, true, true).Disjoint(p.Interval)) {
				return p.Source
			}
			continue
		}
		if cs.Nulls > 0 && !p.NullsQualify {
			continue
		}
		if nonNull > 0 && !cs.Min.IsNull() &&
			expr.Between(cs.Min, cs.Max, true, true).CoveredBy(p.Interval) {
			return p.Source
		}
	}
	return "filter"
}

// refSynopses computes every page's synopsis from the heap's non-aborted
// versions with Datum.Compare — independently of the zone map. Pages whose
// zone entry was never published (only aborted placeholders were ever
// installed) are nil.
func refSynopses(h *storage.Heap) []*storage.PageSynopsis {
	ncols := len(h.Def().Columns)
	out := make([]*storage.PageSynopsis, h.PageCount())
	for pi := range out {
		if h.Synopsis(pi) != nil {
			out[pi] = &storage.PageSynopsis{Cols: make([]storage.ColSynopsis, ncols)}
		}
	}
	h.ScanVersions(func(id storage.RowID, row types.Row) bool {
		syn := out[id.Page]
		syn.Rows++
		for ci := range syn.Cols {
			cs, d := &syn.Cols[ci], row[ci]
			if d.IsNull() {
				cs.Nulls++
				continue
			}
			if cs.Min.IsNull() || d.Compare(cs.Min) < 0 {
				cs.Min = d
			}
			if cs.Max.IsNull() || d.Compare(cs.Max) > 0 {
				cs.Max = d
			}
		}
		return true
	})
	return out
}

// sameSynopsis compares two synopses. Bounds must be identical datums when
// exact is set; otherwise they need only compare equal — a bound tied
// between an INT and a DATE (or FLOAT) value keeps the kind merged first,
// and a replay merges a page's slots in another order than their own.
func sameSynopsis(a, b *storage.PageSynopsis, exact bool) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Rows != b.Rows || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		x, y := a.Cols[i], b.Cols[i]
		if exact && x != y {
			return false
		}
		if x.Nulls != y.Nulls || x.Min.Compare(y.Min) != 0 || x.Max.Compare(y.Max) != 0 {
			return false
		}
	}
	return true
}

// skipperValue draws column c's value for page page, of the column's kind
// as a page stores it: column 0 (INT) now and then negative, column 1
// (FLOAT) now and then -0 or ±Inf, column 2 (DATE) and column 3 (STRING).
func skipperValue(rng *rand.Rand, page, c int) types.Datum {
	v := int64(page*10 + rng.Intn(12))
	switch c {
	case 0:
		if rng.Intn(8) == 0 {
			return types.NewInt(-v)
		}
		return types.NewInt(v)
	case 1:
		switch rng.Intn(16) {
		case 0:
			return types.NewFloat(math.Copysign(0, -1))
		case 1:
			return types.NewFloat(math.Inf(1 - 2*rng.Intn(2)))
		}
		return types.NewFloat(float64(v) / 4)
	case 2:
		return types.NewDate(10000 + v)
	default:
		return types.NewString(fmt.Sprint("k", page%7, rng.Intn(3)))
	}
}

// skipperHeaps builds heaps whose zone entries went through every
// publication site: a live heap (inserts, an uncommitted insert, aborted
// inserts, legacy deletes and updates, committed deletes reclaimed by
// vacuum, NULL-only and dead-only pages), the heap RebuildHeap restores from
// its dump, and one replayed slot by slot through InsertAtRID (gap-filled
// placeholders, resurrected slots, pages holding only placeholders).
// namedHeap is one heap of skipperHeaps.
type namedHeap struct {
	name string
	h    *storage.Heap
}

func skipperHeaps(rng *rand.Rand) []namedHeap {
	def := mustTable("s",
		schema.Column{Name: "i", Type: types.KindInt, Nullable: true},
		schema.Column{Name: "f", Type: types.KindFloat, Nullable: true},
		schema.Column{Name: "d", Type: types.KindDate, Nullable: true},
		schema.Column{Name: "s", Type: types.KindString, Nullable: true},
	)
	h := storage.NewHeap(def)
	per := h.RowsPerPage()
	row := func(page int) types.Row {
		r := make(types.Row, 4)
		for c := range r {
			r[c] = skipperValue(rng, page, c)
			if page%9 == 8 || (page%5 == c && rng.Intn(3) == 0) {
				r[c] = types.Null // page 8, 17, ...: every column all-NULL
			}
		}
		return r
	}
	var ids []storage.RowID
	for i := 0; i < 40*per; i++ {
		page := i / per
		if page%6 == 3 && i%per == 0 {
			// An aborted insert of an outlying value: the abort must shed it.
			h.AbortInsert(h.InsertVersion(types.Row{types.NewInt(-1000), types.Null, types.Null, types.NewString("zz")}, 9))
		}
		ids = append(ids, h.Insert(row(page)))
	}
	for i, id := range ids {
		page := int(id.Page)
		switch {
		case page == 30: // dead-only page once vacuumed
			h.SetEnd(id, 40)
		case page%7 == 2 && i%5 == 0:
			h.SetEnd(id, 40)
		case page%7 == 4 && i%4 == 0:
			// An update: the old version ends, the new one lands at the tail.
			r := row(page)
			if i%8 == 0 {
				r = types.Row{types.Null, types.Null, types.Null, types.Null}
			}
			h.SetEnd(id, 40)
			h.Insert(r)
		case page%7 == 5 && i%3 == 0:
			h.SetEnd(id, 50)
		}
	}
	h.Vacuum(100)
	h.InsertVersion(types.Row{types.NewInt(1 << 40), types.NewFloat(-1e300), types.NewDate(0), types.NewString("")}, 77)

	dump := h.DumpPages()
	rebuilt := storage.RebuildHeap(def, dump, h.Version())
	replayed := storage.NewHeap(def)
	for pass := 0; pass < 2; pass++ {
		for pi, ps := range dump {
			for si, s := range ps {
				if !s.Dead && si%2 != pass {
					replayed.InsertAtRID(s.Row, storage.RowID{Page: int32(pi), Slot: int32(si)}, storage.CommittedMin)
				}
			}
		}
	}
	return []namedHeap{{"live", h}, {"rebuilt", rebuilt}, {"replayed", replayed}}
}

func randBound(rng *rand.Rand, col int) types.Datum {
	v := int64(rng.Intn(420) - 10)
	switch col {
	case 1:
		switch rng.Intn(10) {
		case 0:
			return types.NewFloat(math.Inf(1 - 2*rng.Intn(2)))
		case 1:
			return types.NewInt(v / 4) // INT bound on a FLOAT column
		}
		return types.NewFloat(float64(v) / 4)
	case 2:
		if rng.Intn(4) == 0 {
			return types.NewInt(10000 + v) // INT bound on a DATE column
		}
		return types.NewDate(10000 + v)
	case 3:
		return types.NewString(fmt.Sprint("k", rng.Intn(8)))
	default:
		switch rng.Intn(8) {
		case 0, 1:
			return types.NewFloat(float64(v) + 0.5) // FLOAT bound on an INT column
		case 2:
			return types.NewString("k1") // a bound no INT value compares numerically with
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

func randPrunePreds(rng *rand.Rand) []plan.PrunePred {
	preds := make([]plan.PrunePred, 1+rng.Intn(3))
	for i := range preds {
		col := rng.Intn(4)
		preds[i] = plan.PrunePred{Col: col, Interval: randInterval(rng, col),
			Exclude: rng.Intn(4) == 0, NullsQualify: rng.Intn(3) == 0,
			Source: fmt.Sprint("src", i)}
		if rng.Intn(3) == 0 {
			preds[i].Source = "filter"
		}
		if rng.Intn(6) == 0 {
			off := rng.Intn(2) == 0
			preds[i].Check = func() bool { return !off }
		}
	}
	return preds
}

// TestTypedSkipperMatchesIntervalAlgebra: on heaps whose zone entries went
// through every publication site, each entry equals the synopsis recomputed
// from the versions with Datum.Compare; over random predicate lists the
// prune pass skips exactly the pages the Interval algebra skips and credits
// each to the same (first matching) source, also when a scan stops early;
// CountSkippablePages shares the decision; and stageProvable and
// shortCircuitSource prove exactly what the algebra proves.
func TestTypedSkipperMatchesIntervalAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var skipped, shorts int
	for _, nh := range skipperHeaps(rng) {
		name, h := nh.name, nh.h
		pages := int(h.PageCount())
		ref := refSynopses(h)
		absent := 0
		for pi := range ref {
			if !sameSynopsis(h.Synopsis(pi), ref[pi], name != "replayed") {
				t.Fatalf("%s page %d: zone entry %+v, recomputed %+v", name, pi, h.Synopsis(pi), ref[pi])
			}
			if ref[pi] == nil {
				absent++
			}
		}
		if name == "replayed" && absent == 0 {
			t.Fatalf("%s: no page without a published entry", name)
		}
		for trial := 0; trial < 1500; trial++ {
			preds := randPrunePreds(rng)
			typedRec, algebraRec := NewSkipRecorder(), NewSkipRecorder()
			algebra := algebraSkipper(preds, algebraRec)
			ps := newPruneScratch(preds)
			ps.pass(h.Zone(), math.Inf(1), true)
			kept := map[int32]bool{}
			for _, pi := range ps.kept {
				kept[pi] = true
			}
			var want int64
			for pi := 0; pi < pages; pi++ {
				w := ref[pi] != nil && algebra(ref[pi])
				if got := !kept[int32(pi)]; got != w {
					t.Fatalf("%s trial %d page %d: typed skip=%v, algebra skip=%v (preds %+v, synopsis %+v)", name, trial, pi, got, w, preds, ref[pi])
				}
				if w {
					want++
				}
			}
			ps.creditSources(typedRec)
			tc, ac := typedRec.Counts(), algebraRec.Counts()
			for src, n := range ac {
				if tc[src] != n {
					t.Fatalf("%s trial %d: source %s credited %d pages typed, %d by the algebra", name, trial, src, tc[src], n)
				}
			}
			if len(tc) != len(ac) {
				t.Fatalf("%s trial %d: attribution %v vs %v", name, trial, tc, ac)
			}
			if got := CountSkippablePages(h, preds); got != want {
				t.Fatalf("%s trial %d: CountSkippablePages %d, want %d", name, trial, got, want)
			}
			skipped += int(want)

			// A scan that stops at kept page k charges and credits only the
			// skips before it, as a page-by-page walk that stops there does.
			if len(ps.kept) > 0 {
				k := rng.Intn(len(ps.kept))
				stopRec := NewSkipRecorder()
				ctx := &Ctx{Skips: stopRec}
				ps.pass(h.Zone(), math.Inf(1), true)
				ps.credit(ctx, k, pages)
				walkRec := NewSkipRecorder()
				walk := algebraSkipper(preds, walkRec)
				var walkSkipped int64
				for pi := 0; pi < int(ps.kept[k]); pi++ {
					if ref[pi] != nil && walk(ref[pi]) {
						walkSkipped++
					}
				}
				if ctx.IO.PagesSkipped != walkSkipped {
					t.Fatalf("%s trial %d: stop at kept[%d]=%d charged %d skips, walk %d", name, trial, k, ps.kept[k], ctx.IO.PagesSkipped, walkSkipped)
				}
				sc, wc := stopRec.Counts(), walkRec.Counts()
				for src, n := range wc {
					if sc[src] != n {
						t.Fatalf("%s trial %d: stopped scan credited %s %d, walk %d", name, trial, src, sc[src], n)
					}
				}
			}
			ps.release()

			// The short-circuit attribution against every page.
			z := h.Zone()
			for pi := 0; pi < pages; pi++ {
				e, ok := z.Entry(pi)
				if !ok {
					continue
				}
				got, want := shortCircuitSource(preds, &e), algebraShortCircuitSource(preds, ref[pi])
				if got != want {
					t.Fatalf("%s trial %d page %d: short-circuit credited %q, algebra %q", name, trial, pi, got, want)
				}
				if got != "filter" {
					shorts++
				}
			}

			// One compiled range, <>, IS NULL or IS NOT NULL stage against
			// every page.
			col := rng.Intn(4)
			kind := []types.Kind{types.KindInt, types.KindFloat, types.KindDate, types.KindString}[col]
			ref0 := expr.NewColumn("s", "c", col, kind)
			var conds []expr.Expr
			switch r := rng.Intn(8); {
			case r == 0:
				conds = []expr.Expr{expr.NewUnary(expr.OpIsNull, ref0)}
			case r == 1:
				conds = []expr.Expr{expr.NewUnary(expr.OpIsNotNull, ref0)}
			default:
				op := []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}[rng.Intn(6)]
				conds = []expr.Expr{expr.NewBinary(op, ref0, expr.NewConst(randBound(rng, col)))}
				if rng.Intn(2) == 0 {
					conds = append(conds, expr.NewBinary(expr.OpLe, ref0, expr.NewConst(randBound(rng, col))))
				}
			}
			prog := expr.CompilePredicate(conds)
			for pi := 0; pi < pages; pi++ {
				e, ok := z.Entry(pi)
				if !ok {
					continue
				}
				syn := ref[pi]
				for si := range prog.Stages {
					st := &prog.Stages[si]
					cs := syn.Col(st.Col)
					var want bool
					switch st.Mode {
					case expr.StageIsNull:
						want = syn.Rows > 0 && cs.Nulls == syn.Rows
					case expr.StageIsNotNull:
						want = cs.Nulls == 0
					default:
						if hasBounds := !cs.Min.IsNull(); hasBounds && cs.Nulls == 0 {
							page := expr.Between(cs.Min, cs.Max, true, true)
							switch st.Mode {
							case expr.StageRange:
								want = page.CoveredBy(st.Iv)
							case expr.StageNe:
								want = !st.Ne.IsNull() && page.Disjoint(expr.Point(st.Ne))
							}
						}
					}
					if got := stageProvable(st, &e); got != want {
						t.Fatalf("%s trial %d page %d: stage %v provable=%v, algebra says %v (synopsis %+v)", name, trial, pi, conds, got, want, cs)
					}
					if got := st.ProvableTrue(cs.Min, cs.Max, cs.Nulls, syn.Rows); got != want {
						t.Fatalf("%s trial %d page %d: Stage.ProvableTrue %v, algebra says %v", name, trial, pi, got, want)
					}
				}
			}
		}
	}
	if skipped == 0 || shorts == 0 {
		t.Fatalf("no predicate list ever skipped a page (%d) or proved a short-circuit source (%d)", skipped, shorts)
	}
}
