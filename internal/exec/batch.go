package exec

import (
	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// progRunner owns the selection-vector scratch for one predicate program
// over a stream of batches. The program itself is immutable; all mutable
// state lives here, so a fresh progRunner per Run call keeps re-entrant
// plan-cached operators safe.
type progRunner struct {
	prog *expr.PredProgram
	// ident seeds the identity selection when the batch has none. Stages only
	// read their input selection, so it is filled once per high-water mark.
	ident []int32
	// bufs are the ping-pong output buffers stages write into.
	bufs [2][]int32
	next int
}

// run filters the batch's current selection through the program, returning
// the surviving selection and how many stages actually executed. When syn
// is non-nil, stages the page synopsis proves TRUE for every row are
// skipped without touching the data; ran==0 with a non-empty program means
// the whole batch qualified via synopsis alone. The returned selection is
// scratch owned by the runner — valid until the next run call.
func (pr *progRunner) run(b *vec.Batch, syn *storage.PageSynopsis) (sel []int32, ran int, err error) {
	cur := b.Sel
	if cur == nil {
		if len(pr.ident) < len(b.Rows) {
			pr.ident = vec.IdentitySel(pr.ident, len(b.Rows))
		}
		cur = pr.ident[:len(b.Rows)]
	}
	for i := range pr.prog.Stages {
		if len(cur) == 0 {
			break
		}
		if syn != nil && stageProvable(&pr.prog.Stages[i], syn) {
			continue
		}
		buf := pr.bufs[pr.next]
		if cap(buf) < len(cur) {
			buf = make([]int32, 0, len(b.Rows))
		}
		out, serr := pr.prog.RunStage(i, b, cur, buf)
		if serr != nil {
			return nil, ran + 1, serr
		}
		pr.bufs[pr.next] = buf
		pr.next = 1 - pr.next
		cur = out
		ran++
	}
	return cur, ran, nil
}

// stageProvable reports whether the page synopsis proves the stage TRUE for
// every row of the page.
func stageProvable(st *expr.Stage, syn *storage.PageSynopsis) bool {
	if st.Mode == expr.StageGeneric {
		return false
	}
	cs := syn.Col(st.Col)
	if cs == nil {
		return false
	}
	return st.ProvableTrue(cs.Min, cs.Max, cs.Nulls, syn.Rows)
}

// shortCircuitSource attributes a whole-page filter short-circuit: the
// first constraint-derived prune predicate whose interval provably covers
// the page wins, mirroring makeSkipper's first-match page-skip attribution.
// Pages no installed characterization proved fall to "filter" — the query's
// own predicate bounds — which the economy ledger does not credit.
func shortCircuitSource(preds []plan.PrunePred, syn *storage.PageSynopsis) string {
	for _, p := range preds {
		if p.Source == "filter" {
			continue
		}
		if p.Check != nil && !p.Check() {
			continue
		}
		cs := syn.Col(p.Col)
		if cs == nil {
			continue
		}
		nonNull := syn.Rows - cs.Nulls
		if p.Exclude {
			// The page qualifies when no row lies in the excluded interval:
			// all NULL, or the value range disjoint from it.
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

// pageSource is the page sequence a page loop reads: the heap's pages less
// those the prune predicates skip, or, once an index scan has switched to
// the page path, the pages its synopsis walk kept.
type pageSource struct {
	heap  *storage.Heap
	prune []plan.PrunePred
	path  *pagePath
}

// scan hands fn each page of the source at the query's snapshot.
func (src pageSource) scan(ctx *Ctx, fn storage.PageFunc) {
	snap, tid := ctx.snapView()
	switch {
	case src.path == nil:
		src.heap.ScanPagesAt(0, int(src.heap.PageCount()), snap, tid, &ctx.IO, makeSkipper(src.prune, ctx.Skips), fn)
	case src.path.list == nil:
		src.heap.ScanPagesAt(0, int(src.path.pages), snap, tid, &ctx.IO, nil, fn)
	default:
		src.heap.ScanPageListAt(src.path.list, snap, tid, &ctx.IO, fn)
	}
}

// scanPageLoop is the page scan kernel of SeqScan and of IndexScan's page
// path: one batch per heap page, filtered through a compiled predicate
// program with page-synopsis short-circuits. A page every filter stage is
// provably TRUE for skips per-row evaluation entirely — the dual of page
// skipping — and its rows are credited as short-circuited under the proving
// predicate's source.
func scanPageLoop(op string, src pageSource, filter []expr.Expr, ctx *Ctx, emit func(*vec.Batch) bool) error {
	prog := expr.CompilePredicate(filter)
	pr := progRunner{prog: prog}
	var batch vec.Batch
	var runErr error
	src.scan(ctx, func(rows []types.Row, syn *storage.PageSynopsis, img *vec.PageImage) bool {
		if err := ctx.checkpoint(op); err != nil {
			runErr = err
			return false
		}
		batch.ResetImage(rows, img)
		batch.Stored = true
		if len(prog.Stages) == 0 {
			return emit(&batch)
		}
		sel, ran, err := pr.run(&batch, syn)
		if err != nil {
			runErr = err
			return false
		}
		if ran == 0 {
			// Every stage was provably TRUE from the synopsis: the page
			// qualifies wholesale, no row was touched.
			n := int64(len(rows))
			ctx.AddShortCircuits(n)
			if ctx.Shorts != nil {
				ctx.Shorts.AddN(shortCircuitSource(src.prune, syn), n)
			}
			return emit(&batch)
		}
		if len(sel) == 0 {
			return true
		}
		batch.Sel = sel
		return emit(&batch)
	})
	return runErr
}

// skipPred is one active prune predicate of a scan execution. Predicates
// with numeric bounds carry them unboxed (num), so the per-page test against
// a numeric synopsis is scalar compares; other kinds go through the
// expr.Interval algebra. Both give the same verdict.
type skipPred struct {
	plan.PrunePred
	num   expr.NumInterval
	numOK bool
}

// covers reports whether every non-null value of the page column lies inside
// the predicate's interval; disjoint whether none does.
func (p *skipPred) covers(cs *storage.ColSynopsis) bool {
	if p.numOK {
		if covered, ok := p.num.Covers(cs.Min, cs.Max); ok {
			return covered
		}
	}
	return expr.Between(cs.Min, cs.Max, true, true).CoveredBy(p.Interval)
}

func (p *skipPred) disjoint(cs *storage.ColSynopsis) bool {
	if p.numOK {
		if disjoint, ok := p.num.Disjoint(cs.Min, cs.Max); ok {
			return disjoint
		}
	}
	return expr.Between(cs.Min, cs.Max, true, true).Disjoint(p.Interval)
}

// makeSkipper compiles prune predicates into a per-page skip decision over
// published synopses. Predicates whose Check rejects (source constraint
// violated, on probation, or decayed below the confidence floor) are
// dropped for this execution — the scan falls back toward a full read.
// Returns nil when nothing can prune, which disables synopsis loads
// entirely. A non-nil rec is credited with each skipped page under the
// winning predicate's Source (dead-slot-only pages credit nothing — no
// predicate proved them).
func makeSkipper(preds []plan.PrunePred, rec *SkipRecorder) func(*storage.PageSynopsis) bool {
	active := make([]skipPred, 0, len(preds))
	for _, p := range preds {
		if p.Check == nil || p.Check() {
			p.Interval = p.Interval.Plain()
			sp := skipPred{PrunePred: p}
			sp.num, sp.numOK = p.Interval.Numeric()
			active = append(active, sp)
		}
	}
	if len(active) == 0 {
		return nil
	}
	return func(syn *storage.PageSynopsis) bool {
		if syn.Rows == 0 {
			// Only dead slots: nothing to read, safe to skip under any
			// predicate set.
			return true
		}
		for i := range active {
			p := &active[i]
			cs := syn.Col(p.Col)
			if cs == nil {
				continue
			}
			nonNull := syn.Rows - cs.Nulls
			if p.Exclude {
				// Every row's value must provably lie inside the excluded
				// interval; NULLs are outside every interval, so any NULL
				// keeps the page.
				if cs.Nulls == 0 && nonNull > 0 && p.covers(cs) {
					rec.Add(p.Source)
					return true
				}
				continue
			}
			// Inclusion: qualifying rows need a value inside Interval. A
			// NULL can only qualify for derived predicates (NullsQualify);
			// the query's own sargable comparisons reject NULL.
			if cs.Nulls > 0 && p.NullsQualify {
				continue
			}
			if nonNull == 0 {
				rec.Add(p.Source)
				return true // all-NULL page, NULLs cannot qualify here
			}
			if p.disjoint(cs) {
				rec.Add(p.Source)
				return true
			}
		}
		return false
	}
}

// CountSkippablePages evaluates the prune predicates against a heap's
// current synopses and reports how many pages a scan would skip. The
// optimizer uses this for synopsis-aware page estimates; it touches no
// counters.
func CountSkippablePages(h *storage.Heap, preds []plan.PrunePred) int64 {
	skip := makeSkipper(preds, nil)
	if skip == nil {
		return 0
	}
	var n int64
	for pi := 0; pi < int(h.PageCount()); pi++ {
		if syn := h.Synopsis(pi); syn != nil && skip(syn) {
			n++
		}
	}
	return n
}

// FilterPrunePreds extracts prune predicates from a scan's own sargable
// conjuncts: every column with a bounded extracted interval yields an
// inclusion predicate (NULL never qualifies a comparison, so pages may be
// skipped regardless of their null counts). Hole-trimmed filter intervals
// are already part of the conjuncts and are picked up here for free.
func FilterPrunePreds(filter []expr.Expr, ncols int) []plan.PrunePred {
	var out []plan.PrunePred
	for ord := 0; ord < ncols; ord++ {
		iv, _ := expr.ExtractInterval(filter, ord)
		if iv.IsUnbounded() {
			continue
		}
		out = append(out, plan.PrunePred{Col: ord, Interval: iv, Source: "filter"})
	}
	return out
}
