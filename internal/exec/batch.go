package exec

import (
	"math"

	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/storage"
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
// the surviving selection and how many stages actually executed. When zone
// is non-nil, stages the page's zone entry proves TRUE for every row are
// skipped without touching the data; ran==0 with a non-empty program means
// the whole batch qualified via the entry alone. The returned selection is
// scratch owned by the runner — valid until the next run call.
func (pr *progRunner) run(b *vec.Batch, zone *storage.ZoneEntry) (sel []int32, ran int, err error) {
	cur := b.Sel
	if cur == nil {
		if len(pr.ident) < b.Size() {
			pr.ident = vec.IdentitySel(pr.ident, b.Size())
		}
		cur = pr.ident[:b.Size()]
	}
	for i := range pr.prog.Stages {
		if len(cur) == 0 {
			break
		}
		if zone != nil && stageProvable(&pr.prog.Stages[i], zone) {
			continue
		}
		buf := pr.bufs[pr.next]
		if cap(buf) < len(cur) {
			buf = make([]int32, 0, b.Size())
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

// pageSource is the page sequence a page loop reads: the heap's pages less
// those the prune pass skips, or, once an index scan has switched to the
// page path, the pages its prune pass kept.
type pageSource struct {
	heap  *storage.Heap
	prune []plan.PrunePred
	path  *pagePath
}

// scan hands fn each page of the source at the query's snapshot, through the
// one list-based read path. A SeqScan charges and credits the pages its prune
// pass skipped once the read ends, counting only those below the page where
// a LIMIT stopped it — what a page-by-page walk would have charged; an index
// scan's page path charged its skips when it switched.
func (src pageSource) scan(ctx *Ctx, fn storage.PageFunc) {
	snap, tid := ctx.snapView()
	if src.path != nil {
		src.heap.ScanPageListAt(src.path.prune.kept, snap, tid, &ctx.IO, fn)
		return
	}
	ps := newPruneScratch(src.prune)
	defer ps.release()
	z := src.heap.Zone()
	ps.pass(z, math.Inf(1), ctx.Skips != nil)
	k := src.heap.ScanPageListAt(ps.kept, snap, tid, &ctx.IO, fn)
	ps.credit(ctx, k, z.Pages())
}

// scanPageLoop is the page scan kernel of SeqScan and of IndexScan's page
// path: one column batch per heap page (the page's own typed columns, its
// visible slots selected), filtered through a compiled predicate program
// with zone-entry short-circuits. A page every filter stage is provably TRUE
// for skips per-row evaluation entirely — the dual of page skipping — and
// its rows are credited as short-circuited under the proving predicate's
// source.
func scanPageLoop(op string, src pageSource, filter []expr.Expr, ctx *Ctx, emit func(*vec.Batch) bool) error {
	prog := expr.CompilePredicate(filter)
	pr := progRunner{prog: prog}
	var runErr error
	src.scan(ctx, func(pi int, batch *vec.Batch, zone *storage.ZoneEntry) bool {
		if err := ctx.checkpoint(op); err != nil {
			runErr = err
			return false
		}
		if len(prog.Stages) == 0 {
			return emit(batch)
		}
		sel, ran, err := pr.run(batch, zone)
		if err != nil {
			runErr = err
			return false
		}
		if ran == 0 {
			// Every stage was provably TRUE from the zone entry: the page
			// qualifies wholesale, no row was touched.
			n := int64(batch.Len())
			ctx.AddShortCircuits(n)
			if ctx.Shorts != nil {
				ctx.Shorts.AddN(shortCircuitSource(src.prune, zone), n)
			}
			return emit(batch)
		}
		if len(sel) == 0 {
			return true
		}
		batch.Sel = sel
		return emit(batch)
	})
	return runErr
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
