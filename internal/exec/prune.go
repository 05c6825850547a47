package exec

import (
	"math"
	"slices"
	"sync"

	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/storage"
	"softdb/internal/types"
)

// prunePred is one active prune predicate of a scan execution. Predicates
// with numeric bounds carry them unboxed (num), so the per-page test against
// INT, DATE or FLOAT zone bounds is scalar compares; other kinds go through
// the expr.Interval algebra over the bound datums. Both give the same
// verdict.
type prunePred struct {
	plan.PrunePred
	num   expr.NumInterval
	numOK bool
	// absent marks a predicate on a column the heap does not have: it proves
	// nothing.
	absent bool
}

// zoneNums returns a zone column's bounds unboxed when both are INT, DATE or
// FLOAT.
func zoneNums(c *storage.ZoneBounds) (lo, hi expr.Num, ok bool) {
	if lo, ok = zoneNum(c.LoKind, c.Lo); ok {
		hi, ok = zoneNum(c.HiKind, c.Hi)
	}
	return lo, hi, ok
}

func zoneNum(k types.Kind, w int64) (expr.Num, bool) {
	switch k {
	case types.KindInt, types.KindDate:
		return expr.IntNum(w), true
	case types.KindFloat:
		return expr.FloatNum(math.Float64frombits(uint64(w))), true
	}
	return expr.Num{}, false
}

// covers reports whether every non-null value of the page column lies inside
// the predicate's interval; disjoint whether none does.
func (p *prunePred) covers(c *storage.ZoneBounds) bool {
	if p.numOK {
		if lo, hi, ok := zoneNums(c); ok {
			return p.num.CoversNum(lo, hi)
		}
	}
	lo, hi := c.Datums()
	return expr.Between(lo, hi, true, true).CoveredBy(p.Interval)
}

func (p *prunePred) disjoint(c *storage.ZoneBounds) bool {
	if p.numOK {
		if lo, hi, ok := zoneNums(c); ok {
			return p.num.DisjointNum(lo, hi)
		}
	}
	lo, hi := c.Datums()
	return expr.Between(lo, hi, true, true).Disjoint(p.Interval)
}

// prunes reports whether the predicate proves that page i of a zone block
// (whose column the predicate reads is zc, and which holds rows > 0
// non-aborted rows) has no qualifying row.
func (p *prunePred) prunes(zc storage.ZoneColumn, i int, rows int64) bool {
	if p.absent {
		return false
	}
	c := zc.Bounds(i)
	nonNull := rows - c.Nulls
	if p.Exclude {
		// Every row's value must provably lie inside the excluded interval;
		// NULLs are outside every interval, so any NULL keeps the page.
		if c.Nulls != 0 || nonNull <= 0 {
			return false
		}
		return p.covers(&c)
	}
	// Inclusion: qualifying rows need a value inside Interval. A NULL can
	// only qualify for derived predicates (NullsQualify); the query's own
	// sargable comparisons reject NULL.
	if c.Nulls > 0 && p.NullsQualify {
		return false
	}
	if nonNull == 0 {
		return true // an all-NULL page cannot qualify here
	}
	return p.disjoint(&c)
}

// Page attributions a prune pass records in pruneScratch.by.
const (
	pageKept = 0
	pageDead = 1 // only dead slots: skipped under any predicate, credited to none
	// pageByPred+i: skipped by active predicate i
	pageByPred = 2
)

// pruneScratch is one execution's prune pass state, taken from a pool and
// released when the scan is done with its page list.
type pruneScratch struct {
	// preds are the execution's active predicates.
	preds []prunePred
	// kept lists the pages no predicate pruned, ascending; tally counts the
	// pages each predicate pruned (first match wins); rows sums the
	// non-aborted rows of the kept pages whose entries were known.
	kept  []int32
	tally []int64
	rows  int64
	// cols holds each predicate's column of the block being walked.
	cols []storage.ZoneColumn
	// by records each page's attribution when the pass was asked to (a
	// SeqScan that may stop early credits only the pages it passed).
	by []uint16
}

var pruneScratchPool = sync.Pool{New: func() any { return new(pruneScratch) }}

// newPruneScratch takes a scratch from the pool and activates preds on it:
// predicates whose Check rejects (source constraint violated, on probation,
// or decayed below the confidence floor) are dropped for this execution —
// the scan falls back toward a full read.
func newPruneScratch(preds []plan.PrunePred) *pruneScratch {
	s := pruneScratchPool.Get().(*pruneScratch)
	for _, p := range preds {
		if p.Check == nil || p.Check() {
			p.Interval = p.Interval.Plain()
			pp := prunePred{PrunePred: p}
			pp.num, pp.numOK = p.Interval.Numeric()
			s.preds = append(s.preds, pp)
		}
	}
	return s
}

// release returns the scratch to the pool. The page list must no longer be
// in use.
func (s *pruneScratch) release() {
	clear(s.preds) // intervals and Check closures reach catalog state
	clear(s.cols)
	s.preds, s.kept, s.tally, s.by, s.cols = s.preds[:0], s.kept[:0], s.tally[:0], s.by[:0], s.cols[:0]
	s.rows = 0
	pruneScratchPool.Put(s)
}

// all lists pages 0 to n-1 as kept: the page list of a scan nothing prunes.
func (s *pruneScratch) all(n int) {
	s.kept = s.kept[:0]
	for pi := 0; pi < n; pi++ {
		s.kept = append(s.kept, int32(pi))
	}
}

// pass is the one prune pass over a heap's zone map: it decides every page
// of z against the active predicates, filling kept, tally and rows (and by,
// when attribute is set). A page whose entry is unknown (never published, or
// being stored by a writer) is kept and proves nothing; a page holding only
// dead slots is skipped and credited to no predicate — unless no predicate
// is active, when every page is kept. The pass stops early and returns false
// as soon as the kept pages' rows reach budget (pass +Inf for none), leaving
// kept incomplete.
func (s *pruneScratch) pass(z storage.ZoneView, budget float64, attribute bool) bool {
	n := z.Pages()
	s.kept, s.rows = s.kept[:0], 0
	s.tally = append(s.tally[:0], make([]int64, len(s.preds))...)
	if len(s.preds) == 0 {
		s.all(n) // nothing can prune: not even dead-only pages are skipped
		return true
	}
	if attribute {
		s.by = append(s.by[:0], make([]uint16, n)...)
	}
	ncols := z.Cols()
	preds, tally, byPage := s.preds, s.tally, s.by
	kept := slices.Grow(s.kept[:0], n)[:n]
	k := 0
	var rows int64
	for i := range preds {
		preds[i].absent = preds[i].Col < 0 || preds[i].Col >= ncols
	}
	for bi := 0; bi < z.Blocks(); bi++ {
		blk := z.Block(bi)
		// Each predicate's column of this block, read page by page below.
		cols := s.cols[:0]
		for i := range preds {
			cols = append(cols, blk.Column(preds[i].Col))
		}
		s.cols = cols
		for i, first := 0, blk.First(); i < blk.Len(); i++ {
			pi := int32(first + i)
			by := uint16(pageKept)
			e, ok := blk.Entry(i)
			if ok && e.Rows == 0 {
				by = pageDead
			} else if ok {
				for j := range preds {
					if preds[j].prunes(cols[j], i, e.Rows) {
						by = pageByPred + uint16(j)
						break
					}
				}
			}
			if ok = ok && e.Valid(); !ok || by == pageKept {
				if ok {
					if rows += e.Rows; float64(rows) >= budget {
						s.kept, s.rows = kept[:k], rows
						return false
					}
				}
				kept[k] = pi
				k++
				continue
			}
			if by >= pageByPred {
				tally[by-pageByPred]++
			}
			if attribute {
				byPage[pi] = by
			}
		}
	}
	s.kept, s.rows = kept[:k], rows
	return true
}

// credit charges the pages the pass pruned before the scan's stop and
// credits each to its predicate's source, one AddN per predicate. k is what
// the page read returned: a scan that stopped at kept[k] passed only the
// pages below it, so the pages at or after it were never skipped.
func (s *pruneScratch) credit(ctx *Ctx, k, n int) {
	end := n
	if k < len(s.kept) {
		end = int(s.kept[k])
	}
	ctx.IO.AddSkipped(int64(end - k))
	for pi := end; pi < len(s.by); pi++ {
		if by := s.by[pi]; by >= pageByPred {
			s.tally[by-pageByPred]--
		}
	}
	s.creditSources(ctx.Skips)
}

// creditSources credits each predicate's tally to its source.
func (s *pruneScratch) creditSources(rec *SkipRecorder) {
	for i, n := range s.tally {
		rec.AddN(s.preds[i].Source, n)
	}
}

// CountSkippablePages evaluates the prune predicates against a heap's
// current zone map and reports how many pages a scan would skip. The
// optimizer uses this for synopsis-aware page estimates — the same pass the
// scans run; it touches no counters.
func CountSkippablePages(h *storage.Heap, preds []plan.PrunePred) int64 {
	s := newPruneScratch(preds)
	defer s.release()
	z := h.Zone()
	s.pass(z, math.Inf(1), false)
	return int64(z.Pages() - len(s.kept))
}

// stageProvable reports whether page entry e proves the stage TRUE for every
// row of the page. An entry a writer stored meanwhile proves nothing.
func stageProvable(st *expr.Stage, e *storage.ZoneEntry) bool {
	if st.Mode == expr.StageGeneric {
		return false
	}
	c, ok := e.Bounds(st.Col)
	if !ok {
		return false
	}
	nlo, nhi, numeric := zoneNums(&c)
	provable, decided := st.ProvableTrueNum(nlo, nhi, numeric, c.Nulls, e.Rows)
	if !decided {
		min, max := c.Datums()
		provable = st.ProvableTrue(min, max, c.Nulls, e.Rows)
	}
	return provable && e.Valid()
}

// shortCircuitSource attributes a whole-page filter short-circuit: the
// first constraint-derived prune predicate whose interval provably covers
// the page wins, mirroring the prune pass's first-match page-skip
// attribution. Pages no installed characterization proved fall to "filter"
// — the query's own predicate bounds — which the economy ledger does not
// credit, as do pages without a known entry (e nil).
func shortCircuitSource(preds []plan.PrunePred, e *storage.ZoneEntry) string {
	if e == nil {
		return "filter"
	}
	for _, p := range preds {
		if p.Source == "filter" {
			continue
		}
		if p.Check != nil && !p.Check() {
			continue
		}
		c, ok := e.Bounds(p.Col)
		if !ok {
			continue
		}
		nonNull := e.Rows - c.Nulls
		lo, hi := c.Datums()
		var proved bool
		if p.Exclude {
			// The page qualifies when no row lies in the excluded interval:
			// all NULL, or the value range disjoint from it.
			proved = nonNull == 0 ||
				(!lo.IsNull() && expr.Between(lo, hi, true, true).Disjoint(p.Interval))
		} else {
			proved = (c.Nulls == 0 || p.NullsQualify) && nonNull > 0 && !lo.IsNull() &&
				expr.Between(lo, hi, true, true).CoveredBy(p.Interval)
		}
		if proved && e.Valid() {
			return p.Source
		}
	}
	return "filter"
}
