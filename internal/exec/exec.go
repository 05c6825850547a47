// Package exec implements softdb's physical operators. Execution is
// push-based: each operator's Run drives rows into an emit callback, which
// returns false to stop early (LIMIT). Operators are re-runnable, which
// nested-loop join relies on, and every data touch is charged to the
// query's Ctx so benchmarks can report pages and rows exactly as the
// paper's cost arguments do.
//
// Emit contract: a plan runs on the calling goroutine — this package starts
// none — so emit is never invoked concurrently and downstream operators need
// no synchronization of their own. Counter updates still go through the
// atomic Ctx/storage.Counters methods: uncontended they cost little, and a
// reader on another goroutine is never a data race.
package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"softdb/internal/btree"
	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// Ctx carries per-query runtime counters. The fields are plain int64 —
// not atomic.Int64, so a quiesced Ctx stays freely copyable into results —
// but all updates must go through the Add* methods, which use atomic adds.
type Ctx struct {
	IO          storage.Counters
	Comparisons int64 // sort and join comparisons
	HashProbes  int64
	// ShortCircuits counts rows that skipped per-row filter evaluation
	// because their page's synopsis proved every filter stage TRUE — the
	// dual of a page skip (which avoids the read; a short-circuit avoids
	// the predicate work on rows that must still be read and emitted).
	ShortCircuits int64

	// Skips, when set, attributes each pruned page to the prune predicate
	// that proved the skip; the engine flushes it into the per-constraint
	// economy ledger after the query.
	Skips *SkipRecorder

	// Shorts, when set, attributes short-circuited rows to the prune
	// predicate source whose characterization proved the page
	// all-qualifying.
	Shorts *SkipRecorder

	// Snap and TID fix the query's MVCC view: every scan reads the versions
	// visible at snapshot Snap to transaction TID. Snap 0 means the latest
	// committed state. Set once before the query runs; never mutated during
	// execution.
	Snap int64
	TID  int64

	// life holds the query's shared lifecycle (cancellation, memory
	// budget, panic hook, fault injection); nil for legacy callers, which
	// keeps every checkpoint a single pointer test. All lifecycle state
	// lives behind this pointer so a quiesced Ctx remains copyable.
	life *lifecycle
}

// AddComparisons atomically charges n comparisons.
func (c *Ctx) AddComparisons(n int64) { atomic.AddInt64(&c.Comparisons, n) }

// AddProbes atomically charges n hash probes.
func (c *Ctx) AddProbes(n int64) { atomic.AddInt64(&c.HashProbes, n) }

// AddShortCircuits atomically charges n filter short-circuited rows.
func (c *Ctx) AddShortCircuits(n int64) { atomic.AddInt64(&c.ShortCircuits, n) }

// snapView resolves the Ctx's snapshot fields into the stamps storage
// expects, mapping the zero Snap to "latest committed".
func (c *Ctx) snapView() (snap, tid int64) {
	if c.Snap == 0 {
		return storage.SnapLatest, c.TID
	}
	return c.Snap, c.TID
}

// String renders the counters.
func (c *Ctx) String() string {
	io := c.IO.Load()
	return fmt.Sprintf("pages=%d rows=%d cmp=%d probes=%d",
		io.PagesRead, io.RowsRead,
		atomic.LoadInt64(&c.Comparisons), atomic.LoadInt64(&c.HashProbes))
}

// Operator is a runnable physical plan node.
type Operator interface {
	// Run pushes output rows into emit until exhausted or emit returns
	// false.
	Run(ctx *Ctx, emit func(types.Row) bool) error
	// Describe renders a one-line summary.
	Describe() string
	// Inputs returns child operators.
	Inputs() []Operator
}

// Collect runs op and gathers all output rows.
func Collect(op Operator, ctx *Ctx) ([]types.Row, error) {
	if ctx == nil {
		ctx = &Ctx{}
	}
	var out []types.Row
	err := op.Run(ctx, func(r types.Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out, err
}

// Format renders the operator tree.
func Format(op Operator) string {
	var b strings.Builder
	var walk func(Operator, int)
	walk = func(o Operator, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(o.Describe())
		b.WriteByte('\n')
		for _, c := range o.Inputs() {
			walk(c, depth+1)
		}
	}
	walk(op, 0)
	return b.String()
}

// --- scans ---

// SeqScan reads every live row of a heap, applying residual filters. Run is
// the row-at-a-time reference path (per-row expression tree-walk); RunBatch
// is the vectorized path: each heap page's live rows leave as one borrowed
// columnar batch filtered through a compiled predicate program, with
// whole-page synopsis short-circuits. Prune predicates let both paths skip
// pages whose synopsis proves no qualifying row, charging PagesSkipped
// instead of a read.
type SeqScan struct {
	Table  string
	Heap   *storage.Heap
	Filter []expr.Expr
	Prune  []plan.PrunePred
}

// Run implements Operator: the row-at-a-time path that the vectorized
// kernels are differentially tested against (and the -no-batch fallback).
func (s *SeqScan) Run(ctx *Ctx, emit func(types.Row) bool) error {
	var runErr error
	skip := makeSkipper(s.Prune, ctx.Skips)
	op := "SeqScan " + s.Table // precomputed so the per-page checkpoint allocates nothing
	snap, tid := ctx.snapView()
	s.Heap.ScanPagesAt(0, int(s.Heap.PageCount()), snap, tid, &ctx.IO, skip, func(rows []types.Row, _ *storage.PageSynopsis, _ *vec.PageImage) bool {
		if err := ctx.checkpoint(op); err != nil {
			runErr = err
			return false
		}
		for _, row := range rows {
			ok, err := evalFilters(s.Filter, row)
			if err != nil {
				runErr = err
				return false
			}
			if !ok {
				continue
			}
			if !emit(row) {
				return false
			}
		}
		return true
	})
	return runErr
}

// BatchCapable implements BatchOperator.
func (s *SeqScan) BatchCapable() bool { return true }

// RunBatch implements BatchOperator.
func (s *SeqScan) RunBatch(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	op := "SeqScan " + s.Table
	return scanPageLoop(op, s.Heap, s.Filter, s.Prune, ctx, emit)
}

// Describe implements Operator.
func (s *SeqScan) Describe() string {
	d := "SeqScan " + s.Table
	if len(s.Filter) > 0 {
		d += " filter=" + expr.And(s.Filter...).String()
	}
	for _, pp := range s.Prune {
		// Filter-derived predicates restate the filter; only derived
		// (constraint- or hole-sourced) ones add information to EXPLAIN.
		if pp.Source != "filter" {
			d += " prune=" + pp.Describe(s.Heap.Def().Columns[pp.Col].Name)
		}
	}
	return d
}

// Inputs implements Operator.
func (s *SeqScan) Inputs() []Operator { return nil }

// IndexScan reads rows via a B+tree index range, fetching each matching row
// from the heap and applying residual filters.
type IndexScan struct {
	Table  string
	Heap   *storage.Heap
	Index  *catalog.Index
	Lo, Hi btree.Bound
	// LoFrom and HiFrom are the origins of the bound keys when they were
	// computed from statement literals (see Rebind).
	LoFrom, HiFrom expr.Origin
	Filter         []expr.Expr
}

// indexEntry is one collected (key, rid) pair from a chunked index walk.
type indexEntry struct {
	key types.Row
	rid storage.RowID
}

// indexChunkEntries is how many (key, rid) pairs an index scan collects
// per tree latch acquisition. The tree's read latch is held only while
// collecting; heap fetches, filtering, and emission happen after release,
// so a scan never holds the latch across downstream operators (which could
// deadlock on reader re-entry once a writer queues for the same tree).
const indexChunkEntries = 1024

// collectChunk gathers up to indexChunkEntries pairs from tree in [lo, hi],
// resuming after the entry *after (after.key, after.rid) when resume is
// true. Duplicate-key rids enumerate in RowID order, so (key, rid) is a
// total resume position. It returns the collected chunk and whether the
// range may hold more entries beyond it.
func collectChunk(t *btree.Tree, lo, hi btree.Bound, resume bool, after indexEntry, c *storage.Counters, buf []indexEntry) ([]indexEntry, bool) {
	if resume {
		lo = btree.Bound{Key: after.key, Inclusive: true}
	}
	buf = buf[:0]
	more := false
	t.AscendRange(lo, hi, c, func(key types.Row, rid storage.RowID) bool {
		if resume {
			// Only the resume key's own rids can repeat the previous chunk;
			// keys ascend, so the first larger key ends the check.
			if key.Compare(after.key) != 0 {
				resume = false
			} else if rid.Page < after.rid.Page || (rid.Page == after.rid.Page && rid.Slot <= after.rid.Slot) {
				return true // already delivered in the previous chunk
			}
		}
		if len(buf) == indexChunkEntries {
			more = true
			return false
		}
		buf = append(buf, indexEntry{key: key, rid: rid})
		return true
	})
	return buf, more
}

// pageSet records which heap pages an index scan has charged, so each
// distinct page is charged once (a buffer pool holding the scan's working
// set). A point probe touches one page: nothing is allocated until a second
// distinct page shows up.
type pageSet struct {
	first int32
	some  bool
	bits  []uint64
}

// add records page p and reports whether it was new. hint sizes the bitmap
// (the heap's page count) when it is first needed.
func (s *pageSet) add(p int32, hint int64) bool {
	if !s.some {
		s.first, s.some = p, true
		return true
	}
	if p == s.first {
		return false
	}
	w := int(p >> 6)
	if w >= len(s.bits) {
		grown := make([]uint64, max(w+1, 2*len(s.bits), int(hint>>6)+1))
		copy(grown, s.bits)
		s.bits = grown
	}
	m := uint64(1) << (p & 63)
	if s.bits[w]&m != 0 {
		return false
	}
	s.bits[w] |= m
	return true
}

// fetch walks the index range and hands visit every heap row visible at the
// scan's snapshot, in index order, until visit returns false. Entries are
// collected from the tree in chunks (latch released between chunks) and each
// chunk's rows are then fetched from the heap: an index entry whose version
// is not visible at the snapshot — deleted, superseded by an update, or
// uncommitted — is skipped, which is also what keeps stale entries (MVCC
// never removes index entries at delete time) harmless. Heap pages are
// charged once per distinct page touched; index page touches are charged by
// the tree walk itself.
func (s *IndexScan) fetch(ctx *Ctx, visit func(types.Row) bool) error {
	var seen pageSet
	// lastPage short-cuts the set when consecutive entries land on the same
	// heap page (the common case when the indexed column correlates with
	// insertion order).
	lastPage := int32(-1)
	pageHint := s.Heap.PageCount()
	op := "IndexScan " + s.Table
	snap, tid := ctx.snapView()
	var entries, rows int64
	defer func() { ctx.IO.AddRows(rows) }()
	var chunk []indexEntry
	var last indexEntry
	resume := false
	for {
		var more bool
		chunk, more = collectChunk(s.Index.Tree, s.Lo, s.Hi, resume, last, &ctx.IO, chunk)
		for i := range chunk {
			// Index entries have no page batching, so observe cancellation
			// every checkpointRows entries instead of per page.
			if entries++; entries%checkpointRows == 0 {
				if err := ctx.checkpoint(op); err != nil {
					return err
				}
			}
			rid := chunk[i].rid
			if rid.Page != lastPage {
				lastPage = rid.Page
				if seen.add(rid.Page, pageHint) {
					ctx.IO.AddPages(1)
				}
			}
			row, ok := s.Heap.GetAt(rid, snap, tid)
			if !ok {
				continue // version not visible at this snapshot; skip
			}
			rows++
			if !visit(row) {
				return nil
			}
		}
		if !more {
			return nil
		}
		last = chunk[len(chunk)-1]
		last.key = last.key.Clone() // chunk buffer is reused; pin the resume key
		resume = true
	}
}

// Run implements Operator: the row-at-a-time path over fetch.
func (s *IndexScan) Run(ctx *Ctx, emit func(types.Row) bool) error {
	var runErr error
	err := s.fetch(ctx, func(row types.Row) bool {
		pass, err := evalFilters(s.Filter, row)
		if err != nil {
			runErr = err
			return false
		}
		return !pass || emit(row)
	})
	if runErr != nil {
		return runErr
	}
	return err
}

// BatchCapable implements BatchOperator.
func (s *IndexScan) BatchCapable() bool { return true }

// indexBatchRows is the window size IndexScan.RunBatch accumulates fetched
// heap rows into before emitting. Index entries arrive one at a time, so
// unlike SeqScan there is no natural page granularity; a fixed window keeps
// downstream kernels amortized without holding many heap rows borrowed.
const indexBatchRows = 256

// RunBatch implements BatchOperator: matching heap rows are buffered into
// fixed-size windows and the residual filter runs as a compiled predicate
// program over each window instead of a per-row tree-walk. Page and row
// accounting is identical to Run; as with all batched operators, an early
// stop (LIMIT) has already paid for the whole in-flight window.
func (s *IndexScan) RunBatch(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	var runErr error
	prog := expr.CompilePredicate(s.Filter)
	pr := progRunner{prog: prog}
	// The window grows on demand: a point probe fetches a row or two and
	// should not pay for a full window's worth of slots.
	buf := make([]types.Row, 0, 8)
	var batch vec.Batch
	flush := func() bool {
		if len(buf) == 0 {
			return true
		}
		batch.Reset(buf)
		keep := true
		if len(prog.Stages) == 0 {
			keep = emit(&batch)
		} else {
			sel, _, err := pr.run(&batch, nil)
			if err != nil {
				runErr = err
				return false
			}
			if len(sel) > 0 {
				batch.Sel = sel
				keep = emit(&batch)
			}
		}
		buf = buf[:0]
		return keep
	}
	err := s.fetch(ctx, func(row types.Row) bool {
		buf = append(buf, row)
		return len(buf) < indexBatchRows || flush()
	})
	if runErr != nil {
		return runErr
	}
	if err != nil {
		return err
	}
	flush()
	return runErr
}

// Describe implements Operator.
func (s *IndexScan) Describe() string {
	rng := describeBounds(s.Lo, s.Hi)
	d := fmt.Sprintf("IndexScan %s using %s %s", s.Table, s.Index.Name, rng)
	if len(s.Filter) > 0 {
		d += " filter=" + expr.And(s.Filter...).String()
	}
	return d
}

func describeBounds(lo, hi btree.Bound) string {
	l, h := "(-inf", "+inf)"
	if lo.Key != nil {
		br := "("
		if lo.Inclusive {
			br = "["
		}
		l = br + lo.Key.String()
	}
	if hi.Key != nil {
		br := ")"
		if hi.Inclusive {
			br = "]"
		}
		h = hi.Key.String() + br
	}
	return l + ", " + h
}

// Inputs implements Operator.
func (s *IndexScan) Inputs() []Operator { return nil }

// IndexMinMax answers a scalar MIN/MAX-only aggregation by reading the
// ends of indexes instead of scanning the table (the flavor of runtime
// shortcut §4.2 describes for Sybase's min/max soft constraints; an index
// stays exact under deletes where a stored min/max constraint would not).
// MVCC keeps index entries for ended versions, so each end-of-index probe
// walks inward until it finds an entry whose heap version is visible at
// the scan's snapshot.
type IndexMinMax struct {
	Table string
	Heap  *storage.Heap
	Specs []MinMaxSpec
}

// MinMaxSpec is one MIN or MAX output column.
type MinMaxSpec struct {
	Index *catalog.Index
	Max   bool
}

// Run implements Operator.
func (m *IndexMinMax) Run(ctx *Ctx, emit func(types.Row) bool) error {
	snap, tid := ctx.snapView()
	out := make(types.Row, len(m.Specs))
	for i, sp := range m.Specs {
		// One root-to-leaf descent per lookup. Walking past entries whose
		// versions are invisible at the snapshot is not charged extra: the
		// cost model keeps the pre-MVCC "one descent" shape, and vacuumed
		// indexes shed the stale entries again.
		ctx.IO.AddPages(int64(sp.Index.Tree.Height()))
		var key types.Row
		visit := func(k types.Row, rid storage.RowID) bool {
			if _, ok := m.Heap.GetAt(rid, snap, tid); !ok {
				return true // stale entry; keep walking inward
			}
			key = k
			return false
		}
		if sp.Max {
			sp.Index.Tree.Descend(nil, visit)
		} else {
			sp.Index.Tree.Ascend(nil, visit)
		}
		if key == nil {
			out[i] = types.Null
		} else {
			out[i] = key[0]
			ctx.IO.AddRows(1)
		}
	}
	emit(out)
	return nil
}

// Describe implements Operator.
func (m *IndexMinMax) Describe() string {
	var parts []string
	for _, sp := range m.Specs {
		fn := "MIN"
		if sp.Max {
			fn = "MAX"
		}
		parts = append(parts, fmt.Sprintf("%s via %s", fn, sp.Index.Name))
	}
	return "IndexMinMax " + m.Table + " [" + strings.Join(parts, ", ") + "]"
}

// Inputs implements Operator.
func (m *IndexMinMax) Inputs() []Operator { return nil }

// Values emits a fixed set of rows (tests, EXPLAIN output, empty results).
type Values struct {
	Rows []types.Row
	Desc string
}

// Run implements Operator.
func (v *Values) Run(_ *Ctx, emit func(types.Row) bool) error {
	for _, r := range v.Rows {
		if !emit(r) {
			return nil
		}
	}
	return nil
}

// Describe implements Operator.
func (v *Values) Describe() string {
	if v.Desc != "" {
		return v.Desc
	}
	return fmt.Sprintf("Values [%d rows]", len(v.Rows))
}

// Inputs implements Operator.
func (v *Values) Inputs() []Operator { return nil }

// --- row-at-a-time operators ---

// Filter drops rows failing its predicates.
type Filter struct {
	Input Operator
	Conds []expr.Expr
}

// Run implements Operator.
func (f *Filter) Run(ctx *Ctx, emit func(types.Row) bool) error {
	var inner error
	err := f.Input.Run(ctx, func(row types.Row) bool {
		ok, err := evalFilters(f.Conds, row)
		if err != nil {
			inner = err
			return false
		}
		if !ok {
			return true
		}
		return emit(row)
	})
	if inner != nil {
		return inner
	}
	return err
}

// BatchCapable implements BatchOperator: batch mode pays off only when the
// input actually streams batches.
func (f *Filter) BatchCapable() bool {
	_, ok := AsBatch(f.Input)
	return ok
}

// RunBatch implements BatchOperator: input batches are filtered by
// shrinking their selection vector through a compiled predicate program —
// no rows move, no per-row tree-walk for the sargable conjuncts.
func (f *Filter) RunBatch(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	prog := expr.CompilePredicate(f.Conds)
	pr := progRunner{prog: prog}
	var inner error
	err := RunBatched(f.Input, ctx, func(b *vec.Batch) bool {
		if len(prog.Stages) == 0 {
			return emit(b)
		}
		sel, _, err := pr.run(b, nil)
		if err != nil {
			inner = err
			return false
		}
		if len(sel) == 0 {
			return true
		}
		b.Sel = sel
		return emit(b)
	})
	if inner != nil {
		return inner
	}
	return err
}

// Describe implements Operator.
func (f *Filter) Describe() string { return "Filter " + expr.And(f.Conds...).String() }

// Inputs implements Operator.
func (f *Filter) Inputs() []Operator { return []Operator{f.Input} }

// Project computes output expressions.
type Project struct {
	Input Operator
	Exprs []expr.Expr
}

// Run implements Operator.
func (p *Project) Run(ctx *Ctx, emit func(types.Row) bool) error {
	var inner error
	err := p.Input.Run(ctx, func(row types.Row) bool {
		out := make(types.Row, len(p.Exprs))
		for i, e := range p.Exprs {
			v, err := e.Eval(row)
			if err != nil {
				inner = err
				return false
			}
			out[i] = v
		}
		return emit(out)
	})
	if inner != nil {
		return inner
	}
	return err
}

// BatchCapable implements BatchOperator.
func (p *Project) BatchCapable() bool {
	_, ok := AsBatch(p.Input)
	return ok
}

// RunBatch implements BatchOperator. Output rows are freshly allocated (as
// in Run) from one datum slab per batch and leave as an owned batch in the
// input's granularity. An all-column projection (the common SELECT list
// after planning) copies datums in a tight loop with no Eval calls.
func (p *Project) RunBatch(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	width := len(p.Exprs)
	cols := make([]*expr.Column, width)
	allCols := true
	for i, e := range p.Exprs {
		if c, ok := e.(*expr.Column); ok && c.Index >= 0 {
			cols[i] = c
		} else {
			allCols = false
		}
	}
	var inner error
	var outRows []types.Row
	var ob vec.Batch
	err := RunBatched(p.Input, ctx, func(b *vec.Batch) bool {
		n := b.Len()
		slab := make([]types.Datum, n*width)
		outRows = outRows[:0]
		for i := 0; i < n; i++ {
			row := b.Row(i)
			o := types.Row(slab[:width:width])
			slab = slab[width:]
			if allCols {
				for j, c := range cols {
					if c.Index >= len(row) {
						_, err := c.Eval(row)
						inner = err
						return false
					}
					o[j] = row[c.Index]
				}
			} else {
				for j, e := range p.Exprs {
					v, err := e.Eval(row)
					if err != nil {
						inner = err
						return false
					}
					o[j] = v
				}
			}
			outRows = append(outRows, o)
		}
		ob.Reset(outRows)
		ob.Owned = true
		return emit(&ob)
	})
	if inner != nil {
		return inner
	}
	return err
}

// Describe implements Operator.
func (p *Project) Describe() string {
	var parts []string
	for _, e := range p.Exprs {
		parts = append(parts, e.String())
	}
	return "Project " + strings.Join(parts, ", ")
}

// Inputs implements Operator.
func (p *Project) Inputs() []Operator { return []Operator{p.Input} }

// Limit emits the first N rows.
type Limit struct {
	Input Operator
	N     int64
}

// Run implements Operator.
func (l *Limit) Run(ctx *Ctx, emit func(types.Row) bool) error {
	if l.N <= 0 {
		return nil
	}
	var count int64
	return l.Input.Run(ctx, func(row types.Row) bool {
		count++
		if !emit(row) {
			return false
		}
		return count < l.N
	})
}

// BatchCapable implements BatchOperator.
func (l *Limit) BatchCapable() bool {
	_, ok := AsBatch(l.Input)
	return ok
}

// RunBatch implements BatchOperator, truncating the final batch at the
// limit boundary.
func (l *Limit) RunBatch(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	if l.N <= 0 {
		return nil
	}
	var count int64
	return RunBatched(l.Input, ctx, func(b *vec.Batch) bool {
		if rem := l.N - count; int64(b.Len()) > rem {
			b.Truncate(int(rem))
		}
		count += int64(b.Len())
		if !emit(b) {
			return false
		}
		return count < l.N
	})
}

// Describe implements Operator.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit %d", l.N) }

// Inputs implements Operator.
func (l *Limit) Inputs() []Operator { return []Operator{l.Input} }

// Distinct suppresses duplicate rows.
type Distinct struct{ Input Operator }

// Run implements Operator.
func (d *Distinct) Run(ctx *Ctx, emit func(types.Row) bool) error {
	seen := map[string]bool{}
	var inner error
	err := d.Input.Run(ctx, func(row types.Row) bool {
		k := row.Key()
		if seen[k] {
			return true
		}
		// Each retained key is buffered state; charge it to the budget.
		if err := ctx.Reserve("Distinct", int64(len(k))); err != nil {
			inner = err
			return false
		}
		seen[k] = true
		return emit(row)
	})
	if inner != nil {
		return inner
	}
	return err
}

// Describe implements Operator.
func (d *Distinct) Describe() string { return "Distinct" }

// Inputs implements Operator.
func (d *Distinct) Inputs() []Operator { return []Operator{d.Input} }

// UnionAll concatenates its inputs.
type UnionAll struct {
	Arms   []Operator
	Pruned []string
}

// Run implements Operator.
func (u *UnionAll) Run(ctx *Ctx, emit func(types.Row) bool) error {
	stopped := false
	for _, arm := range u.Arms {
		err := arm.Run(ctx, func(row types.Row) bool {
			if !emit(row) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}

// Describe implements Operator.
func (u *UnionAll) Describe() string {
	d := fmt.Sprintf("UnionAll [%d arms]", len(u.Arms))
	if len(u.Pruned) > 0 {
		d += fmt.Sprintf(" pruned=%d (%s)", len(u.Pruned), strings.Join(u.Pruned, ", "))
	}
	return d
}

// Inputs implements Operator.
func (u *UnionAll) Inputs() []Operator { return u.Arms }

// Sort materializes and orders its input.
type Sort struct {
	Input Operator
	Keys  []plan.SortKey
}

// Run implements Operator: the row-at-a-time path, pulling rows from the
// input's Run.
func (s *Sort) Run(ctx *Ctx, emit func(types.Row) bool) error {
	rows, err := s.sorted(ctx, false)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if !emit(r) {
			return nil
		}
	}
	return nil
}

// BatchCapable implements BatchOperator: like Filter and Project, sorting
// batch-wise pays off when the input streams batches.
func (s *Sort) BatchCapable() bool {
	_, ok := AsBatch(s.Input)
	return ok
}

// RunBatch implements BatchOperator: the input is pulled through its batched
// path — an aggregate, projection or index scan under an ORDER BY keeps its
// kernels — and the ordered rows leave as one owned batch. Reservations,
// checkpoints and comparison charges are those of Run.
func (s *Sort) RunBatch(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	rows, err := s.sorted(ctx, true)
	if err != nil || len(rows) == 0 {
		return err
	}
	var ob vec.Batch
	ob.Reset(rows)
	ob.Owned = true
	emit(&ob)
	return nil
}

// sorted collects the input (through RunBatched when batched, retaining the
// rows of owned batches without a clone) and orders it.
func (s *Sort) sorted(ctx *Ctx, batched bool) ([]types.Row, error) {
	var rows []types.Row
	var inner error
	add := func(row types.Row, owned bool) bool {
		if err := ctx.Reserve("Sort", row.MemSize()); err != nil {
			inner = err
			return false
		}
		if int64(len(rows))%checkpointRows == 0 {
			if err := ctx.checkpoint("Sort"); err != nil {
				inner = err
				return false
			}
		}
		if !owned {
			row = row.Clone()
		}
		rows = append(rows, row)
		return true
	}
	var err error
	if batched {
		err = RunBatched(s.Input, ctx, func(b *vec.Batch) bool {
			n := b.Len()
			for i := 0; i < n; i++ {
				if !add(b.Row(i), b.Owned) {
					return false
				}
			}
			return true
		})
	} else {
		err = s.Input.Run(ctx, func(row types.Row) bool { return add(row, false) })
	}
	if inner != nil {
		return nil, inner
	}
	if err != nil {
		return nil, err
	}
	// Comparisons counts column comparisons, so shorter key lists (the
	// FD-based sort simplification) show up directly.
	var cmps int64
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range s.Keys {
			cmps++
			c := rows[i][k.Ordinal].Compare(rows[j][k.Ordinal])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	ctx.AddComparisons(cmps)
	return rows, nil
}

// Describe implements Operator.
func (s *Sort) Describe() string {
	var parts []string
	for _, k := range s.Keys {
		p := fmt.Sprintf("#%d", k.Ordinal)
		if k.Desc {
			p += " DESC"
		}
		parts = append(parts, p)
	}
	return "Sort by " + strings.Join(parts, ", ")
}

// Inputs implements Operator.
func (s *Sort) Inputs() []Operator { return []Operator{s.Input} }

func evalFilters(conds []expr.Expr, row types.Row) (bool, error) {
	for _, c := range conds {
		ok, err := expr.EvalBool(c, row)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}
