// Package exec implements softdb's physical operators. Execution is
// push-based and columnar: each operator's Run drives vec.Batch windows into
// an emit callback, which returns false to stop early (LIMIT); rows leave the
// pipeline only in Collect. Operators are re-runnable, which nested-loop
// join relies on, and every data touch is charged to the query's Ctx so
// benchmarks can report pages and rows exactly as the paper's cost arguments
// do.
//
// Emit contract: a plan runs on the calling goroutine — this package starts
// none — so emit is never invoked concurrently and downstream operators need
// no synchronization of their own. Counter updates still go through the
// atomic Ctx/storage.Counters methods: uncontended they cost little, and a
// reader on another goroutine is never a data race.
package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"softdb/internal/btree"
	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/obs"
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
	// PagePaths counts IndexScan executions that switched to the page path
	// (see IndexScan).
	PagePaths int64

	// EntryPathOnly keeps every IndexScan on its entry path. It is the
	// reference the page-path differential tests and experiment V3 compare
	// the run-time switch against; no setting reaches it.
	EntryPathOnly bool

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

	// span is the trace node of the most recently entered instrumented
	// call (the wrapper sets it and restores the previous one on return),
	// so a leaf operator can report a run-time decision on its own node;
	// nil when tracing is off.
	span *obs.SpanNode
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
	// Run pushes the output into emit as columnar batches until exhausted
	// or emit returns false. A batch is borrowed: it, its columns and its
	// row slice are valid only until emit returns, and its row values may be
	// retained without cloning only when Batch.Owned is set once they are
	// asked for (see DESIGN.md §16). emit may narrow a batch's selection in
	// place.
	Run(ctx *Ctx, emit func(b *vec.Batch) bool) error
	// Describe renders a one-line summary.
	Describe() string
	// Inputs returns child operators.
	Inputs() []Operator
}

// collectHintCap bounds how much Collect preallocates from an optimizer
// estimate — estimates can be wildly high and are not worth more than a few
// MiB of speculative slice header.
const collectHintCap = 1 << 20

// Collect runs op and gathers all output rows: the one place rows leave the
// batched pipeline. Rows of owned batches (a page scan's rows are built
// owned) are retained as they are; borrowed ones are cloned. hint is an
// optional row-count estimate used to preallocate the result (<= 0 means
// unknown).
func Collect(op Operator, ctx *Ctx, hint int) ([]types.Row, error) {
	if ctx == nil {
		ctx = &Ctx{}
	}
	out := make([]types.Row, 0, min(max(hint, 0), collectHintCap))
	err := op.Run(ctx, func(b *vec.Batch) bool {
		n := b.Len()
		for i := 0; i < n; i++ {
			row := b.Row(i)
			if !b.Owned {
				row = row.Clone()
			}
			out = append(out, row)
		}
		return true
	})
	return out, err
}

// emitRows hands rows to emit as one batch, which is owned when the rows are
// the caller's to give away; no rows emit nothing.
func emitRows(rows []types.Row, owned bool, emit func(b *vec.Batch) bool) bool {
	if len(rows) == 0 {
		return true
	}
	var b vec.Batch
	b.Reset(rows)
	b.Owned = owned
	return emit(&b)
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

// SeqScan reads every live row of a heap, applying residual filters: each
// heap page's live rows leave as one borrowed columnar batch filtered through
// a compiled predicate program, with whole-page synopsis short-circuits.
// Prune predicates skip pages whose synopsis proves no qualifying row,
// charging PagesSkipped instead of a read.
type SeqScan struct {
	Table  string
	Heap   *storage.Heap
	Filter []expr.Expr
	Prune  []plan.PrunePred
}

// Run implements Operator.
func (s *SeqScan) Run(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	return scanPageLoop("SeqScan "+s.Table, pageSource{heap: s.Heap, prune: s.Prune}, s.Filter, ctx, emit)
}

// Describe implements Operator.
func (s *SeqScan) Describe() string {
	d := "SeqScan " + s.Table
	if len(s.Filter) > 0 {
		d += " filter=" + expr.And(s.Filter...).String()
	}
	return d + describePrune(s.Heap, s.Prune)
}

// describePrune renders a scan's derived prune predicates. Filter-derived
// ones restate the filter; only constraint- or hole-sourced ones add
// information to EXPLAIN.
func describePrune(h *storage.Heap, prune []plan.PrunePred) string {
	var d string
	for _, pp := range prune {
		if pp.Source != "filter" {
			d += " prune=" + pp.Describe(h.Def().Columns[pp.Col].Name)
		}
	}
	return d
}

// Inputs implements Operator.
func (s *SeqScan) Inputs() []Operator { return nil }

// IndexScan reads the rows of a B+tree index range that pass its filter.
// Filter is the scan's whole filter, which implies the range; Prune holds the
// page-prune predicates a SeqScan over the same filter would get.
//
// The access method is chosen on every execution, from the bound range (see
// choosePagePath): a range that fits one collected chunk fetches its rows
// entry by entry (the entry path); a longer one whose table pages, after
// synopsis pruning, are cheaper to read than its estimated entries are to
// fetch finishes on the table's page loop (the page path), where frozen pages
// need no per-row stamp check and the filter runs as a kernel. The two paths
// return the same rows in different orders; nothing downstream relies on
// index order.
type IndexScan struct {
	Table  string
	Heap   *storage.Heap
	Index  *catalog.Index
	Lo, Hi btree.Bound
	// LoFrom and HiFrom are the origins of the bound keys when they were
	// computed from statement literals (see Rebind).
	LoFrom, HiFrom expr.Origin
	Filter         []expr.Expr
	Prune          []plan.PrunePred
}

// indexChunk is one run of a chunked index walk: the collected rids in
// (key, rid) order and what the scan needs of their keys — the first key
// column of each rid is only ever read at the run's ends.
type indexChunk struct {
	rids []storage.RowID
	// nulls counts the leading rids whose key starts with NULL (NULL keys
	// sort first). When more entries follow the chunk, first is the key of
	// the first other rid (nil when there is none) and last the key of the
	// last rid; a chunk that ends the range needs neither, and leaves them
	// nil.
	nulls       int
	first, last types.Row
}

// indexChunkEntries is how many (key, rid) pairs an index scan collects
// per tree latch acquisition. The tree's read latch is held only while
// collecting; heap fetches, filtering, and emission happen after release,
// so a scan never holds the latch across downstream operators (which could
// deadlock on reader re-entry once a writer queues for the same tree).
const indexChunkEntries = 1024

// ridPool holds the rid buffers of index chunks between executions. A
// buffer holds no pointer, so a pooled one reaches nothing.
var ridPool = sync.Pool{New: func() any { return new([]storage.RowID) }}

// collectChunk gathers up to indexChunkEntries pairs from tree in [lo, hi]
// into buf, resuming after the pair (afterKey, afterRID) when resume is
// true. Duplicate-key rids enumerate in RowID order, so (key, rid) is a
// total resume position. It returns the collected chunk and whether the
// range may hold more entries beyond it. The tree lends its keys only for
// the walk, so the two end keys are copied out when the chunk fills, and no
// other key is.
func collectChunk(t *btree.Tree, lo, hi btree.Bound, resume bool, afterKey types.Row, afterRID storage.RowID, c *storage.Counters, buf []storage.RowID) (indexChunk, bool) {
	if resume {
		lo = btree.Bound{Key: afterKey, Inclusive: true}
	}
	ch := indexChunk{rids: buf[:0]}
	more := false
	var first, last btree.Key
	haveFirst := false
	t.AscendRange(lo, hi, c, func(key btree.Key, rid storage.RowID) bool {
		if resume {
			// Only the resume key's own rids can repeat the previous chunk;
			// keys ascend, so the first larger key ends the check.
			if key.Compare(afterKey) != 0 {
				resume = false
			} else if rid.Page < afterRID.Page || (rid.Page == afterRID.Page && rid.Slot <= afterRID.Slot) {
				return true // already delivered in the previous chunk
			}
		}
		if len(ch.rids) == indexChunkEntries {
			more = true
			if haveFirst {
				ch.first = first.Row()
			}
			ch.last = last.Row()
			return false
		}
		switch {
		case haveFirst:
		case key.Datum(0).IsNull():
			ch.nulls++
		default:
			first, haveFirst = key, true
		}
		ch.rids = append(ch.rids, rid)
		last = key
		return true
	})
	return ch, more
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

// fetch hands visit every heap row of the index range visible at the scan's
// snapshot, in index order, until visit returns false. chunk and more are the
// first collected chunk (see open); further entries are collected from the
// tree in chunks (latch released between chunks) and each chunk's rows are
// then fetched from the heap: an index entry whose version is not visible at
// the snapshot — deleted, superseded by an update, or uncommitted — is
// skipped, which is also what keeps stale entries (MVCC never removes index
// entries at delete time) harmless. Heap pages are charged once per distinct
// page touched; index page touches are charged by the tree walk itself.
// Each visible version's values are gathered into win, the typed columns of
// the caller's window, and visit is called after each; it returns false to
// stop.
func (s *IndexScan) fetch(ctx *Ctx, chunk indexChunk, more bool, win []vec.Col, visit func() bool) error {
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
	for {
		for _, rid := range chunk.rids {
			// Index entries have no page batching, so observe cancellation
			// every checkpointRows entries instead of per page.
			if entries++; entries%checkpointRows == 0 {
				if err := ctx.checkpoint(op); err != nil {
					return err
				}
			}
			if rid.Page != lastPage {
				lastPage = rid.Page
				if seen.add(rid.Page, pageHint) {
					ctx.IO.AddPages(1)
				}
			}
			if !s.Heap.GatherAt(win, rid, snap, tid) {
				continue // version not visible at this snapshot; skip
			}
			rows++
			if !visit() {
				return nil
			}
		}
		if !more {
			return nil
		}
		after := chunk.rids[len(chunk.rids)-1]
		chunk, more = collectChunk(s.Index.Tree, s.Lo, s.Hi, true, chunk.last, after, &ctx.IO, chunk.rids)
	}
}

// pagePathCostRatio is the cost of reading one row on the page path relative
// to fetching one index entry's row on the entry path. Experiment V3
// (EXPERIMENTS.md) measured it at about 0.4 over frozen pages and 0.6–0.9
// cold (with the row-store pages and images of the time); the constant is
// the top of the cold figures, so a switch never counts on a frozen state a
// writer may clear.
const pagePathCostRatio = 0.8

// pagePath is an IndexScan execution's decision to finish on the page path:
// prune.kept lists the pages to read (every page when no prune predicate was
// active), and est is the estimated entry count of the range.
type pagePath struct {
	prune   *pruneScratch
	est     float64
	skipped int64 // pages the prune pass skipped
}

// open starts an execution: it collects the range's first chunk into buf
// and, when the range holds more entries than that, decides whether to
// finish on the page path. A nil pp means the entry path, starting with
// chunk.
func (s *IndexScan) open(ctx *Ctx, buf []storage.RowID) (chunk indexChunk, more bool, pp *pagePath) {
	chunk, more = collectChunk(s.Index.Tree, s.Lo, s.Hi, false, nil, storage.RowID{}, &ctx.IO, buf)
	if !more || ctx.EntryPathOnly {
		return chunk, more, nil
	}
	if pp = s.choosePagePath(ctx, chunk); pp != nil {
		pages := int64(len(pp.prune.kept))
		ctx.IO.AddSkipped(pp.skipped)
		pp.prune.creditSources(ctx.Skips)
		atomic.AddInt64(&ctx.PagePaths, 1)
		if n := ctx.span; n != nil {
			n.PagePaths.Add(1)
			n.PagePathEntries.Add(int64(pp.est))
			n.PagePathPages.Add(pages)
		}
	}
	return chunk, more, pp
}

// choosePagePath decides whether the rest of a range whose first chunk came
// back full is cheaper to read as pages. The range's entry count is
// interpolated from the chunk (see rangeEntries); the page path may then read
// at most est/pagePathCostRatio rows. The prune pass over the zone map with
// the scan's prune predicates sums the rows of the pages no predicate prunes,
// and gives up as soon as they exceed that budget; when it completes, the
// pages it kept are exactly the ones the page loop reads — no second walk.
func (s *IndexScan) choosePagePath(ctx *Ctx, chunk indexChunk) *pagePath {
	est, ok := s.rangeEntries(chunk)
	if !ok {
		return nil
	}
	budget := est / pagePathCostRatio
	ps := newPruneScratch(s.Prune)
	z := s.Heap.Zone()
	if len(ps.preds) == 0 {
		if float64(s.Heap.RowCount()) >= budget {
			ps.release()
			return nil
		}
		ps.all(z.Pages())
	} else if !ps.pass(z, budget, false) {
		ps.release()
		return nil
	}
	return &pagePath{prune: ps, est: est, skipped: int64(z.Pages() - len(ps.kept))}
}

// rangeEntries estimates how many entries the index range holds from its
// first chunk, whose non-NULL entries span the keys [first, last]: the range
// runs from first to Hi (the tree's largest key when Hi is open), and entries
// are taken to spread over it as densely as over the chunk. (NULL keys sort
// first, so only a range open below collects them, all at the chunk's
// start.) INT and DATE keys are counted as discrete values, so a chunk of one
// key still estimates its own size; ok is false for every other key kind but
// FLOAT, and for a FLOAT chunk of one key.
func (s *IndexScan) rangeEntries(chunk indexChunk) (est float64, ok bool) {
	n := len(chunk.rids) - chunk.nulls
	if n == 0 {
		return 0, false
	}
	first, last := chunk.first[0], chunk.last[0]
	hiKey := s.Hi.Key
	if hiKey == nil {
		if hiKey = s.Index.Tree.Max(); hiKey == nil {
			return 0, false
		}
	}
	hi := hiKey[0]
	var unit float64
	switch first.Kind() {
	case types.KindInt, types.KindDate:
		unit = 1
	case types.KindFloat:
	default:
		return 0, false
	}
	if !hi.IsNumeric() || !last.IsNumeric() {
		return 0, false
	}
	f, l, h := first.Float(), last.Float(), hi.Float()
	if unit == 1 {
		h = math.Floor(h)
		if s.Hi.Key != nil && !s.Hi.Inclusive && h == hi.Float() {
			h--
		}
	}
	span := l - f + unit
	if span <= 0 || h < l {
		return 0, false
	}
	return float64(n) * (h - f + unit) / span, true
}

// indexBatchRows is the window size IndexScan.Run accumulates fetched heap
// rows into before emitting. Index entries arrive one at a time, so unlike
// SeqScan there is no natural page granularity; a fixed window keeps
// downstream kernels amortized without holding many heap rows borrowed.
const indexBatchRows = 256

// Run implements Operator. On the entry path matching heap rows are buffered
// into fixed-size windows and the residual filter runs as a compiled
// predicate program over each window; on the page path the scan is the page
// scan kernel itself. As with every operator, an early stop (LIMIT) has
// already paid for the whole in-flight window.
func (s *IndexScan) Run(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	buf := ridPool.Get().(*[]storage.RowID)
	chunk, more, pp := s.open(ctx, *buf)
	defer func() {
		*buf = chunk.rids[:0]
		ridPool.Put(buf)
	}()
	if pp != nil {
		defer pp.prune.release()
		return scanPageLoop("IndexScan "+s.Table, pageSource{heap: s.Heap, prune: s.Prune, path: pp}, s.Filter, ctx, emit)
	}
	var runErr error
	prog := expr.CompilePredicate(s.Filter)
	pr := progRunner{prog: prog}
	// Fetched versions gather into the window's typed columns, which grow
	// on demand (a point probe fetches a row or two and should not pay for
	// a full window's worth of slots) and are reused window after window:
	// the batch over them is a column batch like a page scan's.
	kinds := s.Heap.Kinds()
	win := fetchWindow(kinds, min(max(len(chunk.rids), 1), indexBatchRows))
	n := 0
	var batch vec.Batch
	flush := func() bool {
		if n == 0 {
			return true
		}
		cols := batch.ResetColumns(n, kinds)
		for i := range cols {
			c, w := &cols[i], &win[i]
			c.Ints, c.Floats, c.Strs, c.Nulls, c.HasNulls = w.Ints, w.Floats, w.Strs, w.Nulls, w.HasNulls
			w.Ints, w.Floats, w.Strs, w.Nulls, w.HasNulls = w.Ints[:0], w.Floats[:0], w.Strs[:0], w.Nulls[:0], false
		}
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
		n = 0
		return keep
	}
	err := s.fetch(ctx, chunk, more, win, func() bool {
		n++
		return n < indexBatchRows || flush()
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

// fetchWindow returns the empty typed columns of a fetch window of up to n
// rows of the given kinds, carved from one backing array per class so a
// window costs a handful of allocations however many columns it has.
func fetchWindow(kinds []types.Kind, n int) []vec.Col {
	var counts [vec.ClassStr + 1]int
	for _, k := range kinds {
		counts[vec.ClassOf(k)]++
	}
	ints := make([]int64, counts[vec.ClassInt]*n)
	floats := make([]float64, counts[vec.ClassFloat]*n)
	strs := make([]string, counts[vec.ClassStr]*n)
	nulls := make([]bool, len(kinds)*n)
	win := make([]vec.Col, len(kinds))
	for i, k := range kinds {
		c := &win[i]
		c.Nulls, nulls = nulls[:0:n], nulls[n:]
		switch vec.ClassOf(k) {
		case vec.ClassInt:
			c.Ints, ints = ints[:0:n], ints[n:]
		case vec.ClassFloat:
			c.Floats, floats = floats[:0:n], floats[n:]
		default:
			c.Strs, strs = strs[:0:n], strs[n:]
		}
	}
	return win
}

// Describe implements Operator.
func (s *IndexScan) Describe() string {
	rng := describeBounds(s.Lo, s.Hi)
	d := fmt.Sprintf("IndexScan %s using %s %s", s.Table, s.Index.Name, rng)
	if len(s.Filter) > 0 {
		d += " filter=" + expr.And(s.Filter...).String()
	}
	return d + describePrune(s.Heap, s.Prune)
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

// Run implements Operator: one owned single-row batch.
func (m *IndexMinMax) Run(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	snap, tid := ctx.snapView()
	out := make(types.Row, len(m.Specs))
	for i, sp := range m.Specs {
		// One root-to-leaf descent per lookup. Walking past entries whose
		// versions are invisible at the snapshot is not charged extra: the
		// cost model keeps the pre-MVCC "one descent" shape, and vacuumed
		// indexes shed the stale entries again.
		ctx.IO.AddPages(int64(sp.Index.Tree.Height()))
		var key types.Datum
		found := false
		visit := func(k btree.Key, rid storage.RowID) bool {
			if !m.Heap.Sees(rid, snap, tid) {
				return true // stale entry; keep walking inward
			}
			key, found = k.Datum(0), true
			return false
		}
		if sp.Max {
			sp.Index.Tree.Descend(nil, visit)
		} else {
			sp.Index.Tree.Ascend(nil, visit)
		}
		out[i] = key
		if found {
			ctx.IO.AddRows(1)
		}
	}
	emitRows([]types.Row{out}, true, emit)
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

// Run implements Operator: the rows as one borrowed batch.
func (v *Values) Run(_ *Ctx, emit func(b *vec.Batch) bool) error {
	emitRows(v.Rows, false, emit)
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

// --- operators over their inputs' batches ---

// Filter drops rows failing its predicates: input batches are filtered by
// shrinking their selection vector through a compiled predicate program — no
// rows move, no per-row tree-walk for the sargable conjuncts.
type Filter struct {
	Input Operator
	Conds []expr.Expr
}

// Run implements Operator.
func (f *Filter) Run(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	prog := expr.CompilePredicate(f.Conds)
	pr := progRunner{prog: prog}
	var inner error
	err := f.Input.Run(ctx, func(b *vec.Batch) bool {
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

// Run implements Operator. Output rows are freshly allocated from one datum
// slab per batch and leave as an owned batch in the input's granularity. An
// all-column projection (the common SELECT list after planning) copies
// datums in a tight loop with no Eval calls.
func (p *Project) Run(ctx *Ctx, emit func(b *vec.Batch) bool) error {
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
	var ords []int
	if allCols {
		for _, c := range cols {
			ords = append(ords, c.Index)
		}
	}
	var inner error
	var outRows []types.Row
	var ident []int32
	var ob vec.Batch
	err := p.Input.Run(ctx, func(b *vec.Batch) bool {
		n := b.Len()
		slab := make([]types.Datum, n*width)
		outRows = outRows[:0]
		if allCols {
			// A column batch fills the output column by column.
			idxs := b.Sel
			if idxs == nil {
				ident = vec.IdentitySel(ident, n)
				idxs = ident
			}
			if b.Fill(slab, idxs, ords) {
				for i := 0; i < n; i++ {
					outRows = append(outRows, types.Row(slab[i*width:(i+1)*width:(i+1)*width]))
				}
				ob.Reset(outRows)
				ob.Owned = true
				return emit(&ob)
			}
		}
		for i := 0; i < n; i++ {
			idx := b.Index(i)
			o := types.Row(slab[:width:width])
			slab = slab[width:]
			if allCols {
				for j, c := range cols {
					d, ok := b.Datum(idx, c.Index)
					if !ok {
						_, err := c.Eval(b.View(idx))
						inner = err
						return false
					}
					o[j] = d
				}
			} else {
				row := b.View(idx)
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

// Limit emits the first N rows, truncating the final batch at the limit
// boundary.
type Limit struct {
	Input Operator
	N     int64
}

// Run implements Operator.
func (l *Limit) Run(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	if l.N <= 0 {
		return nil
	}
	var count int64
	return l.Input.Run(ctx, func(b *vec.Batch) bool {
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

// Distinct suppresses duplicate rows by narrowing each batch's selection to
// the rows whose key it has not seen.
type Distinct struct{ Input Operator }

// Run implements Operator.
func (d *Distinct) Run(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	seen := map[string]bool{}
	var sel []int32
	var image []byte
	var inner error
	err := d.Input.Run(ctx, func(b *vec.Batch) bool {
		sel = sel[:0]
		n := b.Len()
		for i := 0; i < n; i++ {
			image = types.AppendKey(image[:0], b.View(b.Index(i))...)
			if seen[string(image)] {
				continue
			}
			// Each retained key is buffered state; charge it to the budget.
			if err := ctx.Reserve("Distinct", int64(len(image))); err != nil {
				inner = err
				return false
			}
			seen[string(image)] = true
			sel = append(sel, int32(b.Index(i)))
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
func (d *Distinct) Describe() string { return "Distinct" }

// Inputs implements Operator.
func (d *Distinct) Inputs() []Operator { return []Operator{d.Input} }

// UnionAll concatenates its inputs.
type UnionAll struct {
	Arms   []Operator
	Pruned []string
}

// Run implements Operator.
func (u *UnionAll) Run(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	stopped := false
	for _, arm := range u.Arms {
		err := arm.Run(ctx, func(b *vec.Batch) bool {
			stopped = !emit(b)
			return !stopped
		})
		if err != nil || stopped {
			return err
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

// Sort materializes and orders its input. The input's batches keep their
// kernels (an aggregate, projection or index scan under an ORDER BY), and
// the ordered rows leave as one owned batch.
type Sort struct {
	Input Operator
	Keys  []plan.SortKey
}

// Run implements Operator.
func (s *Sort) Run(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	rows, err := s.sorted(ctx)
	if err != nil {
		return err
	}
	emitRows(rows, true, emit)
	return nil
}

// sorted collects the input, retaining the rows of owned batches without a
// clone, and orders it.
func (s *Sort) sorted(ctx *Ctx) ([]types.Row, error) {
	var rows []types.Row
	var inner error
	err := s.Input.Run(ctx, func(b *vec.Batch) bool {
		n := b.Len()
		for i := 0; i < n; i++ {
			row := b.Row(i)
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
			if !b.Owned {
				row = row.Clone()
			}
			rows = append(rows, row)
		}
		return true
	})
	if inner != nil {
		return nil, inner
	}
	if err != nil {
		return nil, err
	}
	return sortByKeys(ctx, rows, s.Keys), nil
}

// sortKey is one sort key's column extracted once: as int64 images when
// every value has the same integer-class kind (INT, DATE or BOOL — images of
// one kind compare as Datum.Compare does), as datums otherwise.
type sortKey struct {
	desc  bool
	ints  []int64
	datum []types.Datum
}

// extractSortKey pulls key column k out of rows.
func extractSortKey(rows []types.Row, k plan.SortKey) sortKey {
	key := sortKey{desc: k.Desc}
	kind := rows[0][k.Ordinal].Kind()
	for _, r := range rows {
		if r[k.Ordinal].Kind() != kind {
			kind = types.KindNull
			break
		}
	}
	switch kind {
	case types.KindInt, types.KindDate, types.KindBool:
		key.ints = make([]int64, len(rows))
		for i, r := range rows {
			key.ints[i] = r[k.Ordinal].IntImage()
		}
	default:
		key.datum = make([]types.Datum, len(rows))
		for i, r := range rows {
			key.datum[i] = r[k.Ordinal]
		}
	}
	return key
}

// sortByKeys orders rows by keys, stably, and charges one comparison per key
// column compared, so shorter key lists (the FD-based sort simplification)
// show up directly. Each key column is extracted once (see sortKey); an index
// permutation is sorted with slices.SortStableFunc, which runs
// sort.SliceStable's algorithm (insertion-sorted blocks of 20, then
// symMerge) and calls the comparator in the same order, so the comparison
// count is the one a row-swapping sort.SliceStable charges. The rows are
// permuted once at the end.
func sortByKeys(ctx *Ctx, rows []types.Row, keys []plan.SortKey) []types.Row {
	if len(rows) < 2 || len(keys) == 0 {
		return rows
	}
	ks := make([]sortKey, len(keys))
	for i, k := range keys {
		ks[i] = extractSortKey(rows, k)
	}
	perm := make([]int32, len(rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	var cmps int64
	slices.SortStableFunc(perm, func(a, b int32) int {
		for i := range ks {
			k := &ks[i]
			cmps++
			var c int
			if k.ints != nil {
				c = cmp.Compare(k.ints[a], k.ints[b])
			} else {
				c = k.datum[a].Compare(k.datum[b])
			}
			if c != 0 {
				if k.desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	ctx.AddComparisons(cmps)
	out := make([]types.Row, len(rows))
	for i, p := range perm {
		out[i] = rows[p]
	}
	return out
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
