package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// PartitionedOperator is an Operator whose output can be produced in
// disjoint partitions. Unlike Run, RunPartition may be invoked for
// different partitions concurrently, each call with its own Ctx; each
// individual call still invokes its emit serially. Partitions are ordered:
// partition 0 covers the earliest storage order, so concatenating
// partitions 0..n-1 reproduces the serial scan order exactly. The sum of
// the partitions' counter charges equals one serial run.
type PartitionedOperator interface {
	Operator
	// Partitions reports how many partitions the output splits into;
	// 1 means no useful partitioning.
	Partitions() int
	// RunPartition produces the rows of partition part, 0 <= part < Partitions().
	RunPartition(part int, ctx *Ctx, emit func(types.Row) bool) error
}

// emitBatch is how many rows a parallel worker buffers before taking the
// shared emit lock, amortizing lock traffic on high-cardinality outputs.
const emitBatch = 128

// splitRange divides n units into parts contiguous blocks and returns the
// half-open range of block part. Earlier blocks take the remainder so
// sizes differ by at most one.
func splitRange(n, parts, part int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = part*base + min(part, rem)
	hi = lo + base
	if part < rem {
		hi++
	}
	return lo, hi
}

// runPartitioned drives parts workers, one per partition, each charging a
// private child Ctx (sharing the query lifecycle) that is merged into ctx
// on completion. Rows are batched per worker and emitted under a mutex,
// preserving the serial-emit contract. The first worker error is returned;
// an error or a false emit stops the remaining workers at their next batch
// boundary. A panicking worker is recovered into a KindPanic QueryError
// attributed to op, so one poisoned partition fails the query instead of
// the process.
func runPartitioned(op string, parts int, runPart func(part int, ctx *Ctx, emit func(types.Row) bool) error, ctx *Ctx, emit func(types.Row) bool) error {
	var (
		mu       sync.Mutex // serializes emit across workers
		stop     atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	flush := func(buf []types.Row) bool {
		mu.Lock()
		defer mu.Unlock()
		if stop.Load() {
			return false
		}
		for _, r := range buf {
			if !emit(r) {
				stop.Store(true)
				return false
			}
		}
		return true
	}
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			wctx := ctx.Child()
			defer ctx.Merge(wctx)
			buf := make([]types.Row, 0, emitBatch)
			err := func() (err error) {
				defer wctx.recoverPanic(op, &err)
				return runPart(part, wctx, func(row types.Row) bool {
					buf = append(buf, row)
					if len(buf) < emitBatch {
						return true
					}
					ok := flush(buf)
					buf = buf[:0]
					return ok
				})
			}()
			if err == nil && len(buf) > 0 {
				flush(buf)
			}
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				stop.Store(true)
			}
		}(p)
	}
	wg.Wait()
	return firstErr
}

// --- parallel scan ---

// ParallelScan reads a heap like SeqScan but splits it into contiguous
// page ranges scanned by a worker pool. Because partitions are disjoint
// page ranges, every page and live row is charged exactly once — the same
// totals as a serial SeqScan — which keeps the paper-style cost accounting
// comparable between serial and parallel plans.
type ParallelScan struct {
	Table   string
	Heap    *storage.Heap
	Filter  []expr.Expr
	Prune   []plan.PrunePred
	Workers int
}

// Partitions implements PartitionedOperator. The partition count is the
// worker count clamped to the page count, so no partition is empty.
func (s *ParallelScan) Partitions() int {
	pages := int(s.Heap.PageCount())
	w := s.Workers
	if w > pages {
		w = pages
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunPartition implements PartitionedOperator. Each partition prunes and
// batches its own page range; skip decisions depend only on the published
// synopses, so partition counters still sum to one serial scan exactly.
func (s *ParallelScan) RunPartition(part int, ctx *Ctx, emit func(types.Row) bool) error {
	lo, hi := splitRange(int(s.Heap.PageCount()), s.Partitions(), part)
	var runErr error
	skip := makeSkipper(s.Prune, ctx.Skips)
	op := "ParallelScan " + s.Table
	snap, tid := ctx.snapView()
	s.Heap.ScanPagesAt(lo, hi, snap, tid, &ctx.IO, skip, func(rows []types.Row, _ *storage.PageSynopsis, _ *vec.PageImage) bool {
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

// Run implements Operator.
func (s *ParallelScan) Run(ctx *Ctx, emit func(types.Row) bool) error {
	parts := s.Partitions()
	if parts <= 1 {
		return s.RunPartition(0, ctx, emit)
	}
	return runPartitioned("ParallelScan "+s.Table, parts, s.RunPartition, ctx, emit)
}

// BatchCapable implements BatchOperator. Multi-partition scans interleave
// emits from a worker pool, which has no batched equivalent — partition
// plumbing stays row-based — so only the degenerate single-partition scan
// streams batches.
func (s *ParallelScan) BatchCapable() bool { return s.Partitions() <= 1 }

// RunBatch implements BatchOperator for the single-partition case,
// vectorizing exactly like SeqScan.
func (s *ParallelScan) RunBatch(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	if s.Partitions() > 1 {
		one := make([]types.Row, 1)
		var b vec.Batch
		return s.Run(ctx, func(row types.Row) bool {
			one[0] = row
			b.Reset(one)
			return emit(&b)
		})
	}
	op := "ParallelScan " + s.Table
	return scanPageLoop(op, s.Heap, 0, int(s.Heap.PageCount()), s.Filter, s.Prune, ctx, emit)
}

// Describe implements Operator.
func (s *ParallelScan) Describe() string {
	d := fmt.Sprintf("ParallelScan %s workers=%d", s.Table, s.Workers)
	if len(s.Filter) > 0 {
		d += " filter=" + expr.And(s.Filter...).String()
	}
	return d
}

// Inputs implements Operator.
func (s *ParallelScan) Inputs() []Operator { return nil }

// --- partition pass-through for Filter and Project ---

// Partitions implements PartitionedOperator: a Filter passes its input's
// partitioning through so predicate evaluation runs on partition workers.
func (f *Filter) Partitions() int {
	if p, ok := f.Input.(PartitionedOperator); ok {
		return p.Partitions()
	}
	return 1
}

// RunPartition implements PartitionedOperator.
func (f *Filter) RunPartition(part int, ctx *Ctx, emit func(types.Row) bool) error {
	p, ok := f.Input.(PartitionedOperator)
	if !ok {
		return f.Run(ctx, emit)
	}
	var inner error
	err := p.RunPartition(part, ctx, func(row types.Row) bool {
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

// Partitions implements PartitionedOperator for Project, mirroring Filter.
func (p *Project) Partitions() int {
	if in, ok := p.Input.(PartitionedOperator); ok {
		return in.Partitions()
	}
	return 1
}

// RunPartition implements PartitionedOperator.
func (p *Project) RunPartition(part int, ctx *Ctx, emit func(types.Row) bool) error {
	in, ok := p.Input.(PartitionedOperator)
	if !ok {
		return p.Run(ctx, emit)
	}
	var inner error
	err := in.RunPartition(part, ctx, func(row types.Row) bool {
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

// Serialize returns an equivalent operator tree with parallel leaves
// demoted to serial ones. Nested-loop join re-runs its inner side once per
// outer row; a ParallelScan there would spawn a worker pool per outer row,
// so the optimizer serializes NLJ subtrees.
func Serialize(op Operator) Operator {
	switch t := op.(type) {
	case *ParallelScan:
		return &SeqScan{Table: t.Table, Heap: t.Heap, Filter: t.Filter, Prune: t.Prune}
	case *Filter:
		return &Filter{Input: Serialize(t.Input), Conds: t.Conds}
	case *Project:
		return &Project{Input: Serialize(t.Input), Exprs: t.Exprs}
	default:
		return op
	}
}

// --- partitioned hash join ---

// PartitionedHashJoin is a HashJoin that builds and probes in parallel.
// The build side is hashed into Workers shard maps: when Left is
// partitioned, each build worker routes its partition's rows into
// per-worker shard buckets that are then merged shard-wise (in partition
// order, preserving the serial per-key row order); otherwise the build is
// routed serially. The probe side, when partitioned, probes the read-only
// shard maps from a worker pool. Counter totals match serial HashJoin
// exactly: build rows charge their scan costs once and every non-NULL
// probe row charges one hash probe.
type PartitionedHashJoin struct {
	Left, Right        Operator
	LeftKeys, RightKey []expr.Expr
	Residual           []expr.Expr
	Workers            int
}

type keyedRow struct {
	key string
	row types.Row
}

// shardOf maps a hash key to a shard with FNV-1a.
func shardOf(key string, shards int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(shards))
}

// Run implements Operator.
func (j *PartitionedHashJoin) Run(ctx *Ctx, emit func(types.Row) bool) error {
	shards := j.Workers
	if shards < 2 {
		shards = 2
	}
	build := make([]map[string][]types.Row, shards)
	for i := range build {
		build[i] = map[string][]types.Row{}
	}
	if err := j.runBuild(ctx, build, shards); err != nil {
		return err
	}
	probeOne := func(ctx *Ctx, row types.Row, emit func(types.Row) bool) (bool, error) {
		ctx.AddProbes(1)
		key, null, err := hashKey(j.RightKey, row)
		if err != nil {
			return false, err
		}
		if null {
			return true, nil
		}
		for _, l := range build[shardOf(key, shards)][key] {
			joined := l.Concat(row)
			ok, err := evalFilters(j.Residual, joined)
			if err != nil {
				return false, err
			}
			if !ok {
				continue
			}
			if !emit(joined) {
				return false, nil
			}
		}
		return true, nil
	}
	if rp, ok := j.Right.(PartitionedOperator); ok && rp.Partitions() > 1 && j.Workers > 1 {
		return runPartitioned("PartitionedHashJoin probe", rp.Partitions(), func(part int, wctx *Ctx, wemit func(types.Row) bool) error {
			var inner error
			err := rp.RunPartition(part, wctx, func(row types.Row) bool {
				cont, err := probeOne(wctx, row, wemit)
				if err != nil {
					inner = err
					return false
				}
				return cont
			})
			if inner != nil {
				return inner
			}
			return err
		}, ctx, emit)
	}
	var inner error
	err := j.Right.Run(ctx, func(row types.Row) bool {
		cont, err := probeOne(ctx, row, emit)
		if err != nil {
			inner = err
			return false
		}
		return cont
	})
	if inner != nil {
		return inner
	}
	return err
}

// runBuild fills the shard maps from the left input, in parallel when the
// input is partitioned.
func (j *PartitionedHashJoin) runBuild(ctx *Ctx, build []map[string][]types.Row, shards int) error {
	const op = "PartitionedHashJoin build"
	lp, ok := j.Left.(PartitionedOperator)
	if !ok || lp.Partitions() <= 1 || j.Workers <= 1 {
		var inner error
		err := j.Left.Run(ctx, func(row types.Row) bool {
			key, null, err := hashKey(j.LeftKeys, row)
			if err != nil {
				inner = err
				return false
			}
			if null {
				return true
			}
			if err := ctx.Reserve(op, row.MemSize()); err != nil {
				inner = err
				return false
			}
			m := build[shardOf(key, shards)]
			m[key] = append(m[key], row.Clone())
			return true
		})
		if inner != nil {
			return inner
		}
		return err
	}
	parts := lp.Partitions()
	partials := make([][][]keyedRow, parts) // [partition][shard][]rows
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			wctx := ctx.Child()
			defer ctx.Merge(wctx)
			local := make([][]keyedRow, shards)
			errs[part] = func() (err error) {
				defer wctx.recoverPanic(op, &err)
				var inner error
				err = lp.RunPartition(part, wctx, func(row types.Row) bool {
					key, null, err := hashKey(j.LeftKeys, row)
					if err != nil {
						inner = err
						return false
					}
					if null {
						return true
					}
					if err := wctx.Reserve(op, row.MemSize()); err != nil {
						inner = err
						return false
					}
					s := shardOf(key, shards)
					local[s] = append(local[s], keyedRow{key: key, row: row.Clone()})
					return true
				})
				if inner != nil {
					return inner
				}
				return err
			}()
			partials[part] = local
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Merge shard-wise in ascending partition order: partitions are ordered
	// by storage position, so per-key row order matches a serial build.
	for s := 0; s < shards; s++ {
		m := build[s]
		for p := 0; p < parts; p++ {
			for _, kr := range partials[p][s] {
				m[kr.key] = append(m[kr.key], kr.row)
			}
		}
	}
	return nil
}

// Describe implements Operator.
func (j *PartitionedHashJoin) Describe() string {
	var pairs []string
	for i := range j.LeftKeys {
		pairs = append(pairs, fmt.Sprintf("%s=%s", j.LeftKeys[i], j.RightKey[i]))
	}
	d := fmt.Sprintf("PartitionedHashJoin on %s workers=%d", joinComma(pairs), j.Workers)
	if len(j.Residual) > 0 {
		d += " residual=" + expr.And(j.Residual...).String()
	}
	return d
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

// Inputs implements Operator.
func (j *PartitionedHashJoin) Inputs() []Operator { return []Operator{j.Left, j.Right} }

// --- parallel aggregation ---

// ParallelHashAggregate computes per-partition partial aggregates on a
// worker pool and merges them (partial aggregation + merge). Each worker
// folds its partition with the same per-row charging as HashAggregate and
// the merge phase charges nothing, so counter totals and results match a
// serial HashAggregate exactly; output stays sorted by group key. When the
// input is not partitioned it degrades to the serial operator.
type ParallelHashAggregate struct {
	Input     Operator
	GroupBy   []expr.Expr
	Aggs      []plan.AggSpec
	Redundant []bool
	Workers   int
}

func (h *ParallelHashAggregate) serial() *HashAggregate {
	return &HashAggregate{Input: h.Input, GroupBy: h.GroupBy, Aggs: h.Aggs, Redundant: h.Redundant}
}

// Run implements Operator.
func (h *ParallelHashAggregate) Run(ctx *Ctx, emit func(types.Row) bool) error {
	s := h.serial()
	pin, ok := h.Input.(PartitionedOperator)
	if !ok || pin.Partitions() <= 1 || h.Workers <= 1 {
		return s.Run(ctx, emit)
	}
	parts := pin.Partitions()
	tables := make([]*aggTable, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			wctx := ctx.Child()
			defer ctx.Merge(wctx)
			t := newAggTable()
			errs[part] = func() (err error) {
				defer wctx.recoverPanic("ParallelHashAggregate", &err)
				var inner error
				err = pin.RunPartition(part, wctx, func(row types.Row) bool {
					if err := s.foldRow(wctx, row, t); err != nil {
						inner = err
						return false
					}
					return true
				})
				if inner != nil {
					return inner
				}
				return err
			}()
			tables[part] = t
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Merge partials in ascending partition order so the group key row
	// (which carries redundant FD-determined columns from the group's first
	// row) is taken from the earliest partition, matching serial scan order.
	merged := tables[0]
	for p := 1; p < parts; p++ {
		for _, k := range tables[p].order {
			other := tables[p].groups[k]
			grp, ok := merged.groups[k]
			if !ok {
				merged.groups[k] = other
				merged.order = append(merged.order, k)
				continue
			}
			for i := range grp.accs {
				grp.accs[i].merge(other.accs[i])
			}
		}
	}
	return s.emitGroups(merged, emit)
}

// BatchCapable implements BatchOperator: like HashAggregate, the merged
// result set always leaves as one owned batch.
func (h *ParallelHashAggregate) BatchCapable() bool { return true }

// RunBatch implements BatchOperator. Partition folding stays row-based (the
// partial tables are merged exactly as in Run); only the emission is
// batched. Group rows from emitGroups are freshly allocated, so the batch
// is owned.
func (h *ParallelHashAggregate) RunBatch(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	var rows []types.Row
	if err := h.Run(ctx, func(r types.Row) bool {
		rows = append(rows, r)
		return true
	}); err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	var ob vec.Batch
	ob.Reset(rows)
	ob.Owned = true
	emit(&ob)
	return nil
}

// Describe implements Operator.
func (h *ParallelHashAggregate) Describe() string {
	return fmt.Sprintf("Parallel%s workers=%d", h.serial().Describe(), h.Workers)
}

// Inputs implements Operator.
func (h *ParallelHashAggregate) Inputs() []Operator { return []Operator{h.Input} }
