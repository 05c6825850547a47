package exec

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"softdb/internal/expr"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// NestedLoopJoin evaluates Outer once and re-runs Inner for every outer
// row, emitting outer++inner rows that satisfy Cond (conjuncts bound to the
// concatenated schema) as one owned batch per inner batch.
type NestedLoopJoin struct {
	Outer, Inner Operator
	Cond         []expr.Expr
}

// Run implements Operator. The outer batch stays valid while its rows'
// inner runs proceed, since they run inside its emit callback.
func (j *NestedLoopJoin) Run(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	var inner error
	stopped := false
	var out []types.Row
	err := j.Outer.Run(ctx, func(b *vec.Batch) bool {
		n := b.Len()
		for i := 0; i < n && !stopped && inner == nil; i++ {
			o := b.Row(i)
			err := j.Inner.Run(ctx, func(ib *vec.Batch) bool {
				m := ib.Len()
				ctx.AddComparisons(int64(m))
				out = out[:0]
				for k := 0; k < m; k++ {
					joined := o.Concat(ib.View(ib.Index(k)))
					ok, err := evalFilters(j.Cond, joined)
					if err != nil {
						inner = err
						return false
					}
					if ok {
						out = append(out, joined)
					}
				}
				stopped = !emitRows(out, true, emit)
				return !stopped
			})
			if err != nil {
				inner = err
			}
		}
		return !stopped && inner == nil
	})
	if inner != nil {
		return inner
	}
	return err
}

// Describe implements Operator.
func (j *NestedLoopJoin) Describe() string {
	d := "NestedLoopJoin"
	if len(j.Cond) > 0 {
		d += " on " + expr.And(j.Cond...).String()
	}
	return d
}

// Inputs implements Operator.
func (j *NestedLoopJoin) Inputs() []Operator { return []Operator{j.Outer, j.Inner} }

// HashJoin builds a hash table on Left's key columns, probes with Right,
// and emits left++right rows. Residual conjuncts (bound to the concatenated
// schema) are applied after key matching. NULL keys never match.
//
// Proj, when non-nil, narrows the output: each emitted row holds only the
// named ordinals of the concatenated schema, in order (an empty non-nil
// Proj emits zero-width rows — all an aggregate's COUNT(*) needs). The
// optimizer sets it by fusing a bare-column projection above the join, so
// joined columns nothing upstream reads are never materialized. Residual
// conjuncts still see the full concatenated row.
type HashJoin struct {
	Left, Right        Operator
	LeftKeys, RightKey []expr.Expr // paired key expressions, one per side
	Residual           []expr.Expr
	Proj               []int
}

// intJoinKey reports whether keys is a single bare INT or DATE column,
// enabling the typed int table, which keys the raw int64: the same equality
// as the key image, INT against DATE included.
func intJoinKey(keys []expr.Expr) (*expr.Column, bool) {
	if len(keys) != 1 {
		return nil, false
	}
	c, ok := keys[0].(*expr.Column)
	if !ok || c.Index < 0 {
		return nil, false
	}
	switch c.Kind {
	case types.KindInt, types.KindDate:
		return c, true
	}
	return nil, false
}

// intTable is a hash join's build side over one integer-class key: the build
// rows and their keys in arrival order, and per-bucket chains of row indices
// threaded through next (-1 ends a chain). Rows are kept as joinTable.row
// made them — no per-key slice. Tables come from intTablePool and go back
// when their execution is done with them.
type intTable struct {
	rows  []types.Row
	keys  []int64
	heads []int32
	next  []int32
	shift uint
}

var intTablePool = sync.Pool{New: func() any { return new(intTable) }}

// release returns the table to the pool, dropping its row references: no
// pooled table reaches a row of a finished execution.
func (t *intTable) release() {
	clear(t.rows)
	t.rows, t.keys, t.heads, t.next = t.rows[:0], t.keys[:0], t.heads[:0], t.next[:0]
	intTablePool.Put(t)
}

func (t *intTable) add(k int64, row types.Row) {
	t.rows = append(t.rows, row)
	t.keys = append(t.keys, k)
}

// seal builds the bucket chains once every row is in, at a load factor of
// at most one half. Chains are threaded back to front so each lists its
// rows in arrival order, the order the generic table yields matches in.
func (t *intTable) seal() {
	n := len(t.rows)
	bits := uint(0)
	for 1<<bits < 2*n {
		bits++
	}
	t.shift = 64 - bits
	t.heads = slices.Grow(t.heads[:0], 1<<bits)[:1<<bits]
	for i := range t.heads {
		t.heads[i] = -1
	}
	t.next = slices.Grow(t.next[:0], n)[:n]
	for i := n - 1; i >= 0; i-- {
		h := t.bucket(t.keys[i])
		t.next[i] = t.heads[h]
		t.heads[h] = int32(i)
	}
}

func (t *intTable) bucket(k int64) uint64 { return fibHash(k, t.shift) }

// fibHash is Fibonacci hashing: the top 64-shift bits of k times 2^64/φ.
func fibHash(k int64, shift uint) uint64 {
	return (uint64(k) * 0x9E3779B97F4A7C15) >> shift
}

// lookup appends the rows built under key k to buf, in arrival order.
func (t *intTable) lookup(k int64, buf []types.Row) []types.Row {
	for i := t.heads[t.bucket(k)]; i >= 0; i = t.next[i] {
		if t.keys[i] == k {
			buf = append(buf, t.rows[i])
		}
	}
	return buf
}

// joinTable is a batched hash join's build side: rows in a typed int table
// keyed by a single integer-class column (int mode), or keyed by the key
// image of the key values (generic mode). Int mode degrades to generic in
// place when a batch fails column extraction, preserving every row already
// built. inFloat marks the key pairs that mix INT or DATE with FLOAT, which
// both sides key in FLOAT (types.KeyInFloat); image is the key scratch.
//
// A build row holds the whole left row, unless the join projects (Proj)
// and has no residual: then nothing downstream reads a left column Proj
// does not name, and a build row holds just those (keep, in order), read
// from the batch without building its row. pos maps a left ordinal to its
// place in a build row (nil for whole rows), and lw is the left width,
// where Proj's right ordinals start. Narrow rows are carved from slab.
type joinTable struct {
	ints    *intTable
	strs    map[string][]types.Row
	inFloat []bool
	image   []byte

	narrow bool
	keep   []int
	pos    []int
	lw     int
	slab   []types.Datum
}

// shape fixes the build row layout from the first build batch, whose
// width is the left width.
func (t *joinTable) shape(j *HashJoin, b *vec.Batch) {
	if t.lw > 0 || !t.narrow || b.Len() == 0 {
		return
	}
	t.lw = b.Width()
	t.pos = make([]int, t.lw)
	for _, ord := range j.Proj {
		if ord < t.lw {
			t.pos[ord] = len(t.keep)
			t.keep = append(t.keep, ord)
		}
	}
}

// row is the build row the table keeps for b's window position idx: the
// whole row (cloned unless the batch owns it), or a narrow one carved from
// the table's slab.
func (t *joinTable) row(b *vec.Batch, idx int) types.Row {
	if !t.narrow {
		row := b.At(idx)
		if !b.Owned {
			row = row.Clone()
		}
		return row
	}
	w := len(t.keep)
	if len(t.slab) < w {
		t.slab = make([]types.Datum, max(joinSlabDatums, w))
	}
	row := types.Row(t.slab[:w:w])
	t.slab = t.slab[w:]
	for k, ord := range t.keep {
		row[k], _ = b.Datum(idx, ord)
	}
	return row
}

// left is column ord (< the left width) of build row l.
func (t *joinTable) left(l types.Row, ord int) types.Datum {
	if t.pos != nil {
		return l[t.pos[ord]]
	}
	return l[ord]
}

// degrade moves every int-mode row into the image-keyed table, in arrival
// order, under the image of its integer key: INT and DATE values key by
// their integer, as the int table compared them.
func (t *joinTable) degrade() {
	if t.ints == nil {
		return
	}
	if t.strs == nil {
		t.strs = make(map[string][]types.Row, len(t.ints.rows))
	}
	for i, row := range t.ints.rows {
		key := types.AppendEqKey(t.image[:0], types.NewInt(t.ints.keys[i]), t.inFloat[0])
		t.strs[string(key)] = append(t.strs[string(key)], row)
	}
	t.ints.release()
	t.ints = nil
}

// addGeneric folds one batch into the image-keyed table row by row.
func (t *joinTable) addGeneric(ctx *Ctx, keys []expr.Expr, b *vec.Batch) error {
	n := b.Len()
	for i := 0; i < n; i++ {
		idx := b.Index(i)
		key, null, err := t.hashKey(keys, b.View(idx))
		if err != nil {
			return err
		}
		if null {
			continue
		}
		if err := ctx.reserveAt("HashJoin build", b, idx); err != nil {
			return err
		}
		t.strs[string(key)] = append(t.strs[string(key)], t.row(b, idx))
	}
	return nil
}

// buildTable materializes the build side, preferring the typed int table
// when both key sides are bare integer-class columns. The key pairs that
// key in FLOAT are decided here, once, from the two sides' static kinds.
func (j *HashJoin) buildTable(ctx *Ctx) (*joinTable, error) {
	t := &joinTable{inFloat: make([]bool, len(j.LeftKeys)), narrow: j.Proj != nil && len(j.Residual) == 0}
	for i, l := range j.LeftKeys {
		t.inFloat[i] = types.KeyInFloat(l.Type(), j.RightKey[i].Type())
	}
	lcol, lok := intJoinKey(j.LeftKeys)
	if _, rok := intJoinKey(j.RightKey); lok && rok {
		t.ints = intTablePool.Get().(*intTable)
	} else {
		t.strs = map[string][]types.Row{}
	}
	var inner error
	var idxs []int32
	err := j.Left.Run(ctx, func(b *vec.Batch) bool {
		t.shape(j, b)
		if t.ints != nil {
			if c := b.Col(lcol.Index, vec.ClassInt); c != nil {
				idxs = idxs[:0]
				for i := 0; i < b.Len(); i++ {
					if idx := b.Index(i); !c.HasNulls || !c.Nulls[idx] {
						idxs = append(idxs, int32(idx))
					}
				}
				// A narrow build fills its rows column by column.
				var slab []types.Datum
				if t.narrow && len(t.keep) > 0 {
					slab = make([]types.Datum, len(idxs)*len(t.keep))
					if !b.Fill(slab, idxs, t.keep) {
						slab = nil
					}
				}
				w := len(t.keep)
				for j, idx := range idxs {
					if err := ctx.reserveAt("HashJoin build", b, int(idx)); err != nil {
						inner = err
						return false
					}
					var row types.Row
					if slab != nil {
						row = slab[j*w : (j+1)*w : (j+1)*w]
					} else {
						row = t.row(b, int(idx))
					}
					t.ints.add(c.Ints[idx], row)
				}
				return true
			}
			// This window holds a datum the int image cannot carry (e.g. a
			// FLOAT in an INT column): fall back to key images for
			// everything, past and future.
			t.degrade()
		}
		inner = t.addGeneric(ctx, j.LeftKeys, b)
		return inner == nil
	})
	if err == nil {
		err = inner
	}
	if err != nil {
		t.release()
		return nil, err
	}
	if t.ints != nil {
		t.ints.seal()
	}
	return t, nil
}

// release hands the int table, if any, back to its pool.
func (t *joinTable) release() {
	if t.ints != nil {
		t.ints.release()
		t.ints = nil
	}
}

// joinSlabDatums sizes the chunked allocation joined rows are carved from:
// one make per ~4k datums instead of one Concat per match. Carved rows are
// never rewritten, so emitting them in an owned batch is safe.
const joinSlabDatums = 4096

// Run implements Operator: build over the left input, then probe with each
// right-side batch, emitting matches as one owned batch per input batch.
// Probes are charged batch-at-a-time, so a LIMIT that stops mid-batch has
// already paid for the whole window (the same granularity rule as page
// reads).
func (j *HashJoin) Run(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	t, err := j.buildTable(ctx)
	if err != nil {
		return err
	}
	// Emitted rows are carved from the join's own slabs, never from the
	// table, so it can go back to the pool once the probe side is done.
	defer t.release()
	rcol, rok := intJoinKey(j.RightKey)
	var inner error
	stopped := false
	var out []types.Row
	var slab []types.Datum
	var concatBuf types.Row // residual scratch when Proj narrows the output
	var matchBuf []types.Row
	var ob vec.Batch
	err = j.Right.Run(ctx, func(b *vec.Batch) bool {
		n := b.Len()
		ctx.AddProbes(int64(n))
		var c *vec.Col
		if t.ints != nil {
			if rok {
				c = b.Col(rcol.Index, vec.ClassInt)
			}
			if c == nil {
				t.degrade()
			}
		}
		out = out[:0]
		for i := 0; i < n; i++ {
			// row is the probe row's view, built only when a match needs
			// more of it than the projected columns Datum reads.
			idx := b.Index(i)
			var row types.Row
			var matches []types.Row
			if c != nil {
				if c.HasNulls && c.Nulls[idx] {
					continue
				}
				matchBuf = t.ints.lookup(c.Ints[idx], matchBuf[:0])
				if matches = matchBuf; len(matches) > 0 && (j.Proj == nil || len(j.Residual) > 0) {
					row = b.View(idx)
				}
			} else {
				row = b.View(idx)
				key, null, err := t.hashKey(j.RightKey, row)
				if err != nil {
					inner = err
					return false
				}
				if null {
					continue
				}
				matches = t.strs[string(key)]
			}
			for _, l := range matches {
				lw := len(l)
				if t.narrow {
					lw = t.lw
				}
				w := lw + len(row)
				if j.Proj != nil {
					w = len(j.Proj)
				}
				if len(slab) < w {
					sz := joinSlabDatums
					if sz < w {
						sz = w
					}
					slab = make([]types.Datum, sz)
				}
				joined := types.Row(slab[:w:w])
				switch {
				case j.Proj == nil:
					copy(joined, l)
					copy(joined[lw:], row)
					ok, err := evalFilters(j.Residual, joined)
					if err != nil {
						inner = err
						return false
					}
					if !ok {
						continue // the carved space is reused by the next match
					}
				case len(j.Residual) > 0:
					// The residual is bound to the full concatenated schema;
					// build it once in scratch, then carve the projection.
					concatBuf = append(append(concatBuf[:0], l...), row...)
					ok, err := evalFilters(j.Residual, concatBuf)
					if err != nil {
						inner = err
						return false
					}
					if !ok {
						continue
					}
					for k, ord := range j.Proj {
						joined[k] = concatBuf[ord]
					}
				default:
					for k, ord := range j.Proj {
						switch {
						case ord < lw:
							joined[k] = t.left(l, ord)
						case row != nil:
							joined[k] = row[ord-lw]
						default:
							joined[k], _ = b.Datum(idx, ord-lw)
						}
					}
				}
				slab = slab[w:]
				out = append(out, joined)
			}
		}
		if len(out) == 0 {
			return true
		}
		ob.Reset(out)
		ob.Owned = true
		if !emit(&ob) {
			stopped = true
			return false
		}
		return true
	})
	if inner != nil {
		return inner
	}
	if stopped {
		return nil
	}
	return err
}

// hashKey is the key image of keys over row, valid until the next call;
// null reports a NULL key value, which no equality matches.
func (t *joinTable) hashKey(keys []expr.Expr, row types.Row) (key []byte, null bool, err error) {
	t.image = t.image[:0]
	for i, k := range keys {
		v, err := k.Eval(row)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() {
			return nil, true, nil
		}
		t.image = types.AppendEqKey(t.image, v, t.inFloat[i])
	}
	return t.image, false, nil
}

// Describe implements Operator.
func (j *HashJoin) Describe() string {
	var pairs []string
	for i := range j.LeftKeys {
		pairs = append(pairs, fmt.Sprintf("%s=%s", j.LeftKeys[i], j.RightKey[i]))
	}
	d := "HashJoin on " + strings.Join(pairs, ", ")
	if len(j.Residual) > 0 {
		d += " residual=" + expr.And(j.Residual...).String()
	}
	if j.Proj != nil {
		var ords []string
		for _, ord := range j.Proj {
			ords = append(ords, fmt.Sprintf("#%d", ord))
		}
		d += " proj=[" + strings.Join(ords, ", ") + "]"
	}
	return d
}

// Inputs implements Operator.
func (j *HashJoin) Inputs() []Operator { return []Operator{j.Left, j.Right} }
