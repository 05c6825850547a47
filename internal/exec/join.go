package exec

import (
	"fmt"
	"strings"

	"softdb/internal/expr"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// NestedLoopJoin evaluates Outer once and re-runs Inner for every outer
// row, emitting outer++inner rows that satisfy Cond (conjuncts bound to the
// concatenated schema).
type NestedLoopJoin struct {
	Outer, Inner Operator
	Cond         []expr.Expr
}

// Run implements Operator.
func (j *NestedLoopJoin) Run(ctx *Ctx, emit func(types.Row) bool) error {
	var inner error
	stopped := false
	err := j.Outer.Run(ctx, func(orow types.Row) bool {
		o := orow.Clone()
		err := j.Inner.Run(ctx, func(irow types.Row) bool {
			ctx.AddComparisons(1)
			joined := o.Concat(irow)
			ok, err := evalFilters(j.Cond, joined)
			if err != nil {
				inner = err
				return false
			}
			if !ok {
				return true
			}
			if !emit(joined) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil {
			inner = err
			return false
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

// Run implements Operator.
func (j *HashJoin) Run(ctx *Ctx, emit func(types.Row) bool) error {
	build := map[string][]types.Row{}
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
		if err := ctx.Reserve("HashJoin build", row.MemSize()); err != nil {
			inner = err
			return false
		}
		build[key] = append(build[key], row.Clone())
		return true
	})
	if err != nil {
		return err
	}
	if inner != nil {
		return inner
	}
	stopped := false
	err = j.Right.Run(ctx, func(row types.Row) bool {
		ctx.AddProbes(1)
		key, null, err := hashKey(j.RightKey, row)
		if err != nil {
			inner = err
			return false
		}
		if null {
			return true
		}
		for _, l := range build[key] {
			joined := l.Concat(row)
			ok, err := evalFilters(j.Residual, joined)
			if err != nil {
				inner = err
				return false
			}
			if !ok {
				continue
			}
			if j.Proj != nil {
				joined = projectOrds(joined, j.Proj)
			}
			if !emit(joined) {
				stopped = true
				return false
			}
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

// BatchCapable implements BatchOperator: probe-side batches are what the
// vectorized path streams, so it needs a batch-capable right input.
func (j *HashJoin) BatchCapable() bool {
	_, ok := AsBatch(j.Right)
	return ok
}

// intJoinKey reports whether keys is a single bare integer-image column
// (INT or DATE — BOOL renders as TRUE/FALSE in row keys, not numerically),
// enabling the float64-image fast path that matches Row.Key's numeric
// normalization exactly, including int/date cross-kind equality.
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

// joinTable is a batched hash join's build side: rows keyed by the float64
// image of a single integer-class key (fast mode) or by the composite
// string key (general mode). Fast mode degrades to general in place when a
// batch fails column extraction, preserving every row already built.
type joinTable struct {
	ints map[float64][]types.Row
	strs map[string][]types.Row
}

// degrade converts fast-mode keys to the string keys hashKey would have
// produced: the float image round-trips through the same normalization
// Row.Key applies to numeric datums, so lookups stay consistent.
func (t *joinTable) degrade() {
	if t.ints == nil {
		return
	}
	if t.strs == nil {
		t.strs = make(map[string][]types.Row, len(t.ints))
	}
	for f, rows := range t.ints {
		t.strs[types.Row{types.NewFloat(f)}.Key()] = rows
	}
	t.ints = nil
}

// addGeneric folds one batch into the string-keyed table row by row.
func (t *joinTable) addGeneric(ctx *Ctx, keys []expr.Expr, b *vec.Batch) error {
	n := b.Len()
	for i := 0; i < n; i++ {
		row := b.Row(i)
		key, null, err := hashKey(keys, row)
		if err != nil {
			return err
		}
		if null {
			continue
		}
		if err := ctx.Reserve("HashJoin build", row.MemSize()); err != nil {
			return err
		}
		if !b.Owned {
			row = row.Clone()
		}
		t.strs[key] = append(t.strs[key], row)
	}
	return nil
}

// buildTable materializes the build side for RunBatch, preferring the
// batched int-image fast path when both key sides are bare integer-class
// columns and the left input streams batches.
func (j *HashJoin) buildTable(ctx *Ctx) (*joinTable, error) {
	t := &joinTable{}
	lcol, lok := intJoinKey(j.LeftKeys)
	_, rok := intJoinKey(j.RightKey)
	lb, lbatch := AsBatch(j.Left)
	if lok && rok && lbatch {
		t.ints = map[float64][]types.Row{}
		var inner error
		err := lb.RunBatch(ctx, func(b *vec.Batch) bool {
			if t.ints != nil {
				if c := b.Col(lcol.Index, vec.ClassInt); c != nil {
					n := b.Len()
					for i := 0; i < n; i++ {
						idx := b.Index(i)
						if c.Nulls[idx] {
							continue
						}
						row := b.Rows[idx]
						if err := ctx.Reserve("HashJoin build", row.MemSize()); err != nil {
							inner = err
							return false
						}
						if !b.Owned {
							row = row.Clone()
						}
						k := float64(c.Ints[idx])
						t.ints[k] = append(t.ints[k], row)
					}
					return true
				}
				// This window holds a datum the int image cannot carry
				// (e.g. a FLOAT in an INT column): fall back to string
				// keys for everything, past and future.
				t.degrade()
			}
			if inner = t.addGeneric(ctx, j.LeftKeys, b); inner != nil {
				return false
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		if inner != nil {
			return nil, inner
		}
		return t, nil
	}
	t.strs = map[string][]types.Row{}
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
		if err := ctx.Reserve("HashJoin build", row.MemSize()); err != nil {
			inner = err
			return false
		}
		t.strs[key] = append(t.strs[key], row.Clone())
		return true
	})
	if err != nil {
		return nil, err
	}
	if inner != nil {
		return nil, inner
	}
	return t, nil
}

// RunBatch implements BatchOperator: build over the left input (batched
// when possible), then probe with each right-side batch, emitting matches
// as one owned batch per input batch. Counter totals match Run except that
// probes are charged batch-at-a-time, so a LIMIT that stops mid-batch has
// already paid for the whole window (the same granularity rule as page
// reads).
// joinSlabDatums sizes the chunked allocation joined rows are carved from:
// one make per ~4k datums instead of one Concat per match. Carved rows are
// never rewritten, so emitting them in an owned batch is safe.
const joinSlabDatums = 4096

func (j *HashJoin) RunBatch(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	t, err := j.buildTable(ctx)
	if err != nil {
		return err
	}
	rcol, rok := intJoinKey(j.RightKey)
	var inner error
	stopped := false
	var out []types.Row
	var slab []types.Datum
	var concatBuf types.Row // residual scratch when Proj narrows the output
	var ob vec.Batch
	err = RunBatched(j.Right, ctx, func(b *vec.Batch) bool {
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
			var row types.Row
			var matches []types.Row
			if c != nil {
				idx := b.Index(i)
				if c.Nulls[idx] {
					continue
				}
				row = b.Rows[idx]
				matches = t.ints[float64(c.Ints[idx])]
			} else {
				row = b.Row(i)
				key, null, err := hashKey(j.RightKey, row)
				if err != nil {
					inner = err
					return false
				}
				if null {
					continue
				}
				matches = t.strs[key]
			}
			for _, l := range matches {
				lw := len(l)
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
						if ord < lw {
							joined[k] = l[ord]
						} else {
							joined[k] = row[ord-lw]
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

// projectOrds materializes the named ordinals of a row as a fresh row.
func projectOrds(row types.Row, ords []int) types.Row {
	out := make(types.Row, len(ords))
	for i, ord := range ords {
		out[i] = row[ord]
	}
	return out
}

func hashKey(keys []expr.Expr, row types.Row) (string, bool, error) {
	vals := make(types.Row, len(keys))
	for i, k := range keys {
		v, err := k.Eval(row)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", true, nil
		}
		vals[i] = v
	}
	return vals.Key(), false, nil
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
