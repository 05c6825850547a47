package exec

import (
	"fmt"
	"sort"
	"strings"

	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/sql"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// accumulator folds rows for one aggregate in one group.
type accumulator struct {
	kind     sql.AggKind
	count    int64
	sum      float64
	isInt    bool
	min      types.Datum
	max      types.Datum
	seen     bool
	distinct map[string]bool
}

func newAccumulator(kind sql.AggKind) *accumulator {
	a := &accumulator{kind: kind, isInt: true, min: types.Null, max: types.Null}
	if kind == sql.AggCountDistinct {
		a.distinct = map[string]bool{}
	}
	return a
}

func (a *accumulator) add(v types.Datum) error {
	if a.kind == sql.AggCountStar {
		a.count++
		return nil
	}
	if v.IsNull() {
		return nil
	}
	a.count++
	a.seen = true
	switch a.kind {
	case sql.AggCountDistinct:
		a.distinct[types.Row{v}.Key()] = true
	case sql.AggSum, sql.AggAvg:
		// Guard the Float() widening: strings would panic inside it, and a
		// user query (SUM over a string column) must get a type error, not
		// a crash.
		switch v.Kind() {
		case types.KindInt, types.KindFloat, types.KindBool, types.KindDate:
		default:
			return fmt.Errorf("exec: cannot aggregate %s value with SUM/AVG", v.Kind())
		}
		if v.Kind() == types.KindFloat {
			a.isInt = false
		}
		a.sum += v.Float()
	case sql.AggMin:
		if a.min.IsNull() || v.Compare(a.min) < 0 {
			a.min = v
		}
	case sql.AggMax:
		if a.max.IsNull() || v.Compare(a.max) > 0 {
			a.max = v
		}
	}
	return nil
}

func (a *accumulator) result() types.Datum {
	switch a.kind {
	case sql.AggCount, sql.AggCountStar:
		return types.NewInt(a.count)
	case sql.AggCountDistinct:
		return types.NewInt(int64(len(a.distinct)))
	case sql.AggSum:
		if !a.seen {
			return types.Null
		}
		if a.isInt {
			return types.NewInt(int64(a.sum))
		}
		return types.NewFloat(a.sum)
	case sql.AggAvg:
		if !a.seen {
			return types.Null
		}
		return types.NewFloat(a.sum / float64(a.count))
	case sql.AggMin:
		return a.min
	case sql.AggMax:
		return a.max
	default:
		return types.Null
	}
}

// HashAggregate groups its input by the GroupBy expressions and computes
// the aggregates. Output rows are group values followed by aggregate
// results, emitted in ascending group order (deterministic output). With no
// GroupBy it produces exactly one row even for empty input (scalar
// aggregation).
type HashAggregate struct {
	Input   Operator
	GroupBy []expr.Expr
	Aggs    []plan.AggSpec
	// Redundant marks group expressions excluded from the grouping key
	// because they are functionally determined by the others; their value
	// is taken from the group's first row.
	Redundant []bool
}

func (h *HashAggregate) isRedundant(i int) bool {
	return i < len(h.Redundant) && h.Redundant[i]
}

type aggGroup struct {
	key  types.Row
	accs []*accumulator
}

// aggTable accumulates groups for one HashAggregate run.
type aggTable struct {
	groups map[string]*aggGroup
	order  []string
}

func newAggTable() *aggTable { return &aggTable{groups: map[string]*aggGroup{}} }

// foldRow charges key-hash work and folds one input row into the table.
func (h *HashAggregate) foldRow(ctx *Ctx, row types.Row, t *aggTable) error {
	key := make(types.Row, len(h.GroupBy))
	hashKey := make(types.Row, 0, len(h.GroupBy))
	for i, g := range h.GroupBy {
		v, err := g.Eval(row)
		if err != nil {
			return err
		}
		key[i] = v
		if !h.isRedundant(i) {
			hashKey = append(hashKey, v)
		}
	}
	// Key-column work is charged per hashed column so grouping-key
	// reduction (redundant FD-determined columns) is visible.
	ctx.AddComparisons(int64(len(hashKey)))
	k := hashKey.Key()
	grp, ok := t.groups[k]
	if !ok {
		// Each new group retains its key row plus one accumulator per
		// aggregate (~accGroupBytes each); charge it to the query budget.
		if err := ctx.Reserve("HashAggregate", key.MemSize()+int64(len(h.Aggs))*accGroupBytes); err != nil {
			return err
		}
		grp = &aggGroup{key: key}
		for _, spec := range h.Aggs {
			grp.accs = append(grp.accs, newAccumulator(spec.Kind))
		}
		t.groups[k] = grp
		t.order = append(t.order, k)
	}
	ctx.AddProbes(1)
	for i, spec := range h.Aggs {
		if spec.Kind == sql.AggCountStar {
			if err := grp.accs[i].add(types.Null); err != nil {
				return err
			}
			continue
		}
		v, err := spec.Arg.Eval(row)
		if err != nil {
			return err
		}
		if err := grp.accs[i].add(v); err != nil {
			return err
		}
	}
	return nil
}

// accGroupBytes approximates one accumulator's retained size for budget
// accounting.
const accGroupBytes = 96

// groupRows finalizes the table: scalar aggregation over empty input yields
// one identity row; otherwise groups come out in ascending key order
// (deterministic output).
func (h *HashAggregate) groupRows(t *aggTable) []types.Row {
	if len(h.GroupBy) == 0 && len(t.groups) == 0 {
		out := make(types.Row, len(h.Aggs))
		for i, spec := range h.Aggs {
			out[i] = newAccumulator(spec.Kind).result()
		}
		return []types.Row{out}
	}
	grps := make([]*aggGroup, len(t.order))
	for i, k := range t.order {
		grps[i] = t.groups[k]
	}
	sort.Slice(grps, func(i, j int) bool { return grps[i].key.Compare(grps[j].key) < 0 })
	rows := make([]types.Row, len(grps))
	for i, grp := range grps {
		out := make(types.Row, 0, len(grp.key)+len(grp.accs))
		out = append(out, grp.key...)
		for _, acc := range grp.accs {
			out = append(out, acc.result())
		}
		rows[i] = out
	}
	return rows
}

// Run implements Operator: input batches fold through typed accumulator
// loops (scalar aggregation and single integer-class grouping keys skip the
// per-row key materialization and string hashing entirely), anything else
// through foldRow. The finished groups leave as one owned batch.
func (h *HashAggregate) Run(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	t := newAggTable()
	bf := newBatchFolder(h)
	var inner error
	err := h.Input.Run(ctx, func(b *vec.Batch) bool {
		inner = bf.fold(ctx, b, t)
		return inner == nil
	})
	if err == nil {
		err = inner
	}
	if err == nil {
		err = bf.finish(t)
	}
	if err != nil {
		return err
	}
	emitRows(h.groupRows(t), true, emit)
	return nil
}

// aggFoldMode selects how a batchFolder consumes input batches.
type aggFoldMode uint8

const (
	// foldGeneric folds through foldRow, row by row.
	foldGeneric aggFoldMode = iota
	// foldScalar is the no-GroupBy case: one group, typed column loops.
	foldScalar
	// foldIntKey groups by a single hashed integer-class column keyed on its
	// float64 image (matching Row.Key's numeric normalization). Redundant
	// (FD-determined) group columns ride along from the group's first row.
	foldIntKey
)

// aggArg is the compiled shape of one aggregate argument: a bare bound
// column enables typed folding, anything else evaluates per row.
type aggArg struct {
	col *expr.Column
	cls vec.Class
}

// batchFolder holds one Run invocation's folding state. Fast-path groups
// accumulate here and convert into the aggTable in finish, so groupRows
// (ordering, scalar identity row) is shared with the generic fold unchanged.
type batchFolder struct {
	h    *HashAggregate
	mode aggFoldMode
	// keyCol is foldIntKey's hashed column, GroupBy[keyPos].
	keyCol *expr.Column
	keyPos int
	args   []aggArg
	// argCols is foldIntKey's per-batch scratch: the typed vector of each
	// COUNT/SUM/AVG argument, nil where the datum path folds instead.
	argCols  []*vec.Col
	fast     map[float64]*aggGroup
	fastNull *aggGroup
}

// intKeyColumn returns the column foldIntKey can hash on and its position in
// GroupBy: the only non-redundant entry, a bare INT/DATE column (BOOL is
// excluded: its row-key image is TRUE/FALSE, not numeric). Every redundant
// entry must be a bare column too, so that reading it from the group's first
// row evaluates nothing foldRow's per-row evaluation could fail on.
func (h *HashAggregate) intKeyColumn() (*expr.Column, int) {
	var key *expr.Column
	pos := -1
	for i, g := range h.GroupBy {
		c, ok := g.(*expr.Column)
		if !ok || c.Index < 0 {
			return nil, -1
		}
		if h.isRedundant(i) {
			continue
		}
		if key != nil || (c.Kind != types.KindInt && c.Kind != types.KindDate) {
			return nil, -1
		}
		key, pos = c, i
	}
	return key, pos
}

func newBatchFolder(h *HashAggregate) *batchFolder {
	bf := &batchFolder{h: h, mode: foldGeneric}
	if len(h.GroupBy) == 0 {
		bf.mode = foldScalar
	} else if c, pos := h.intKeyColumn(); c != nil {
		bf.mode = foldIntKey
		bf.keyCol, bf.keyPos = c, pos
		bf.fast = map[float64]*aggGroup{}
		bf.argCols = make([]*vec.Col, len(h.Aggs))
	}
	bf.args = make([]aggArg, len(h.Aggs))
	for i, spec := range h.Aggs {
		if spec.Kind == sql.AggCountStar {
			continue
		}
		if c, ok := spec.Arg.(*expr.Column); ok && c.Index >= 0 {
			bf.args[i] = aggArg{col: c, cls: vec.ClassOf(c.Kind)}
		}
	}
	return bf
}

func newAggGroupFor(h *HashAggregate, key types.Row) *aggGroup {
	grp := &aggGroup{key: key}
	for _, spec := range h.Aggs {
		grp.accs = append(grp.accs, newAccumulator(spec.Kind))
	}
	return grp
}

func (bf *batchFolder) fold(ctx *Ctx, b *vec.Batch, t *aggTable) error {
	switch bf.mode {
	case foldScalar:
		return bf.foldScalar(ctx, b, t)
	case foldIntKey:
		return bf.foldIntKey(ctx, b, t)
	}
	n := b.Len()
	for i := 0; i < n; i++ {
		if err := bf.h.foldRow(ctx, b.Row(i), t); err != nil {
			return err
		}
	}
	return nil
}

// foldScalar folds a batch into the single scalar group with per-aggregate
// typed loops. Charges match foldRow: one probe per row, zero key-column
// comparisons (the hash key is empty).
func (bf *batchFolder) foldScalar(ctx *Ctx, b *vec.Batch, t *aggTable) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	ctx.AddProbes(int64(n))
	grp := t.groups[""]
	if grp == nil {
		key := make(types.Row, 0)
		if err := ctx.Reserve("HashAggregate", key.MemSize()+int64(len(bf.h.Aggs))*accGroupBytes); err != nil {
			return err
		}
		grp = newAggGroupFor(bf.h, key)
		t.groups[""] = grp
		t.order = append(t.order, "")
	}
	for i, spec := range bf.h.Aggs {
		if err := addScalarAgg(grp.accs[i], spec, bf.args[i], b); err != nil {
			return err
		}
	}
	return nil
}

// addScalarAgg folds one aggregate over the whole batch, preferring a typed
// column loop and falling back to per-row evaluation.
func addScalarAgg(acc *accumulator, spec plan.AggSpec, ap aggArg, b *vec.Batch) error {
	if spec.Kind == sql.AggCountStar {
		acc.count += int64(b.Len())
		return nil
	}
	if ap.col != nil {
		switch spec.Kind {
		case sql.AggCount:
			if done := addCountCol(acc, ap, b); done {
				return nil
			}
		case sql.AggSum, sql.AggAvg:
			if done := addSumCol(acc, ap, b); done {
				return nil
			}
		case sql.AggMin, sql.AggMax:
			if done := addMinMaxCol(acc, ap, b, spec.Kind == sql.AggMax); done {
				return nil
			}
		}
	}
	n := b.Len()
	for i := 0; i < n; i++ {
		v, err := spec.Arg.Eval(b.Row(i))
		if err != nil {
			return err
		}
		if err := acc.add(v); err != nil {
			return err
		}
	}
	return nil
}

func addCountCol(acc *accumulator, ap aggArg, b *vec.Batch) bool {
	c := b.Col(ap.col.Index, ap.cls)
	if c == nil {
		return false
	}
	n := b.Len()
	cnt := int64(n)
	if c.HasNulls {
		cnt = 0
		for i := 0; i < n; i++ {
			if !c.Nulls[b.Index(i)] {
				cnt++
			}
		}
	}
	acc.count += cnt
	if cnt > 0 {
		acc.seen = true
	}
	return true
}

// sumSelected adds vals at the batch's selected positions, in order, skipping
// NULLs; the null-free column takes loops with no mask test.
func sumSelected[T int64 | float64](c *vec.Col, vals []T, b *vec.Batch) (cnt int64, sum float64) {
	switch {
	case c.HasNulls:
		n := b.Len()
		for i := 0; i < n; i++ {
			idx := b.Index(i)
			if c.Nulls[idx] {
				continue
			}
			cnt++
			sum += float64(vals[idx])
		}
	case b.Sel != nil:
		for _, idx := range b.Sel {
			sum += float64(vals[idx])
		}
		cnt = int64(len(b.Sel))
	default:
		for _, v := range vals[:len(b.Rows)] {
			sum += float64(v)
		}
		cnt = int64(len(b.Rows))
	}
	return cnt, sum
}

func addSumCol(acc *accumulator, ap aggArg, b *vec.Batch) bool {
	var cnt int64
	var sum float64
	switch ap.cls {
	case vec.ClassInt:
		// INT, DATE and BOOL all sum through their integer image, exactly
		// like add()'s Float() widening.
		c := b.Col(ap.col.Index, vec.ClassInt)
		if c == nil {
			return false
		}
		cnt, sum = sumSelected(c, c.Ints, b)
	case vec.ClassFloat:
		c := b.Col(ap.col.Index, vec.ClassFloat)
		if c == nil {
			return false
		}
		cnt, sum = sumSelected(c, c.Floats, b)
		if cnt > 0 {
			acc.isInt = false
		}
	default:
		return false // strings type-error through the generic path
	}
	acc.count += cnt
	acc.sum += sum
	if cnt > 0 {
		acc.seen = true
	}
	return true
}

func addMinMaxCol(acc *accumulator, ap aggArg, b *vec.Batch, isMax bool) bool {
	n := b.Len()
	var cnt int64
	var bestD types.Datum
	found := false
	switch ap.col.Kind {
	case types.KindInt, types.KindDate:
		c := b.Col(ap.col.Index, vec.ClassInt)
		if c == nil {
			return false
		}
		var best int64
		for i := 0; i < n; i++ {
			idx := b.Index(i)
			if c.Nulls[idx] {
				continue
			}
			cnt++
			v := c.Ints[idx]
			if !found || (isMax && v > best) || (!isMax && v < best) {
				found, best = true, v
				bestD = b.Rows[idx][ap.col.Index]
			}
		}
	case types.KindFloat:
		c := b.Col(ap.col.Index, vec.ClassFloat)
		if c == nil {
			return false
		}
		var best float64
		for i := 0; i < n; i++ {
			idx := b.Index(i)
			if c.Nulls[idx] {
				continue
			}
			cnt++
			v := c.Floats[idx]
			if !found || (isMax && v > best) || (!isMax && v < best) {
				found, best = true, v
				bestD = b.Rows[idx][ap.col.Index]
			}
		}
	case types.KindString:
		c := b.Col(ap.col.Index, vec.ClassStr)
		if c == nil {
			return false
		}
		var best string
		for i := 0; i < n; i++ {
			idx := b.Index(i)
			if c.Nulls[idx] {
				continue
			}
			cnt++
			v := c.Strs[idx]
			if !found || (isMax && v > best) || (!isMax && v < best) {
				found, best = true, v
				bestD = b.Rows[idx][ap.col.Index]
			}
		}
	default:
		return false // BOOL keeps datum-order semantics via the generic path
	}
	acc.count += cnt
	if cnt > 0 {
		acc.seen = true
	}
	if found {
		// Strict comparison keeps the earliest extremal datum, exactly like
		// per-row add().
		if isMax {
			if acc.max.IsNull() || bestD.Compare(acc.max) > 0 {
				acc.max = bestD
			}
		} else {
			if acc.min.IsNull() || bestD.Compare(acc.min) < 0 {
				acc.min = bestD
			}
		}
	}
	return true
}

// foldIntKey groups a batch by the float64 image of the hashed key column.
// A batch the key column cannot extract from flips the folder to generic
// mode permanently, converting groups built so far. Charges match foldRow:
// one hashed key column and one probe per row, and per new group a
// reservation for the full key row (redundant columns included).
func (bf *batchFolder) foldIntKey(ctx *Ctx, b *vec.Batch, t *aggTable) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	kc := b.Col(bf.keyCol.Index, vec.ClassInt)
	if kc == nil {
		if err := bf.finish(t); err != nil {
			return err
		}
		bf.mode = foldGeneric
		return bf.fold(ctx, b, t)
	}
	ctx.AddComparisons(int64(n))
	ctx.AddProbes(int64(n))
	h := bf.h
	for ai, spec := range h.Aggs {
		bf.argCols[ai] = nil
		ap := bf.args[ai]
		if ap.col == nil || (ap.cls != vec.ClassInt && ap.cls != vec.ClassFloat) {
			continue
		}
		switch spec.Kind {
		case sql.AggCount, sql.AggSum, sql.AggAvg:
			bf.argCols[ai] = b.Col(ap.col.Index, ap.cls)
		}
	}
	for i := 0; i < n; i++ {
		idx := b.Index(i)
		row := b.Rows[idx]
		null, f := kc.Nulls[idx], float64(kc.Ints[idx])
		grp := bf.fastNull
		if !null {
			grp = bf.fast[f]
		}
		if grp == nil {
			key := make(types.Row, len(h.GroupBy))
			for gi, g := range h.GroupBy {
				v, err := g.Eval(row)
				if err != nil {
					return err
				}
				key[gi] = v
			}
			if err := ctx.Reserve("HashAggregate", key.MemSize()+int64(len(h.Aggs))*accGroupBytes); err != nil {
				return err
			}
			grp = newAggGroupFor(h, key)
			if null {
				bf.fastNull = grp
			} else {
				bf.fast[f] = grp
			}
		}
		for ai, spec := range h.Aggs {
			acc := grp.accs[ai]
			if spec.Kind == sql.AggCountStar {
				acc.count++
				continue
			}
			if c := bf.argCols[ai]; c != nil {
				// The typed image of accumulator.add for COUNT/SUM/AVG.
				if c.Nulls[idx] {
					continue
				}
				acc.count++
				acc.seen = true
				if spec.Kind != sql.AggCount {
					if c.Class == vec.ClassFloat {
						acc.isInt = false
						acc.sum += c.Floats[idx]
					} else {
						acc.sum += float64(c.Ints[idx])
					}
				}
				continue
			}
			var v types.Datum
			if ap := bf.args[ai]; ap.col != nil && ap.col.Index < len(row) {
				v = row[ap.col.Index]
			} else {
				var err error
				if v, err = spec.Arg.Eval(row); err != nil {
					return err
				}
			}
			if err := acc.add(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish converts fast-path groups into the aggTable under the same string
// keys foldRow would have used (the Row.Key of the hashed column alone), so
// ordering and any later generic folding agree.
func (bf *batchFolder) finish(t *aggTable) error {
	if bf.mode != foldIntKey {
		return nil
	}
	insert := func(g *aggGroup) {
		k := types.Row{g.key[bf.keyPos]}.Key()
		t.groups[k] = g
		t.order = append(t.order, k)
	}
	if bf.fastNull != nil {
		insert(bf.fastNull)
		bf.fastNull = nil
	}
	for _, g := range bf.fast {
		insert(g)
	}
	bf.fast = map[float64]*aggGroup{}
	return nil
}

// Describe implements Operator.
func (h *HashAggregate) Describe() string {
	var gs []string
	for i, g := range h.GroupBy {
		s := g.String()
		if h.isRedundant(i) {
			s += " [redundant]"
		}
		gs = append(gs, s)
	}
	var as []string
	for _, a := range h.Aggs {
		as = append(as, a.Describe())
	}
	if len(gs) == 0 {
		return fmt.Sprintf("HashAggregate scalar [%s]", strings.Join(as, ", "))
	}
	return fmt.Sprintf("HashAggregate by (%s) [%s]", strings.Join(gs, ", "), strings.Join(as, ", "))
}

// Inputs implements Operator.
func (h *HashAggregate) Inputs() []Operator { return []Operator{h.Input} }
