package exec

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/sql"
	"softdb/internal/types"
	"softdb/internal/vec"
)

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

// accGroupBytes approximates one aggregate's retained state per group for
// budget accounting.
const accGroupBytes = 96

// ErrSumOverflow is the cause of the error a SUM fails with when the exact
// total of its integer values leaves the INT range.
var ErrSumOverflow = errors.New("SUM overflows INT")

// Run implements Operator. Each input batch folds in two steps: a keyer maps
// its selected rows to group ids, then every aggregate folds the batch into
// its accumulator columns with one loop over (group ids, argument column).
// The finished groups leave as one owned batch.
func (h *HashAggregate) Run(ctx *Ctx, emit func(b *vec.Batch) bool) error {
	f := newAggFold(h)
	var inner error
	err := h.Input.Run(ctx, func(b *vec.Batch) bool {
		inner = f.fold(ctx, b)
		return inner == nil
	})
	if err == nil {
		err = inner
	}
	if err != nil {
		return err
	}
	rows, err := f.rows()
	if err != nil {
		return err
	}
	emitRows(rows, true, emit)
	return nil
}

// intKeyColumn returns the column the int keyer can hash on: the only
// non-redundant entry of GroupBy, a bare INT/DATE column. Every redundant
// entry must be a bare column too, so that reading it from the group's
// first row evaluates nothing the generic keyer's per-row evaluation could
// fail on.
func (h *HashAggregate) intKeyColumn() *expr.Column {
	var key *expr.Column
	for i, g := range h.GroupBy {
		c, ok := g.(*expr.Column)
		if !ok || c.Index < 0 {
			return nil
		}
		if h.isRedundant(i) {
			continue
		}
		if key != nil || (c.Kind != types.KindInt && c.Kind != types.KindDate) {
			return nil
		}
		key = c
	}
	return key
}

// aggFold is one Run's folding state. Groups are numbered in arrival order
// (their gid); keys holds each group's key row, redundant columns included,
// and every aggregate keeps its state in columns indexed by gid.
//
// Three keyers assign gids. Scalar aggregation (no GroupBy) has one group,
// gid 0, and no gid vector. The int keyer hashes intKeyColumn's raw int64
// values through ints. The generic keyer maps the types.AppendKey image of
// the hashed (non-redundant) group values through strs. Both key by exact
// value, so the int keyer hands its groups to the generic one (rekey) when a
// batch's key column does not extract as integers.
type aggFold struct {
	h      *HashAggregate
	keys   []types.Row
	accs   []aggCol
	hashed int // non-redundant group expressions
	// gids is the current batch's group id per selected row.
	gids []int32

	keyCol *expr.Column
	ints   *groupTable
	strs   map[string]int32
	// keyBuf holds one row's group values; image is strKey's scratch.
	keyBuf types.Row
	image  []byte
}

func newAggFold(h *HashAggregate) *aggFold {
	f := &aggFold{h: h, accs: make([]aggCol, len(h.Aggs)), keyBuf: make(types.Row, len(h.GroupBy))}
	for i, spec := range h.Aggs {
		f.accs[i] = newAggCol(spec)
	}
	for i := range h.GroupBy {
		if !h.isRedundant(i) {
			f.hashed++
		}
	}
	if len(h.GroupBy) > 0 {
		if f.keyCol = h.intKeyColumn(); f.keyCol != nil {
			f.ints = newGroupTable(4)
		} else {
			f.strs = map[string]int32{}
		}
	}
	return f
}

// fold folds one batch. Charges: one probe per selected row, one comparison
// per hashed group column per row, and per new group a reservation for its
// key row and its aggregates' state.
func (f *aggFold) fold(ctx *Ctx, b *vec.Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	ctx.AddComparisons(int64(n * f.hashed))
	ctx.AddProbes(int64(n))
	var gids []int32
	if len(f.h.GroupBy) > 0 {
		if cap(f.gids) < n {
			f.gids = make([]int32, n)
		}
		gids = f.gids[:n]
		if err := f.key(ctx, b, gids); err != nil {
			return err
		}
	} else if len(f.keys) == 0 {
		if _, err := f.addGroup(ctx); err != nil {
			return err
		}
	}
	for i := range f.accs {
		if err := f.accs[i].fold(b, gids); err != nil {
			return err
		}
	}
	return nil
}

// key fills gids with the group of each selected row, creating groups as
// their keys first appear.
func (f *aggFold) key(ctx *Ctx, b *vec.Batch, gids []int32) error {
	if f.ints != nil {
		if kc := b.Col(f.keyCol.Index, vec.ClassInt); kc != nil {
			return f.keyInts(ctx, b, kc, gids)
		}
		f.rekey()
	}
	for i := range gids {
		if err := f.evalKey(b, b.Index(i)); err != nil {
			return err
		}
		k := f.strKey(f.keyBuf)
		g, ok := f.strs[string(k)]
		if !ok {
			var err error
			if g, err = f.addGroup(ctx); err != nil {
				return err
			}
			f.strs[string(k)] = g
		}
		gids[i] = g
	}
	return nil
}

// keyInts is the int keyer over one batch whose key column is kc: the
// table's batch lookup, and a new group wherever it stops.
func (f *aggFold) keyInts(ctx *Ctx, b *vec.Batch, kc *vec.Col, gids []int32) error {
	for i := 0; ; i++ {
		if i = f.ints.find(gids, b.Sel, kc, i); i == len(gids) {
			return nil
		}
		err := f.evalKey(b, b.Index(i))
		var g int32
		if err == nil {
			g, err = f.addGroup(ctx)
		}
		if err != nil {
			return err
		}
		if idx := b.Index(i); kc.HasNulls && kc.Nulls[idx] {
			f.ints.null = g
		} else {
			f.ints.put(kc.Ints[idx], g)
		}
		gids[i] = g
	}
}

// rekey hands the int keyer's groups to the generic keyer under the key
// images of their hashed values; gids and accumulator state stay where they
// are.
func (f *aggFold) rekey() {
	f.strs = make(map[string]int32, len(f.keys))
	for g, key := range f.keys {
		f.strs[string(f.strKey(key))] = int32(g)
	}
	f.ints = nil
}

// evalKey evaluates the group expressions over the row at window position
// idx of b into keyBuf.
func (f *aggFold) evalKey(b *vec.Batch, idx int) (err error) {
	var row types.Row
	for i, g := range f.h.GroupBy {
		if f.keyBuf[i], err = valueAt(g, b, idx, &row); err != nil {
			return err
		}
	}
	return nil
}

// valueAt evaluates e over the row at window position idx of b: a bare
// column is read from the batch as it is, anything else over the row's view,
// which *row caches for the next expression of the same row.
func valueAt(e expr.Expr, b *vec.Batch, idx int, row *types.Row) (types.Datum, error) {
	if c, ok := e.(*expr.Column); ok && c.Index >= 0 {
		if d, ok := b.Datum(idx, c.Index); ok {
			return d, nil
		}
	}
	if *row == nil {
		*row = b.View(idx)
	}
	return e.Eval(*row)
}

// strKey is the generic keyer's key for a key row: the image of its hashed
// values, valid until the next call.
func (f *aggFold) strKey(key types.Row) []byte {
	f.image = f.image[:0]
	for i, v := range key {
		if !f.h.isRedundant(i) {
			f.image = types.AppendKey(f.image, v)
		}
	}
	return f.image
}

// addGroup adds the group keyed by keyBuf, charging its key row and
// aggregate state to the query budget, and gives it the next gid.
func (f *aggFold) addGroup(ctx *Ctx) (int32, error) {
	key := f.keyBuf.Clone()
	if err := ctx.Reserve("HashAggregate", key.MemSize()+int64(len(f.accs))*accGroupBytes); err != nil {
		return 0, err
	}
	f.keys = append(f.keys, key)
	for i := range f.accs {
		f.accs[i].grow()
	}
	return int32(len(f.keys) - 1), nil
}

// rows finalizes the groups in ascending key order. Scalar aggregation over
// empty input yields its one identity row.
func (f *aggFold) rows() ([]types.Row, error) {
	if len(f.h.GroupBy) == 0 && len(f.keys) == 0 {
		_, _ = f.addGroup(&Ctx{}) // a Ctx without a budget never fails
	}
	order := make([]int32, len(f.keys))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return f.keys[order[i]].Compare(f.keys[order[j]]) < 0 })
	width := len(f.h.GroupBy) + len(f.accs)
	slab := make([]types.Datum, len(order)*width)
	rows := make([]types.Row, len(order))
	for i, g := range order {
		out := types.Row(slab[i*width : i*width : (i+1)*width])
		out = append(out, f.keys[g]...)
		for ai := range f.accs {
			v, err := f.accs[ai].result(g)
			if err != nil {
				return nil, &QueryError{Op: "HashAggregate", Kind: KindError, Err: err}
			}
			out = append(out, v)
		}
		rows[i] = out
	}
	return rows, nil
}

// groupTable maps int64 keys to group ids: open addressing with linear
// probing over a power-of-two slot array, hashed like the hash join's
// intTable, and doubled before it passes half full. NULL's group is null.
type groupTable struct {
	slots []groupSlot
	shift uint
	used  int
	null  int32 // -1 until a NULL key arrives
}

type groupSlot struct {
	key int64
	gid int32 // -1 marks an empty slot
}

func newGroupTable(bits uint) *groupTable {
	t := &groupTable{slots: make([]groupSlot, 1<<bits), shift: 64 - bits, null: -1}
	for i := range t.slots {
		t.slots[i].gid = -1
	}
	return t
}

// find sets gids[i:] to the groups of kc's values at the selected positions
// (sel, or every position when nil) until a key t does not hold: it returns
// that row's position, or len(gids). The caller adds that group and resumes,
// so the hot loop makes no calls.
func (t *groupTable) find(gids, sel []int32, kc *vec.Col, i int) int {
	slots, shift := t.slots, t.shift
	mask := len(slots) - 1
	for ; i < len(gids); i++ {
		idx := i
		if sel != nil {
			idx = int(sel[i])
		}
		if kc.HasNulls && kc.Nulls[idx] {
			if t.null < 0 {
				return i
			}
			gids[i] = t.null
			continue
		}
		k := kc.Ints[idx]
		s := int(fibHash(k, shift)) & mask
		e := slots[s]
		for e.gid >= 0 && e.key != k {
			s = (s + 1) & mask
			e = slots[s]
		}
		if e.gid < 0 {
			return i
		}
		gids[i] = e.gid
	}
	return i
}

// put adds group g under k, which t does not hold.
func (t *groupTable) put(k int64, g int32) {
	mask := len(t.slots) - 1
	s := int(fibHash(k, t.shift)) & mask
	for t.slots[s].gid >= 0 {
		s = (s + 1) & mask
	}
	t.slots[s] = groupSlot{k, g}
	if t.used++; 2*t.used <= len(t.slots) {
		return
	}
	old, null := t.slots, t.null
	*t = *newGroupTable(64 - t.shift + 1)
	t.null = null
	for _, e := range old {
		if e.gid >= 0 {
			t.put(e.key, e.gid)
		}
	}
}

// aggCol is one aggregate's state for every group, indexed by gid; only
// the columns its kind reads are grown.
type aggCol struct {
	spec plan.AggSpec
	// col is the argument when it is a bare bound column, which column
	// loops read through its typed vector (cls).
	col *expr.Column
	cls vec.Class
	// floatOut makes a SUM's result FLOAT whatever its values: its argument
	// is FLOAT-typed.
	floatOut bool

	count []int64 // COUNT(*), COUNT; the non-NULL values of SUM and AVG
	// isum is a SUM's exact total of its integer values modulo 2^64, and
	// carry counts its wraps (up +1, down -1): the total fits an INT exactly
	// when carry is 0, whatever order the values came in.
	isum, carry []int64
	fsum        []float64         // AVG: every value; SUM: its FLOAT values
	float       []bool            // SUM: a FLOAT value was summed
	best        []types.Datum     // MIN, MAX: the earliest extremal value
	distinct    []map[string]bool // COUNT DISTINCT: the key images seen
	image       []byte            // COUNT DISTINCT: one value's key image
}

func newAggCol(spec plan.AggSpec) aggCol {
	a := aggCol{spec: spec}
	if spec.Kind == sql.AggCountStar {
		return a
	}
	a.floatOut = spec.Arg.Type() == types.KindFloat
	if c, ok := spec.Arg.(*expr.Column); ok && c.Index >= 0 {
		a.col, a.cls = c, vec.ClassOf(c.Kind)
	}
	return a
}

// grow adds a new group's zero state.
func (a *aggCol) grow() {
	switch a.spec.Kind {
	case sql.AggCountDistinct:
		a.distinct = append(a.distinct, nil)
	case sql.AggMin, sql.AggMax:
		a.best = append(a.best, types.Null)
	case sql.AggSum:
		a.isum, a.carry = append(a.isum, 0), append(a.carry, 0)
		a.float = append(a.float, false)
		fallthrough
	case sql.AggAvg:
		a.fsum = append(a.fsum, 0)
		fallthrough
	default:
		a.count = append(a.count, 0)
	}
}

// fold folds a batch into the aggregate: selected row i into group gids[i],
// or every row into group 0 when gids is nil (scalar aggregation).
func (a *aggCol) fold(b *vec.Batch, gids []int32) error {
	switch kind := a.spec.Kind; {
	case kind == sql.AggCountStar:
		count := a.count
		if gids == nil {
			count[0] += int64(b.Len())
		}
		for _, g := range gids {
			count[g]++
		}
		return nil
	case a.col == nil:
	case kind == sql.AggCount || kind == sql.AggSum || kind == sql.AggAvg:
		// SUM and AVG over strings type-error through add.
		if c := b.Col(a.col.Index, a.cls); c != nil && (c.Class != vec.ClassStr || kind == sql.AggCount) {
			if gids == nil {
				a.foldScalar(c, b)
			} else {
				a.foldCol(c, b, gids)
			}
			return nil
		}
	case gids == nil && (kind == sql.AggMin || kind == sql.AggMax) && a.col.Kind != types.KindBool:
		// BOOL keeps datum order through add.
		if c := b.Col(a.col.Index, a.cls); c != nil {
			a.minMaxCol(c, b)
			return nil
		}
	}
	n := b.Len()
	for i := 0; i < n; i++ {
		var row types.Row
		v, err := valueAt(a.spec.Arg, b, b.Index(i), &row)
		if err != nil {
			return err
		}
		var g int32
		if gids != nil {
			g = gids[i]
		}
		if err := a.add(g, v); err != nil {
			return err
		}
	}
	return nil
}

// foldScalar folds COUNT, SUM or AVG over the whole batch into group 0.
// INT, DATE and BOOL values sum through their integer image, as add's do; a
// FLOAT vector only arises for a FLOAT argument, whose SUM is floatOut.
func (a *aggCol) foldScalar(c *vec.Col, b *vec.Batch) {
	var cnt int64
	switch {
	case a.spec.Kind == sql.AggCount:
		for i := 0; i < b.Len(); i++ {
			if !c.HasNulls || !c.Nulls[b.Index(i)] {
				cnt++
			}
		}
	case c.Class == vec.ClassInt && a.spec.Kind == sql.AggSum:
		sum, carry := a.isum[0], a.carry[0]
		for i := 0; i < b.Len(); i++ {
			idx := b.Index(i)
			if c.HasNulls && c.Nulls[idx] {
				continue
			}
			s, w := addExact(sum, c.Ints[idx])
			sum, carry, cnt = s, carry+w, cnt+1
		}
		a.isum[0], a.carry[0] = sum, carry
	case c.Class == vec.ClassInt:
		var sum float64
		cnt, sum = sumSelected(c, c.Ints, b)
		a.fsum[0] += sum
	default:
		var sum float64
		cnt, sum = sumSelected(c, c.Floats, b)
		a.fsum[0] += sum
	}
	a.count[0] += cnt
}

// foldCol is foldScalar's grouped form: one loop over (gids, c).
func (a *aggCol) foldCol(c *vec.Col, b *vec.Batch, gids []int32) {
	count := a.count
	switch {
	case a.spec.Kind == sql.AggCount:
		for i, g := range gids {
			if !c.HasNulls || !c.Nulls[b.Index(i)] {
				count[g]++
			}
		}
	case c.Class == vec.ClassInt && a.spec.Kind == sql.AggSum:
		isum, carry := a.isum, a.carry
		for i, g := range gids {
			idx := b.Index(i)
			if c.HasNulls && c.Nulls[idx] {
				continue
			}
			s, w := addExact(isum[g], c.Ints[idx])
			isum[g], carry[g] = s, carry[g]+w
			count[g]++
		}
	case c.Class == vec.ClassInt:
		sumGroups(c, c.Ints, b, gids, count, a.fsum)
	default:
		sumGroups(c, c.Floats, b, gids, count, a.fsum)
	}
}

// sumGroups adds each selected non-NULL value of vals into its group's
// float sum and count.
func sumGroups[T int64 | float64](c *vec.Col, vals []T, b *vec.Batch, gids []int32, count []int64, fsum []float64) {
	for i, g := range gids {
		idx := b.Index(i)
		if c.HasNulls && c.Nulls[idx] {
			continue
		}
		fsum[g] += float64(vals[idx])
		count[g]++
	}
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
		for _, v := range vals[:b.Size()] {
			sum += float64(v)
		}
		cnt = int64(b.Size())
	}
	return cnt, sum
}

// addExact returns s+v wrapped to 64 bits and the wrap: +1 when the true sum
// is above the INT range, -1 when below, else 0.
func addExact(s, v int64) (int64, int64) {
	t := s + v
	if (s^t)&(v^t) >= 0 {
		return t, 0
	}
	if v < 0 {
		return t, -1
	}
	return t, 1
}

// minMaxCol folds a batch into a scalar MIN/MAX with a loop over its typed
// argument column c.
func (a *aggCol) minMaxCol(c *vec.Col, b *vec.Batch) {
	isMax := a.spec.Kind == sql.AggMax
	var at int
	switch c.Class {
	case vec.ClassInt:
		at = extremum(c, c.Ints, b, isMax)
	case vec.ClassFloat:
		at = extremum(c, c.Floats, b, isMax)
	default:
		at = extremum(c, c.Strs, b, isMax)
	}
	if at >= 0 {
		v, _ := b.Datum(at, a.col.Index)
		a.keepBest(0, v)
	}
}

// extremum returns the window position of the first selected non-NULL
// value no other exceeds (isMax) or undercuts, or -1 when there is none.
func extremum[T int64 | float64 | string](c *vec.Col, vals []T, b *vec.Batch, isMax bool) int {
	at := -1
	var best T
	n := b.Len()
	for i := 0; i < n; i++ {
		idx := b.Index(i)
		if c.Nulls[idx] {
			continue
		}
		if v := vals[idx]; at < 0 || (isMax && v > best) || (!isMax && v < best) {
			at, best = idx, v
		}
	}
	return at
}

// keepBest makes v group g's MIN or MAX when it is strictly better, so the
// earliest extremal datum stays.
func (a *aggCol) keepBest(g int32, v types.Datum) {
	best := a.best[g]
	if best.IsNull() || (a.spec.Kind == sql.AggMin && v.Compare(best) < 0) ||
		(a.spec.Kind == sql.AggMax && v.Compare(best) > 0) {
		a.best[g] = v
	}
}

// add folds one value into group g: the per-row form of the loops above.
func (a *aggCol) add(g int32, v types.Datum) error {
	if v.IsNull() {
		return nil
	}
	switch a.spec.Kind {
	case sql.AggCount:
		a.count[g]++
	case sql.AggCountDistinct:
		if a.distinct[g] == nil {
			a.distinct[g] = map[string]bool{}
		}
		if a.image = types.AppendKey(a.image[:0], v); !a.distinct[g][string(a.image)] {
			a.distinct[g][string(a.image)] = true
		}
	case sql.AggSum, sql.AggAvg:
		// Guard the widening: a string would panic inside it, and a user
		// query (SUM over a string column) must get a type error, not a
		// crash.
		switch v.Kind() {
		case types.KindInt, types.KindDate, types.KindBool:
			if a.spec.Kind == sql.AggAvg {
				a.fsum[g] += v.Float()
				break
			}
			s, w := addExact(a.isum[g], v.IntImage())
			a.isum[g], a.carry[g] = s, a.carry[g]+w
		case types.KindFloat:
			a.fsum[g] += v.Float()
			if a.float != nil {
				a.float[g] = true
			}
		default:
			return fmt.Errorf("exec: cannot aggregate %s value with SUM/AVG", v.Kind())
		}
		a.count[g]++
	case sql.AggMin, sql.AggMax:
		a.keepBest(g, v)
	}
	return nil
}

// result finalizes group g's value. A SUM is FLOAT when its argument or any
// of its values is; otherwise its exact integer total, which must fit an
// INT. A FLOAT SUM or AVG of +Inf and -Inf is NaN, which fails.
func (a *aggCol) result(g int32) (types.Datum, error) {
	switch a.spec.Kind {
	case sql.AggCount, sql.AggCountStar:
		return types.NewInt(a.count[g]), nil
	case sql.AggCountDistinct:
		return types.NewInt(int64(len(a.distinct[g]))), nil
	case sql.AggMin, sql.AggMax:
		return a.best[g], nil
	}
	switch {
	case a.count[g] == 0:
		return types.Null, nil
	case a.spec.Kind == sql.AggAvg:
		return types.NewFloatChecked(a.fsum[g] / float64(a.count[g]))
	case a.floatOut || a.float[g]:
		return types.NewFloatChecked(a.fsum[g] + float64(a.isum[g]) + float64(a.carry[g])*0x1p64)
	case a.carry[g] != 0:
		return types.Null, ErrSumOverflow
	}
	return types.NewInt(a.isum[g]), nil
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
