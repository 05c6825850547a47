package opt

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"softdb/internal/btree"
	"softdb/internal/catalog"
	"softdb/internal/exec"
	"softdb/internal/expr"
	"softdb/internal/obs"
	"softdb/internal/plan"
	"softdb/internal/sql"
	"softdb/internal/stats"
	"softdb/internal/types"
)

// dpTableLimit is the largest join-group size planned with exhaustive
// dynamic programming; larger groups fall back to greedy ordering.
const dpTableLimit = 7

// Optimizer lowers logical plans to physical operator trees.
type Optimizer struct {
	Cat *catalog.Catalog
	// NoIndexes disables index access paths (ablation/baseline).
	NoIndexes bool
	// NoSSCEstimation disables §5.1 twinned-predicate cardinality
	// adjustment (ablation/baseline).
	NoSSCEstimation bool
	// NoASTEstimation disables §4.4 AST-based filter-factor estimation
	// (ablation/baseline).
	NoASTEstimation bool
	// ForceGreedyJoins bypasses DP join ordering (ablation).
	ForceGreedyJoins bool
	// NoPrune disables synopsis-based page pruning: scans get no prune
	// predicates and page estimates ignore synopses (ablation/baseline).
	NoPrune bool
	// Masked, when non-empty, names one constraint or AST whose statistics
	// must not inform estimation (shadow costing; pairs with
	// rewrite.Options.Masked so the masked plan is priced as if the
	// characterization had never been discovered).
	Masked string

	// nodeRows and events accumulate per Optimize call: per-operator row
	// estimates keyed by operator identity (EXPLAIN ANALYZE matches them to
	// plan nodes) and soft-constraint consultation events.
	nodeRows map[exec.Operator]float64
	events   []obs.Event
	// nodeInformed records, per operator, the constraints/ASTs whose
	// information sharpened that operator's cardinality estimate — the
	// economy ledger splits q-error into informed vs. blind with it.
	nodeInformed map[exec.Operator][]string
	// literalBound names, per Optimize call, the first choice that was
	// driven by a statement literal's value (see Result.LiteralBound).
	literalBound string
	// guards accumulate per Optimize call (see Result.Guards).
	guards []expr.Guard
}

// Result is a lowered, costed physical plan.
type Result struct {
	Root    exec.Operator
	EstRows float64
	EstCost float64
	// NodeRows maps each operator in Root (plus discarded candidates, which
	// are harmless) to its estimated output cardinality.
	NodeRows map[exec.Operator]float64
	// Events records every soft-constraint consultation made while costing
	// this plan (SSC twinned-predicate estimation, AST filter factors).
	Events []obs.Event
	// NodeInformed maps operators whose cardinality estimate was sharpened
	// by constraint-derived information to the names of the informing
	// constraints/ASTs.
	NodeInformed map[exec.Operator][]string
	// LiteralBound is "access-path" when an index was weighed against the
	// sequential scan over a range whose width comes from the statement's
	// literals (see widthFromLiterals): another literal vector of the same
	// shape could deserve the other path, so the plan must not serve as a
	// template. Choices that only depend on where a fixed-width range or an
	// equality falls (its selectivity is taken as literal-independent) and
	// cardinality estimates leave it empty.
	LiteralBound string
	// Guards are the literal comparisons that shaped the index ranges
	// weighed (empty, a point, or a range): the plan holds for every
	// literal vector under which each keeps its sign.
	Guards []expr.Guard
}

// Optimize lowers the logical plan.
func (o *Optimizer) Optimize(n plan.Node) (*Result, error) {
	o.nodeRows = map[exec.Operator]float64{}
	o.nodeInformed = map[exec.Operator][]string{}
	o.events = nil
	o.literalBound = ""
	o.guards = nil
	op, pr, err := o.lower(n)
	if err != nil {
		return nil, err
	}
	return &Result{Root: op, EstRows: pr.rows, EstCost: pr.cost, NodeRows: o.nodeRows, Events: o.events,
		NodeInformed: o.nodeInformed, LiteralBound: o.literalBound, Guards: o.guards}, nil
}

// note records an operator's estimated cardinality for EXPLAIN ANALYZE.
func (o *Optimizer) note(op exec.Operator, rows float64) {
	if o.nodeRows != nil && op != nil {
		o.nodeRows[op] = rows
	}
}

// event records a soft-constraint consultation made during planning.
func (o *Optimizer) event(e obs.Event) { o.events = append(o.events, e) }

// lower lowers one node and records its cardinality estimate.
func (o *Optimizer) lower(n plan.Node) (exec.Operator, prop, error) {
	op, pr, err := o.lowerNode(n)
	if err == nil {
		o.note(op, pr.rows)
	}
	return op, pr, err
}

func (o *Optimizer) lowerNode(n plan.Node) (exec.Operator, prop, error) {
	switch t := n.(type) {
	case *plan.Scan:
		op, pr := o.lowerScan(t)
		return op, pr, nil
	case *plan.Empty:
		return &exec.Values{Desc: "Empty (" + t.Reason + ")"}, prop{}, nil
	case *plan.Derived:
		return o.lower(t.Input)
	case *plan.JoinGroup:
		return o.lowerJoinGroup(t)
	case *plan.Project:
		in, pr, err := o.lower(t.Input)
		if err != nil {
			return nil, prop{}, err
		}
		pr.cost += pr.rows * costEmit * float64(len(t.Exprs))
		return &exec.Project{Input: in, Exprs: t.Exprs}, pr, nil
	case *plan.Aggregate:
		if shortcut := o.tryIndexMinMax(t); shortcut != nil {
			return shortcut, prop{rows: 1, cost: costPage * 4}, nil
		}
		in, pr, err := o.lower(t.Input)
		if err != nil {
			return nil, prop{}, err
		}
		groups := o.estimateGroups(t, pr.rows)
		out := prop{rows: groups, cost: pr.cost + pr.rows*costHashProbe + groups*costEmit}
		groupBy, aggs := t.GroupBy, t.Aggs
		if in2, gb2, ag2, ok := fuseAggJoinProjection(in, groupBy, aggs); ok {
			in, groupBy, aggs = in2, gb2, ag2
		}
		return &exec.HashAggregate{Input: in, GroupBy: groupBy, Aggs: aggs, Redundant: t.Redundant}, out, nil
	case *plan.Sort:
		in, pr, err := o.lower(t.Input)
		if err != nil {
			return nil, prop{}, err
		}
		if t.Eliminated || len(t.Keys) == 0 {
			return in, pr, nil
		}
		n := math.Max(pr.rows, 2)
		pr.cost += n * math.Log2(n) * costCompare
		return &exec.Sort{Input: in, Keys: t.Keys}, pr, nil
	case *plan.Filter:
		in, pr, err := o.lower(t.Input)
		if err != nil {
			return nil, prop{}, err
		}
		pr.cost += pr.rows * costRow
		pr.rows = math.Max(0, pr.rows*genericSelectivity(t.Conds))
		return &exec.Filter{Input: in, Conds: t.Conds}, pr, nil
	case *plan.Distinct:
		in, pr, err := o.lower(t.Input)
		if err != nil {
			return nil, prop{}, err
		}
		pr.cost += pr.rows * costHashProbe
		pr.rows = math.Max(1, pr.rows*0.5)
		return &exec.Distinct{Input: in}, pr, nil
	case *plan.Limit:
		in, pr, err := o.lower(t.Input)
		if err != nil {
			return nil, prop{}, err
		}
		if float64(t.N) < pr.rows {
			pr.rows = float64(t.N)
		}
		return &exec.Limit{Input: in, N: t.N}, pr, nil
	case *plan.UnionAll:
		var arms []exec.Operator
		total := prop{}
		for _, a := range t.Arms {
			op, pr, err := o.lower(a)
			if err != nil {
				return nil, prop{}, err
			}
			arms = append(arms, op)
			total.rows += pr.rows
			total.cost += pr.cost
		}
		return &exec.UnionAll{Arms: arms, Pruned: t.Pruned}, total, nil
	default:
		return nil, prop{}, fmt.Errorf("opt: cannot lower %T", n)
	}
}

// tryIndexMinMax answers a scalar aggregation consisting solely of MIN/MAX
// over indexed, NOT NULL columns of an unfiltered scan from the index ends
// (§4.2's runtime shortcut, kept exact by using the index rather than a
// stored min/max). Nullable columns are excluded because index order puts
// NULL first, which MIN must ignore.
func (o *Optimizer) tryIndexMinMax(a *plan.Aggregate) exec.Operator {
	if o.NoIndexes || len(a.GroupBy) > 0 || len(a.Aggs) == 0 {
		return nil
	}
	scan, ok := a.Input.(*plan.Scan)
	if !ok || scan.Entry == nil || len(scan.Filter) > 0 {
		return nil
	}
	specs := make([]exec.MinMaxSpec, 0, len(a.Aggs))
	for _, spec := range a.Aggs {
		var max bool
		switch spec.Kind {
		case sql.AggMin:
			max = false
		case sql.AggMax:
			max = true
		default:
			return nil
		}
		col, isCol := spec.Arg.(*expr.Column)
		if !isCol {
			return nil
		}
		ix := scan.Entry.IndexOn(col.Index)
		if ix == nil || len(ix.Ordinal) != 1 {
			return nil
		}
		if scan.Def.Columns[col.Index].Nullable {
			return nil
		}
		specs = append(specs, exec.MinMaxSpec{Index: ix, Max: max})
	}
	return &exec.IndexMinMax{Table: scan.Table, Heap: scan.Entry.Heap, Specs: specs}
}

// estimateGroups guesses the number of groups from group-column NDVs where
// provenance allows, capped by the input cardinality.
func (o *Optimizer) estimateGroups(a *plan.Aggregate, inputRows float64) float64 {
	if len(a.GroupBy) == 0 {
		return 1
	}
	inCols := a.Input.Cols()
	ndvProduct := 1.0
	known := false
	for gi, g := range a.GroupBy {
		if gi < len(a.Redundant) && a.Redundant[gi] {
			continue
		}
		c, ok := g.(*expr.Column)
		if !ok || c.Index >= len(inCols) {
			continue
		}
		ci := inCols[c.Index]
		if ci.SourceTable == "" {
			continue
		}
		te, err := o.Cat.Table(ci.SourceTable)
		if err != nil || te.Stats == nil {
			continue
		}
		if cs := te.Stats.Column(ci.SourceColumn); cs != nil && cs.NDV > 0 {
			ndvProduct *= float64(cs.NDV)
			known = true
		}
	}
	if known {
		return math.Max(1, math.Min(inputRows, ndvProduct))
	}
	return math.Max(1, inputRows/10)
}

// lowerScan performs cost-based access-path selection.
func (o *Optimizer) lowerScan(s *plan.Scan) (exec.Operator, prop) {
	heap := s.EntryHeap()
	if heap == nil {
		return &exec.Values{Desc: "Empty (no storage for " + s.Table + ")"}, prop{}
	}
	total, selected, informed := o.scanEstimate(s)
	pages := float64(heap.PageCount())
	prune := o.prunePreds(s)
	best := exec.Operator(&exec.SeqScan{Table: s.Table, Heap: heap, Filter: s.Filter, Prune: prune})
	bestCost := pages*costPage + total*costRow

	if s.Entry != nil && !o.NoIndexes {
		candidates := s.Entry.Indexes
		if s.PinnedIndex != nil {
			candidates = []*catalog.Index{s.PinnedIndex}
		}
		for _, ix := range candidates {
			if len(ix.Ordinal) != 1 {
				continue // composite range bounds are not planned yet
			}
			iv, bounded := o.leadingInterval(s, ix)
			o.guards = expr.AppendGuards(o.guards, iv.Guards()...)
			if widthFromLiterals(iv) || expr.AnyOpaque(iv.Guards()) {
				o.literalBound = "access-path"
			}
			if !bounded || iv.Empty() {
				continue
			}
			frac := 1.0
			cluster := 0.0
			if s.Entry.Stats != nil {
				cs := s.Entry.Stats.Column(ix.Columns[0])
				frac = cs.SelectivityInterval(iv)
				if cs != nil {
					// Map [0.5, 1] cluster ratio onto [0, 1] clustering
					// benefit (0.5 is what random order yields).
					cluster = math.Max(0, (cs.ClusterRatio-0.5)*2)
				}
			} else if iv.EqualityConstant != nil {
				frac = 0.05
			} else {
				frac = 1.0 / 3
			}
			matchRows := total * frac
			cost := indexScanCost(float64(ix.Tree.Height()), matchRows, pages, cluster, float64(heap.RowsPerPage()))
			if cost < bestCost || s.PinnedIndex == ix {
				lo, hi := boundsFor(iv)
				loFrom, hiFrom := iv.Origins()
				best = &exec.IndexScan{Table: s.Table, Heap: heap, Index: ix, Lo: lo, Hi: hi,
					LoFrom: loFrom, HiFrom: hiFrom, Filter: s.Filter, Prune: prune}
				bestCost = cost
			}
		}
	}
	if _, ok := best.(*exec.SeqScan); ok {
		// Synopsis-aware page estimate: pages the skipper would prune right
		// now are free, and the rows on them are never materialized. Access-
		// path selection above compared the UNPRUNED sequential cost against
		// the index paths — an index that beats a full scan is strictly more
		// precise than zone maps (it touches only matching rows' pages), and
		// current synopsis state is too volatile to let it veto an index — so
		// the synopses are only walked (O(pages)) once the sequential scan
		// has survived. The pruned figures are what it reports upward so
		// join ordering sees the pages it will actually read. A chosen index
		// scan weighs the pruned pages itself, on every execution, against
		// the range it was bound to (exec.IndexScan), where a stale snapshot
		// of the synopses cannot outlive the plan.
		readPages := pages
		if len(prune) > 0 {
			readPages = pages - float64(exec.CountSkippablePages(heap, prune))
		}
		readRows := total
		if pages > 0 {
			readRows = total * readPages / pages
		}
		bestCost = readPages*costPage + readRows*costRow
	}
	if len(informed) > 0 && o.nodeInformed != nil {
		o.nodeInformed[best] = informed
	}
	return best, prop{rows: math.Max(selected, 0), cost: bestCost}
}

// widthFromLiterals reports whether how much of the index the interval
// covers depends on the statement's literal values. Whether it is empty or
// a point is fixed by its guards. A point, or a range whose two bounds are
// offsets of the same literal (what predicate introduction derives from an
// equality: [d-21, d]), keeps its width wherever the literal falls — only
// its position moves, which costing treats like an equality's. A half-open
// range, or bounds from different literals, can cover anything from
// nothing to the whole index.
func widthFromLiterals(iv expr.Interval) bool {
	if !iv.FromLiteral() || iv.Empty() || iv.EqualityConstant != nil {
		return false
	}
	lo, hi := iv.Origins()
	return !iv.HasLo || !iv.HasHi || lo.Slot != hi.Slot
}

// prunePreds assembles a scan's page-prune predicates: intervals extracted
// from its own sargable conjuncts (which already include hole-trimmed
// ranges) plus the prune-only predicates rewrite planted from correlations
// and interior join holes.
func (o *Optimizer) prunePreds(s *plan.Scan) []plan.PrunePred {
	if o.NoPrune {
		return nil
	}
	preds := exec.FilterPrunePreds(s.Filter, len(s.Def.Columns))
	return append(preds, s.PrunePreds...)
}

// boundsFor converts an interval to B+tree scan bounds over a
// single-column key.
func boundsFor(iv expr.Interval) (lo, hi btree.Bound) {
	if iv.HasLo {
		lo = btree.Bound{Key: types.Row{iv.Lo}, Inclusive: iv.LoIncl}
	}
	if iv.HasHi {
		hi = btree.Bound{Key: types.Row{iv.Hi}, Inclusive: iv.HiIncl}
	}
	return lo, hi
}

// --- join ordering ---

// joinState is a DP entry: a lowered subtree covering a subset of the
// group's tables.
type joinState struct {
	op     exec.Operator
	rows   float64
	cost   float64
	layout []int // table indices in output order
}

func (o *Optimizer) lowerJoinGroup(jg *plan.JoinGroup) (exec.Operator, prop, error) {
	n := len(jg.Tables)
	if n == 0 {
		return &exec.Values{Desc: "Empty join group"}, prop{}, nil
	}
	// Leaf states; single-input conjuncts become leaf filters.
	leaves := make([]*joinState, n)
	conjTables := make([][]int, len(jg.Conjuncts))
	applied := make([]bool, len(jg.Conjuncts))
	for ci, c := range jg.Conjuncts {
		set := map[int]bool{}
		for _, ord := range expr.ColumnIndexes(c) {
			set[tableOfGroup(jg, ord)] = true
		}
		for ti := range set {
			conjTables[ci] = append(conjTables[ci], ti)
		}
	}
	for i, t := range jg.Tables {
		op, pr, err := o.lower(t)
		if err != nil {
			return nil, prop{}, err
		}
		off := jg.Offset(i)
		var filters []expr.Expr
		for ci, c := range jg.Conjuncts {
			if len(conjTables[ci]) == 1 && conjTables[ci][0] == i {
				filters = append(filters, expr.ShiftColumns(c, -off))
				applied[ci] = true
			}
		}
		if len(filters) > 0 {
			op = &exec.Filter{Input: op, Conds: filters}
			sel := genericSelectivity(filters)
			pr.rows *= sel
			pr.cost += pr.rows * costRow
			o.note(op, pr.rows)
		}
		leaves[i] = &joinState{op: op, rows: pr.rows, cost: pr.cost, layout: []int{i}}
	}
	if n == 1 {
		st := leaves[0]
		return st.op, prop{rows: st.rows, cost: st.cost}, nil
	}

	var final *joinState
	if n <= dpTableLimit && !o.ForceGreedyJoins {
		final = o.dpJoin(jg, leaves, conjTables, applied)
	} else {
		final = o.greedyJoin(jg, leaves, conjTables, applied)
	}
	// Restore the group's original column order if the chosen join order
	// permuted it.
	op := final.op
	if !identityLayout(final.layout) {
		remap := layoutMapping(jg, final.layout)
		cols := jg.Cols()
		exprs := make([]expr.Expr, len(cols))
		for orig := range cols {
			exprs[orig] = expr.NewColumn(cols[orig].Qualifier, cols[orig].Name, remap[orig], cols[orig].Kind)
		}
		op = &exec.Project{Input: op, Exprs: exprs}
		o.note(op, final.rows)
	}
	return op, prop{rows: final.rows, cost: final.cost}, nil
}

// fuseAggJoinProjection narrows a hash join feeding an aggregate to only
// the columns the aggregate reads. lowerJoinGroup restores the group's
// column order with a bare-column projection over the join; instead of
// materializing every joined column only to permute and then mostly drop
// them, the projection folds into the join's Proj list pruned to the
// aggregate's referenced ordinals, and the aggregate's expressions are
// remapped (as copies — plan nodes may be shared) onto the narrowed schema.
// A no-GROUP-BY COUNT(*) prunes every column: the join emits zero-width
// rows. ok is false when the input is not a hash join or bare-column
// projection of one, leaving the aggregate unchanged.
func fuseAggJoinProjection(in exec.Operator, groupBy []expr.Expr, aggs []plan.AggSpec) (exec.Operator, []expr.Expr, []plan.AggSpec, bool) {
	set := map[int]bool{}
	for _, g := range groupBy {
		for _, ord := range expr.ColumnIndexes(g) {
			set[ord] = true
		}
	}
	for _, a := range aggs {
		if a.Arg != nil {
			for _, ord := range expr.ColumnIndexes(a.Arg) {
				set[ord] = true
			}
		}
	}
	used := make([]int, 0, len(set))
	for ord := range set {
		used = append(used, ord)
	}
	sort.Ints(used)

	var hj *exec.HashJoin
	// toConcat maps an aggregate input ordinal to the join's concatenated
	// schema.
	var toConcat func(ord int) (int, bool)
	switch op := in.(type) {
	case *exec.Project:
		j, ok := op.Input.(*exec.HashJoin)
		if !ok || j.Proj != nil {
			return nil, nil, nil, false
		}
		cols := make([]*expr.Column, len(op.Exprs))
		for i, e := range op.Exprs {
			c, ok := e.(*expr.Column)
			if !ok || c.Index < 0 {
				return nil, nil, nil, false
			}
			cols[i] = c
		}
		hj = j
		toConcat = func(ord int) (int, bool) {
			if ord < 0 || ord >= len(cols) {
				return 0, false
			}
			return cols[ord].Index, true
		}
	case *exec.HashJoin:
		if op.Proj != nil {
			return nil, nil, nil, false
		}
		hj = op
		toConcat = func(ord int) (int, bool) { return ord, true }
	default:
		return nil, nil, nil, false
	}

	ords := make([]int, 0, len(used))
	remap := make(map[int]int, len(used))
	for pos, u := range used {
		c, ok := toConcat(u)
		if !ok {
			return nil, nil, nil, false
		}
		ords = append(ords, c)
		remap[u] = pos
	}
	hj.Proj = ords

	gb2 := make([]expr.Expr, len(groupBy))
	for i, g := range groupBy {
		gb2[i] = expr.RemapColumns(g, remap)
	}
	ag2 := make([]plan.AggSpec, len(aggs))
	for i, a := range aggs {
		if a.Arg != nil {
			a.Arg = expr.RemapColumns(a.Arg, remap)
		}
		ag2[i] = a
	}
	return hj, gb2, ag2, true
}

func identityLayout(layout []int) bool {
	for i, t := range layout {
		if i != t {
			return false
		}
	}
	return true
}

// layoutMapping maps original global ordinals to positions in the actual
// layout.
func layoutMapping(jg *plan.JoinGroup, layout []int) map[int]int {
	mapping := map[int]int{}
	pos := 0
	for _, ti := range layout {
		off := jg.Offset(ti)
		for k := 0; k < len(jg.Tables[ti].Cols()); k++ {
			mapping[off+k] = pos
			pos++
		}
	}
	return mapping
}

// dpJoin finds the cheapest join order by dynamic programming over table
// subsets.
func (o *Optimizer) dpJoin(jg *plan.JoinGroup, leaves []*joinState, conjTables [][]int, applied []bool) *joinState {
	n := len(leaves)
	dp := make([]*joinState, 1<<n)
	for i, st := range leaves {
		dp[1<<i] = st
	}
	full := (1 << n) - 1
	for mask := 1; mask <= full; mask++ {
		if bits.OnesCount(uint(mask)) < 2 {
			continue
		}
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask ^ sub
			if sub > other {
				continue // each unordered split once; joinPair tries both builds
			}
			l, r := dp[sub], dp[other]
			if l == nil || r == nil {
				continue
			}
			cand := o.joinPairBest(jg, l, r, mask, conjTables, applied)
			if cand != nil && (dp[mask] == nil || cand.cost < dp[mask].cost) {
				dp[mask] = cand
			}
		}
	}
	return dp[full]
}

// greedyJoin repeatedly merges the pair with the cheapest join.
func (o *Optimizer) greedyJoin(jg *plan.JoinGroup, leaves []*joinState, conjTables [][]int, applied []bool) *joinState {
	states := append([]*joinState(nil), leaves...)
	for len(states) > 1 {
		bestI, bestJ := -1, -1
		var best *joinState
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				mask := maskOf(states[i].layout) | maskOf(states[j].layout)
				cand := o.joinPairBest(jg, states[i], states[j], mask, conjTables, applied)
				if cand != nil && (best == nil || cand.cost < best.cost) {
					best, bestI, bestJ = cand, i, j
				}
			}
		}
		merged := best
		states[bestI] = merged
		states = append(states[:bestJ], states[bestJ+1:]...)
	}
	return states[0]
}

func maskOf(layout []int) int {
	m := 0
	for _, t := range layout {
		m |= 1 << t
	}
	return m
}

// joinPairBest builds the cheapest join of two states, trying hash (both
// build sides) and nested loops.
func (o *Optimizer) joinPairBest(jg *plan.JoinGroup, l, r *joinState, mask int, conjTables [][]int, applied []bool) *joinState {
	lMask, rMask := maskOf(l.layout), maskOf(r.layout)
	// Conjuncts newly applicable at this join.
	var equi []equiPair
	var residual []expr.Expr
	sel := 1.0
	for ci, c := range jg.Conjuncts {
		if applied[ci] {
			continue
		}
		cm := 0
		for _, ti := range conjTables[ci] {
			cm |= 1 << ti
		}
		if cm&^mask != 0 || cm&lMask == 0 || cm&rMask == 0 {
			continue // not applicable here (or internal, handled earlier)
		}
		if ep, ok := o.extractEqui(jg, c, lMask); ok {
			equi = append(equi, ep)
			sel *= o.equiSelForPair(jg, ep, l.rows, r.rows)
		} else {
			residual = append(residual, c)
			sel *= genericSelectivity([]expr.Expr{c})
		}
	}
	outRows := math.Max(l.rows*r.rows*sel, 0)
	combined := append(append([]int(nil), l.layout...), r.layout...)
	lMap := layoutMapping(jg, l.layout)
	rMap := layoutMapping(jg, r.layout)
	cMap := layoutMapping(jg, combined)

	var best *joinState
	if len(equi) > 0 {
		// Hash join, build on left state. Key columns carry their real
		// kinds so the executor's typed single-key probe path can engage.
		groupCols := jg.Cols()
		kindOf := func(ord int) types.Kind {
			if ord >= 0 && ord < len(groupCols) {
				return groupCols[ord].Kind
			}
			return types.KindNull
		}
		mk := func(build, probe *joinState, buildMap, probeMap map[int]int, layout []int, layoutMap map[int]int, swapped bool) *joinState {
			var lk, rk []expr.Expr
			for _, ep := range equi {
				bcol, pcol := ep.left, ep.right
				if swapped {
					bcol, pcol = ep.right, ep.left
				}
				lk = append(lk, expr.NewColumn("", "k", buildMap[bcol], kindOf(bcol)))
				rk = append(rk, expr.NewColumn("", "k", probeMap[pcol], kindOf(pcol)))
			}
			var res []expr.Expr
			for _, c := range residual {
				res = append(res, expr.RemapColumns(c, layoutMap))
			}
			cost := build.cost + probe.cost + (build.rows*costHashBuild + probe.rows*costHashProbe) + outRows*costEmit
			jop := &exec.HashJoin{Left: build.op, Right: probe.op, LeftKeys: lk, RightKey: rk, Residual: res}
			o.note(jop, outRows)
			return &joinState{
				op:     jop,
				rows:   outRows,
				cost:   cost,
				layout: layout,
			}
		}
		cand := mk(l, r, lMap, rMap, combined, cMap, false)
		best = cand
		// Build on the right instead: output layout r++l.
		combinedRL := append(append([]int(nil), r.layout...), l.layout...)
		cRL := layoutMapping(jg, combinedRL)
		cand2 := mk(r, l, rMap, lMap, combinedRL, cRL, true)
		if cand2.cost < best.cost {
			best = cand2
		}
	}
	// Nested loops (both orientations).
	for _, ori := range [2][2]*joinState{{l, r}, {r, l}} {
		outer, inner := ori[0], ori[1]
		layout := append(append([]int(nil), outer.layout...), inner.layout...)
		lm := layoutMapping(jg, layout)
		var conds []expr.Expr
		for _, ep := range equi {
			conds = append(conds, expr.NewBinary(expr.OpEq,
				expr.NewColumn("", "l", lm[ep.left], types.KindNull),
				expr.NewColumn("", "r", lm[ep.right], types.KindNull)))
		}
		for _, c := range residual {
			conds = append(conds, expr.RemapColumns(c, lm))
		}
		cost := outer.cost + math.Max(outer.rows, 1)*inner.cost + outer.rows*inner.rows*costCompare + outRows*costEmit
		cand := &joinState{
			op:     &exec.NestedLoopJoin{Outer: outer.op, Inner: inner.op, Cond: conds},
			rows:   outRows,
			cost:   cost,
			layout: layout,
		}
		o.note(cand.op, outRows)
		if best == nil || cand.cost < best.cost {
			best = cand
		}
	}
	return best
}

// equiPair is an equality conjunct split across the two join sides, in
// original global ordinals.
type equiPair struct {
	left, right int // left is on the l-state side
}

func (o *Optimizer) extractEqui(jg *plan.JoinGroup, c expr.Expr, lMask int) (equiPair, bool) {
	b, ok := c.(*expr.Binary)
	if !ok || b.Op != expr.OpEq {
		return equiPair{}, false
	}
	lc, lok := b.L.(*expr.Column)
	rc, rok := b.R.(*expr.Column)
	if !lok || !rok {
		return equiPair{}, false
	}
	lt := tableOfGroup(jg, lc.Index)
	if lMask&(1<<lt) != 0 {
		return equiPair{left: lc.Index, right: rc.Index}, true
	}
	return equiPair{left: rc.Index, right: lc.Index}, true
}

func (o *Optimizer) equiSelForPair(jg *plan.JoinGroup, ep equiPair, lRows, rRows float64) float64 {
	mkScanCol := func(ord int) scanCol {
		ti := tableOfGroup(jg, ord)
		if s, ok := jg.Tables[ti].(*plan.Scan); ok {
			return scanCol{scan: s, name: s.Def.Columns[ord-jg.Offset(ti)].Name}
		}
		return scanCol{}
	}
	return o.equiJoinSelectivity(mkScanCol(ep.left), mkScanCol(ep.right), lRows, rRows)
}

// tableOfGroup returns which group input owns the global ordinal.
func tableOfGroup(jg *plan.JoinGroup, ord int) int {
	off := 0
	for i, t := range jg.Tables {
		n := len(t.Cols())
		if ord >= off && ord < off+n {
			return i
		}
		off += n
	}
	return -1
}

// genericSelectivity estimates conjunct selectivity without statistics.
func genericSelectivity(conds []expr.Expr) float64 {
	est := &stats.Estimator{}
	return est.Selectivity(conds)
}
