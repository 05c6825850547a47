package rewrite

import (
	"fmt"
	"math"
	"strings"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/obs"
	"softdb/internal/plan"
	"softdb/internal/stats"
)

// Options toggles individual rules, for ablation benchmarks and tests.
type Options struct {
	NoJoinElim     bool // disable join elimination over RI ([6])
	NoPredIntro    bool // disable predicate introduction (checks + correlations)
	NoBranchPrune  bool // disable union-all branch elimination (§5)
	NoHoleTrim     bool // disable join-hole range trimming ([8])
	NoSortOpt      bool // disable FD-based sort/group simplification ([29])
	NoExceptionAST bool // disable the §4.4 exception-union rewrite
	NoSSCTwins     bool // disable §5.1 estimation-only twinned predicates
	NoASTRouting   bool // disable routing scans through matching ASTs (§4.4)
	NoPruneIntro   bool // disable planting prune-only predicates (zone-map pruning)

	// Masked, when non-empty, names one constraint, correlation, hole set,
	// or AST the rewriter must pretend does not exist. Shadow costing uses
	// it to price the plan the optimizer would have produced without that
	// one characterization; the masked plan is costed, never executed.
	Masked string
}

// masked reports whether name is hidden from this rewrite pass.
func (o Options) masked(name string) bool {
	return o.Masked != "" && strings.EqualFold(o.Masked, name)
}

// Rewriter applies semantic query optimization to logical plans. It may
// mutate the plan in place; callers build a fresh plan per query.
type Rewriter struct {
	Cat *catalog.Catalog
	Opt Options
	// Events records every soft-constraint consultation, applied or
	// rejected, with the constraint's name, mode, and effective confidence;
	// an event whose decision shaped the plan is marked Shaped.
	Events []obs.Event
	// Trace is the shaping events rendered, one TraceLine each; event
	// writes both.
	Trace []string
	// LiteralBound names the first rule whose decision depended on where a
	// statement literal falls in a way no guard can describe (against a
	// join hole, an AST's predicate, through a non-affine derivation or a
	// value of unknown origin); empty when every decision taken would be
	// the same for any literals its Guards admit. A plan rewritten under a
	// non-empty LiteralBound is only valid for its own literals.
	LiteralBound string
	// Guards are the comparisons between a statement literal and another
	// literal or a catalog bound that the rules' decisions were taken on
	// (range-check, branch-elimination, predicate-introduction,
	// sort-simplify): the rewritten plan is valid for every literal vector
	// under which each keeps its sign.
	Guards []expr.Guard
}

// New returns a rewriter over the given catalog with all rules enabled.
func New(cat *catalog.Catalog) *Rewriter { return &Rewriter{Cat: cat} }

// event records one decision; a shaping one also gets its trace line.
func (r *Rewriter) event(e obs.Event) {
	r.Events = append(r.Events, e)
	if e.Shaped {
		r.Trace = append(r.Trace, e.TraceLine())
	}
}

// literalBound records that rule took a decision that depends on the
// statement's literal values; the first rule to do so names the reason.
func (r *Rewriter) literalBound(rule string) {
	if r.LiteralBound == "" {
		r.LiteralBound = rule
	}
}

// guarded records that rule decided on comparisons gs. A comparison with a
// value no Origin describes cannot be checked for other literals, so it
// ties the plan to its own.
func (r *Rewriter) guarded(rule string, gs []expr.Guard) {
	if expr.AnyOpaque(gs) {
		r.literalBound(rule)
		return
	}
	r.Guards = expr.AppendGuards(r.Guards, gs...)
}

// filterUsesLiteral reports whether any conjunct holds a literal-derived
// constant.
func filterUsesLiteral(filter []expr.Expr) bool {
	for _, f := range filter {
		if expr.HasLiteral(f) {
			return true
		}
	}
	return false
}

// Rewrite applies all enabled rules and returns the (possibly replaced)
// plan root.
func (r *Rewriter) Rewrite(n plan.Node) plan.Node {
	switch t := n.(type) {
	case *plan.Project:
		t.Input = r.Rewrite(t.Input)
		if jg, ok := t.Input.(*plan.JoinGroup); ok && !r.Opt.NoJoinElim {
			slots := make([]*expr.Expr, len(t.Exprs))
			for i := range t.Exprs {
				slots[i] = &t.Exprs[i]
			}
			r.eliminateJoins(jg, slots)
			t.Input = r.simplifyGroup(jg)
		}
		if isEmpty(t.Input) {
			return &plan.Empty{Schema: t.Cols(), Reason: reasonOf(t.Input)}
		}
		return t
	case *plan.Aggregate:
		t.Input = r.Rewrite(t.Input)
		if jg, ok := t.Input.(*plan.JoinGroup); ok && !r.Opt.NoJoinElim {
			var slots []*expr.Expr
			for i := range t.GroupBy {
				slots = append(slots, &t.GroupBy[i])
			}
			for i := range t.Aggs {
				if t.Aggs[i].Arg != nil {
					slots = append(slots, &t.Aggs[i].Arg)
				}
			}
			r.eliminateJoins(jg, slots)
			t.Input = r.simplifyGroup(jg)
		}
		if !r.Opt.NoSortOpt {
			r.reduceGroupBy(t)
		}
		return t
	case *plan.Sort:
		t.Input = r.Rewrite(t.Input)
		if !r.Opt.NoSortOpt {
			r.simplifySort(t)
		}
		return t
	case *plan.Filter:
		t.Input = r.Rewrite(t.Input)
		if isEmpty(t.Input) {
			return t.Input
		}
		return t
	case *plan.Distinct:
		t.Input = r.Rewrite(t.Input)
		return t
	case *plan.Limit:
		t.Input = r.Rewrite(t.Input)
		if isEmpty(t.Input) {
			return t.Input
		}
		return t
	case *plan.Derived:
		t.Input = r.Rewrite(t.Input)
		if isEmpty(t.Input) {
			return &plan.Empty{Schema: t.Cols(), Reason: reasonOf(t.Input)}
		}
		return t
	case *plan.UnionAll:
		arms := make([]plan.Node, len(t.Arms))
		var kept []plan.Node
		for i, arm := range t.Arms {
			arms[i] = r.Rewrite(arm)
			if !isEmpty(arms[i]) || r.Opt.NoBranchPrune {
				kept = append(kept, arms[i])
			}
		}
		// Pruning is the union's decision, once its arms are rewritten; a
		// collapse to the one arm left follows from it, so the last
		// pruning's detail says so rather than an event of its own.
		pruned := len(arms) - len(kept)
		for _, na := range arms {
			if !isEmpty(na) || r.Opt.NoBranchPrune {
				continue
			}
			t.Pruned = append(t.Pruned, reasonOf(na))
			detail := "pruned union arm: " + reasonOf(na)
			if pruned--; pruned == 0 && len(kept) == 1 {
				detail += "; union collapsed to a single arm"
			}
			r.event(obs.Event{Rule: "branch-elimination", Applied: true, Shaped: true, Detail: detail})
		}
		switch len(kept) {
		case 0:
			return &plan.Empty{Schema: t.Cols(), Reason: "all union arms pruned"}
		case 1:
			return kept[0]
		default:
			t.Arms = kept
			return t
		}
	case *plan.JoinGroup:
		return r.rewriteJoinGroup(t)
	case *plan.Scan:
		return r.rewriteScan(t)
	default:
		return n
	}
}

func isEmpty(n plan.Node) bool {
	_, ok := n.(*plan.Empty)
	return ok
}

func reasonOf(n plan.Node) string {
	if e, ok := n.(*plan.Empty); ok {
		return e.Reason
	}
	return ""
}

// rewriteJoinGroup pushes conjuncts into union-backed sources, trims ranges
// by join holes, recurses into the inputs, and propagates emptiness.
func (r *Rewriter) rewriteJoinGroup(jg *plan.JoinGroup) plan.Node {
	// Single union-backed source: distribute conjuncts into the arms so
	// branch elimination can see them (§5).
	if len(jg.Tables) == 1 && len(jg.Conjuncts) > 0 {
		if pushed, ok := attachConjuncts(jg.Tables[0], jg.Conjuncts); ok {
			return r.Rewrite(pushed)
		}
	}
	if !r.Opt.NoHoleTrim {
		r.trimJoinHoles(jg)
	}
	for i, in := range jg.Tables {
		jg.Tables[i] = r.Rewrite(in)
	}
	for _, in := range jg.Tables {
		if isEmpty(in) {
			return &plan.Empty{Schema: jg.Cols(), Reason: reasonOf(in)}
		}
	}
	if len(jg.Tables) == 1 && len(jg.Conjuncts) == 0 {
		return jg.Tables[0]
	}
	return jg
}

// attachConjuncts pushes conjuncts (bound to n's output ordinals) inside n
// where that distributes over unions or lands on a scan filter. The second
// return is false when no structural push was possible.
func attachConjuncts(n plan.Node, conj []expr.Expr) (plan.Node, bool) {
	switch t := n.(type) {
	case *plan.Scan:
		t.Filter = append(t.Filter, conj...)
		return t, true
	case *plan.Derived:
		in, ok := attachConjuncts(t.Input, conj)
		if !ok {
			return n, false
		}
		t.Input = in
		return t, true
	case *plan.UnionAll:
		for i, arm := range t.Arms {
			// Each arm gets its own copy of the conjunct trees so later
			// per-arm rewrites do not alias.
			cloned := make([]expr.Expr, len(conj))
			for j, c := range conj {
				cloned[j] = expr.RemapColumns(c, map[int]int{}) // structural copy on write
			}
			na, ok := attachConjuncts(arm, cloned)
			if !ok {
				na = &plan.JoinGroup{Tables: []plan.Node{arm}, Conjuncts: cloned}
			}
			t.Arms[i] = na
		}
		return t, true
	case *plan.Project:
		// Push through a projection of plain columns.
		mapping := map[int]int{}
		for outIdx, e := range t.Exprs {
			c, ok := e.(*expr.Column)
			if !ok {
				return n, false
			}
			mapping[outIdx] = c.Index
		}
		remapped := make([]expr.Expr, len(conj))
		for i, c := range conj {
			remapped[i] = expr.RemapColumns(c, mapping)
		}
		in, ok := attachConjuncts(t.Input, remapped)
		if !ok {
			in = &plan.JoinGroup{Tables: []plan.Node{t.Input}, Conjuncts: remapped}
		}
		t.Input = in
		return t, true
	case *plan.JoinGroup:
		t.Conjuncts = append(t.Conjuncts, conj...)
		return t, true
	default:
		return n, false
	}
}

// --- scan-level rules ---

// bound couples a LinearBound with its originating catalog object.
type bound struct {
	LinearBound
	check *catalog.Constraint
	corr  *catalog.LinearCorrelation
}

// boundsFor lowers every applicable constraint and correlation on the
// scan's base table into linear bounds over the scan's local ordinals.
func (r *Rewriter) boundsFor(s *plan.Scan) []bound {
	if s.Entry == nil {
		return nil
	}
	var out []bound
	for _, con := range s.Entry.Constraints {
		if con.Kind != catalog.Check || r.Opt.masked(con.Name) {
			continue
		}
		if !con.Active {
			r.event(obs.Event{Rule: "bound-lowering", Constraint: con.Name,
				Mode: con.Mode.String(), Confidence: con.Confidence, Applied: false,
				Detail: "constraint deactivated by a violating write"})
			continue
		}
		for _, lb := range boundsFromCheck(con) {
			out = append(out, bound{LinearBound: lb, check: con})
		}
	}
	for _, lc := range r.Cat.Correlations(s.Table) {
		if r.Opt.masked(lc.Name) {
			continue
		}
		if !lc.Usable() {
			// §3.2: probationary SCs are maintained, not employed.
			r.event(obs.Event{Rule: "bound-lowering", Constraint: lc.Name,
				Mode: catalog.ModeSoftStatistical.String(), Confidence: lc.Confidence,
				Applied: false, Reason: "probation",
				Detail: "correlation on probation or dropped; maintained, not employed"})
			continue
		}
		aOrd := s.Def.ColumnIndex(lc.ColA)
		bOrd := s.Def.ColumnIndex(lc.ColB)
		if aOrd < 0 || bOrd < 0 {
			continue
		}
		lb := boundFromCorrelation(lc, aOrd, bOrd)
		if !lc.IsAbsolute() {
			lb.Mode = catalog.ModeSoftStatistical
		}
		out = append(out, bound{LinearBound: lb, corr: lc})
	}
	return out
}

// rewriteScan applies predicate folding, contradiction detection against
// check constraints (branch pruning), predicate introduction from absolute
// bounds, the exception-union rewrite, and SSC twin generation.
func (r *Rewriter) rewriteScan(s *plan.Scan) plan.Node {
	// Fold constants in filters.
	for i, f := range s.Filter {
		s.Filter[i] = expr.FoldConstants(f)
	}
	for _, f := range s.Filter {
		if expr.IsConstFalse(f) {
			return &plan.Empty{Schema: s.Cols(), Reason: "false predicate on " + s.Alias}
		}
	}
	// Per-column filter intervals; contradiction check.
	for ord := range s.Def.Columns {
		iv, _ := expr.ExtractInterval(s.Filter, ord)
		// Whether the range is empty, a point or proper depends on how the
		// literals compare.
		r.guarded("range-check", iv.Guards())
		if iv.Empty() {
			return &plan.Empty{Schema: s.Cols(), Reason: fmt.Sprintf("contradictory range on %s.%s", s.Alias, s.Def.Columns[ord].Name)}
		}
	}
	if s.Entry == nil {
		return s // summary scans: no constraints of their own
	}
	// AST routing (§4.4): when the query's own predicates contain an AST's
	// defining predicate, every qualifying row lives in the AST, so the
	// (smaller) AST can be scanned instead of the base table. DB2 presents
	// the AST as a choice point for the cost-based optimizer; since the AST
	// holds a subset of the base rows, routing is never worse here.
	if !r.Opt.NoASTRouting {
		if routed := r.routeThroughAST(s); routed != nil {
			return routed
		}
	}
	bounds := r.boundsFor(s)
	// Branch pruning: a filter interval disjoint from a single-column
	// absolute bound proves the scan empty (§5's knock-out test).
	if !r.Opt.NoBranchPrune {
		for _, b := range bounds {
			if !b.singleColumn() || b.Confidence < 1 || !b.Mode.UsableInRewrite() {
				continue
			}
			kind := s.Def.Columns[b.ColA].Type
			biv := floatToInterval(floatInterval{lo: b.Lo, hi: b.Hi}, kind)
			fiv, _ := expr.ExtractInterval(s.Filter, b.ColA)
			if fiv.IsUnbounded() {
				continue
			}
			meet := fiv.Intersect(biv)
			r.guarded("branch-elimination", meet.Guards())
			if meet.Empty() {
				r.event(obs.Event{Rule: "branch-elimination", Constraint: b.Source,
					Mode: b.Mode.String(), Confidence: b.Confidence, Applied: true, Shaped: true,
					Detail:    fmt.Sprintf("%s contradicts bound on %s; scan proven empty", s.Alias, s.Def.Columns[b.ColA].Name),
					RowsSaved: float64(s.Entry.Heap.RowCount())})
				return &plan.Empty{
					Schema: s.Cols(),
					Reason: fmt.Sprintf("%s contradicts %s on %s", s.Alias, b.Source, s.Def.Columns[b.ColA].Name),
				}
			}
		}
	}
	// Predicate introduction / exception rewrite / SSC twins over
	// two-column bounds. Absolute bounds apply first (they add filters in
	// place) so that a later exception-union rewrite copies them into its
	// arms.
	ordered := make([]bound, 0, len(bounds))
	for _, b := range bounds {
		if !b.singleColumn() && b.Confidence >= 1 && b.Mode.UsableInRewrite() {
			ordered = append(ordered, b)
		}
	}
	for _, b := range bounds {
		if !b.singleColumn() && !(b.Confidence >= 1 && b.Mode.UsableInRewrite()) {
			ordered = append(ordered, b)
		}
	}
	for _, b := range ordered {
		for _, dir := range [2][2]int{{b.ColB, b.ColA}, {b.ColA, b.ColB}} {
			known, target := dir[0], dir[1]
			if node, changed := r.applyBound(s, b, known, target); changed {
				return node
			}
		}
	}
	return s
}

// applyBound tries to exploit one two-column bound in one direction. It
// returns (replacement, true) when the scan was replaced wholesale (the
// exception-union rewrite); in-place filter/twin additions return (s,
// false) so remaining bounds still apply.
func (r *Rewriter) applyBound(s *plan.Scan, b bound, known, target int) (plan.Node, bool) {
	fiv, _ := expr.ExtractInterval(s.Filter, known)
	if fiv.IsUnbounded() {
		return s, false
	}
	r.guarded("predicate-introduction", fiv.Guards())
	if fiv.Empty() {
		return s, false
	}
	fl, ok := toFloatInterval(fiv)
	if !ok {
		return s, false
	}
	derived, ok := b.deriveOther(known, fl)
	if !ok || (math.IsInf(derived.lo, -1) && math.IsInf(derived.hi, 1)) {
		return s, false
	}
	kind := s.Def.Columns[target].Type
	div := floatToInterval(derived, kind)
	if div.IsUnbounded() {
		return s, false
	}
	// A derived bound that is a unit-slope offset of a statement literal
	// keeps that provenance (the plan stays a template); any other
	// dependence on the literals ties the plan to them.
	dlo, dhi, affine := b.deriveOrigins(known, fiv, kind)
	if !affine {
		r.literalBound("predicate-introduction")
	}
	div = div.WithOrigins(dlo, dhi)
	// Only worthwhile when it tightens what the query already states.
	existing, _ := expr.ExtractInterval(s.Filter, target)
	covered, gs := existing.Covered(div)
	r.guarded("predicate-introduction", gs)
	if covered {
		return s, false
	}
	col := expr.NewColumn(s.Alias, s.Def.Columns[target].Name, target, kind)
	pred := expr.IntervalToPredicate(col, div)
	if pred == nil {
		return s, false
	}
	absolute := b.Confidence >= 1 && b.Mode.UsableInRewrite()
	indexHelps := s.Entry.IndexOn(target) != nil && s.Entry.IndexOn(known) == nil

	if absolute {
		if r.Opt.NoPredIntro || !indexHelps {
			if !r.Opt.NoPredIntro {
				// No index access path to gain — but the derived interval is
				// still sound, so plant it as a prune-only predicate: scans
				// skip heap pages whose synopsis cannot meet it.
				if r.plantPrunePred(s, b, target, div) {
					return s, false
				}
				r.event(obs.Event{Rule: "predicate-introduction", Constraint: b.Source,
					Mode: b.Mode.String(), Confidence: 1, Applied: false, Reason: "no-index",
					Detail: fmt.Sprintf("derived predicate on %s.%s gains no index access path", s.Alias, s.Def.Columns[target].Name)})
			}
			return s, false
		}
		for _, c := range expr.SplitConjuncts(pred) {
			if !expr.ContainsConjunct(s.Filter, c) {
				s.Filter = append(s.Filter, c)
			}
		}
		r.event(obs.Event{Rule: "predicate-introduction", Constraint: b.Source,
			Mode: b.Mode.String(), Confidence: 1, Applied: true, Shaped: true}.Detailf(
			"%s: added %s", s.Alias, pred))
		return s, false
	}

	// Statistical bounds never prune: skipping pages drops rows for real,
	// and an effective confidence under the 1.0 floor admits exceptions
	// that could live anywhere. Record the refusal so the fallback to a
	// full (unpruned) scan is observable.
	if !r.Opt.NoPruneIntro {
		eff := b.Confidence
		if b.corr != nil && s.Entry != nil {
			eff = b.corr.EffectiveConfidence(s.Entry.Heap.RowCount())
		}
		r.event(obs.Event{Rule: "prune-introduction", Constraint: b.Source,
			Mode: b.Mode.String(), Confidence: eff, Applied: false, Reason: "below-floor",
			Detail: fmt.Sprintf("effective confidence %.3f below prune floor 1.0; %s.%s scan not pruned",
				eff, s.Alias, s.Def.Columns[target].Name)})
	}

	// Statistical bound. Prefer the exact §4.4 exception-union rewrite when
	// an exception AST is linked; otherwise fall back to a §5.1 twin.
	if !r.Opt.NoExceptionAST && b.check != nil && indexHelps {
		if ast, ok := r.Cat.ExceptionFor(b.check.Name); ok && ast.Base != "" && strings.EqualFold(ast.Base, s.Table) && !r.Opt.masked(ast.Name) {
			if rewritten, ok := r.exceptionUnion(s, b, pred, ast); ok {
				return rewritten, true
			}
		}
	}
	if !r.Opt.NoSSCTwins {
		ep := stats.EstimationPredicate{Pred: pred, Confidence: b.Confidence, Source: b.Source}
		for _, existing := range s.EstOnly {
			if expr.Equivalent(existing.Pred, ep.Pred) {
				return s, false
			}
		}
		s.EstOnly = append(s.EstOnly, ep)
		r.event(obs.Event{Rule: "ssc-twin", Constraint: b.Source,
			Mode: b.Mode.String(), Confidence: b.Confidence, Applied: true, Shaped: true}.Detailf(
			"%s: twinned %s for estimation only", s.Alias, pred))
	}
	return s, false
}

// plantPrunePred attaches a prune-only predicate for the derived interval
// div on target. It fires only for absolute bounds and reports whether it
// planted (or an equivalent predicate already exists). NullsQualify is set:
// the bound says nothing about rows where either column is NULL, so a page
// holding NULLs in the target column can never be skipped by it.
func (r *Rewriter) plantPrunePred(s *plan.Scan, b bound, target int, div expr.Interval) bool {
	if r.Opt.NoPruneIntro || s.Summary != nil || s.Entry == nil {
		return false
	}
	for _, pp := range s.PrunePreds {
		if pp.Col == target && pp.Source == b.Source {
			return true
		}
	}
	s.PrunePreds = append(s.PrunePreds, plan.PrunePred{
		Col: target, Interval: div, NullsQualify: true,
		Source: b.Source, Check: pruneCheck(b),
	})
	// Not Shaped: a prune-only predicate never makes the plan depend on the
	// constraint for correctness (the Check closure re-validates at every
	// scan), so it must not engage the §4.1 cache machinery (ASCDynamicOnly,
	// backup-plan compilation).
	r.event(obs.Event{Rule: "prune-introduction", Constraint: b.Source,
		Mode: b.Mode.String(), Confidence: b.Confidence, Applied: true}.Detailf(
		"%s: derived prune-only interval %s on %s (pages skippable via synopses)",
		s.Alias, div, s.Def.Columns[target].Name))
	return true
}

// pruneCheck captures the bound's source object so the executor re-validates
// it at scan start: pruning must stop the moment the source is violated
// (deactivated), demoted to probation, or loses absoluteness — §4.1
// invalidation applied to derived prune predicates, not just plans.
// The closures run during operator execution, outside the engine's shared
// lock, so they take the catalog runtime read lock against commit hooks
// deactivating the source concurrently.
func pruneCheck(b bound) func() bool {
	switch {
	case b.corr != nil:
		lc := b.corr
		return func() bool {
			catalog.RuntimeRLock()
			defer catalog.RuntimeRUnlock()
			return lc.Usable() && lc.IsAbsolute()
		}
	case b.check != nil:
		con := b.check
		return func() bool {
			catalog.RuntimeRLock()
			defer catalog.RuntimeRUnlock()
			return con.Active && con.Confidence >= 1 && con.Mode.UsableInRewrite()
		}
	default:
		return nil
	}
}

// routeThroughAST returns a summary-table scan replacing s when some
// materialized AST's defining predicate is contained in s's filter
// conjuncts (so the AST provably holds every qualifying row), or nil.
func (r *Rewriter) routeThroughAST(s *plan.Scan) plan.Node {
	filterConjuncts := s.Filter
	var best *catalog.SummaryTable
	bestSize := int64(-1)
	for _, st := range r.Cat.SummariesOn(s.Table) {
		if st.Informational || st.Heap == nil || st.Where == nil || r.Opt.masked(st.Name) {
			continue
		}
		// Containment compares the query's conjuncts, literals included,
		// with the AST's defining predicate.
		if filterUsesLiteral(filterConjuncts) {
			r.literalBound("ast-routing")
		}
		contained := true
		for _, c := range expr.SplitConjuncts(st.Where) {
			if !expr.ContainsConjunct(filterConjuncts, c) {
				contained = false
				break
			}
		}
		if !contained {
			continue
		}
		if bestSize < 0 || st.Heap.RowCount() < bestSize {
			best = st
			bestSize = st.Heap.RowCount()
		}
	}
	if best == nil {
		return nil
	}
	r.event(obs.Event{Rule: "ast-routing", Constraint: best.Name, Mode: "AST",
		Confidence: 1, Applied: true, Shaped: true,
		Detail:    fmt.Sprintf("%s: scan routed to summary (%d of %d rows)", s.Alias, best.Heap.RowCount(), s.Entry.Heap.RowCount()),
		RowsSaved: float64(s.Entry.Heap.RowCount() - best.Heap.RowCount())})
	return &plan.Scan{
		Table: best.Name, Alias: s.Alias, Summary: best, Def: best.Def,
		Filter:  append([]expr.Expr(nil), s.Filter...),
		EstOnly: s.EstOnly,
	}
}

// exceptionUnion builds the §4.4 rewrite:
//
//	σ_F(T)  ≡  σ_{F ∧ C ∧ P}(T)  UNION ALL  σ_F(E)
//
// where C is the constraint statement, P the introduced predicate, and E
// the exception AST holding exactly the rows violating C. The two arms are
// disjoint because arm 1 keeps only C-satisfying rows and E holds only
// C-violating rows.
func (r *Rewriter) exceptionUnion(s *plan.Scan, b bound, pred expr.Expr, ast *catalog.SummaryTable) (plan.Node, bool) {
	if b.check.CheckExpr == nil {
		return nil, false
	}
	arm1 := &plan.Scan{
		Table: s.Table, Alias: s.Alias, Entry: s.Entry, Def: s.Def,
		Filter: append(append([]expr.Expr(nil), s.Filter...), b.check.CheckExpr),
	}
	for _, c := range expr.SplitConjuncts(pred) {
		if !expr.ContainsConjunct(arm1.Filter, c) {
			arm1.Filter = append(arm1.Filter, c)
		}
	}
	arm2 := &plan.Scan{
		Table: ast.Name, Alias: s.Alias, Summary: ast, Def: ast.Def,
		Filter: append([]expr.Expr(nil), s.Filter...),
	}
	r.event(obs.Event{Rule: "exception-union", Constraint: b.check.Name,
		Mode: b.Mode.String(), Confidence: b.Confidence, Applied: true, Shaped: true}.Detailf(
		"%s: exact rewrite via exception AST %s with %s", s.Alias, ast.Name, pred))
	return &plan.UnionAll{Arms: []plan.Node{arm1, arm2}}, true
}
