package engine

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"

	"softdb/internal/exec"
	"softdb/internal/expr"
	"softdb/internal/obs"
	"softdb/internal/sql"
	"softdb/internal/types"
)

// The plan cache is keyed by statement shape: the SELECT's token stream
// with its predicate literals lifted out (sql.Fingerprint) plus the
// settings that shape a compiled plan. A shape holds either
//
//   - a template: a plan compiled from one literal vector in which every
//     literal-derived constant knows its origin (slot, or slot + offset), so
//     later statements of the shape skip parse, build, rewrite and optimize
//     and run a rebind of it; or
//   - literal-bound variants: plans some rewrite or access-path decision
//     tied to the literal values they were compiled from, cached per
//     (shape, literal vector) exactly as a text-keyed cache would, capped at
//     maxVariants per shape with least-recently-used eviction.
//
// Texts the fingerprint refuses share one shape ("") and are variants keyed
// by the whole text. The §4.1 lifecycle — catalog/hard versions, lazy
// invalidation, backup-plan failover — applies per plan, template or
// variant alike.

// maxVariants caps the literal-bound plans one shape may hold.
const maxVariants = 64

// shapeKey identifies a cache slot. Only the knob that shapes the compiled
// physical plan participates — the prune toggle — so concurrent sessions
// with different knob sets never share a plan. The lifecycle knobs
// (MemBudget, StmtTimeout, MaxConcurrent, Fault) act at run time on any
// compiled plan; keying on them would only fragment the cache.
type shapeKey struct {
	shape   string
	noPrune bool
}

// stmtPrint is one statement's cache identity.
type stmtPrint struct {
	key shapeKey
	// shaped reports that the fingerprint accepted the text: key.shape is
	// its shape and lits the literals lifted out of it. Otherwise the
	// statement is cached as a variant of the "" shape under its whole text.
	shaped bool
	lits   []sql.Literal
	whole  string
}

// printOf fingerprints a SELECT text under the statement's settings.
func printOf(text string, st Settings) stmtPrint {
	fp := stmtPrint{key: shapeKey{noPrune: st.NoPrune}}
	if fp.key.shape, fp.lits, fp.shaped = sql.Fingerprint(text); !fp.shaped {
		fp.whole = text
	}
	return fp
}

// values returns the literal vector a template is rebound with.
func (fp *stmtPrint) values() []types.Datum {
	vals := make([]types.Datum, len(fp.lits))
	for i, l := range fp.lits {
		vals[i] = l.Value
	}
	return vals
}

// variantKey identifies the statement among the literal-bound plans of its
// shape: the literal vector, each value length-prefixed so no two vectors
// collide, or the whole text.
func (fp *stmtPrint) variantKey() string {
	if !fp.shaped {
		return fp.whole
	}
	var b strings.Builder
	for _, l := range fp.lits {
		s := l.Value.String()
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	return b.String()
}

// shapeID is the short identifier traces and /debug/queries show for a
// shape: stable across processes, independent of settings.
func shapeID(shape string) string {
	h := fnv.New64a()
	h.Write([]byte(shape))
	return strconv.FormatUint(h.Sum64(), 16)
}

type shapeEntry struct {
	// template serves every literal vector of the shape by rebind; nil
	// while the shape is literal-bound (or its template was invalidated).
	template *cachedPlan
	// variants are the literal-bound plans by variantKey.
	variants map[string]*variant
	// clock orders variant uses for eviction.
	clock uint64
}

type variant struct {
	plan *cachedPlan
	used uint64
}

type planCache struct {
	shapes map[shapeKey]*shapeEntry
	// plans counts the executable plans held: templates plus variants.
	plans int
}

// current applies the §4.1 lifecycle to one cached plan under cacheMu and
// counts the outcome: a plan compiled at the current catalog version is a
// hit and served as is; when only soft characterizations changed (the hard
// version is intact) and a backup plan was compiled, the backup takes over
// instead of a recompile (a failover); otherwise the plan is dead, counted
// as invalidated, and nil is returned. hit tells the first outcome apart.
func (db *Database) current(p *cachedPlan) (plan *cachedPlan, hit bool) {
	if p.catVersion == db.cat.Version() {
		db.cacheStat.Hits++
		db.obs.cacheHits.Inc()
		return p, true
	}
	if p.hardVersion == db.cat.HardVersion() && p.backup != nil {
		bk := p.backup
		bk.catVersion = db.cat.Version()
		bk.hardVersion = db.cat.HardVersion()
		bk.trace = append([]string{"backup-plan: reverted after soft-constraint change (§4.1)"}, bk.trace...)
		db.cacheStat.Failovers++
		db.obs.cacheFailovers.Inc()
		return bk, false
	}
	db.cacheStat.Invalidations++
	db.obs.cacheInvals.Inc()
	db.cache.plans--
	db.obs.cacheEntries.Set(int64(db.cache.plans))
	return nil, false
}

// cacheLookup resolves a statement to a runnable plan: its shape's template
// (the caller rebinds it to the statement's literals) or the literal-bound
// variant compiled for exactly these literals. Either is a hit; a failover
// to a backup plan is counted as such instead. A template's one failover
// serves every later literal vector — an ASC overturn costs one reversion
// per shape, not one per text.
func (db *Database) cacheLookup(fp *stmtPrint) (plan *cachedPlan, template bool) {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	se := db.cache.shapes[fp.key]
	if se != nil && se.template != nil && fp.shaped {
		var hit bool
		if se.template, hit = db.current(se.template); se.template != nil {
			if hit {
				db.cacheStat.TemplateHits++
				db.obs.templateHits.Inc()
			}
			return se.template, true
		}
	}
	if se != nil && len(se.variants) > 0 {
		vk := fp.variantKey()
		if v := se.variants[vk]; v != nil {
			if v.plan, _ = db.current(v.plan); v.plan != nil {
				se.clock++
				v.used = se.clock
				return v.plan, false
			}
			delete(se.variants, vk)
		}
	}
	db.cacheStat.Misses++
	db.obs.cacheMisses.Inc()
	return nil, false
}

// cacheStore files a freshly compiled plan under its statement's shape: as
// the shape's template when no decision tied it to the literals it was
// compiled from (literalBound empty), otherwise as the variant for exactly
// those literals, evicting the shape's least recently used variant at the
// cap.
func (db *Database) cacheStore(fp *stmtPrint, p *cachedPlan) {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	se := db.cache.shapes[fp.key]
	if se == nil {
		se = &shapeEntry{}
		db.cache.shapes[fp.key] = se
	}
	if p.literalBound == "" {
		// One kind of plan per shape: the template supersedes whatever
		// literal-bound plans the shape held (compiled before the catalog
		// moved, or for literals a cost-based choice flipped on).
		if se.template == nil {
			db.cache.plans++
		}
		db.cache.plans -= len(se.variants)
		se.template, se.variants = p, nil
	} else {
		db.cacheStat.LiteralBound++
		db.obs.metrics.Counter(mCacheLitBound, "reason", p.literalBound).Inc()
		if se.template != nil {
			se.template = nil
			db.cache.plans--
		}
		if se.variants == nil {
			se.variants = map[string]*variant{}
		}
		vk := fp.variantKey()
		if se.variants[vk] == nil {
			if len(se.variants) >= maxVariants {
				db.evictVariant(se)
			}
			db.cache.plans++
		}
		se.clock++
		se.variants[vk] = &variant{plan: p, used: se.clock}
	}
	db.obs.cacheEntries.Set(int64(db.cache.plans))
}

// evictVariant drops the shape's least recently used variant.
func (db *Database) evictVariant(se *shapeEntry) {
	var victim string
	oldest := ^uint64(0)
	for k, v := range se.variants {
		if v.used < oldest {
			victim, oldest = k, v.used
		}
	}
	delete(se.variants, victim)
	db.cache.plans--
	db.cacheStat.Evictions++
	db.obs.cacheEvictions.Inc()
}

// cachePeek reports the plan-cache status the equivalent SELECT would see —
// "hit" or "miss" — without disturbing the §4.1 lifecycle or the stats;
// EXPLAIN annotates its output with it.
func (db *Database) cachePeek(fp *stmtPrint) string {
	if db.DisablePlanCache {
		return "miss"
	}
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	se := db.cache.shapes[fp.key]
	if se == nil {
		return "miss"
	}
	if t := se.template; t != nil && fp.shaped && t.catVersion == db.cat.Version() {
		return "hit"
	}
	if len(se.variants) > 0 {
		if v := se.variants[fp.variantKey()]; v != nil && v.plan.catVersion == db.cat.Version() {
			return "hit"
		}
	}
	return "miss"
}

// cacheNote is the parenthesis EXPLAIN appends to its plan-cache line: how
// a plan of this statement is (or would be) cached.
func (p *cachedPlan) cacheNote() string {
	if p.literalBound != "" {
		return fmt.Sprintf("(literal-bound: %s)", p.literalBound)
	}
	if p.slots == 1 {
		return "(template, 1 slot)"
	}
	return fmt.Sprintf("(template, %d slots)", p.slots)
}

// CachedPlanCount reports the executable plans the cache holds: one per
// template shape plus one per literal-bound variant.
func (db *Database) CachedPlanCount() int {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	return db.cache.plans
}

// InvalidateStaleCache drops cached plans whose catalog version is stale,
// returning how many were dropped. The engine also invalidates lazily on
// lookup; this models the §4.1 eager "drop every dependent package" sweep.
func (db *Database) InvalidateStaleCache() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	n := 0
	version := db.cat.Version()
	for k, se := range db.cache.shapes {
		if se.template != nil && se.template.catVersion != version {
			se.template = nil
			n++
		}
		for vk, v := range se.variants {
			if v.plan.catVersion != version {
				delete(se.variants, vk)
				n++
			}
		}
		if se.template == nil && len(se.variants) == 0 {
			delete(db.cache.shapes, k)
		}
	}
	db.cache.plans -= n
	db.cacheStat.Invalidations += int64(n)
	db.obs.cacheInvals.Add(int64(n))
	db.obs.cacheEntries.Set(int64(db.cache.plans))
	return n
}

// nodeEstimate is the optimizer's estimate for one operator of a compiled
// plan, recorded by the operator's preorder position so it still applies to
// a rebound copy of the tree.
type nodeEstimate struct {
	rows     float64
	has      bool
	informed []string
}

// nodeEstimates lays the optimizer's per-operator maps out in preorder.
func nodeEstimates(root exec.Operator, rows map[exec.Operator]float64, informed map[exec.Operator][]string) []nodeEstimate {
	var out []nodeEstimate
	var walk func(exec.Operator)
	walk = func(op exec.Operator) {
		r, ok := rows[op]
		out = append(out, nodeEstimate{rows: r, has: ok, informed: informed[op]})
		for _, c := range op.Inputs() {
			walk(c)
		}
	}
	walk(root)
	return out
}

// instrument wraps the plan for tracing with the compile-time estimates
// attached to the operators at the same preorder positions.
func (p *cachedPlan) instrument() (exec.Operator, *obs.SpanNode) {
	pos := map[exec.Operator]int{}
	var walk func(exec.Operator)
	walk = func(op exec.Operator) {
		pos[op] = len(pos)
		for _, c := range op.Inputs() {
			walk(c)
		}
	}
	walk(p.root)
	at := func(op exec.Operator) *nodeEstimate {
		if i, ok := pos[op]; ok && i < len(p.nodes) {
			return &p.nodes[i]
		}
		return &nodeEstimate{}
	}
	return exec.InstrumentInformed(p.root,
		func(op exec.Operator) (float64, bool) { n := at(op); return n.rows, n.has },
		func(op exec.Operator) []string { return at(op).informed })
}

// stamp records the statement's shape on a plan compiled for it.
func (fp *stmtPrint) stamp(p *cachedPlan) {
	p.slots = len(fp.lits)
	if fp.shaped {
		p.shapeID = shapeID(fp.key.shape)
	}
}

// templateHolds decides whether p — planned under po from sel, whose
// literals are fp's — may serve every literal vector of the shape. No rule
// may have tied it to its literals, and the claim is then checked once:
// the statement is planned again from scratch with every literal nudged to
// another value of its kind, and rebinding p to those literals must
// reproduce that plan text, rewrite trace and event list exactly. A
// constant that silently kept the first statement's literal, or a decision
// that happened to flip, shows up as a difference, and the plan stays
// bound to its literals. The extra planning pass runs once per template,
// not per statement.
func (db *Database) templateHolds(sel *sql.Select, p *cachedPlan, fp *stmtPrint, st Settings, po planOpts) bool {
	if p.literalBound != "" {
		return false
	}
	if p.slots == 0 {
		return true
	}
	other := fp.values()
	for i, v := range other {
		switch v.Kind() {
		case types.KindInt:
			other[i] = types.NewInt(v.Int() + 1)
		case types.KindDate:
			other[i] = types.NewDate(v.IntImage() + 1)
		case types.KindFloat:
			other[i] = types.NewFloat(v.Float() + 1)
		case types.KindString:
			other[i] = types.NewString(v.Str() + "~")
		}
	}
	fresh, err := db.planSelect(sql.BindLiterals(sel, other), st, po)
	if err != nil || fresh.literalBound != "" {
		return false
	}
	rebound, ok := p.bind(other)
	if !ok || rebound.planText != fresh.planText || !slices.Equal(rebound.trace, fresh.trace) || len(rebound.events) != len(fresh.events) {
		return false
	}
	for i, e := range fresh.events {
		if rebound.events[i].String() != e.String() {
			return false
		}
	}
	return true
}

// bind instantiates a template for the literal vector vals: the operator
// tree is rebound, and the plan text, rewrite trace and event details that
// embed literal-derived values are rendered again, so everything the
// statement reports shows its own literals. The template is not modified.
// ok is false when the plan holds an operator exec.Rebind does not know.
func (p *cachedPlan) bind(vals []types.Datum) (bound *cachedPlan, ok bool) {
	if p.slots == 0 {
		return p, true
	}
	root, ok := exec.Rebind(p.root, vals)
	if !ok {
		return nil, false
	}
	b := *p
	b.root = root
	b.planText = exec.Format(root)
	if len(p.traceTexts) > 0 {
		b.trace = append([]string(nil), p.trace...)
		for i, t := range p.traceTexts {
			b.trace[i] = renderText(t, vals)
		}
	}
	if p.eventTexts {
		b.events = append([]obs.Event(nil), p.events...)
		for i := range b.events {
			if t := b.events[i].DetailText; t != nil {
				b.events[i].Detail = renderText(*t, vals)
			}
		}
	}
	return &b, true
}

// usesLiteral reports whether any argument of a kept message is an
// expression or interval that depends on a statement literal.
func usesLiteral(args []any) bool {
	for _, a := range args {
		switch v := a.(type) {
		case expr.Expr:
			if expr.HasLiteral(v) {
				return true
			}
		case expr.Interval:
			if v.FromLiteral() {
				return true
			}
		}
	}
	return false
}

// renderText renders a kept message with its literal-derived arguments
// recomputed for vals.
func renderText(t obs.Text, vals []types.Datum) string {
	args := make([]any, len(t.Args))
	for i, a := range t.Args {
		switch v := a.(type) {
		case expr.Expr:
			args[i] = expr.Bind(v, vals)
		case expr.Interval:
			args[i] = v.Bind(vals)
		default:
			args[i] = a
		}
	}
	return fmt.Sprintf(t.Format, args...)
}
