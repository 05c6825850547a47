package engine

import (
	"fmt"
	"hash/fnv"
	"math"
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
// settings that shape a compiled plan. A shape holds
//
//   - guarded templates: plans compiled from one literal vector in which
//     every literal-derived constant knows its origin (slot, or slot +
//     offset), each with the guards — literal against literal or catalog
//     bound, and the sign the comparison came out with — its rules decided
//     on. A later statement of the shape whose literals every guard of a
//     template admits skips parse, build, rewrite and optimize and runs a
//     rebind of it; one outside all of them is compiled, and may become one
//     more template; and
//   - literal-bound variants: plans some cost-based or textual decision
//     tied to the literal values they were compiled from, cached per
//     (shape, literal vector) exactly as a text-keyed cache would.
//
// Templates and variants together are capped at maxVariants per shape with
// least-recently-used eviction.
//
// Texts the fingerprint refuses share one shape ("") and are variants keyed
// by the whole text. The §4.1 lifecycle — catalog/hard versions, lazy
// invalidation, backup-plan failover — applies per plan, template or
// variant alike.

// maxVariants caps the plans — templates and literal-bound variants — one
// shape may hold.
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
	vals   []types.Datum // lits' values, once values has been called
}

// printOf fingerprints a SELECT text under the statement's settings.
func printOf(text string, st Settings) stmtPrint {
	fp := stmtPrint{key: shapeKey{noPrune: st.NoPrune}}
	if fp.key.shape, fp.lits, fp.shaped = sql.Fingerprint(text); !fp.shaped {
		fp.whole = text
	}
	return fp
}

// values returns the literal vector a template is rebound with. The slice
// is shared: callers must not modify it.
func (fp *stmtPrint) values() []types.Datum {
	if fp.vals == nil {
		fp.vals = make([]types.Datum, len(fp.lits))
		for i, l := range fp.lits {
			fp.vals[i] = l.Value
		}
	}
	return fp.vals
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
	// templates serve by rebind every literal vector their guards admit,
	// the first admitting one a statement.
	templates []*variant
	// variants are the literal-bound plans by variantKey.
	variants map[string]*variant
	// clock orders template and variant uses for eviction.
	clock uint64
}

// variant is one cached plan of a shape, template or literal-bound.
type variant struct {
	plan *cachedPlan
	used uint64
	// vals is the literal vector a literal-bound plan was compiled from
	// (nil for a template, or a text the fingerprint refused).
	vals []types.Datum
}

// held counts the shape's plans.
func (se *shapeEntry) held() int { return len(se.templates) + len(se.variants) }

// serving is the §4.1 version rule: the plan p serves under the current
// catalog is p itself, or its backup once only soft characterizations
// moved; nil when it is dead. It only looks — current applies the choice
// and counts it — so lookup can check the guards of the plan it would
// serve (a backup carries its own) before committing to it.
func (db *Database) serving(p *cachedPlan) *cachedPlan {
	switch {
	case p.catVersion == db.cat.Version():
		return p
	case p.hardVersion == db.cat.HardVersion() && p.backup != nil:
		return p.backup
	}
	return nil
}

type planCache struct {
	shapes map[shapeKey]*shapeEntry
	// plans counts the executable plans held: templates plus variants.
	plans int
}

// reverted marks a plan that took over from the one soft rules shaped
// (§4.1); it heads the backup's events, so its trace shows the reversion.
var reverted = obs.Event{Rule: "backup-plan", Applied: true, Shaped: true,
	Detail: "reverted after soft-constraint change (§4.1)"}

// current applies the §4.1 lifecycle to one cached plan under cacheMu and
// counts the outcome: a plan compiled at the current catalog version is a
// hit and served as is; when only soft characterizations changed (the hard
// version is intact) and a backup plan was compiled, the backup takes over
// instead of a recompile (a failover); otherwise the plan is dead, counted
// as invalidated, and nil is returned. hit tells the first outcome apart.
func (db *Database) current(p *cachedPlan) (plan *cachedPlan, hit bool) {
	switch bk := db.serving(p); {
	case bk == p:
		db.cacheStat.Hits++
		db.obs.cacheHits.Inc()
		return p, true
	case bk != nil:
		bk.catVersion = db.cat.Version()
		bk.hardVersion = db.cat.HardVersion()
		bk.events = append([]obs.Event{reverted}, bk.events...)
		bk.trace = obs.TraceOf(bk.events)
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

// cacheLookup resolves a statement to a runnable plan: the first of its
// shape's templates whose guards admit the statement's literals (the
// caller rebinds it to them) or the literal-bound variant compiled for
// exactly these literals. Either is a hit; a failover to a backup plan is
// counted as such instead. A template's one failover serves every later
// literal vector its backup's guards admit — an ASC overturn costs one
// reversion per template, not one per text. Dead templates are dropped on
// the way.
func (db *Database) cacheLookup(fp *stmtPrint) (plan *cachedPlan, template bool) {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	se := db.cache.shapes[fp.key]
	if se != nil && len(se.templates) > 0 && fp.shaped {
		vals := fp.values()
		for i := 0; i < len(se.templates); {
			t := se.templates[i]
			if s := db.serving(t.plan); s != nil && !expr.GuardsHold(s.guards, vals) {
				i++
				continue
			}
			p, hit := db.current(t.plan)
			if p == nil {
				se.templates = slices.Delete(se.templates, i, i+1)
				continue
			}
			t.plan = p
			se.clock++
			t.used = se.clock
			if hit {
				db.cacheStat.TemplateHits++
				db.obs.templateHits.Inc()
			}
			return p, true
		}
		if len(se.templates) > 0 {
			db.cacheStat.GuardMisses++
			db.obs.guardMisses.Inc()
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
// a template when no decision tied it to the literals it was compiled from
// (literalBound empty) — in place of a template admitting the same
// literals (one that went stale, or a concurrent compile's), and retiring
// the variants it admits — otherwise as the variant for exactly those
// literals, unless a template already admits them. At the cap the
// shape's least recently used plan is evicted.
func (db *Database) cacheStore(fp *stmtPrint, p *cachedPlan) {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	se := db.cache.shapes[fp.key]
	if se == nil {
		se = &shapeEntry{}
		db.cache.shapes[fp.key] = se
	}
	se.clock++
	if p.literalBound == "" {
		vals := fp.values()
		for vk, v := range se.variants {
			if v.vals != nil && expr.GuardsHold(p.guards, v.vals) {
				delete(se.variants, vk)
				db.cache.plans--
			}
		}
		i := slices.IndexFunc(se.templates, func(t *variant) bool { return expr.GuardsHold(t.plan.guards, vals) })
		if i >= 0 {
			se.templates[i] = &variant{plan: p, used: se.clock}
		} else {
			db.makeRoom(se)
			se.templates = append(se.templates, &variant{plan: p, used: se.clock})
			db.cache.plans++
		}
	} else {
		db.cacheStat.LiteralBound++
		db.obs.metrics.Counter(mCacheLitBound, "reason", p.literalBound).Inc()
		if fp.shaped && slices.ContainsFunc(se.templates, func(t *variant) bool {
			s := db.serving(t.plan)
			return s != nil && expr.GuardsHold(s.guards, fp.values())
		}) {
			// A template filed while this plan compiled serves its
			// literals; it would have retired the variant had it come
			// second.
			return
		}
		if se.variants == nil {
			se.variants = map[string]*variant{}
		}
		vk := fp.variantKey()
		if se.variants[vk] == nil {
			db.makeRoom(se)
			db.cache.plans++
		}
		v := &variant{plan: p, used: se.clock}
		if fp.shaped {
			v.vals = fp.values()
		}
		se.variants[vk] = v
	}
	db.obs.cacheEntries.Set(int64(db.cache.plans))
}

// makeRoom evicts the shape's least recently used plan, template or
// variant, when it holds maxVariants.
func (db *Database) makeRoom(se *shapeEntry) {
	if se.held() < maxVariants {
		return
	}
	victim, oldest, ti := "", ^uint64(0), -1
	for i, t := range se.templates {
		if t.used < oldest {
			oldest, ti = t.used, i
		}
	}
	for k, v := range se.variants {
		if v.used < oldest {
			victim, oldest, ti = k, v.used, -1
		}
	}
	if ti >= 0 {
		se.templates = slices.Delete(se.templates, ti, ti+1)
	} else {
		delete(se.variants, victim)
	}
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
	if fp.shaped {
		for _, t := range se.templates {
			if t.plan.catVersion == db.cat.Version() && expr.GuardsHold(t.plan.guards, fp.values()) {
				return "hit"
			}
		}
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
	return fmt.Sprintf("(template, %s, %s)", plural(p.slots, "slot"), plural(len(p.guards), "guard"))
}

func plural(n int, unit string) string {
	if n == 1 {
		return "1 " + unit
	}
	return strconv.Itoa(n) + " " + unit + "s"
}

// CachedPlanCount reports the executable plans the cache holds: templates
// plus literal-bound variants.
func (db *Database) CachedPlanCount() int {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	return db.cache.plans
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
// literals are fp's — may serve every literal vector its guards admit. No
// rule may have tied it to its literals, and the claim is then checked
// once: the statement is planned again from scratch with every literal
// nudged to another value of its kind inside the guards' region, and that
// plan must record the same guards, while rebinding p to those literals
// must reproduce its plan text and event list exactly (the trace is
// rendered from the events). A constant that silently kept the first
// statement's literal, or a decision that happened to flip, shows up as a
// difference, and the plan stays bound to its literals — as does a plan no
// nudge keeps inside its region (a literal pinned to a bound). The extra
// planning pass runs once per template, not per statement.
func (db *Database) templateHolds(sel *sql.Select, p *cachedPlan, fp *stmtPrint, st Settings, po planOpts) bool {
	if p.literalBound != "" {
		return false
	}
	if p.slots == 0 {
		return true
	}
	other, ok := nudge(fp.values(), p.guards)
	if !ok {
		return false
	}
	fresh, err := db.planSelect(sql.BindLiterals(sel, other), st, po)
	if err != nil || fresh.literalBound != "" || !slices.EqualFunc(p.guards, fresh.guards, expr.Guard.Same) {
		return false
	}
	rebound, ok := p.bind(other)
	return ok && rebound.planText == fresh.planText && slices.EqualFunc(rebound.events, fresh.events, func(a, b obs.Event) bool {
		return a.Shaped == b.Shaped && a.String() == b.String()
	})
}

// maxNudged bounds the literals nudge searches both directions for: 2^6
// vectors per step size at most.
const maxNudged = 6

// floatSteps are the distances nudge tries moving FLOAT literals by,
// largest first; 0 stands for the neighbouring float.
var floatSteps = [...]float64{1, 0x1p-4, 0x1p-12, 0x1p-24, 0}

// nudge returns a literal vector next to vals that every guard admits and
// in which each literal holds another value, unless a guard pins it — an
// equality with a constant read through the literal itself, so that every
// vector the guards admit holds the same value there. INT and DATE
// literals move by ±1, strings gain "~" or lose their last byte, and
// FLOAT literals move by ±s for the first step s of floatSteps that keeps
// the vector inside: a FLOAT region narrower than 2 is still an interval,
// not a point. The directions of the literals the guards read are
// searched together (a = b moves both ways at once). ok is false when no
// literal can move, or one that must cannot: the region is a single point,
// or too narrow for the steps.
func nudge(vals []types.Datum, guards []expr.Guard) (other []types.Datum, ok bool) {
	pinned := make([]bool, len(vals))
	for _, g := range guards {
		for _, s := range [2][2]expr.Side{{g.X, g.Y}, {g.Y, g.X}} {
			lit, con := s[0], s[1]
			if g.Sign == 0 && lit.From.Slot > 0 && lit.From == (expr.Origin{Slot: lit.From.Slot}) &&
				con.From.Slot == 0 && vals[lit.From.Slot-1].Kind() == lit.Value.Kind() {
				pinned[lit.From.Slot-1] = true
			}
		}
	}
	var read []int // positions of the unpinned literals some guard reads
	for _, g := range guards {
		for _, s := range [2]expr.Side{g.X, g.Y} {
			if i := s.From.Slot - 1; i >= 0 && !pinned[i] && !slices.Contains(read, i) && len(read) < maxNudged {
				read = append(read, i)
			}
		}
	}
	if !slices.Contains(pinned, false) {
		return nil, false
	}
	floats := slices.ContainsFunc(vals, func(v types.Datum) bool { return v.Kind() == types.KindFloat })
	other = make([]types.Datum, len(vals))
	for _, s := range floatSteps {
		// Bit j of n sends read[j] down; the other literals move up, or
		// down where up does not move them.
		for n := 0; n < 1<<len(read); n++ {
			inside := true
			for i, v := range vals {
				if pinned[i] {
					other[i] = v
					continue
				}
				var moved bool
				if j := slices.Index(read, i); j >= 0 {
					other[i], moved = step(v, n>>j&1 == 1, s)
				} else if other[i], moved = step(v, false, s); !moved {
					other[i], moved = step(v, true, s)
				}
				inside = inside && moved
			}
			if inside && expr.GuardsHold(guards, other) {
				return other, true
			}
		}
		if !floats {
			break
		}
	}
	return nil, false
}

// step moves a literal one step of its kind up or down (s: a FLOAT's
// distance, 0 the neighbouring float); moved is false when the value
// stays, or an INT would wrap.
func step(v types.Datum, down bool, s float64) (w types.Datum, moved bool) {
	d := int64(1)
	if down {
		d = -1
	}
	switch v.Kind() {
	case types.KindInt:
		if n := v.Int(); (n+d > n) == !down {
			return types.NewInt(n + d), true
		}
		return v, false
	case types.KindDate:
		return types.NewDate(v.IntImage() + d), true
	case types.KindFloat:
		f := v.Float()
		switch {
		case s == 0:
			f = math.Nextafter(f, math.Inf(int(d)))
		case down:
			f -= s
		default:
			f += s
		}
		w = types.NewFloat(f)
		return w, w.Compare(v) != 0
	case types.KindString:
		str := v.Str()
		if !down {
			return types.NewString(str + "~"), true
		}
		return types.NewString(str[:max(len(str)-1, 0)]), str != ""
	}
	return v, false
}

// bind instantiates a template for the literal vector vals: the operator
// tree is rebound, and the plan text and the event details that embed
// literal-derived values are rendered again, the trace from those events,
// so everything the statement reports shows its own literals. The template
// is not modified. ok is false when the plan holds an operator exec.Rebind
// does not know.
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
	if p.eventTexts {
		b.events = append([]obs.Event(nil), p.events...)
		for i := range b.events {
			if t := b.events[i].DetailText; t != nil {
				b.events[i].Detail = renderText(*t, vals)
			}
		}
		b.trace = obs.TraceOf(b.events)
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
