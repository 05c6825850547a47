package engine

import (
	"fmt"
	"sort"
	"strings"

	"softdb/internal/exec"
	"softdb/internal/obs"
	"softdb/internal/sql"
	"softdb/internal/storage"
	"softdb/internal/types"
)

// costUnitMicros calibrates one optimizer cost unit (≈ one page read of
// sequential I/O in the cost model) to wall time for the net-benefit
// figure. The ledger's raw counters are unit-faithful; only the single
// ranking number folds them together, and DESIGN.md §15 documents the
// exchange rates chosen here.
const costUnitMicros = 100.0

// rewriteRowCostUnits prices one row a rewrite eliminated at plan time in
// optimizer cost units (the cost model's per-row CPU weight).
const rewriteRowCostUnits = 0.01

// shortRowCostUnits prices one row whose per-row filter evaluation a
// page-level synopsis proof short-circuited. Cheaper than a rewrite row —
// the row was still read and emitted, only its predicate walk was saved —
// so it carries half the per-row CPU weight.
const shortRowCostUnits = 0.005

// walRecordMicros prices one registry-maintenance WAL record: an
// encode-plus-buffered-append, not an fsync.
const walRecordMicros = 10.0

// shardPruneCostUnits prices one whole shard the router excluded from a
// fan-out: a saved network round trip plus a remote scan, far heavier than
// one skipped page. The router credits these into its own ledger; a plain
// engine never accrues them.
const shardPruneCostUnits = 50.0

// maxShadowPlans bounds how many masked re-optimizations one planning pass
// performs: shadow costing is linear in the number of distinct constraints
// consulted, and a pathological query touching dozens should not stall
// compilation.
const maxShadowPlans = 8

// shadowCostDeltas measures, per constraint consulted while planning,
// what the chosen plan's estimated cost would have been had that
// constraint not existed: rebuild the logical plan, rewrite and optimize
// with the constraint masked, and take the cost difference. The executed
// plan is never touched — this runs against throwaway plan copies — and
// positive deltas are credited to the ledger. Runs only on cache misses
// (plan time), so cached re-executions pay nothing.
func (db *Database) shadowCostDeltas(sel *sql.Select, chosenCost float64, events []obs.Event, st Settings) map[string]float64 {
	var names []string
	seen := map[string]bool{}
	for _, e := range events {
		if !e.Applied || e.Constraint == "" {
			continue
		}
		key := strings.ToLower(e.Constraint)
		if seen[key] {
			continue
		}
		seen[key] = true
		names = append(names, e.Constraint)
		if len(names) >= maxShadowPlans {
			break
		}
	}
	if len(names) == 0 {
		return nil
	}
	out := make(map[string]float64, len(names))
	for _, name := range names {
		po := db.primaryPlan(st)
		po.masked = name
		res, err := db.planSelect(sel, st, po)
		if err != nil {
			continue
		}
		delta := res.estCost - chosenCost
		if delta < 0 {
			delta = 0
		}
		out[name] = delta
		db.obs.econ.CreditCostDelta(name, delta)
	}
	return out
}

// creditEconomy flushes one finished execution into the ledger: pages the
// scan pruning skipped and rows the batched scan short-circuited, each
// attributed to the constraint that planted the winning prune predicate,
// and per-node q-error split by whether a constraint informed the node's
// estimate. Errors still flush the skip and short-circuit counts (that
// work really was avoided) but not q-error — a plan that died mid-run has
// no meaningful actual cardinality.
func (db *Database) creditEconomy(entry *cachedPlan, span *obs.SpanNode, skips, shorts *exec.SkipRecorder, actualRows int64, err error) {
	if db.NoEconomy {
		return
	}
	econ := db.obs.econ
	if skips != nil {
		for source, n := range skips.Counts() {
			if source != "filter" {
				econ.CreditPagesSkipped(source, n)
			}
		}
	}
	if shorts != nil {
		for source, n := range shorts.Counts() {
			if source != "filter" {
				econ.CreditRowsShortCircuited(source, n)
			}
		}
	}
	if err != nil {
		return
	}
	if span != nil {
		creditSpanQError(econ, span)
		return
	}
	// No span tree (tracing off): fall back to a query-level q-error,
	// attributed to the constraints the planner consulted, blind otherwise.
	q := qerror(entry.estRows, float64(actualRows))
	names := appliedConstraintNames(entry.events)
	if len(names) == 0 {
		econ.ObserveQError("", q)
		return
	}
	for _, name := range names {
		econ.ObserveQError(name, q)
	}
}

// creditSpanQError walks an instrumented span tree crediting each node's
// q-error: nodes a constraint informed count toward that constraint, the
// rest accumulate in the blind baseline.
func creditSpanQError(econ *obs.Economy, n *obs.SpanNode) {
	if n.HasEst {
		q := qerror(n.EstRows, float64(n.Rows.Load()))
		if len(n.Informed) == 0 {
			econ.ObserveQError("", q)
		} else {
			for _, name := range n.Informed {
				econ.ObserveQError(name, q)
			}
		}
	}
	for _, c := range n.Children {
		creditSpanQError(econ, c)
	}
}

// qerror is the symmetric estimation-error factor max(est,actual) /
// min(est,actual), both floored at one row so empty results don't divide
// by zero and sub-row estimates don't explode the ratio.
func qerror(est, actual float64) float64 {
	if est < 1 {
		est = 1
	}
	if actual < 1 {
		actual = 1
	}
	if est > actual {
		return est / actual
	}
	return actual / est
}

// appliedConstraintNames collects the distinct constraint names of applied
// plan-time events, in first-seen order.
func appliedConstraintNames(events []obs.Event) []string {
	var names []string
	seen := map[string]bool{}
	for _, e := range events {
		if !e.Applied || e.Constraint == "" {
			continue
		}
		key := strings.ToLower(e.Constraint)
		if seen[key] {
			continue
		}
		seen[key] = true
		names = append(names, e.Constraint)
	}
	return names
}

// economyLines renders the per-constraint benefit annotations EXPLAIN
// ANALYZE appends after the event list: the shadow-costing deltas computed
// when this plan was compiled, the pages this execution's scans skipped,
// and the rows whose filter evaluation a synopsis proof short-circuited,
// per attributed constraint.
func economyLines(entry *cachedPlan, skips, shorts *exec.SkipRecorder) []string {
	var out []string
	for _, name := range econKeys(entry.shadowDeltas) {
		out = append(out, fmt.Sprintf("economy: constraint %s: masked-plan cost +%.1f", name, entry.shadowDeltas[name]))
	}
	if skips != nil {
		counts := skips.Counts()
		for _, source := range econKeys(counts) {
			if source == "filter" {
				continue
			}
			out = append(out, fmt.Sprintf("economy: constraint %s: pages skipped %d", source, counts[source]))
		}
	}
	if shorts != nil {
		counts := shorts.Counts()
		for _, source := range econKeys(counts) {
			if source == "filter" {
				continue
			}
			out = append(out, fmt.Sprintf("economy: constraint %s: rows short-circuited %d", source, counts[source]))
		}
	}
	return out
}

func econKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ConstraintEconomy returns the decorated, net-benefit-ranked ledger: the
// raw obs counters joined with catalog facts (kind, mode, active, current
// exception-AST size) plus the derived q-error delta and net-benefit
// figures. It backs SHOW CONSTRAINTS ECONOMY, /debug/constraints and the
// REPL's \constraints — one code path, so the three surfaces agree.
func (db *Database) ConstraintEconomy() []obs.EconomyRow {
	db.rlock()
	defer db.mu.RUnlock()
	return db.constraintEconomyLocked()
}

func (db *Database) constraintEconomyLocked() []obs.EconomyRow {
	rows := db.obs.econ.Snapshot()
	blindSum, blindNodes := db.obs.econ.BlindQError()
	var blindMean float64
	if blindNodes > 0 {
		blindMean = float64(blindSum) / 1000 / float64(blindNodes)
	}
	for i := range rows {
		r := &rows[i]
		r.Kind, r.Mode, r.Active = db.describeCharacterization(r.Name)
		if st, ok := db.cat.ExceptionFor(r.Name); ok && st.Heap != nil {
			b := st.Heap.PageCount() * storage.PageSize
			db.obs.econ.SetExceptionBytes(r.Name, b)
			r.ExceptionBytes = b
		}
		if r.QErrNodes > 0 && blindNodes > 0 {
			// Positive delta: estimates this constraint informed were
			// better (lower q-error) than the blind baseline.
			r.QErrDelta = blindMean - r.MeanQError()
		}
		r.NetBenefitUs = netBenefitMicros(r)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].NetBenefitUs != rows[j].NetBenefitUs {
			return rows[i].NetBenefitUs > rows[j].NetBenefitUs
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// netBenefitMicros folds a ledger row into one ranking figure in
// microseconds: pages skipped and masked-plan cost deltas convert at
// costUnitMicros, plan-time rows saved at rewriteRowCostUnits, against the
// measured maintenance and refresh wall time plus priced WAL records.
// Exception-AST bytes are reported but deliberately excluded — they are a
// storage cost, not time, and folding bytes into microseconds would let an
// arbitrary exchange rate dominate the ranking.
func netBenefitMicros(r *obs.EconomyRow) float64 {
	benefit := costUnitMicros * (float64(r.PagesSkipped) +
		shardPruneCostUnits*float64(r.ShardsPruned) +
		rewriteRowCostUnits*float64(r.RewriteRows) +
		shortRowCostUnits*float64(r.RowsShort) +
		float64(r.CostDeltaMilli)/1000)
	cost := float64(r.MaintNanos)/1000 + float64(r.RefreshNanos)/1000 + walRecordMicros*float64(r.WALRecords)
	return benefit - cost
}

// describeCharacterization resolves a ledger name against every catalog
// namespace that can originate economy credits.
func (db *Database) describeCharacterization(name string) (kind, mode string, active bool) {
	if con := db.cat.ConstraintByName(name); con != nil {
		return con.Kind.String(), con.Mode.String(), con.Active
	}
	if lc, ok := db.cat.CorrelationByName(name); ok {
		mode := "SOFT ABSOLUTE"
		if lc.Probation {
			mode = "PROBATION"
		}
		return "CORRELATION", mode, lc.Active
	}
	if jh, ok := db.cat.JoinHolesByName(name); ok {
		return "JOIN HOLES", "SOFT ABSOLUTE", jh.Active
	}
	if st, ok := db.cat.SummaryTable(name); ok {
		mode := "MATERIALIZED"
		if st.Informational {
			mode = "INFORMATIONAL"
		}
		return "SUMMARY TABLE", mode, true
	}
	return "UNKNOWN", "", false
}

// showConstraintsEconomy builds the SHOW CONSTRAINTS ECONOMY result set.
// Callers hold at least the shared lock.
func (db *Database) showConstraintsEconomy() *Result {
	rows := db.constraintEconomyLocked()
	res := &Result{Columns: []string{
		"constraint", "kind", "mode", "active",
		"pages_skipped", "shards_pruned", "rows_short_circuited", "rewrite_rows", "cost_delta", "qerr_delta",
		"maint_us", "refresh_us", "exc_bytes", "wal_records",
		"net_benefit_us",
	}}
	for _, r := range rows {
		res.Rows = append(res.Rows, types.Row{
			types.NewString(r.Name),
			types.NewString(r.Kind),
			types.NewString(r.Mode),
			types.NewBool(r.Active),
			types.NewInt(r.PagesSkipped),
			types.NewInt(r.ShardsPruned),
			types.NewInt(r.RowsShort),
			types.NewInt(r.RewriteRows),
			types.NewFloat(float64(r.CostDeltaMilli) / 1000),
			types.NewFloat(r.QErrDelta),
			types.NewInt(r.MaintNanos / 1000),
			types.NewInt(r.RefreshNanos / 1000),
			types.NewInt(r.ExceptionBytes),
			types.NewInt(r.WALRecords),
			types.NewFloat(r.NetBenefitUs),
		})
	}
	res.RowsAffected = int64(len(res.Rows))
	return res
}
