package obs

import (
	"sort"
	"sync"
	"time"
)

// Metric family names for the constraint-economy ledger. Benefit counters
// credit a constraint with work the engine did not have to do because the
// constraint existed; cost counters charge it with the maintenance work it
// caused. All per-constraint series carry a constraint="name" label.
// Fractional quantities (optimizer cost units, q-error) are exported in
// milli-units so they stay integer counters.
const (
	MetricBenefitPagesSkipped = "softdb_constraint_benefit_pages_skipped_total"
	MetricBenefitShardsPruned = "softdb_constraint_benefit_shards_pruned_total"
	MetricBenefitRowsShort    = "softdb_constraint_benefit_rows_short_circuited_total"
	MetricBenefitRewriteRows  = "softdb_constraint_benefit_rewrite_rows_total"
	MetricBenefitCostDelta    = "softdb_constraint_benefit_cost_delta_milli_total"
	MetricBenefitQErrSum      = "softdb_constraint_benefit_qerror_sum_milli_total"
	MetricBenefitQErrNodes    = "softdb_constraint_benefit_qerror_nodes_total"
	MetricCostMaintenance     = "softdb_constraint_cost_maintenance_nanos_total"
	MetricCostRefresh         = "softdb_constraint_cost_refresh_nanos_total"
	MetricCostWALRecords      = "softdb_constraint_cost_wal_records_total"
	MetricCostExceptionBytes  = "softdb_constraint_cost_exception_bytes"
	MetricQErrBlindSum        = "softdb_qerror_blind_sum_milli_total"
	MetricQErrBlindNodes      = "softdb_qerror_blind_nodes_total"
)

// ledgerEntry holds one constraint's resolved metric pointers. Holding the
// pointers (rather than re-resolving by name) makes every credit a single
// atomic add, and makes the Prometheus series, the JSON endpoint, and SHOW
// CONSTRAINTS ECONOMY agree by construction — they all read the same
// counters.
type ledgerEntry struct {
	pagesSkipped *Counter
	shardsPruned *Counter
	rowsShort    *Counter
	rewriteRows  *Counter
	costDelta    *Counter // milli optimizer-cost units
	qerrSum      *Counter // milli q-error, summed over informed plan nodes
	qerrNodes    *Counter
	maintNanos   *Counter
	refreshNanos *Counter
	walRecords   *Counter
	excBytes     *Gauge
}

// Economy is the per-constraint benefit/cost ledger. All methods are
// nil-receiver safe and safe for concurrent use: the entry map is guarded
// by a mutex taken only on first sight of a constraint name; steady-state
// credits are lock-free atomic adds on resolved counters.
type Economy struct {
	reg *Registry

	mu      sync.RWMutex
	entries map[string]*ledgerEntry

	// Blind aggregate: q-error over plan nodes no constraint informed, the
	// baseline the per-constraint informed q-error is compared against.
	blindSum   *Counter
	blindNodes *Counter
}

// NewEconomy returns a ledger exporting into reg. A nil registry yields a
// ledger whose credits vanish (every resolved metric is nil).
func NewEconomy(reg *Registry) *Economy {
	reg.Describe(MetricBenefitPagesSkipped, "counter", "heap pages skipped by prune predicates attributed to this constraint")
	reg.Describe(MetricBenefitShardsPruned, "counter", "whole shards the router pruned from fan-out because this constraint proved them empty for the predicate")
	reg.Describe(MetricBenefitRowsShort, "counter", "rows whose per-row filter evaluation a page-level synopsis proof short-circuited, attributed to this constraint")
	reg.Describe(MetricBenefitRewriteRows, "counter", "rows eliminated at plan time by rewrites this constraint drove")
	reg.Describe(MetricBenefitCostDelta, "counter", "estimated plan-cost increase (milli cost units) had this constraint been masked")
	reg.Describe(MetricBenefitQErrSum, "counter", "summed q-error (milli) of plan nodes whose estimate this constraint informed")
	reg.Describe(MetricBenefitQErrNodes, "counter", "plan nodes whose estimate this constraint informed")
	reg.Describe(MetricCostMaintenance, "counter", "wall time (nanos) spent checking this constraint in DML write hooks")
	reg.Describe(MetricCostRefresh, "counter", "wall time (nanos) spent refreshing/revalidating this constraint, retries included")
	reg.Describe(MetricCostWALRecords, "counter", "WAL registry-maintenance records attributed to this constraint")
	reg.Describe(MetricCostExceptionBytes, "gauge", "bytes held by this constraint's exception AST")
	reg.Describe(MetricQErrBlindSum, "counter", "summed q-error (milli) of plan nodes no constraint informed")
	reg.Describe(MetricQErrBlindNodes, "counter", "plan nodes no constraint informed")
	return &Economy{
		reg:        reg,
		entries:    map[string]*ledgerEntry{},
		blindSum:   reg.Counter(MetricQErrBlindSum),
		blindNodes: reg.Counter(MetricQErrBlindNodes),
	}
}

// entry resolves (creating on first use) the named constraint's ledger.
func (e *Economy) entry(name string) *ledgerEntry {
	e.mu.RLock()
	le, ok := e.entries[name]
	e.mu.RUnlock()
	if ok {
		return le
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if le, ok = e.entries[name]; ok {
		return le
	}
	le = &ledgerEntry{
		pagesSkipped: e.reg.Counter(MetricBenefitPagesSkipped, "constraint", name),
		shardsPruned: e.reg.Counter(MetricBenefitShardsPruned, "constraint", name),
		rowsShort:    e.reg.Counter(MetricBenefitRowsShort, "constraint", name),
		rewriteRows:  e.reg.Counter(MetricBenefitRewriteRows, "constraint", name),
		costDelta:    e.reg.Counter(MetricBenefitCostDelta, "constraint", name),
		qerrSum:      e.reg.Counter(MetricBenefitQErrSum, "constraint", name),
		qerrNodes:    e.reg.Counter(MetricBenefitQErrNodes, "constraint", name),
		maintNanos:   e.reg.Counter(MetricCostMaintenance, "constraint", name),
		refreshNanos: e.reg.Counter(MetricCostRefresh, "constraint", name),
		walRecords:   e.reg.Counter(MetricCostWALRecords, "constraint", name),
		excBytes:     e.reg.Gauge(MetricCostExceptionBytes, "constraint", name),
	}
	e.entries[name] = le
	return le
}

// CreditPagesSkipped credits n heap pages a prune predicate sourced from
// the named constraint proved skippable.
func (e *Economy) CreditPagesSkipped(name string, n int64) {
	if e == nil || name == "" || n <= 0 {
		return
	}
	e.entry(name).pagesSkipped.Add(n)
}

// CreditShardsPruned credits n whole shards the router excluded from a
// query's fan-out because the named constraint (a shard-local value range
// or proven hole in the router's registry) proved the predicate cannot
// match there — the shard-granularity analog of CreditPagesSkipped.
func (e *Economy) CreditShardsPruned(name string, n int64) {
	if e == nil || name == "" || n <= 0 {
		return
	}
	e.entry(name).shardsPruned.Add(n)
}

// CreditRowsShortCircuited credits n rows whose per-row predicate
// evaluation the vectorized scan skipped because the page synopsis proved
// every row qualifies under the named constraint's prune predicate.
func (e *Economy) CreditRowsShortCircuited(name string, n int64) {
	if e == nil || name == "" || n <= 0 {
		return
	}
	e.entry(name).rowsShort.Add(n)
}

// CreditRewriteRows credits rows a rewrite driven by the named constraint
// eliminated, as estimated at plan time.
func (e *Economy) CreditRewriteRows(name string, rows float64) {
	if e == nil || name == "" || rows <= 0 {
		return
	}
	e.entry(name).rewriteRows.Add(int64(rows + 0.5))
}

// CreditCostDelta credits the estimated-cost increase the optimizer would
// have paid had the named constraint been masked during planning.
func (e *Economy) CreditCostDelta(name string, delta float64) {
	if e == nil || name == "" || delta <= 0 {
		return
	}
	e.entry(name).costDelta.Add(int64(delta*1000 + 0.5))
}

// ObserveQError records one plan node's q-error (max(est,actual)/min,
// both floored at one). An empty name records into the blind aggregate —
// nodes no constraint informed — which Snapshot exposes as the baseline.
func (e *Economy) ObserveQError(name string, q float64) {
	if e == nil || q < 1 {
		return
	}
	milli := int64(q*1000 + 0.5)
	if name == "" {
		e.blindSum.Add(milli)
		e.blindNodes.Inc()
		return
	}
	le := e.entry(name)
	le.qerrSum.Add(milli)
	le.qerrNodes.Inc()
}

// AddMaintenance charges DML write-hook wall time to the named constraint.
// The counter accumulates nanoseconds: write-hook segments are often
// sub-microsecond, and a coarser unit would truncate most of them to zero.
func (e *Economy) AddMaintenance(name string, d time.Duration) {
	if e == nil || name == "" || d <= 0 {
		return
	}
	e.entry(name).maintNanos.Add(d.Nanoseconds())
}

// AddRefresh charges revalidation/refresh wall time (retry backoff
// included) to the named constraint.
func (e *Economy) AddRefresh(name string, d time.Duration) {
	if e == nil || name == "" || d <= 0 {
		return
	}
	e.entry(name).refreshNanos.Add(d.Nanoseconds())
}

// AddWALRecords charges registry-maintenance WAL records to the named
// constraint.
func (e *Economy) AddWALRecords(name string, n int64) {
	if e == nil || name == "" || n <= 0 {
		return
	}
	e.entry(name).walRecords.Add(n)
}

// SetExceptionBytes records the current size of the named constraint's
// exception AST.
func (e *Economy) SetExceptionBytes(name string, bytes int64) {
	if e == nil || name == "" {
		return
	}
	e.entry(name).excBytes.Set(bytes)
}

// EconomyRow is one constraint's ledger snapshot. The engine decorates it
// with catalog facts (kind, mode, active) and computes the net-benefit
// ranking; the raw counters here are exactly the Prometheus series.
type EconomyRow struct {
	Name           string  `json:"name"`
	Kind           string  `json:"kind,omitempty"`
	Mode           string  `json:"mode,omitempty"`
	Active         bool    `json:"active"`
	PagesSkipped   int64   `json:"pages_skipped"`
	ShardsPruned   int64   `json:"shards_pruned"`
	RowsShort      int64   `json:"rows_short_circuited"`
	RewriteRows    int64   `json:"rewrite_rows"`
	CostDeltaMilli int64   `json:"cost_delta_milli"`
	QErrSumMilli   int64   `json:"qerror_sum_milli"`
	QErrNodes      int64   `json:"qerror_nodes"`
	QErrDelta      float64 `json:"qerror_delta"`
	MaintNanos     int64   `json:"maintenance_nanos"`
	RefreshNanos   int64   `json:"refresh_nanos"`
	WALRecords     int64   `json:"wal_records"`
	ExceptionBytes int64   `json:"exception_bytes"`
	NetBenefitUs   float64 `json:"net_benefit_us"`
}

// MeanQError returns the row's mean informed q-error (0 when no nodes).
func (r *EconomyRow) MeanQError() float64 {
	if r.QErrNodes == 0 {
		return 0
	}
	return float64(r.QErrSumMilli) / 1000 / float64(r.QErrNodes)
}

// Snapshot returns every constraint's ledger, sorted by name. Rows carry
// only what the ledger itself knows; catalog decoration and ranking happen
// in the engine.
func (e *Economy) Snapshot() []EconomyRow {
	if e == nil {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]EconomyRow, 0, len(e.entries))
	for name, le := range e.entries {
		out = append(out, EconomyRow{
			Name:           name,
			PagesSkipped:   le.pagesSkipped.Value(),
			ShardsPruned:   le.shardsPruned.Value(),
			RowsShort:      le.rowsShort.Value(),
			RewriteRows:    le.rewriteRows.Value(),
			CostDeltaMilli: le.costDelta.Value(),
			QErrSumMilli:   le.qerrSum.Value(),
			QErrNodes:      le.qerrNodes.Value(),
			MaintNanos:     le.maintNanos.Value(),
			RefreshNanos:   le.refreshNanos.Value(),
			WALRecords:     le.walRecords.Value(),
			ExceptionBytes: le.excBytes.Value(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BlindQError returns the blind aggregate: summed milli q-error and node
// count over plan nodes no constraint informed.
func (e *Economy) BlindQError() (sumMilli, nodes int64) {
	if e == nil {
		return 0, 0
	}
	return e.blindSum.Value(), e.blindNodes.Value()
}
