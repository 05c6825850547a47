package engine

import (
	"context"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"softdb/internal/exec"
	"softdb/internal/obs"
	"softdb/internal/softc"
)

// Metric family names the engine exports. Everything is prefixed softdb_ and
// follows Prometheus naming conventions (_total for counters, base units in
// the name for histograms).
const (
	mQueries       = "softdb_queries_total"
	mQueryErrors   = "softdb_query_errors_total"
	mSlowQueries   = "softdb_slow_queries_total"
	mQueryDuration = "softdb_query_duration_seconds"
	mCacheHits     = "softdb_plan_cache_hits_total"
	mCacheMisses   = "softdb_plan_cache_misses_total"
	mCacheInvals   = "softdb_plan_cache_invalidations_total"
	mCacheFailover = "softdb_plan_cache_failovers_total"
	mCacheEntries  = "softdb_plan_cache_entries"
	mCacheTemplate = "softdb_plan_cache_template_hits_total"
	mCacheGuard    = "softdb_plan_cache_guard_misses_total"
	mCacheLitBound = "softdb_plan_cache_literal_bound_total"
	mCacheEvicted  = "softdb_plan_cache_evictions_total"
	mRewriteFires  = "softdb_rewrite_fires_total"
	mASCViolations = "softdb_asc_violations_total"
	mCorrDrops     = "softdb_correlation_drops_total"
	mHolesRetired  = "softdb_holes_retired_total"
	mSSCRefreshes  = "softdb_ssc_refreshes_total"
	mPromotions    = "softdb_probation_promotions_total"
	mDiscoveryRuns = "softdb_discovery_runs_total"
	mPagesSkipped  = "softdb_scan_pages_skipped_total"
	mPagesFrozen   = "softdb_scan_pages_frozen_total"
	mPageThaws     = "softdb_storage_page_thaws_total"
	mPageBytes     = "softdb_storage_heap_page_bytes"
	mRowsShort     = "softdb_scan_rows_short_circuited_total"
	mPagePaths     = "softdb_index_scan_page_path_total"
	mPruneRejected = "softdb_prune_rejected_total"
	// Query-lifecycle terminal states and robustness counters.
	mQueriesCanceled   = "softdb_queries_canceled_total"
	mQueriesTimedOut   = "softdb_queries_timed_out_total"
	mMemBudgetRejected = "softdb_mem_budget_rejected_total"
	mWorkerPanics      = "softdb_worker_panics_recovered_total"
	mCheckEvals        = "softdb_constraint_check_evaluations_total"
	// Durability counters (durable databases only).
	mWALBytes         = "softdb_wal_bytes_total"
	mWALFsyncs        = "softdb_wal_fsyncs_total"
	mCheckpoints      = "softdb_checkpoints_total"
	mRecoveryReplayed = "softdb_recovery_records_replayed_total"
	// Durability telemetry: WAL activity and the recovery outcome of the
	// most recent OpenDurable.
	mWALFrames         = "softdb_wal_frames_total"
	mWALBatchSize      = "softdb_wal_group_commit_batch_size"
	mCheckpointSeconds = "softdb_checkpoint_duration_seconds"
	mRecoveryStmts     = "softdb_recovery_statements_replayed_total"
	mRecoveryWALBytes  = "softdb_recovery_wal_bytes"
	mRecoverySnapLSN   = "softdb_recovery_snapshot_lsn"
	mRecoveryRevalid   = "softdb_recovery_revalidated_total"
	mRecoveryInvalid   = "softdb_recovery_invalidated_total"
	mRecoveryTailTrunc = "softdb_recovery_tail_truncated_total"
	// Engine lock waits (see Database.lockWrite, rlock, lock).
	mLockWait = "softdb_engine_lock_wait_seconds"
)

// The lock-wait histograms, one per lock and mode, by index into
// obsState.lockWait.
const (
	waitShared    = iota // db.mu, shared
	waitExclusive        // db.mu, exclusive
	waitWrite            // writeMu
)

// lockWaitBuckets bound a contended acquisition's wait: from a handoff
// between two statements (microseconds) through a reader queued behind a
// commit's publish or a checkpoint (milliseconds and up).
var lockWaitBuckets = []float64{1e-6, 1e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.1, 1}

// walBatchBuckets are the group-commit batch-size histogram bounds: a batch
// is the records of one statement plus its commit terminator, so powers of
// two up to 128 cover single-row DML through large multi-row inserts.
var walBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// obsState bundles the database's observability surfaces. The hot-path
// metric pointers are resolved once at Open so per-query updates are single
// atomic adds with no registry lookups.
type obsState struct {
	metrics *obs.Registry
	qlog    *obs.QueryLog
	logger  atomic.Pointer[slog.Logger]
	tracing atomic.Bool
	slowNs  atomic.Int64

	queries      *obs.Counter
	queryErrors  *obs.Counter
	slowQueries  *obs.Counter
	duration     *obs.Histogram
	cacheEntries *obs.Gauge
	pagesSkipped *obs.Counter
	pagesFrozen  *obs.Counter
	pageThaws    *obs.Counter
	pageBytes    *obs.Gauge

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheInvals    *obs.Counter
	cacheFailovers *obs.Counter
	templateHits   *obs.Counter
	guardMisses    *obs.Counter
	cacheEvictions *obs.Counter
	rowsShort      *obs.Counter
	pagePaths      *obs.Counter

	queriesCanceled   *obs.Counter
	queriesTimedOut   *obs.Counter
	memBudgetRejected *obs.Counter
	workerPanics      *obs.Counter
	checkEvals        *obs.Counter

	// lockWait times contended acquisitions of db.mu and writeMu.
	lockWait [3]*obs.Histogram

	// econ is the per-constraint benefit/cost ledger (see economy.go). It
	// is always non-nil after initObs; the NoEconomy toggle gates the
	// crediting call sites instead, so disabling the ledger removes the
	// bookkeeping work, not just the numbers.
	econ *obs.Economy
}

func (db *Database) initObs() {
	o := &db.obs
	o.metrics = obs.NewRegistry()
	o.qlog = obs.NewQueryLog(128)

	r := o.metrics
	r.Describe(mQueries, "counter", "Queries executed.")
	r.Describe(mQueryErrors, "counter", "Queries that returned an error.")
	r.Describe(mSlowQueries, "counter", "Queries exceeding the slow-query threshold.")
	r.Describe(mQueryDuration, "histogram", "Query latency in seconds.")
	r.Describe(mCacheHits, "counter", "Plan-cache hits.")
	r.Describe(mCacheMisses, "counter", "Plan-cache misses.")
	r.Describe(mCacheInvals, "counter", "Plan-cache entries invalidated by catalog changes.")
	r.Describe(mCacheFailover, "counter", "Plan-cache reversions to the SQO-free backup plan (§4.1).")
	r.Describe(mCacheEntries, "gauge", "Live plan-cache entries: plan templates plus literal-bound variants.")
	r.Describe(mCacheTemplate, "counter", "Plan-cache hits served by rebinding a shape's plan template to the statement's literals.")
	r.Describe(mCacheGuard, "counter", "Statements whose shape held plan templates, none of whose guards admitted the statement's literals.")
	r.Describe(mCacheLitBound, "counter", "Plans compiled literal-bound (cached for their own literal vector only), by the deciding rule.")
	r.Describe(mCacheEvicted, "counter", "Plans (templates or literal-bound variants) evicted at the per-shape cap.")
	r.Describe(mRewriteFires, "counter", "Semantic rewrite rule firings by kind.")
	r.Describe(mASCViolations, "counter", "Absolute soft constraints deactivated by violating writes.")
	r.Describe(mCorrDrops, "counter", "Absolute linear correlations dropped by violating writes.")
	r.Describe(mHolesRetired, "counter", "Join holes retired by the §4.3 synchronous repair.")
	r.Describe(mSSCRefreshes, "counter", "Statistical soft-constraint confidence refreshes.")
	r.Describe(mPromotions, "counter", "Probationary correlations promoted to employed.")
	r.Describe(mDiscoveryRuns, "counter", "Soft-constraint discovery passes over a table.")
	r.Describe(mPagesSkipped, "counter", "Heap pages skipped by synopsis-based scan pruning.")
	r.Describe(mPagesFrozen, "counter", "Heap page reads served from frozen pages (no per-slot visibility check).")
	r.Describe(mPageThaws, "counter", "Frozen pages thawed because a writer was about to change a slot of the page.")
	r.Describe(mPageBytes, "gauge", "Bytes held by heap pages: typed column values, null masks and version stamps, over every table and summary table.")
	r.Describe(mRowsShort, "counter", "Rows whose per-row filter evaluation a page-level synopsis proof short-circuited.")
	r.Describe(mPagePaths, "counter", "Index scan executions that switched to the page path at run time.")
	r.Describe(mPruneRejected, "counter", "Prune-predicate introductions rejected, by reason.")
	r.Describe(mQueriesCanceled, "counter", "Queries terminated by context cancellation.")
	r.Describe(mQueriesTimedOut, "counter", "Queries terminated by deadline expiry.")
	r.Describe(mMemBudgetRejected, "counter", "Queries aborted for exceeding the per-query memory budget.")
	r.Describe(mWorkerPanics, "counter", "Operator panics recovered into query errors.")
	r.Describe(mCheckEvals, "counter", "Row tests of enforced CHECK constraints on the write path.")
	r.Describe(mWALBytes, "counter", "Bytes appended to the write-ahead log.")
	r.Describe(mWALFsyncs, "counter", "Fsyncs the write-ahead log performed.")
	r.Describe(mCheckpoints, "counter", "Checkpoint snapshots written.")
	r.Describe(mRecoveryReplayed, "counter", "Redo records applied by crash recovery at open.")
	r.Describe(mWALFrames, "counter", "Records (frames) appended to the write-ahead log.")
	r.Describe(mWALBatchSize, "histogram", "Records per group commit, commit terminator included.")
	r.Describe(mCheckpointSeconds, "histogram", "Checkpoint snapshot duration in seconds.")
	r.Describe(mRecoveryStmts, "counter", "DDL/registry statements replayed by crash recovery at open.")
	r.Describe(mRecoveryWALBytes, "gauge", "WAL bytes scanned by the most recent crash recovery.")
	r.Describe(mRecoverySnapLSN, "gauge", "Snapshot LSN the most recent crash recovery started from.")
	r.Describe(mRecoveryRevalid, "counter", "Soft constraints revalidated and kept by crash recovery.")
	r.Describe(mRecoveryInvalid, "counter", "Soft constraints invalidated by crash-recovery revalidation.")
	r.Describe(mRecoveryTailTrunc, "counter", "Torn WAL tails truncated by crash recovery.")
	r.Describe(mLockWait, "histogram", "Seconds a contended acquisition of an engine lock waited, by lock (db: the catalog and publish lock; write: the writer lock) and mode. Uncontended acquisitions are not observed.")
	o.econ = obs.NewEconomy(r)

	o.queries = r.Counter(mQueries)
	o.queryErrors = r.Counter(mQueryErrors)
	o.slowQueries = r.Counter(mSlowQueries)
	o.duration = r.Histogram(mQueryDuration, obs.DefLatencyBuckets)
	o.cacheEntries = r.Gauge(mCacheEntries)
	o.cacheHits = r.Counter(mCacheHits)
	o.cacheMisses = r.Counter(mCacheMisses)
	o.cacheInvals = r.Counter(mCacheInvals)
	o.cacheFailovers = r.Counter(mCacheFailover)
	o.templateHits = r.Counter(mCacheTemplate)
	o.guardMisses = r.Counter(mCacheGuard)
	o.cacheEvictions = r.Counter(mCacheEvicted)
	o.pagesSkipped = r.Counter(mPagesSkipped)
	o.pagesFrozen = r.Counter(mPagesFrozen)
	o.pageThaws = r.Counter(mPageThaws)
	o.pageBytes = r.Gauge(mPageBytes)
	r.OnCollect(db.collectStorageMetrics)
	o.rowsShort = r.Counter(mRowsShort)
	o.pagePaths = r.Counter(mPagePaths)
	o.queriesCanceled = r.Counter(mQueriesCanceled)
	o.queriesTimedOut = r.Counter(mQueriesTimedOut)
	o.memBudgetRejected = r.Counter(mMemBudgetRejected)
	o.workerPanics = r.Counter(mWorkerPanics)
	o.checkEvals = r.Counter(mCheckEvals)
	o.lockWait[waitShared] = r.Histogram(mLockWait, lockWaitBuckets, "lock", "db", "mode", "shared")
	o.lockWait[waitExclusive] = r.Histogram(mLockWait, lockWaitBuckets, "lock", "db", "mode", "exclusive")
	o.lockWait[waitWrite] = r.Histogram(mLockWait, lockWaitBuckets, "lock", "write", "mode", "exclusive")
}

// collectStorageMetrics refreshes the storage figures from the heaps at
// exposition time: they are sums over every table, far too much to
// recompute per query and nothing a query needs.
func (db *Database) collectStorageMetrics() {
	var bytes, thaws int64
	db.rlock()
	for _, name := range db.cat.TableNames() {
		if te, err := db.cat.Table(name); err == nil {
			_, t := te.Heap.FreezeStats()
			bytes += te.Heap.PageBytes()
			thaws += t
		}
	}
	for _, st := range db.cat.AllSummaries() {
		if st.Heap != nil {
			bytes += st.Heap.PageBytes()
		}
	}
	db.mu.RUnlock()
	db.obs.pageBytes.Set(bytes)
	// A dropped or truncated table takes its thaw count with it; the
	// counter ignores the negative delta and stays monotonic.
	db.obs.pageThaws.Add(thaws - db.obs.pageThaws.Value())
}

// Metrics exposes the database's metrics registry.
func (db *Database) Metrics() *obs.Registry { return db.obs.metrics }

// QueryLog exposes the recent-queries ring buffer.
func (db *Database) QueryLog() *obs.QueryLog { return db.obs.qlog }

// SetLogger installs a structured logger for query and soft-constraint
// lifecycle logging. Safe to call concurrently with running queries.
func (db *Database) SetLogger(l *slog.Logger) { db.obs.logger.Store(l) }

// SetTracing toggles per-operator span collection on the query path.
func (db *Database) SetTracing(on bool) { db.obs.tracing.Store(on) }

// SetSlowQueryThreshold sets the duration above which a query is counted
// (and logged) as slow; 0 disables slow-query accounting.
func (db *Database) SetSlowQueryThreshold(d time.Duration) { db.obs.slowNs.Store(int64(d)) }

// Economy exposes the per-constraint benefit/cost ledger.
func (db *Database) Economy() *obs.Economy { return db.obs.econ }

// DebugHandler serves /metrics (Prometheus text format), /debug/queries
// (recent query traces), /debug/constraints (the economy ledger as JSON),
// /debug/wal (durability status) and /debug/pprof/* (live profiling) for a
// -debug-addr style listener.
func (db *Database) DebugHandler() http.Handler {
	return obs.HandlerWith(db.obs.metrics, db.obs.qlog, obs.HandlerOptions{
		Economy: db.ConstraintEconomy,
		WAL:     func() any { return db.WALStatusSnapshot() },
		Pprof:   true,
	})
}

// SoftcManager returns a soft-constraint manager over this database's
// catalog wired into its structured logger and metrics registry.
func (db *Database) SoftcManager() *softc.Manager {
	m := softc.NewManager(db.cat)
	m.Logger = db.obs.logger.Load()
	m.Metrics = db.obs.metrics
	if !db.NoEconomy {
		m.Econ = db.obs.econ
	}
	// Durable databases log a registry image after every softc mutation so
	// mined/advisory state survives a crash. The named hook also charges
	// the registry-maintenance WAL records to the constraints that caused
	// the image to be rewritten.
	m.OnChangeNamed = func(names []string) {
		db.SyncSoftRegistry()
		if db.dur != nil && !db.NoEconomy {
			for _, name := range names {
				db.obs.econ.AddWALRecords(name, 1)
			}
		}
	}
	return m
}

// observeQuery records one finished query execution into metrics, the
// recent-queries ring, and the structured log.
func (db *Database) observeQuery(t *obs.Trace) {
	o := &db.obs
	o.queries.Inc()
	o.duration.Observe(t.Duration.Seconds())
	if t.Err != "" {
		o.queryErrors.Inc()
	}
	switch exec.ErrKind(t.State) {
	case exec.KindCanceled:
		o.queriesCanceled.Inc()
	case exec.KindTimeout:
		o.queriesTimedOut.Inc()
	case exec.KindMemBudget:
		o.memBudgetRejected.Inc()
	}
	if t.PagesSkipped > 0 {
		o.pagesSkipped.Add(t.PagesSkipped)
	}
	if t.PagesFrozen > 0 {
		o.pagesFrozen.Add(t.PagesFrozen)
	}
	if t.RowsShortCircuited > 0 {
		o.rowsShort.Add(t.RowsShortCircuited)
	}
	if t.IndexPagePaths > 0 {
		o.pagePaths.Add(t.IndexPagePaths)
	}
	if slow := o.slowNs.Load(); slow > 0 && t.Duration >= time.Duration(slow) {
		t.Slow = true
		o.slowQueries.Inc()
	}
	o.qlog.Add(t)
	if l := o.logger.Load(); l != nil {
		level := slog.LevelDebug
		if t.Slow {
			level = slog.LevelWarn
		}
		attrs := []any{
			"sql", t.SQL,
			"duration", t.Duration,
		}
		if t.Session != "" {
			attrs = append(attrs, "session", t.Session)
		}
		attrs = append(attrs,
			"rows", t.ActualRows,
			"pages", t.PagesRead,
			"pages_skipped", t.PagesSkipped,
			"pages_frozen", t.PagesFrozen,
			"cache_hit", t.CacheHit,
			"slow", t.Slow,
			"state", t.State,
		)
		if t.Err != "" {
			attrs = append(attrs, "err", t.Err)
			level = slog.LevelError
		}
		l.Log(context.Background(), level, "query", attrs...)
	}
}

// countRewriteFires bumps the per-kind rewrite counter for every rule that
// actually fired while planning a query, and the per-reason rejection
// counter for prune introductions turned down (probation, below-floor,
// no-index). Rewrites that eliminated rows credit the saving to the
// driving constraint's economy ledger. Counted at plan time, so cached
// re-executions do not inflate the figures.
func (db *Database) countRewriteFires(events []obs.Event) {
	for _, e := range events {
		if e.Applied {
			db.obs.metrics.Counter(mRewriteFires, "kind", e.Rule).Inc()
			if !db.NoEconomy && e.Constraint != "" && e.RowsSaved > 0 {
				db.obs.econ.CreditRewriteRows(e.Constraint, e.RowsSaved)
			}
		} else if e.Reason != "" {
			db.obs.metrics.Counter(mPruneRejected, "reason", e.Reason).Inc()
		}
	}
}
