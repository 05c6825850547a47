// Package engine is softdb's top-level database facade: it parses SQL,
// runs DDL against the catalog, executes DML with constraint checking that
// honors the paper's enforcement modes, and drives queries through the
// rewrite → cost-based-optimization → execution pipeline. It also keeps the
// plan cache whose entries are invalidated when an absolute soft constraint
// is overturned (§4.1).
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"softdb/internal/catalog"
	"softdb/internal/exec"
	"softdb/internal/expr"
	"softdb/internal/fault"
	"softdb/internal/obs"
	"softdb/internal/opt"
	"softdb/internal/plan"
	"softdb/internal/refexec"
	"softdb/internal/rewrite"
	"softdb/internal/sql"
	"softdb/internal/stats"
	"softdb/internal/storage"
	"softdb/internal/txn"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// Result is the outcome of one statement.
type Result struct {
	Columns      []string
	Rows         []types.Row
	RowsAffected int64
	// Runtime counters for queries.
	Ctx exec.Ctx
	// Optimizer estimates (queries only).
	EstRows float64
	EstCost float64
	// Plan text (EXPLAIN, or always-populated for queries).
	Plan string
	// Trace lists rewrite-rule firings.
	Trace []string
	// Notices carries soft-constraint events (e.g. "ASC xyz deactivated").
	Notices []string
	// CacheHit reports whether the plan came from the plan cache.
	CacheHit bool
	// Events are the plan-time soft-constraint consultations.
	Events []obs.Event
}

// CacheStats reports plan-cache behavior, the §4.1 cost surface.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64 // entries dropped by catalog changes
	// Failovers counts §4.1 backup-plan reversions: a cached plan whose
	// soft constraints were overturned switched to its SQO-free backup
	// instead of recompiling.
	Failovers int64
	// TemplateHits is the part of Hits served by rebinding a shape's plan
	// template to the statement's literals (the rest are literal-bound
	// variants found under their own literal vector).
	TemplateHits int64
	// GuardMisses counts statements whose shape held templates none of
	// whose guards admitted the statement's literals.
	GuardMisses int64
	// LiteralBound counts plans compiled literal-bound: some rewrite or
	// access-path decision depended on the literal values, so the plan is
	// cached for those values only.
	LiteralBound int64
	// Evictions counts plans (templates or literal-bound variants) dropped
	// at the per-shape cap.
	Evictions int64
	// Parses counts SELECT texts the query path parsed, and Compiles its
	// planning passes (build, rewrite, optimize), every pass counted: a
	// statement's own, its §4.1 backup, a template's verification and the
	// shadow plans. A statement served from the cache adds to neither.
	Parses   int64
	Compiles int64
}

// countPlanning adds to the parse and compile counts.
func (db *Database) countPlanning(parses, compiles int64) {
	db.cacheMu.Lock()
	db.cacheStat.Parses += parses
	db.cacheStat.Compiles += compiles
	db.cacheMu.Unlock()
}

type cachedPlan struct {
	catVersion  int64
	hardVersion int64
	root        exec.Operator
	cols        []string
	estRows     float64
	estCost     float64
	planText    string
	// trace is the shaping events rendered (obs.TraceOf), kept rendered so
	// a cache hit does no work for it.
	trace []string
	// eventTexts reports that some event carries a DetailText with a
	// literal-derived argument; bind re-renders those events and the trace.
	eventTexts bool
	// shapeID identifies the statement's shape in traces; slots is the
	// number of literals lifted out of it.
	shapeID string
	slots   int
	// literalBound is empty for a plan that is valid for every literal
	// vector of its shape (a template); otherwise it names the decision
	// that tied the plan to the literals it was compiled from.
	literalBound string
	// guards are the comparisons of literals with other literals or catalog
	// bounds its rules decided on: a template serves exactly the literal
	// vectors under which each keeps its sign.
	guards []expr.Guard
	// nodes are the optimizer's per-operator estimates — cardinality, and
	// the constraints whose information sharpened it (the economy ledger's
	// q-error split key) — by preorder position in root, consulted when the
	// plan is instrumented for tracing/EXPLAIN ANALYZE.
	nodes []nodeEstimate
	// shadowDeltas is the plan-time shadow-costing outcome: per constraint
	// consulted while planning, the estimated-cost increase the optimizer
	// would have paid had that constraint been masked.
	shadowDeltas map[string]float64
	// events are the plan-time soft-constraint consultations.
	events []obs.Event
	// backup is the §4.1 alternative plan compiled with every soft rule
	// disabled; it stays valid across soft-constraint churn (same hard
	// version) and is reverted to instead of recompiling.
	backup *cachedPlan
}

// Database is a softdb instance. It is safe for concurrent use: Exec,
// Query, ExecStmt and the exported inspection methods may be called from
// many goroutines. Concurrency is MVCC snapshot isolation with writers
// serialized:
//
//   - SELECT and EXPLAIN plan under the shared lock, pin a snapshot, then
//     release the lock before operator execution — readers never queue
//     behind writers or behind each other's result materialization.
//   - DML applies uncommitted row versions under writeMu plus the shared
//     lock (appliers serialized against each other, concurrent with
//     readers). Commit keeps writeMu throughout, appends and fsyncs the
//     log under the shared lock, and takes the exclusive lock only to
//     stamp the commit timestamp, run the soft write hooks and publish —
//     so no reader waits on the disk.
//   - DDL, ANALYZE, truncates, registry syncs, vacuum, checkpoints and
//     Close take writeMu, then the exclusive lock.
//
// The lock order is writeMu before mu, everywhere.
//
// Configuration fields (RewriteOpts, the No* toggles) are read
// without synchronization — set them before sharing the database across
// goroutines. Mutating the catalog directly through Catalog() (miners, the
// soft-constraint manager) is not covered by these locks; quiesce queries
// first.
type Database struct {
	// mu guards what planning reads — catalog, storage metadata, views —
	// and notices: exclusive to publish a commit or a DDL change, shared
	// for planning, DML apply and a commit's log write.
	mu sync.RWMutex
	// writeMu orders every writer of the log and of the heaps: DML apply,
	// commit and rollback from start to finish, and every path that takes
	// mu exclusively. It is taken before mu. Because a commit holds it
	// across the gap between its fsync (under mu shared) and its stamping
	// (under mu exclusive), no other writer can slip into that gap.
	writeMu sync.Mutex
	// cacheMu guards cache and cacheStat. It nests inside mu (taken
	// while mu is held, never the other way around).
	cacheMu sync.Mutex
	// wlMu guards workload.
	wlMu sync.Mutex

	cat   *catalog.Catalog
	views map[string]*sql.Select

	// txnMgr hands out transaction IDs, snapshots and commit timestamps.
	txnMgr *txn.Manager

	// RewriteOpts toggles semantic rewrite rules (ablation).
	RewriteOpts rewrite.Options
	// NoIndexes disables index access paths (baseline mode).
	NoIndexes bool
	// NoSSCEstimation disables twinned-predicate cardinality estimation.
	NoSSCEstimation bool
	// NoASTEstimation disables AST-based filter-factor estimation (§4.4).
	NoASTEstimation bool
	// DisablePlanCache turns off plan caching.
	DisablePlanCache bool
	// ASCDynamicOnly implements §4.1's restriction option: plans shaped by
	// soft rules are never cached (used only for the current, "dynamic"
	// execution), so no precompiled plan can ever depend on an ASC.
	ASCDynamicOnly bool
	// NoPrune disables synopsis-based page pruning end to end: the
	// optimizer derives no prune predicates from filters, the rewriter
	// plants none from constraints, and scans read every page (baseline
	// mode for the P2 experiments).
	NoPrune bool
	// NoBatch answers every plain SELECT with the reference interpreter
	// (internal/refexec) instead of the engine: the statement's logical
	// plan, views expanded and nothing rewritten or optimized, evaluated
	// slot by slot at the statement's snapshot, with no plan cache, trace
	// or economy credit (see DESIGN.md §22). EXPLAIN [ANALYZE] and DML
	// always use the engine. It is the right-hand side of every
	// differential; the name stays because softbench's reference
	// configuration sets it.
	NoBatch bool
	// NoEconomy disables the per-constraint benefit/cost ledger: no skip
	// attribution, no shadow costing, no q-error split, no DML hook timing
	// (the O2 overhead baseline). The ledger's existing counters keep their
	// values; they just stop moving.
	NoEconomy bool
	// MemBudget caps, per query, the bytes of rows its blocking operators
	// (Sort, hash-join builds, hash aggregation, Distinct) may buffer;
	// exceeding it aborts that query with an "oom" QueryError. 0 means
	// unlimited.
	MemBudget int64
	// StmtTimeout is the default per-statement deadline applied when the
	// caller's context carries none; 0 means no default deadline.
	StmtTimeout time.Duration
	// MaxConcurrent is the admission gate: at most this many statements
	// execute at once, the rest queue until a slot frees or their context
	// fires. 0 means unlimited. Latched on first use, like the other
	// config fields.
	MaxConcurrent int
	// Fault, when set, injects deterministic storage faults into every
	// query's page checkpoints (robustness testing only).
	Fault *fault.Injector

	// admitOnce latches MaxConcurrent into admitSlots on the first
	// statement.
	admitOnce  sync.Once
	admitSlots chan struct{}

	cache     planCache
	cacheStat CacheStats

	// workload records, per table and column, how many query predicates
	// referenced the column — the observed-workload signal §3.2's
	// selection stage directs discovery with.
	workload map[string]map[string]int64

	// obs holds the metrics registry, recent-queries ring, structured
	// logger and tracing toggles (see observe.go).
	obs obsState

	// dur is the write-ahead-log state for durable databases (OpenDurable);
	// nil for in-memory databases. The pointer changes only under writeMu
	// plus the exclusive lock (Close); the log writer and its counters are
	// guarded by writeMu.
	dur *walState

	// notices accumulated during the current statement.
	notices []string

	// guards holds each table's soft write guard as compiled at catalog
	// version guardsAt; the commit hook reads it under mu held exclusively.
	guards   map[*catalog.TableEntry]*softGuard
	guardsAt int64
}

// Open returns an empty database.
func Open() *Database {
	db := &Database{
		cat:      catalog.New(),
		views:    map[string]*sql.Select{},
		txnMgr:   txn.NewManager(),
		cache:    planCache{shapes: map[shapeKey]*shapeEntry{}},
		workload: map[string]map[string]int64{},
	}
	db.initObs()
	return db
}

// WorkloadColumnCounts returns a snapshot of the predicate-reference
// counts observed so far: table → column → count.
func (db *Database) WorkloadColumnCounts() map[string]map[string]int64 {
	db.wlMu.Lock()
	defer db.wlMu.Unlock()
	out := make(map[string]map[string]int64, len(db.workload))
	for t, cols := range db.workload {
		cp := make(map[string]int64, len(cols))
		for c, n := range cols {
			cp[c] = n
		}
		out[t] = cp
	}
	return out
}

// recordWorkload walks a freshly built logical plan and counts which base
// columns the query's scan predicates touch.
func (db *Database) recordWorkload(n plan.Node) {
	db.wlMu.Lock()
	defer db.wlMu.Unlock()
	db.recordWorkloadLocked(n)
}

func (db *Database) recordWorkloadLocked(n plan.Node) {
	if s, ok := n.(*plan.Scan); ok && s.Entry != nil {
		for _, f := range s.Filter {
			for _, ord := range exprColumnOrdinals(f) {
				if ord < 0 || ord >= len(s.Def.Columns) {
					continue
				}
				table := strings.ToLower(s.Table)
				colName := strings.ToLower(s.Def.Columns[ord].Name)
				cols := db.workload[table]
				if cols == nil {
					cols = map[string]int64{}
					db.workload[table] = cols
				}
				cols[colName]++
			}
		}
	}
	for _, c := range n.Inputs() {
		db.recordWorkloadLocked(c)
	}
}

// Catalog exposes the system catalog (miners and the soft-constraint
// manager work against it directly).
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// CacheStats returns plan-cache counters.
func (db *Database) CacheStats() CacheStats {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	return db.cacheStat
}

// ResetCacheStats zeroes the counters.
func (db *Database) ResetCacheStats() {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	db.cacheStat = CacheStats{}
}

// Exec parses and executes one statement without caller cancellation
// (StmtTimeout, if configured, still applies).
func (db *Database) Exec(query string) (*Result, error) {
	return db.ExecCtx(context.Background(), query)
}

// ExecCtx parses and executes one statement under ctx: cancellation and
// deadline expiry abort the statement with a typed QueryError.
func (db *Database) ExecCtx(ctx context.Context, query string) (*Result, error) {
	return db.execText(ctx, query, db.defaultSettings(), nil)
}

// execText executes one statement given as text. A SELECT is handed on
// unparsed: its fingerprint finds the plan cache entry, and only a miss
// pays for parsing.
func (db *Database) execText(ctx context.Context, query string, st Settings, sess *Session) (*Result, error) {
	if startsWithSelect(query) {
		return db.execStmtCtx(ctx, nil, query, st, sess)
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return db.execStmtCtx(ctx, stmt, query, st, sess)
}

// startsWithSelect reports whether the text's first token is the keyword
// SELECT.
func startsWithSelect(q string) bool {
	q = strings.TrimLeft(q, " \t\r\n")
	const kw = "SELECT"
	if len(q) <= len(kw) || !strings.EqualFold(q[:len(kw)], kw) {
		return false
	}
	c := q[len(kw)]
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '*' || c == '(' || c == '-' || c == '\''
}

// ExecScript executes a semicolon-separated script, returning the last
// result. The script runs on a private session, so multi-statement
// BEGIN..COMMIT blocks work; a transaction left open at the end of the
// script is rolled back. A failing statement's error carries its 1-based
// position and (truncated) text, so a failure deep in a long script is
// attributable.
func (db *Database) ExecScript(script string) (*Result, error) {
	stmts, err := sql.ParseAll(script)
	if err != nil {
		return nil, err
	}
	sess := db.NewSession("")
	defer sess.Close()
	var last *Result
	for i, s := range stmts {
		last, err = sess.ExecStmtCtx(context.Background(), s, "")
		if err != nil {
			return nil, fmt.Errorf("engine: script statement %d (%s): %w", i+1, truncateSQL(sql.Print(s)), err)
		}
	}
	return last, nil
}

// mustExecSQLLimit bounds how much query text MustExec's panic message
// carries, so a hostile multi-megabyte statement cannot blow up logs.
const mustExecSQLLimit = 120

// truncateSQL clips s to mustExecSQLLimit runes for error messages.
func truncateSQL(s string) string {
	if len(s) <= mustExecSQLLimit {
		return s
	}
	return s[:mustExecSQLLimit] + "…"
}

// MustExec is Exec that panics on error; for tests and generators. The
// panic value is a *exec.QueryError carrying a truncated copy of the
// statement text.
func (db *Database) MustExec(query string) *Result {
	res, err := db.Exec(query)
	if err != nil {
		kind := exec.KindError
		if qe, ok := exec.AsQueryError(err); ok {
			kind = qe.Kind
		}
		panic(&exec.QueryError{
			Op:   "engine.MustExec",
			Kind: kind,
			Err:  fmt.Errorf("engine: %s: %w", truncateSQL(query), err),
		})
	}
	return res
}

// ExecStmt executes a parsed statement without caller cancellation; see
// ExecStmtCtx.
func (db *Database) ExecStmt(stmt sql.Statement, cacheKey string) (*Result, error) {
	return db.ExecStmtCtx(context.Background(), stmt, cacheKey)
}

// admit acquires an admission-gate slot, waiting until one frees or ctx
// fires. The returned release must be called when the statement finishes.
// With MaxConcurrent <= 0 the gate is disabled.
func (db *Database) admit(ctx context.Context) (release func(), err error) {
	db.admitOnce.Do(func() {
		if db.MaxConcurrent > 0 {
			db.admitSlots = make(chan struct{}, db.MaxConcurrent)
		}
	})
	slots := db.admitSlots
	if slots == nil {
		return func() {}, nil
	}
	select {
	case slots <- struct{}{}:
		return func() { <-slots }, nil
	case <-ctx.Done():
		return nil, exec.CancelError("engine.admission", ctx.Err())
	}
}

// ExecStmtCtx executes a parsed statement under ctx. cacheKey, when
// non-empty, enables plan caching for selects; it must be the statement's
// SQL text (as written, or its sql.Print rendering): the cache is keyed by
// the text's shape, and on a miss the text is what gets compiled. SELECT
// and EXPLAIN take the shared lock so concurrent readers proceed side by
// side; every other statement mutates engine state and takes the exclusive
// lock. When the database has a StmtTimeout and ctx carries no deadline,
// the timeout is applied; the admission gate (MaxConcurrent) is crossed
// before any lock is taken.
func (db *Database) ExecStmtCtx(ctx context.Context, stmt sql.Statement, cacheKey string) (*Result, error) {
	return db.execStmtCtx(ctx, stmt, cacheKey, db.defaultSettings(), nil)
}

// execStmtCtx is the settings-aware core of ExecStmtCtx: direct Database
// calls pass the database defaults and no session (each DML statement
// autocommits; BEGIN is rejected), Session calls pass the session's
// effective settings plus the session itself, which carries its open
// transaction and trace/log label. A nil stmt is a SELECT not parsed yet,
// its text in cacheKey.
func (db *Database) execStmtCtx(ctx context.Context, stmt sql.Statement, cacheKey string, st Settings, sess *Session) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if st.StmtTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, st.StmtTimeout)
			defer cancel()
		}
	}
	release, err := db.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	switch s := stmt.(type) {
	case nil:
		return db.query(ctx, nil, cacheKey, modeRun, st, sess)
	case *sql.Select:
		return db.query(ctx, s, cacheKey, modeRun, st, sess)
	case *sql.Explain:
		inner, ok := s.Stmt.(*sql.Select)
		if !ok {
			return nil, fmt.Errorf("engine: EXPLAIN supports only SELECT")
		}
		mode := modeExplain
		if s.Analyze {
			mode = modeAnalyze
		}
		return db.query(ctx, inner, stripExplainPrefix(cacheKey), mode, st, sess)
	case *sql.Show:
		if s.Shards {
			// A plain engine is a topology of one. The shard router
			// intercepts SHOW SHARDS before it reaches any engine and
			// answers with its real topology and constraint registry; the
			// shared column shape keeps clients uniform.
			return &Result{
				Columns: []string{"shard", "addr", "state", "table", "column", "kind", "range", "constraint"},
			}, nil
		}
		db.rlock()
		defer db.mu.RUnlock()
		return db.showConstraintsEconomy(), nil
	case *sql.Begin:
		return db.beginStmt(sess)
	case *sql.Commit:
		return db.commitStmt(sess)
	case *sql.Rollback:
		return db.rollbackStmt(sess)
	case *sql.Insert:
		return db.execDML(sess, func(tx *Tx) (*Result, error) { return db.insert(tx, s) })
	case *sql.Update:
		return db.execDML(sess, func(tx *Tx) (*Result, error) { return db.update(tx, s) })
	case *sql.Delete:
		return db.execDML(sess, func(tx *Tx) (*Result, error) { return db.delete(tx, s) })
	}

	// DDL and ANALYZE commit immediately under writeMu plus the exclusive
	// lock; inside an explicit transaction they would be unrollbackable, so
	// reject them.
	if sess != nil && sess.current() != nil {
		return nil, fmt.Errorf("engine: %s is not allowed inside a transaction", sql.Print(stmt))
	}
	db.lockWrite()
	defer db.writeMu.Unlock()
	db.lock()
	defer db.mu.Unlock()
	// Notices are only produced under the exclusive lock (commit hooks and
	// DDL), so the shared query path never touches them.
	db.notices = nil
	var res *Result
	switch s := stmt.(type) {
	case *sql.CreateTable:
		res, err = db.createTable(s)
	case *sql.CreateIndex:
		// The index is built from the committed view; uncommitted writes an
		// open transaction made to this table would be missing from it after
		// their commit. Writes to other tables cannot be.
		if db.txnMgr.ActiveWritesOn(s.Table) > 0 {
			return nil, &exec.QueryError{Op: "engine.ddl", Kind: exec.KindBusy,
				Err: fmt.Errorf("CREATE INDEX on %s must wait for open write transactions on it", s.Table)}
		}
		res, err = db.createIndex(s)
	case *sql.CreateView:
		res, err = db.createView(s)
	case *sql.CreateSummary:
		res, err = db.createSummary(s)
	case *sql.AlterTableAdd:
		res, err = db.alterAdd(s)
	case *sql.DropTable:
		res, err = db.dropTable(s)
	case *sql.Analyze:
		res, err = db.analyze(s)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
	if db.dur != nil {
		db.walDDL(sql.Print(stmt), err == nil)
		if werr := db.commitWALLocked(); werr != nil && err == nil {
			err = werr
		}
	}
	if res != nil {
		res.Notices = append(res.Notices, db.notices...)
	}
	return res, err
}

// sessionLabel is the trace/log tag for a possibly-nil session.
func sessionLabel(sess *Session) string {
	if sess == nil {
		return ""
	}
	return sess.label
}

// Query runs a select and returns its rows.
func (db *Database) Query(query string) ([]types.Row, error) {
	return db.QueryCtx(context.Background(), query)
}

// QueryCtx runs a select under ctx and returns its rows.
func (db *Database) QueryCtx(ctx context.Context, query string) ([]types.Row, error) {
	res, err := db.ExecCtx(ctx, query)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// notify records a soft-constraint event surfaced with the result.
func (db *Database) notify(format string, args ...any) {
	db.notices = append(db.notices, fmt.Sprintf(format, args...))
}

// --- query path ---

func (db *Database) builder() *plan.Builder {
	return &plan.Builder{Catalog: db.cat, Views: db.views}
}

// optimizer builds the per-query optimizer from the database toggles and
// the statement's effective settings.
func (db *Database) optimizer(st Settings) *opt.Optimizer {
	return &opt.Optimizer{
		Cat:             db.cat,
		NoIndexes:       db.NoIndexes,
		NoSSCEstimation: db.NoSSCEstimation,
		NoASTEstimation: db.NoASTEstimation,
		NoPrune:         st.NoPrune,
	}
}

// rewriteOpts derives the per-query rewrite options from the database
// toggles and the statement's effective settings: NoPrune also stops the
// rewriter from planting prune-only predicates.
func (db *Database) rewriteOpts(st Settings) rewrite.Options {
	o := db.RewriteOpts
	if st.NoPrune {
		o.NoPruneIntro = true
	}
	return o
}

// Plan builds, rewrites and optimizes a select without running it.
func (db *Database) Plan(sel *sql.Select) (*opt.Result, *rewrite.Rewriter, error) {
	db.rlock()
	defer db.mu.RUnlock()
	st := db.defaultSettings()
	logical, err := db.builder().BuildSelect(sel)
	if err != nil {
		return nil, nil, err
	}
	rw := &rewrite.Rewriter{Cat: db.cat, Opt: db.rewriteOpts(st)}
	logical = rw.Rewrite(logical)
	result, err := db.optimizer(st).Optimize(logical)
	if err != nil {
		return nil, nil, err
	}
	return result, rw, nil
}

// stripExplainPrefix reduces an EXPLAIN [ANALYZE] statement's text to the
// underlying SELECT's text, which is the plan-cache key for direct runs.
func stripExplainPrefix(q string) string {
	s := strings.TrimSpace(q)
	if len(s) >= 7 && strings.EqualFold(s[:7], "EXPLAIN") {
		s = strings.TrimSpace(s[7:])
		if len(s) >= 7 && strings.EqualFold(s[:7], "ANALYZE") {
			s = strings.TrimSpace(s[7:])
		}
	}
	return s
}

// queryMode selects the query path's behavior: execute, explain the plan,
// or execute under instrumentation and explain with actuals.
type queryMode int

const (
	modeRun queryMode = iota
	modeExplain
	modeAnalyze
)

// testHookQueryUnlocked, when set by a test, runs after query() has
// dropped the shared lock and pinned its snapshot, immediately before
// operator execution — the window in which a scan must not block writers.
var testHookQueryUnlocked func()

// query runs the SELECT/EXPLAIN pipeline. sel may be nil for a SELECT that
// arrived as text and has not been parsed: a plan-cache hit never parses it.
// Planning — cache lookup and rebind, or parse, build, rewrite, optimize and
// cache store — happens under the shared lock; then the statement's MVCC
// snapshot is pinned, the lock is released, and the plan executes lock-free
// against that snapshot. A concurrent commit can publish mid-execution
// without being observed (scans filter by the pinned snapshot), and a slow
// scan no longer blocks writers.
func (db *Database) query(ctx context.Context, sel *sql.Select, text string, mode queryMode, st Settings, sess *Session) (*Result, error) {
	if mode == modeRun && db.NoBatch {
		return db.reference(ctx, sel, text, sess)
	}
	label := sessionLabel(sess)
	sqlText := text
	if sqlText == "" {
		sqlText = sql.Print(sel)
	}

	db.rlock()
	locked := true
	unlock := func() {
		if locked {
			db.mu.RUnlock()
			locked = false
		}
	}
	defer unlock()

	// A transaction whose view the soft characterizations may not hold for
	// plans without them (the §4.1 backup plan) and caches nothing.
	unverified := db.unverifiedView(sess)
	useCache := text != "" && !db.DisablePlanCache && mode == modeRun && !unverified
	var fp stmtPrint
	var entry *cachedPlan
	cacheHit := false
	if useCache || mode != modeRun {
		fp = printOf(sqlText, st)
	}
	if useCache {
		if e, template := db.cacheLookup(&fp); e != nil {
			entry, cacheHit = e, true
			if template {
				// templateHolds rebound this plan before it was stored.
				entry, _ = e.bind(fp.values())
			}
		}
	}
	if entry == nil {
		var err error
		po := db.primaryPlan(st)
		if unverified {
			po = backupPlan
		}
		if entry, err = db.compile(sel, sqlText, &fp, st, po, useCache, mode != modeRun); err != nil {
			return nil, err
		}
		if mode == modeExplain {
			return db.explainResult(entry, &fp), nil
		}
	}

	cacheStatus := ""
	if mode == modeAnalyze {
		cacheStatus = db.cachePeek(&fp) + " " + entry.cacheNote()
	}
	// Pin the statement's snapshot before releasing the shared lock so the
	// versions it reads stay beyond the vacuum horizon for the whole run.
	snap, tid, releaseSnap := db.snapshotFor(sess)
	unlock()
	defer releaseSnap()
	if h := testHookQueryUnlocked; h != nil {
		h()
	}

	if mode == modeAnalyze {
		return db.explainAnalyze(ctx, entry, sqlText, cacheStatus, st, label, snap, tid)
	}
	return db.execute(ctx, entry, sqlText, cacheHit, st, label, snap, tid)
}

// reference answers a SELECT with the reference interpreter (see NoBatch).
// The snapshot is pinned under the shared lock exactly as for the engine,
// and a session's open transaction lends its own, so its writes are
// visible. Result.Plan is the logical plan that was evaluated.
func (db *Database) reference(ctx context.Context, sel *sql.Select, text string, sess *Session) (*Result, error) {
	if sel == nil {
		var err error
		db.countPlanning(1, 0)
		if sel, err = parseSelect(text); err != nil {
			return nil, err
		}
	}
	db.rlock()
	logical, err := db.builder().BuildSelect(sel)
	if err != nil {
		db.mu.RUnlock()
		return nil, err
	}
	snap, tid, releaseSnap := db.snapshotFor(sess)
	db.mu.RUnlock()
	defer releaseSnap()
	rows, err := refexec.Run(ctx, logical, snap, tid)
	if cerr := ctx.Err(); err != nil && cerr != nil {
		return nil, exec.CancelError("engine.reference", cerr)
	}
	if errors.Is(err, refexec.ErrSumOverflow) {
		return nil, &exec.QueryError{Op: "engine.reference", Kind: exec.KindError, Err: err}
	}
	if err != nil {
		return nil, err
	}
	return &Result{Columns: colNames(logical), Rows: rows, Plan: plan.Format(logical)}, nil
}

// colNames lists a logical plan's output column names.
func colNames(n plan.Node) []string {
	cols := n.Cols()
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names
}

// compile plans a statement the cache could not serve with po. cache says
// the plan is to be stored (with its §4.1 backup); explain that the
// statement's cache status will be reported. Either way the plan is first
// checked for whether it may serve as its shape's template.
func (db *Database) compile(sel *sql.Select, sqlText string, fp *stmtPrint, st Settings, po planOpts, cache, explain bool) (*cachedPlan, error) {
	// The statement is compiled from a parse that tags each constant with
	// the fingerprint slot of its literal; without a fingerprint (caching
	// off, or a text it refused) any parse will do.
	tagged := false
	if fp.shaped || sel == nil {
		db.countPlanning(1, 0)
	}
	if fp.shaped {
		if s, ok, err := sql.ParseFingerprinted(sqlText, fp.lits); err == nil {
			sel, tagged = s, ok
		} else if sel == nil {
			return nil, err
		}
	}
	if sel == nil {
		var err error
		if sel, err = parseSelect(sqlText); err != nil {
			return nil, err
		}
	}
	check := po // templateHolds re-plans without observing
	po.observe = true
	entry, err := db.planSelect(sel, st, po)
	if err != nil {
		return nil, err
	}
	if !db.NoEconomy && !po.softFree {
		entry.shadowDeltas = db.shadowCostDeltas(sel, entry.estCost, entry.events, st)
	}
	fp.stamp(entry)
	// §4.1: "restrict the use of ASCs in rewrite just to dynamic queries and
	// never for precompilation" — under ASCDynamicOnly a plan soft rules
	// shaped runs once and is not cached.
	cache = cache && !(db.ASCDynamicOnly && entry.shaped())
	switch {
	case !tagged:
		entry.literalBound = "unfingerprinted"
	case (cache || explain) && !db.templateHolds(sel, entry, fp, st, check):
		entry.literalBound = firstNonEmpty(entry.literalBound, "rebind")
	}
	if !cache {
		return entry, nil
	}
	// §4.1 backup plan: when soft rules shaped the primary plan, compile the
	// SQO-free alternative alongside so an overturned ASC reverts instead of
	// recompiling. A template's backup must itself serve every literal
	// vector of the shape.
	if entry.shaped() {
		if backup, err := db.planSelect(sel, st, backupPlan); err == nil {
			fp.stamp(backup)
			entry.backup = backup
			if entry.literalBound == "" && !db.templateHolds(sel, backup, fp, st, backupPlan) {
				entry.literalBound = firstNonEmpty(backup.literalBound, "rebind")
			}
		}
	}
	db.cacheStore(fp, entry)
	return entry, nil
}

// explainResult renders EXPLAIN's output for a freshly compiled plan.
func (db *Database) explainResult(entry *cachedPlan, fp *stmtPrint) *Result {
	var rows []types.Row
	line := func(s string) { rows = append(rows, types.Row{types.NewString(s)}) }
	for _, l := range strings.Split(strings.TrimRight(entry.planText, "\n"), "\n") {
		line(l)
	}
	for _, t := range entry.trace {
		line("rewrite: " + t)
	}
	for _, e := range entry.events {
		line("event: " + e.String())
	}
	line(fmt.Sprintf("estimated rows: %.1f, cost: %.1f", entry.estRows, entry.estCost))
	line("plan cache: " + db.cachePeek(fp) + " " + entry.cacheNote())
	return &Result{
		Columns: []string{"plan"},
		Rows:    rows,
		EstRows: entry.estRows,
		EstCost: entry.estCost,
		Plan:    entry.planText,
		Trace:   entry.trace,
		Events:  entry.events,
	}
}

// parseSelect parses a text that must be a SELECT.
func parseSelect(text string) (*sql.Select, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("engine: not a SELECT: %s", truncateSQL(text))
	}
	return sel, nil
}

// planOpts selects which plan of a statement planSelect produces.
type planOpts struct {
	rewrite rewrite.Options
	// softFree withholds constraint-informed estimation as well (with every
	// rewrite rule off, the §4.1 backup plan).
	softFree bool
	// masked hides one characterization from rewrite and estimation (shadow
	// costing).
	masked string
	// observe marks the statement's own compile: the workload recorder and
	// the rewrite-fire counters see it. Every other planning pass — backup,
	// shadow, template verification — leaves no trace.
	observe bool
}

// primaryPlan is the plan a statement runs: the session's rewrite options.
func (db *Database) primaryPlan(st Settings) planOpts {
	return planOpts{rewrite: db.rewriteOpts(st)}
}

// backupPlan is the §4.1 alternative compiled with every soft rule off: it
// stays valid across soft-constraint churn (same hard version).
var backupPlan = planOpts{softFree: true, rewrite: rewrite.Options{
	NoJoinElim: true, NoPredIntro: true, NoBranchPrune: true,
	NoHoleTrim: true, NoSortOpt: true, NoExceptionAST: true,
	NoSSCTwins: true, NoASTRouting: true, NoPruneIntro: true,
}}

// planSelect builds, rewrites and optimizes a select. The returned plan's
// literalBound names the first decision, if any, that depended on the
// statement's literal values.
func (db *Database) planSelect(sel *sql.Select, st Settings, po planOpts) (*cachedPlan, error) {
	db.countPlanning(0, 1)
	b := db.builder()
	logical, err := b.BuildSelect(sel)
	if err != nil {
		return nil, err
	}
	if po.observe {
		db.recordWorkload(logical)
	}
	names := colNames(logical)
	po.rewrite.Masked = po.masked
	rw := &rewrite.Rewriter{Cat: db.cat, Opt: po.rewrite}
	logical = rw.Rewrite(logical)
	o := db.optimizer(st)
	o.Masked = po.masked
	if po.softFree {
		o.NoSSCEstimation, o.NoASTEstimation = true, true
	}
	result, err := o.Optimize(logical)
	if err != nil {
		return nil, err
	}
	if po.observe {
		db.countRewriteFires(rw.Events)
	}
	p := &cachedPlan{
		catVersion:   db.cat.Version(),
		hardVersion:  db.cat.HardVersion(),
		root:         result.Root,
		cols:         names,
		estRows:      result.EstRows,
		estCost:      result.EstCost,
		planText:     exec.Format(result.Root),
		trace:        rw.Trace,
		events:       append(append([]obs.Event(nil), rw.Events...), result.Events...),
		nodes:        nodeEstimates(result.Root, result.NodeRows, result.NodeInformed),
		literalBound: firstNonEmpty(b.LiteralBound, rw.LiteralBound, result.LiteralBound),
		guards:       expr.AppendGuards(slices.Clip(rw.Guards), result.Guards...),
	}
	// Keep format and arguments only of the details a rebind has to render
	// again: those with a literal-derived argument.
	for i := range p.events {
		if t := p.events[i].DetailText; t != nil && usesLiteral(t.Args) {
			p.eventTexts = true
		} else {
			p.events[i].DetailText = nil
		}
	}
	return p, nil
}

// shaped reports whether some decision that shaped the plan holds only
// while the characterization it consulted does (obs.Event.Shaped).
func (p *cachedPlan) shaped() bool {
	return slices.ContainsFunc(p.events, func(e obs.Event) bool { return e.Shaped })
}

func firstNonEmpty(ss ...string) string {
	for _, s := range ss {
		if s != "" {
			return s
		}
	}
	return ""
}

// execCtx builds the exec context carrying the query's lifecycle: the
// caller's cancellation signal, the statement's memory budget, the
// database fault injector, the panic-recovery hook feeding the metrics
// registry, and the MVCC view (snapshot + reading transaction) every scan
// filters by.
func (db *Database) execCtx(ctx context.Context, st Settings, snap, tid int64) *exec.Ctx {
	c := exec.NewCtx(ctx, exec.CtxOptions{
		MemBudget: st.MemBudget,
		OnPanic:   func(string) { db.obs.workerPanics.Inc() },
		Fault:     db.Fault,
		Snap:      snap,
		TID:       tid,
	})
	c.EntryPathOnly = ctx.Value(entryPathOnlyKey{}) != nil
	return c
}

// entryPathOnlyKey marks a statement context whose index scans must stay on
// their entry path (exec.Ctx.EntryPathOnly): the reference the page-path
// differential tests run beside the run-time switch. Nothing outside the
// package's tests sets it.
type entryPathOnlyKey struct{}

// terminalState classifies a finished query's outcome for traces and the
// per-state metrics.
func terminalState(err error) string {
	switch {
	case err == nil:
		return "ok"
	default:
		if qe, ok := exec.AsQueryError(err); ok {
			return string(qe.Kind)
		}
		return string(exec.KindError)
	}
}

// runPlan drives a compiled plan to completion under the engine-boundary
// panic guard: a panic anywhere on the serial execution path (worker
// goroutines have their own recovery) surfaces as a KindPanic QueryError
// instead of crashing the process.
func (db *Database) runPlan(ctx context.Context, root exec.Operator, ectx *exec.Ctx, hint int) ([]types.Row, error) {
	if cerr := ctx.Err(); cerr != nil {
		return nil, exec.CancelError("engine.execute", cerr)
	}
	var rows []types.Row
	err := exec.Guard(ectx, "engine.execute", func() error {
		var cerr error
		rows, cerr = exec.Collect(root, ectx, hint)
		return cerr
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// execute runs a compiled plan, instrumenting it with a span tree when
// tracing is on, and records the execution in metrics and the query log.
// It runs without any engine lock: the snapshot pins its MVCC view.
func (db *Database) execute(ctx context.Context, entry *cachedPlan, sqlText string, cacheHit bool, st Settings, sess string, snap, tid int64) (*Result, error) {
	start := time.Now()
	root := entry.root
	var span *obs.SpanNode
	if db.obs.tracing.Load() {
		root, span = entry.instrument()
	}
	ectx := db.execCtx(ctx, st, snap, tid)
	if !db.NoEconomy {
		ectx.Skips = exec.NewSkipRecorder()
		ectx.Shorts = exec.NewSkipRecorder()
	}
	rows, err := db.runPlan(ctx, root, ectx, int(entry.estRows))
	dur := time.Since(start)
	io := ectx.IO.Load()
	t := &obs.Trace{
		SQL: sqlText, Start: start, Duration: dur,
		CacheHit: cacheHit, Session: sess, Shape: entry.shapeID,
		Root: span, Events: entry.events,
		EstRows: entry.estRows, EstCost: entry.estCost,
		ActualRows: int64(len(rows)), PagesRead: io.PagesRead,
		PagesSkipped:       io.PagesSkipped,
		PagesFrozen:        io.PagesFrozen,
		RowsShortCircuited: ectx.ShortCircuits,
		IndexPagePaths:     ectx.PagePaths,
		State:              terminalState(err),
	}
	if err != nil {
		t.Err = err.Error()
	}
	db.observeQuery(t)
	db.creditEconomy(entry, span, ectx.Skips, ectx.Shorts, int64(len(rows)), err)
	if err != nil {
		return nil, err
	}
	return &Result{
		Columns:  entry.cols,
		Rows:     rows,
		Ctx:      *ectx,
		EstRows:  entry.estRows,
		EstCost:  entry.estCost,
		Plan:     entry.planText,
		Trace:    entry.trace,
		CacheHit: cacheHit,
		Events:   entry.events,
	}, nil
}

// explainAnalyze executes the plan under full instrumentation and renders
// per-node estimated vs. actual figures plus every soft-constraint
// consultation made while planning.
func (db *Database) explainAnalyze(ctx context.Context, entry *cachedPlan, sqlText, cacheStatus string, st Settings, sess string, snap, tid int64) (*Result, error) {
	start := time.Now()
	iroot, span := entry.instrument()
	hit := strings.HasPrefix(cacheStatus, "hit")
	ectx := db.execCtx(ctx, st, snap, tid)
	if !db.NoEconomy {
		ectx.Skips = exec.NewSkipRecorder()
		ectx.Shorts = exec.NewSkipRecorder()
	}
	resRows, err := db.runPlan(ctx, iroot, ectx, int(entry.estRows))
	dur := time.Since(start)
	io := ectx.IO.Load()
	state := terminalState(err)
	t := &obs.Trace{
		SQL: sqlText, Start: start, Duration: dur,
		CacheHit: hit, Session: sess, Shape: entry.shapeID,
		Root: span, Events: entry.events,
		EstRows: entry.estRows, EstCost: entry.estCost,
		ActualRows: int64(len(resRows)), PagesRead: io.PagesRead,
		PagesSkipped:       io.PagesSkipped,
		PagesFrozen:        io.PagesFrozen,
		RowsShortCircuited: ectx.ShortCircuits,
		IndexPagePaths:     ectx.PagePaths,
		State:              state,
	}
	if err != nil {
		t.Err = err.Error()
	}
	db.observeQuery(t)
	db.creditEconomy(entry, span, ectx.Skips, ectx.Shorts, int64(len(resRows)), err)
	if err != nil {
		return nil, err
	}
	var rows []types.Row
	line := func(s string) { rows = append(rows, types.Row{types.NewString(s)}) }
	for _, l := range span.Render() {
		line(l)
	}
	for _, tr := range entry.trace {
		line("rewrite: " + tr)
	}
	for _, e := range entry.events {
		line("event: " + e.String())
	}
	for _, l := range economyLines(entry, ectx.Skips, ectx.Shorts) {
		line(l)
	}
	line(fmt.Sprintf("estimated rows: %.1f, cost: %.1f", entry.estRows, entry.estCost))
	line(fmt.Sprintf("actual rows: %d, elapsed: %s, pages: %d, skipped: %d", len(resRows), dur, io.PagesRead, io.PagesSkipped))
	line("terminal state: " + state)
	line("plan cache: " + cacheStatus)
	return &Result{
		Columns:  []string{"plan"},
		Rows:     rows,
		Ctx:      *ectx,
		EstRows:  entry.estRows,
		EstCost:  entry.estCost,
		Plan:     entry.planText,
		Trace:    entry.trace,
		CacheHit: hit,
		Events:   entry.events,
	}, nil
}

// analyze collects statistics (DB2 runstats) for a table and for the
// materialized summary tables defined over it.
func (db *Database) analyze(a *sql.Analyze) (*Result, error) {
	te, err := db.cat.Table(a.Table)
	if err != nil {
		return nil, err
	}
	ts := stats.Collect(te.Heap, stats.DefaultBuckets)
	if err := db.cat.SetStats(te.Def.Name, ts); err != nil {
		return nil, err
	}
	for _, st := range db.cat.SummariesOn(te.Def.Name) {
		if st.Heap != nil {
			st.Stats = stats.Collect(st.Heap, stats.DefaultBuckets)
		}
	}
	// Virtual columns (§5.1's second mechanism) get a distribution too:
	// evaluate the expression per row and build column statistics over the
	// results.
	for _, vc := range te.Virtual {
		col, err := virtualColumn(te.Heap, vc.Expr)
		if err != nil {
			return nil, fmt.Errorf("engine: analyzing virtual column %s: %w", vc.Name, err)
		}
		vc.Stats = stats.BuildColumnStats(vc.Name, vc.Expr.Type(), col, stats.DefaultBuckets)
	}
	db.cat.Touch()
	return &Result{RowsAffected: te.Heap.RowCount()}, nil
}

// virtualColumn evaluates e over every latest-visible row of heap, reading
// only the columns e names, into a column of e's kind: a value of another
// kind is coerced to it, as a stored column's value is on insert.
func virtualColumn(heap *storage.Heap, e expr.Expr) (*vec.Col, error) {
	kind := e.Type()
	out := &vec.Col{Class: vec.ClassOf(kind)}
	ords := expr.ColumnIndexes(e)
	if len(ords) == 0 {
		ords = []int{0} // a constant still has one value per row
	}
	cols := heap.Columns(ords)
	kinds := heap.Kinds()
	row := make(types.Row, len(kinds))
	for r := range cols[0].Nulls {
		for i, o := range ords {
			row[o] = cols[i].Datum(kinds[o], r)
		}
		v, err := e.Eval(row)
		if err == nil {
			v, err = types.Coerce(v, kind)
		}
		if err != nil {
			return nil, err
		}
		out.Append(v)
	}
	return out, nil
}

// AddVirtualColumn registers and immediately analyzes a virtual column
// (§5.1's second mechanism). exprSQL is an expression over the table's
// columns, e.g. "end_date - start_date".
func (db *Database) AddVirtualColumn(table, name, exprSQL string) error {
	db.lockWrite()
	defer db.writeMu.Unlock()
	db.lock()
	defer db.mu.Unlock()
	te, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	parsed, err := parseExpression(exprSQL)
	if err != nil {
		return err
	}
	bound, err := bindToTable(parsed, te.Def)
	if err != nil {
		return err
	}
	if _, err := db.cat.AddVirtualColumn(table, name, bound); err != nil {
		return err
	}
	if _, err = db.analyze(&sql.Analyze{Table: table}); err != nil {
		return err
	}
	if db.dur != nil {
		// Durability: a registry image carries the new column; the ANALYZE
		// replay re-collects its statistics the same way the live call did.
		if err := db.walSoftLocked(); err != nil {
			return err
		}
		db.walDDL("ANALYZE "+te.Def.Name, true)
		return db.commitWALLocked()
	}
	return nil
}

// parseExpression parses a bare scalar expression by wrapping it in a
// SELECT against a placeholder binding (binding happens later against the
// real table).
func parseExpression(s string) (expr.Expr, error) {
	stmt, err := sql.Parse("SELECT " + s + " AS v FROM dualx")
	if err != nil {
		return nil, fmt.Errorf("engine: bad expression %q: %w", s, err)
	}
	sel := stmt.(*sql.Select)
	if len(sel.Items) != 1 || sel.Items[0].Expr == nil {
		return nil, fmt.Errorf("engine: bad expression %q", s)
	}
	return sel.Items[0].Expr, nil
}

// exprColumnOrdinals is a small local helper over expr column extraction.
func exprColumnOrdinals(e expr.Expr) []int { return expr.ColumnIndexes(e) }
