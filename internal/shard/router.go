package shard

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softdb/internal/client"
	"softdb/internal/exec"
	"softdb/internal/expr"
	"softdb/internal/obs"
	"softdb/internal/sql"
	"softdb/internal/types"
	"softdb/internal/wire"
)

// Metric families the router exports on its own registry.
const (
	mConnections     = "softdb_router_connections"
	mRequests        = "softdb_router_requests_total"
	mShardQueries    = "softdb_router_shard_queries_total"
	mShardsContacted = "softdb_router_shards_contacted_total"
	mShardsPruned    = "softdb_router_shards_pruned_total"
	mUnreachable     = "softdb_router_shard_unreachable_total"
	mRetired         = "softdb_router_constraints_retired_total"
	mSyncs           = "softdb_router_syncs_total"
	mReqDuration     = "softdb_router_request_duration_seconds"
)

// Config declares a router's topology and behavior.
type Config struct {
	// Addrs are the shard servers, in shard-ID order.
	Addrs []string
	// Specs partition tables across the shards; tables without a spec are
	// replicated (DDL and writes fan everywhere, reads route to one shard).
	Specs []Spec
	// Holes are operator-declared value gaps the next ROUTER SYNC verifies
	// and installs as prunable, ASC-backed registry entries.
	Holes []Hole
	// TrackCols lists extra "table.column" pairs whose per-shard value
	// ranges ROUTER SYNC characterizes beyond each table's partition key.
	TrackCols []string
	// NoPrune disables registry-based shard pruning globally (partition
	// routing still applies); per-session SET shard_prune overrides.
	NoPrune bool
	// DialTimeout/DialAttempts tune the shard connection pool's backoff
	// dialer; zero means the client package defaults.
	DialTimeout  time.Duration
	DialAttempts int
	// Logger, when non-nil, receives routing lifecycle logs.
	Logger *slog.Logger
}

// Hole is an operator-declared value gap on one shard: no row of Table
// has Column inside [Lo, Hi]. ROUTER SYNC verifies the claim against the
// shard before trusting it.
type Hole struct {
	Shard  int
	Table  string
	Column string
	Lo, Hi types.Datum
}

// ParseHole parses a -hole flag value: shard:table.column:lo,hi.
func ParseHole(s string) (Hole, error) {
	shardPart, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Hole{}, fmt.Errorf("shard: hole %q: want shard:table.column:lo,hi", s)
	}
	id, err := strconv.Atoi(strings.TrimSpace(shardPart))
	if err != nil {
		return Hole{}, fmt.Errorf("shard: hole %q: bad shard id: %w", s, err)
	}
	colPart, boundsPart, ok := strings.Cut(rest, ":")
	if !ok {
		return Hole{}, fmt.Errorf("shard: hole %q: want shard:table.column:lo,hi", s)
	}
	table, column, ok := strings.Cut(colPart, ".")
	if !ok {
		return Hole{}, fmt.Errorf("shard: hole %q: want table.column", s)
	}
	loPart, hiPart, ok := strings.Cut(boundsPart, ",")
	if !ok {
		return Hole{}, fmt.Errorf("shard: hole %q: want lo,hi bounds", s)
	}
	lo, err := parseBound(strings.TrimSpace(loPart))
	if err != nil {
		return Hole{}, fmt.Errorf("shard: hole %q: %w", s, err)
	}
	hi, err := parseBound(strings.TrimSpace(hiPart))
	if err != nil {
		return Hole{}, fmt.Errorf("shard: hole %q: %w", s, err)
	}
	if lo.Compare(hi) > 0 {
		return Hole{}, fmt.Errorf("shard: hole %q: lo > hi", s)
	}
	return Hole{Shard: id, Table: strings.ToLower(table), Column: strings.ToLower(column), Lo: lo, Hi: hi}, nil
}

// Router fronts N engine shards: it routes writes by partition key, fans
// reads out, merges results, and prunes shards through the constraint
// registry. Construct with New, serve sessions with NewSession (or over
// the wire with NewFrontend).
type Router struct {
	cfg   Config
	n     int
	specs map[string]Spec // by lower-case table
	reg   *Registry

	metrics *obs.Registry
	econ    *obs.Economy

	gConns      *obs.Gauge
	cRequests   *obs.Counter
	cContacted  *obs.Counter
	cUnreach    *obs.Counter
	cRetired    *obs.Counter
	cSyncs      *obs.Counter
	hDuration   *obs.Histogram
	cShardQuery []*obs.Counter
	cPruned     map[string]*obs.Counter

	// admin is the per-shard connection pool ROUTER SYNC and schema
	// discovery use, separate from session connections so a sync never
	// interleaves with a session's transaction.
	adminMu sync.Mutex
	admin   []*client.Conn

	schemaMu sync.Mutex
	schemas  map[string][]string

	genSeq  atomic.Int64
	connSeq atomic.Int64
}

// New validates cfg and builds a Router. It does not contact the shards;
// connections are dialed lazily.
func New(cfg Config) (*Router, error) {
	n := len(cfg.Addrs)
	if n == 0 {
		return nil, errors.New("shard: router needs at least one shard address")
	}
	specs := map[string]Spec{}
	for _, sp := range cfg.Specs {
		if err := sp.Validate(n); err != nil {
			return nil, err
		}
		if _, dup := specs[sp.Table]; dup {
			return nil, fmt.Errorf("shard: duplicate partition spec for table %s", sp.Table)
		}
		specs[sp.Table] = sp
	}
	for _, h := range cfg.Holes {
		if h.Shard < 0 || h.Shard >= n {
			return nil, fmt.Errorf("shard: hole on shard %d: only %d shards configured", h.Shard, n)
		}
	}
	reg := obs.NewRegistry()
	reg.Describe(mConnections, "gauge", "Client sessions currently served by the router.")
	reg.Describe(mRequests, "counter", "Statements the router dispatched.")
	reg.Describe(mShardQueries, "counter", "Statements forwarded per shard.")
	reg.Describe(mShardsContacted, "counter", "Shard round-trips across all statements.")
	reg.Describe(mShardsPruned, "counter", "Shards skipped by the constraint registry, by reason.")
	reg.Describe(mUnreachable, "counter", "Statements that failed because a shard was unreachable.")
	reg.Describe(mRetired, "counter", "Registry entries retired by shard deactivation notices.")
	reg.Describe(mSyncs, "counter", "ROUTER SYNC passes completed.")
	reg.Describe(mReqDuration, "histogram", "Router request latency in seconds.")
	r := &Router{
		cfg:        cfg,
		n:          n,
		specs:      specs,
		reg:        NewRegistry(),
		metrics:    reg,
		econ:       obs.NewEconomy(reg),
		gConns:     reg.Gauge(mConnections),
		cRequests:  reg.Counter(mRequests),
		cContacted: reg.Counter(mShardsContacted),
		cUnreach:   reg.Counter(mUnreachable),
		cRetired:   reg.Counter(mRetired),
		cSyncs:     reg.Counter(mSyncs),
		hDuration:  reg.Histogram(mReqDuration, obs.DefLatencyBuckets),
		cPruned: map[string]*obs.Counter{
			"range": reg.Counter(mShardsPruned, "reason", "range"),
			"hole":  reg.Counter(mShardsPruned, "reason", "hole"),
			"empty": reg.Counter(mShardsPruned, "reason", "empty"),
		},
		admin:   make([]*client.Conn, n),
		schemas: map[string][]string{},
	}
	for i := range cfg.Addrs {
		r.cShardQuery = append(r.cShardQuery, reg.Counter(mShardQueries, "shard", strconv.Itoa(i)))
	}
	return r, nil
}

// Metrics returns the router's metric registry (served on -debug-addr).
func (r *Router) Metrics() *obs.Registry { return r.metrics }

// Registry returns the shard constraint registry.
func (r *Router) Registry() *Registry { return r.reg }

// Shards returns the number of shards the router fronts.
func (r *Router) Shards() int { return r.n }

// ShardQueryCounts snapshots the per-shard forwarded-statement counters;
// deltas between snapshots tell a caller how many shards a statement
// actually contacted (the benchmark and experiment probes use this).
func (r *Router) ShardQueryCounts() []int64 {
	out := make([]int64, r.n)
	for i, c := range r.cShardQuery {
		out[i] = c.Value()
	}
	return out
}

func (r *Router) logf(level slog.Level, msg string, args ...any) {
	if r.cfg.Logger != nil {
		r.cfg.Logger.Log(context.Background(), level, msg, args...)
	}
}

func (r *Router) dialer(shard int) client.Dialer {
	return client.Dialer{
		Addr:           r.cfg.Addrs[shard],
		ConnectTimeout: r.cfg.DialTimeout,
		MaxAttempts:    r.cfg.DialAttempts,
	}
}

// unreachable wraps a transport-level shard failure into the typed kind
// clients classify on.
func (r *Router) unreachable(shard int, err error) error {
	r.cUnreach.Inc()
	return &exec.QueryError{
		Op:   fmt.Sprintf("router.shard-%d", shard),
		Kind: exec.KindShardUnreachable,
		Err:  fmt.Errorf("shard %d (%s): %w", shard, r.cfg.Addrs[shard], err),
	}
}

// adminQuery runs one statement on a shard over the router-owned admin
// pool, redialing a broken connection once.
func (r *Router) adminQuery(ctx context.Context, shard int, stmt string) (*client.Result, error) {
	r.adminMu.Lock()
	defer r.adminMu.Unlock()
	for attempt := 0; ; attempt++ {
		c := r.admin[shard]
		if c == nil {
			var err error
			c, err = r.dialer(shard).Dial(ctx)
			if err != nil {
				return nil, r.unreachable(shard, err)
			}
			r.admin[shard] = c
		}
		res, err := c.Query(ctx, stmt)
		if err != nil {
			var we *wire.Error
			if errors.As(err, &we) {
				r.absorb(res, we)
				return nil, we
			}
			_ = c.Close()
			r.admin[shard] = nil
			if attempt == 0 {
				continue
			}
			return nil, r.unreachable(shard, err)
		}
		r.cShardQuery[shard].Inc()
		r.absorb(res, nil)
		return res, nil
	}
}

// absorb retires registry entries named in a shard response's
// deactivation notices. It runs on every shard response, success or
// error, before that response is surfaced — the invalidation therefore
// lands at the router before the triggering statement returns to the
// client, and no later routed query can use the dead entry.
func (r *Router) absorb(res *client.Result, _ *wire.Error) {
	if res == nil {
		return
	}
	if n := r.reg.AbsorbNotices(res.Notices); n > 0 {
		r.cRetired.Add(int64(n))
		r.logf(slog.LevelInfo, "registry entries retired by shard notice", "count", n)
	}
}

// schemaColumns resolves (and caches) a table's column names via a
// zero-row scan on shard 0.
func (r *Router) schemaColumns(ctx context.Context, table string) ([]string, error) {
	key := strings.ToLower(table)
	r.schemaMu.Lock()
	cols, ok := r.schemas[key]
	r.schemaMu.Unlock()
	if ok {
		return cols, nil
	}
	res, err := r.adminQuery(ctx, 0, fmt.Sprintf("SELECT * FROM %s LIMIT 0", key))
	if err != nil {
		return nil, err
	}
	r.schemaMu.Lock()
	r.schemas[key] = res.Columns
	r.schemaMu.Unlock()
	return res.Columns, nil
}

func (r *Router) invalidateSchema() {
	r.schemaMu.Lock()
	r.schemas = map[string][]string{}
	r.schemaMu.Unlock()
}

// Close tears down the admin pool.
func (r *Router) Close() {
	r.adminMu.Lock()
	defer r.adminMu.Unlock()
	for i, c := range r.admin {
		if c != nil {
			_ = c.Close()
			r.admin[i] = nil
		}
	}
}

// --- sessions ---

type txnState int

const (
	txnNone txnState = iota
	// txnPending: BEGIN was received but no statement has pinned a shard
	// yet; the BEGIN is forwarded lazily with the pinning statement.
	txnPending
	txnPinned
)

// Session is one client's routing state: its per-shard connections, its
// forwarded settings, and its transaction pin.
type Session struct {
	r     *Router
	label string

	mu       sync.Mutex
	conns    []*client.Conn
	settings map[string]string
	prune    bool
	txn      txnState
	pinned   int
	closed   bool
}

// NewSession opens a routing session.
func (r *Router) NewSession() *Session {
	r.gConns.Add(1)
	return &Session{
		r:        r,
		label:    fmt.Sprintf("route-%d", r.connSeq.Add(1)),
		conns:    make([]*client.Conn, r.n),
		settings: map[string]string{},
		prune:    !r.cfg.NoPrune,
	}
}

// Close releases the session's shard connections, rolling back any open
// transaction server-side (the pinned shard sees its connection drop).
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for i, c := range s.conns {
		if c != nil {
			_ = c.Close()
			s.conns[i] = nil
		}
	}
	s.r.gConns.Add(-1)
}

// Set handles one session setting: shard_prune toggles registry pruning
// at the router; everything else is forwarded to the shard engines. Every
// later dial replays the stored settings, so a value is validated on one
// shard connection (dialing one when the session has none open) before it
// is stored: a value the shard rejects errors here and leaves the stored
// settings unchanged, instead of poisoning every future connection. A
// validated value then goes to the other open connections; one that fails
// is dropped, and its next use re-dials and replays the stored settings.
func (s *Session) Set(name, value string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if strings.EqualFold(name, "shard_prune") {
		switch strings.ToLower(value) {
		case "on", "true", "1":
			s.prune = true
		case "off", "false", "0":
			s.prune = false
		default:
			return fmt.Errorf("shard: shard_prune wants on/off, got %q", value)
		}
		return nil
	}
	first, err := s.anyConnLocked(context.TODO()) // Set takes no context
	if err != nil {
		return err
	}
	if err := s.conns[first].Set(name, value); err != nil {
		var we *wire.Error
		if !errors.As(err, &we) {
			s.dropConnLocked(first) // transport failure: the stream is gone
		}
		return err
	}
	s.settings[name] = value
	for i, c := range s.conns {
		if c != nil && i != first {
			if err := c.Set(name, value); err != nil {
				s.dropConnLocked(i)
			}
		}
	}
	return nil
}

// anyConnLocked returns the index of an open shard connection, dialing the
// first reachable shard when none is open. s.mu must be held.
func (s *Session) anyConnLocked(ctx context.Context) (int, error) {
	for i, c := range s.conns {
		if c != nil {
			return i, nil
		}
	}
	var err error
	for i := range s.conns {
		if _, err = s.connLocked(ctx, i); err == nil {
			return i, nil
		}
	}
	return 0, err
}

// conn returns the session's connection to a shard, dialing and replaying
// forwarded settings on first use.
func (s *Session) conn(ctx context.Context, shard int) (*client.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connLocked(ctx, shard)
}

// connLocked is conn with s.mu held.
func (s *Session) connLocked(ctx context.Context, shard int) (*client.Conn, error) {
	if c := s.conns[shard]; c != nil {
		return c, nil
	}
	c, err := s.r.dialer(shard).Dial(ctx)
	if err != nil {
		return nil, s.r.unreachable(shard, err)
	}
	for name, value := range s.settings {
		if err := c.Set(name, value); err != nil {
			_ = c.Close()
			return nil, err
		}
	}
	s.conns[shard] = c
	return c, nil
}

func (s *Session) dropConn(shard int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropConnLocked(shard)
}

// dropConnLocked is dropConn with s.mu held.
func (s *Session) dropConnLocked(shard int) {
	if c := s.conns[shard]; c != nil {
		_ = c.Close()
		s.conns[shard] = nil
	}
}

// query forwards one statement to a shard on the session's connection,
// absorbing deactivation notices from the response.
func (s *Session) query(ctx context.Context, shard int, stmt string) (*client.Result, error) {
	c, err := s.conn(ctx, shard)
	if err != nil {
		return nil, err
	}
	res, err := c.Query(ctx, stmt)
	if err != nil {
		var we *wire.Error
		if errors.As(err, &we) {
			s.r.absorb(res, we)
			return nil, we // shard-classified; stream still in sync
		}
		s.dropConn(shard)
		if ctx.Err() != nil { // the caller gave up, not the shard
			return nil, exec.CancelError(fmt.Sprintf("router.shard-%d", shard), context.Cause(ctx))
		}
		return nil, s.r.unreachable(shard, err)
	}
	s.r.cShardQuery[shard].Inc()
	s.r.cContacted.Inc()
	s.r.absorb(res, nil)
	return res, nil
}

// fanOut runs one statement on several shards concurrently (each shard
// has its own connection) and returns results in shard order.
func (s *Session) fanOut(ctx context.Context, shards []int, stmt string) ([]*client.Result, error) {
	if len(shards) == 1 {
		res, err := s.query(ctx, shards[0], stmt)
		if err != nil {
			return nil, err
		}
		return []*client.Result{res}, nil
	}
	// Dial serially (the session lock guards the conn table), then query
	// concurrently.
	for _, id := range shards {
		if _, err := s.conn(ctx, id); err != nil {
			return nil, err
		}
	}
	results := make([]*client.Result, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, id := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.query(ctx, id, stmt)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// --- statement dispatch ---

// Exec routes one statement. This is the router's entry point: the wire
// front end calls it per FrameQuery, and tests call it directly.
func (s *Session) Exec(ctx context.Context, text string) (*client.Result, error) {
	s.r.cRequests.Inc()
	start := time.Now()
	res, err := s.exec(ctx, text)
	s.r.hDuration.Observe(time.Since(start).Seconds())
	return res, err
}

func (s *Session) exec(ctx context.Context, text string) (*client.Result, error) {
	trimmed := strings.TrimSuffix(strings.TrimSpace(text), ";")
	if strings.EqualFold(trimmed, "ROUTER SYNC") {
		return s.r.Sync(ctx)
	}
	stmt, err := sql.Parse(trimmed)
	if err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case *sql.Show:
		if st.Shards {
			return s.showShards(), nil
		}
		return s.showEconomy(), nil
	case *sql.Begin:
		return s.begin()
	case *sql.Commit, *sql.Rollback:
		return s.finishTxn(ctx, trimmed)
	case *sql.Select:
		return s.execSelect(ctx, st, trimmed)
	case *sql.Insert:
		return s.execInsert(ctx, st)
	case *sql.Update:
		if err := s.checkPartitionKeyUpdate(st); err != nil {
			return nil, err
		}
		return s.execWhereDML(ctx, st.Table, st.Where, trimmed)
	case *sql.Delete:
		return s.execWhereDML(ctx, st.Table, st.Where, trimmed)
	case *sql.Explain:
		return s.execExplain(ctx, st, trimmed)
	case *sql.CreateTable:
		s.r.reg.DropTable(st.Name)
		return s.execDDL(ctx, trimmed)
	case *sql.DropTable:
		s.r.reg.DropTable(st.Name)
		return s.execDDL(ctx, trimmed)
	case *sql.CreateIndex, *sql.CreateSummary, *sql.CreateView, *sql.AlterTableAdd, *sql.Analyze:
		return s.execDDL(ctx, trimmed)
	default:
		return nil, fmt.Errorf("shard: statement not routable: %T", stmt)
	}
}

func (s *Session) begin() (*client.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.txn != txnNone {
		return nil, errors.New("shard: transaction already open")
	}
	s.txn = txnPending
	return &client.Result{Notices: []string{"transaction open: will pin to the first shard a statement routes to"}}, nil
}

func (s *Session) finishTxn(ctx context.Context, stmt string) (*client.Result, error) {
	s.mu.Lock()
	state, pinned := s.txn, s.pinned
	s.txn, s.pinned = txnNone, 0
	s.mu.Unlock()
	switch state {
	case txnPinned:
		return s.query(ctx, pinned, stmt)
	case txnPending:
		return &client.Result{Notices: []string{"transaction closed before any statement pinned a shard"}}, nil
	default:
		return &client.Result{Notices: []string{"no transaction open"}}, nil
	}
}

// pinTxn resolves a statement's shard under the session transaction: a
// pending transaction pins to the statement's shard (forwarding the
// deferred BEGIN), a pinned one rejects statements routed elsewhere.
// ok=false means no transaction is open.
func (s *Session) pinTxn(ctx context.Context, shard int) (inTxn bool, err error) {
	s.mu.Lock()
	state, pinned := s.txn, s.pinned
	s.mu.Unlock()
	switch state {
	case txnNone:
		return false, nil
	case txnPending:
		if _, err := s.query(ctx, shard, "BEGIN"); err != nil {
			return true, err
		}
		s.mu.Lock()
		s.txn, s.pinned = txnPinned, shard
		s.mu.Unlock()
		return true, nil
	default:
		if pinned != shard {
			return true, &exec.QueryError{
				Op:   "router.txn",
				Kind: exec.KindWrongShard,
				Err:  fmt.Errorf("transaction is pinned to shard %d; statement routes to shard %d", pinned, shard),
			}
		}
		return true, nil
	}
}

// inTxn reports whether a session transaction is open (pending or pinned).
func (s *Session) inTxn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txn != txnNone
}

func multiShardErr(what string) error {
	return &exec.QueryError{
		Op:   "router.txn",
		Kind: exec.KindMultiShardTxn,
		Err:  fmt.Errorf("%s would touch more than one shard; the router does not fake cross-shard atomicity", what),
	}
}

// execDDL fans a schema statement to every shard.
func (s *Session) execDDL(ctx context.Context, stmt string) (*client.Result, error) {
	defer s.r.invalidateSchema()
	return s.everyShard(ctx, "DDL", stmt)
}

// everyShard runs a statement that must land on every shard — DDL, or a
// write to a replicated table — and answers with shard 0's response: the
// shards are identical there, and their notices would repeat n times.
// Inside a transaction it is rejected (it is inherently multi-shard)
// unless there is one shard.
func (s *Session) everyShard(ctx context.Context, what, stmt string) (*client.Result, error) {
	if s.inTxn() {
		if s.r.n > 1 {
			return nil, multiShardErr(what + " inside a transaction")
		}
		if _, err := s.pinTxn(ctx, 0); err != nil {
			return nil, err
		}
		return s.query(ctx, 0, stmt)
	}
	results, err := s.fanOut(ctx, allShards(s.r.n), stmt)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// execInsert routes INSERT rows to their partition-owning shards. A
// multi-row insert splits into one statement per owning shard.
func (s *Session) execInsert(ctx context.Context, ins *sql.Insert) (*client.Result, error) {
	spec, partitioned := s.r.specs[strings.ToLower(ins.Table)]
	if !partitioned {
		return s.everyShard(ctx, "INSERT into replicated table "+ins.Table, sql.Print(ins))
	}
	keyIdx, err := s.partitionKeyIndex(ctx, ins, spec)
	if err != nil {
		return nil, err
	}
	byShard := map[int][][]expr.Expr{}
	var shardOrder []int
	for _, row := range ins.Rows {
		v := types.Null
		if keyIdx >= 0 && keyIdx < len(row) {
			v, err = constDatum(row[keyIdx])
			if err != nil {
				return nil, fmt.Errorf("shard: partition key of %s must be a constant: %w", ins.Table, err)
			}
		}
		id := spec.ShardFor(v, s.r.n)
		if _, seen := byShard[id]; !seen {
			shardOrder = append(shardOrder, id)
		}
		byShard[id] = append(byShard[id], row)
	}
	sort.Ints(shardOrder)
	if s.inTxn() {
		if len(shardOrder) > 1 {
			return nil, multiShardErr(fmt.Sprintf("INSERT into %s spanning shards %v", ins.Table, shardOrder))
		}
		if inTxn, err := s.pinTxn(ctx, shardOrder[0]); inTxn && err != nil {
			return nil, err
		}
	}
	out := &client.Result{}
	for _, id := range shardOrder {
		sub := &sql.Insert{Table: ins.Table, Columns: ins.Columns, Rows: byShard[id]}
		res, err := s.query(ctx, id, sql.Print(sub))
		if err != nil {
			return nil, err
		}
		out.RowsAffected += res.RowsAffected
		out.Notices = append(out.Notices, res.Notices...)
	}
	return out, nil
}

// partitionKeyIndex finds the partition column's position among an
// INSERT's value lists, resolving positional inserts through the schema.
// -1 means the insert never assigns the key (rows route as NULL).
func (s *Session) partitionKeyIndex(ctx context.Context, ins *sql.Insert, spec Spec) (int, error) {
	cols := ins.Columns
	if len(cols) == 0 {
		var err error
		cols, err = s.r.schemaColumns(ctx, ins.Table)
		if err != nil {
			return -1, err
		}
	}
	for i, c := range cols {
		if strings.EqualFold(c, spec.Column) {
			return i, nil
		}
	}
	return -1, nil
}

// constDatum evaluates a row-independent expression.
func constDatum(e expr.Expr) (d types.Datum, err error) {
	defer func() {
		if recover() != nil {
			d, err = types.Null, errors.New("expression references a column")
		}
	}()
	return e.Eval(nil)
}

// checkPartitionKeyUpdate rejects UPDATEs that assign a partitioned
// table's key: the row would belong on a different shard afterwards, and
// the router does not move rows.
func (s *Session) checkPartitionKeyUpdate(up *sql.Update) error {
	spec, ok := s.r.specs[strings.ToLower(up.Table)]
	if !ok {
		return nil
	}
	for _, sc := range up.Set {
		if strings.EqualFold(sc.Column, spec.Column) {
			return fmt.Errorf("shard: UPDATE may not assign partition key %s.%s (delete and re-insert instead)", up.Table, spec.Column)
		}
	}
	return nil
}

// execWhereDML routes UPDATE/DELETE: the WHERE clause's interval on the
// partition key narrows the candidate shards (each shard owns disjoint
// rows, so fanning the statement to every candidate is exact); replicated
// tables fan everywhere.
func (s *Session) execWhereDML(ctx context.Context, table string, where expr.Expr, stmt string) (*client.Result, error) {
	spec, partitioned := s.r.specs[strings.ToLower(table)]
	targets := allShards(s.r.n)
	if partitioned {
		ivs := columnIntervals(where, table, "", true)
		if iv, ok := ivs[spec.Column]; ok {
			targets = spec.CandidateShards(iv, s.r.n)
		}
	}
	if len(targets) == 0 {
		return &client.Result{}, nil // predicate excludes every shard
	}
	if s.inTxn() {
		if !partitioned && s.r.n > 1 {
			return nil, multiShardErr(fmt.Sprintf("write to replicated table %s inside a transaction", table))
		}
		if len(targets) > 1 {
			return nil, multiShardErr(fmt.Sprintf("write to %s spanning shards %v", table, targets))
		}
		if inTxn, err := s.pinTxn(ctx, targets[0]); inTxn && err != nil {
			return nil, err
		}
		return s.query(ctx, targets[0], stmt)
	}
	results, err := s.fanOut(ctx, targets, stmt)
	if err != nil {
		return nil, err
	}
	out := &client.Result{}
	for i, res := range results {
		if partitioned {
			out.RowsAffected += res.RowsAffected
		} else if i == 0 {
			out.RowsAffected = res.RowsAffected
		}
		if i == 0 || partitioned {
			out.Notices = append(out.Notices, res.Notices...)
		}
	}
	return out, nil
}

// route computes a SELECT's target shards: partition routing narrows by
// the partition key's WHERE interval, then the constraint registry prunes
// shards whose characterizations exclude the predicate.
type routeDecision struct {
	targets []int
	pruned  []prunedShard
}

type prunedShard struct {
	shard  int
	entry  *Entry
	reason string
}

// route reads the session's pruning setting; partition routing always
// applies.
func (s *Session) route(sel *sql.Select) (routeDecision, error) {
	s.mu.Lock()
	prune := s.prune && !s.r.cfg.NoPrune
	s.mu.Unlock()
	d := routeDecision{}
	if len(sel.From) == 0 {
		d.targets = []int{0}
		return d, nil
	}
	var partitioned []sql.TableRef
	for _, ref := range sel.From {
		if _, ok := s.r.specs[strings.ToLower(ref.Table)]; ok {
			partitioned = append(partitioned, ref)
		}
	}
	if len(partitioned) == 0 {
		// Every table is replicated: one shard has all the rows.
		d.targets = []int{0}
		return d, nil
	}
	// Unqualified columns are ambiguous across several tables, so only a
	// lone table claims them.
	ivs := make([]map[string]expr.Interval, len(partitioned))
	for i, ref := range partitioned {
		ivs[i] = columnIntervals(sel.Where, ref.Table, ref.Alias, len(sel.From) == 1)
	}
	candidates := allShards(s.r.n)
	if len(partitioned) == 1 {
		spec := s.r.specs[strings.ToLower(partitioned[0].Table)]
		if iv, ok := ivs[0][spec.Column]; ok {
			candidates = spec.CandidateShards(iv, s.r.n)
		}
	} else if s.r.n > 1 {
		// Two partitioned tables fan to >1 shard would join only co-located
		// fragments and silently miss cross-shard pairs.
		return d, errUnsupported("joining two partitioned tables")
	}
	if !prune {
		d.targets = candidates
		return d, nil
	}
	for _, id := range candidates {
		skipped := false
		for i, ref := range partitioned {
			if e, reason, ok := s.r.reg.Prune(id, ref.Table, ivs[i]); ok {
				d.pruned = append(d.pruned, prunedShard{shard: id, entry: e, reason: reason})
				skipped = true
				break
			}
		}
		if !skipped {
			d.targets = append(d.targets, id)
		}
	}
	s.creditPrunes(d.pruned)
	return d, nil
}

// creditPrunes books each avoided shard round-trip to the constraint that
// earned it — the economy-ledger analog of pages-skipped credit.
func (s *Session) creditPrunes(pruned []prunedShard) {
	for _, p := range pruned {
		name := p.entry.Constraint
		if name == "" {
			name = fmt.Sprintf("partition(%s)", p.entry.Table)
		}
		s.r.econ.CreditShardsPruned(name, 1)
		reason := "range"
		switch {
		case p.entry.Kind == KindHole:
			reason = "hole"
		case p.entry.Iv.Empty():
			reason = "empty"
		}
		s.r.cPruned[reason].Inc()
	}
}

func (s *Session) execSelect(ctx context.Context, sel *sql.Select, text string) (*client.Result, error) {
	d, err := s.route(sel)
	if err != nil {
		return nil, err
	}
	if len(d.targets) == 0 {
		// No shard holds a matching row, so any one computes the exact
		// answer: no rows for a scan, the empty-input row for aggregates.
		return s.query(ctx, 0, sql.Print(sel))
	}
	if s.inTxn() {
		if len(d.targets) > 1 {
			return nil, multiShardErr(fmt.Sprintf("SELECT spanning shards %v inside a transaction", d.targets))
		}
		if inTxn, err := s.pinTxn(ctx, d.targets[0]); inTxn && err != nil {
			return nil, err
		}
	}
	if len(d.targets) == 1 {
		return s.query(ctx, d.targets[0], text)
	}
	plan, err := planSelect(sel)
	if err != nil {
		return nil, err
	}
	results, err := s.fanOut(ctx, d.targets, sql.Print(plan.perShard))
	var we *wire.Error
	if errors.As(err, &we) && we.Msg == exec.ErrSumOverflow.Error() {
		return s.splitSumSelect(ctx, plan, d.targets, err)
	}
	if err != nil {
		return nil, err
	}
	return plan.run(ctx, results)
}

// splitSumSelect re-runs an aggregate SELECT whose SUM partial left the INT
// range on a shard with its SUMs split (selectPlan.splitSums). The names are
// the unsplit statement's. When the split statement fails too — a SUM over
// a DATE or BOOL, or a FLOAT holding ±Inf, cannot be split — the shard's
// overflow stands.
func (s *Session) splitSumSelect(ctx context.Context, plan *selectPlan, targets []int, overflow error) (*client.Result, error) {
	cols, err := s.columnsOf(ctx, targets[0], plan.perShard)
	if err != nil {
		return nil, err
	}
	plan.splitSums()
	results, err := s.fanOut(ctx, targets, sql.Print(plan.perShard))
	if err != nil {
		return nil, overflow
	}
	res, err := plan.run(ctx, results)
	if err != nil {
		return nil, err
	}
	res.Columns = plan.names(cols)
	return res, nil
}

// columnsOf asks a shard for sel's column names without reading a row: a
// LIMIT 0 returns before its input runs.
func (s *Session) columnsOf(ctx context.Context, shard int, sel *sql.Select) ([]string, error) {
	probe := *sel
	probe.Limit = 0
	res, err := s.query(ctx, shard, sql.Print(&probe))
	if err != nil {
		return nil, err
	}
	return res.Columns, nil
}

// --- EXPLAIN ---

func (s *Session) execExplain(ctx context.Context, ex *sql.Explain, text string) (*client.Result, error) {
	sel, isSelect := ex.Stmt.(*sql.Select)
	if !isSelect {
		res, err := s.query(ctx, 0, text)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, routerPlanRow(fmt.Sprintf("router: shards=1/%d pruned=0", s.r.n)))
		return res, nil
	}
	d, err := s.route(sel)
	if err != nil {
		return nil, err
	}
	keyword := "EXPLAIN"
	if ex.Analyze {
		keyword = "EXPLAIN ANALYZE"
	}
	var res *client.Result
	switch {
	case len(d.targets) == 0:
		res = &client.Result{Columns: []string{"plan"}}
	case len(d.targets) == 1:
		res, err = s.query(ctx, d.targets[0], text)
	default:
		res, err = s.explainMerge(ctx, sel, d.targets, keyword)
	}
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, routerPlanRow(fmt.Sprintf("router: shards=%d/%d pruned=%d", len(d.targets), s.r.n, len(d.pruned))))
	for _, p := range d.pruned {
		res.Rows = append(res.Rows, routerPlanRow(fmt.Sprintf("router: shard-pruned %d: %s", p.shard, p.reason)))
	}
	return res, nil
}

// explainMerge answers EXPLAIN for a multi-shard SELECT: the first shard's
// plan of the per-shard statement, then the router's operator tree. Only
// that shard is asked — it is the one plan shown, and EXPLAIN ANALYZE runs
// the statement where it is explained.
func (s *Session) explainMerge(ctx context.Context, sel *sql.Select, targets []int, keyword string) (*client.Result, error) {
	plan, err := planSelect(sel)
	if err != nil {
		return nil, err
	}
	res, err := s.query(ctx, targets[0], keyword+" "+sql.Print(plan.perShard))
	if err != nil {
		return nil, err
	}
	// The tree's ordinals need the per-shard width: the item count, unless
	// a * leaves it to the shard to say.
	width := len(plan.perShard.Items)
	if slices.ContainsFunc(plan.perShard.Items, func(it sql.SelectItem) bool { return it.Star }) {
		cols, err := s.columnsOf(ctx, targets[0], plan.perShard)
		if err != nil {
			return nil, err
		}
		width = len(cols)
	}
	tree := exec.Format(plan.merge(nil, width, len(targets)))
	for _, line := range strings.Split(strings.TrimSuffix(tree, "\n"), "\n") {
		res.Rows = append(res.Rows, routerPlanRow("router: "+line))
	}
	return res, nil
}

func routerPlanRow(line string) types.Row {
	return types.Row{types.NewString(line)}
}

// --- SHOW ---

// showShards renders the topology and the registry in the same column
// shape a plain engine answers SHOW SHARDS with (engine.go returns the
// empty single-node topology; the router intercepts and fills it in).
func (s *Session) showShards() *client.Result {
	res := &client.Result{Columns: []string{"shard", "addr", "state", "table", "column", "kind", "range", "constraint"}}
	for i, addr := range s.r.cfg.Addrs {
		res.Rows = append(res.Rows, types.Row{
			types.NewInt(int64(i)), types.NewString(addr), types.NewString("configured"),
			types.Null, types.Null, types.Null, types.Null, types.Null,
		})
	}
	for _, sp := range s.r.cfg.Specs {
		for i := 0; i < s.r.n; i++ {
			res.Rows = append(res.Rows, types.Row{
				types.NewInt(int64(i)), types.NewString(s.r.cfg.Addrs[i]), types.NewString("partition"),
				types.NewString(sp.Table), types.NewString(sp.Column), types.NewString(sp.Scheme.String()),
				types.NewString(sp.OwnedInterval(i, s.r.n).String()), types.Null,
			})
		}
	}
	for _, e := range s.r.reg.Snapshot() {
		state := "active"
		if !e.Active {
			state = "retired"
		}
		constraint := types.Null
		if e.Constraint != "" {
			constraint = types.NewString(e.Constraint)
		}
		res.Rows = append(res.Rows, types.Row{
			types.NewInt(int64(e.Shard)), types.NewString(s.r.cfg.Addrs[e.Shard]), types.NewString(state),
			types.NewString(e.Table), types.NewString(e.Column), types.NewString(e.Kind.String()),
			types.NewString(e.Iv.String()), constraint,
		})
	}
	return res
}

// showEconomy renders the router's own constraint economy: what each
// registry entry's backing constraint has earned in avoided shard
// round-trips.
func (s *Session) showEconomy() *client.Result {
	rows := s.r.econ.Snapshot()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ShardsPruned != rows[j].ShardsPruned {
			return rows[i].ShardsPruned > rows[j].ShardsPruned
		}
		return rows[i].Name < rows[j].Name
	})
	res := &client.Result{Columns: []string{"constraint", "shards_pruned"}}
	for _, r := range rows {
		res.Rows = append(res.Rows, types.Row{types.NewString(r.Name), types.NewInt(r.ShardsPruned)})
	}
	return res
}

// --- predicate extraction ---

// columnIntervals folds a WHERE clause's `col op const` conjuncts into
// per-column intervals for one table binding. Columns qualified by the
// table or its alias count; unqualified ones count only when allowBare
// (the table is the only one in FROM).
func columnIntervals(where expr.Expr, table, alias string, allowBare bool) map[string]expr.Interval {
	if where == nil {
		return nil
	}
	out := map[string]expr.Interval{}
	for _, c := range expr.SplitConjuncts(where) {
		lhs, op, val, ok := expr.DecomposeComparison(c)
		if !ok || op == expr.OpNe {
			continue
		}
		col, isCol := lhs.(*expr.Column)
		if !isCol {
			continue
		}
		switch {
		case col.Qualifier == "":
			if !allowBare {
				continue
			}
		case strings.EqualFold(col.Qualifier, table), alias != "" && strings.EqualFold(col.Qualifier, alias):
		default:
			continue
		}
		iv, ok := expr.IntervalForOp(op, val)
		if !ok {
			continue
		}
		name := strings.ToLower(col.Name)
		if prev, seen := out[name]; seen {
			iv = prev.Intersect(iv)
		}
		out[name] = iv
	}
	return out
}
