package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"softdb/internal/engine"
	"softdb/internal/mining"
	"softdb/internal/server"
	"softdb/internal/shard"
	"softdb/internal/softc"
	"softdb/internal/types"
	"softdb/internal/wal"
	data "softdb/internal/workload"
)

// workload is one traffic mix: how its system is built, what its clients
// send, and what must hold afterwards. Names are final; later issues cite
// them.
type workload struct {
	name string
	why  string
	// steadyCache marks a workload whose every statement comes from a fixed
	// pool: the run is refused unless the window's plan-cache hit ratio
	// shows the warm-up reached steady state.
	steadyCache bool
	setup       func(r *run) (*system, error)
	streams     func(r *run, sys *system) []stream
	// reference returns the executor the correctness gate compares
	// against, built or configured only after the window.
	reference func(r *run, sys *system, streams []stream) (func(text string) (*engine.Result, error), error)
	// after runs workload-specific post-window checks (durability, ASC
	// still active) and reports how many facts it checked.
	after func(r *run, sys *system, streams []stream) (checked, wrong int, err error)
}

var workloads = []*workload{
	{
		name:  "point_lookup",
		why:   "web-app point reads, Zipf keys with inlined literals: the distinct texts outgrow the plan cache, so parse/plan/cache/wire dominate and scan kernels must not matter",
		setup: setupPointLookup, streams: pointStreams, reference: plainReference,
	},
	{
		name:        "analytic_sqo",
		why:         "the paper's E1/E2/E4/FD query shapes from a 48-text pool that fits the plan cache: exec/vec/storage/btree dominate and planning is about zero",
		steadyCache: true,
		setup:       setupAnalytic, streams: analyticStreams, reference: plainReference,
	},
	{
		name:  "mixed_rw_durable",
		why:   "fsynced writes and checkpoints beside E1-shaped readers on one recovered engine: DML maintenance, WAL, MVCC and recovery costs show here",
		setup: setupDurable, streams: durableStreams, after: durableAfter,
	},
	{
		name:  "sharded_mixed",
		why:   "4 shards behind the router and frontend: shard pruning, scatter-gather, two wire hops and routed inserts dominate; the single-node workloads bypass all of it",
		setup: setupSharded, streams: shardedStreams, reference: shardedReference,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// system is one set-up instance of the system under test.
type system struct {
	addr string             // where the clients connect
	dbs  []*engine.Database // the engines behind addr: one, or one per shard
	// sharded_mixed only.
	router     *shard.Router
	shardAddrs []string
	// pool holds the fixed statement texts primed before the warm-up.
	pool []string
	// readOnly: answers do not change during the window, so in-window
	// answers are hashed and checked too.
	readOnly bool
	sizes    map[string]int
	closers  []func()

	// mixed_rw_durable only.
	dataDir    string
	durOpts    engine.DurableOptions
	recovery   *engine.RecoveryStats
	recoverAt  time.Time
	recoverDur time.Duration
	nextID     int64 // first purchase id the window's writer may insert

	// The layer counters at the start and the end of the measured window.
	before, after counters
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// serve puts db behind a wire server on loopback.
func (s *system) serve(db *engine.Database) (string, error) {
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.Listen()
	if err != nil {
		return "", err
	}
	s.background(srv.Serve, srv.Shutdown)
	return addr.String(), nil
}

// background runs a listener's accept loop until the system closes: close
// shuts the listener down and waits for the loop to return.
func (s *system) background(serve func() error, shutdown func(context.Context) error) {
	done := make(chan struct{})
	go func() {
		_ = serve() // returns once shutdown closes the listener
		close(done)
	}()
	s.closers = append(s.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = shutdown(ctx) // the harness has already closed its connections
		<-done
	})
}

// counters are the exported engine and router counters the per-layer
// metrics are deltas of, summed over the system's engines.
type counters struct {
	cacheHits, cacheMisses           int64
	cachedPlans                      int
	walBytes, walFsyncs, checkpoints int64
	maintNanos                       int64
	activeConstraints                int
	shardQueries, shardsPruned       int64
}

func (s *system) counters() counters {
	var c counters
	for _, db := range s.dbs {
		cs := db.CacheStats()
		c.cacheHits += cs.Hits
		c.cacheMisses += cs.Misses
		c.cachedPlans += db.CachedPlanCount()
		ws := db.WALStatusSnapshot()
		c.walBytes += ws.WALBytes
		c.walFsyncs += ws.WALFsyncs
		c.checkpoints += ws.Checkpoints
		for _, row := range db.ConstraintEconomy() {
			c.maintNanos += row.MaintNanos
			if row.Active {
				c.activeConstraints++
			}
		}
	}
	if s.router != nil {
		for _, n := range s.router.ShardQueryCounts() {
			c.shardQueries += n
		}
		for _, reason := range []string{"range", "hole", "empty"} {
			c.shardsPruned += s.router.Metrics().Counter("softdb_router_shards_pruned_total", "reason", reason).Value()
		}
	}
	return c
}

// checkSampled picks the share 1/n of statement texts the correctness
// gate follows, by the text's own hash so both clients agree.
func checkSampled(text string, n uint32) bool {
	h := fnv.New32a()
	h.Write([]byte(text))
	return h.Sum32()%n == 0
}

const epoch1999 = 10592 // 1999-01-01 in days since the Unix epoch, the loaders' base date

func dateLit(dayOffset int) string {
	return "DATE '" + time.Unix(int64(epoch1999+dayOffset)*86400, 0).UTC().Format("2006-01-02") + "'"
}

// --- point_lookup ---

func setupPointLookup(r *run) (*system, error) {
	n := r.scale(200000)
	db := engine.Open()
	if err := data.LoadPurchase(db, data.PurchaseConfig{
		N: n, Seed: 1, ShipWindowMode: "soft", IndexOrderDate: true,
	}); err != nil {
		return nil, err
	}
	sys := &system{dbs: []*engine.Database{db}, readOnly: true, sizes: map[string]int{"purchase": n}}
	var err error
	sys.addr, err = sys.serve(db)
	return sys, err
}

type pointStream struct {
	readOnly
	r    *rand.Rand
	zipf *rand.Zipf
	n    int
}

func pointStreams(r *run, sys *system) []stream {
	n := sys.sizes["purchase"]
	out := make([]stream, nClients)
	for c := range out {
		rng := r.rng(c)
		out[c] = &pointStream{r: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(n-1)), n: n}
	}
	return out
}

func (p *pointStream) next() stmt {
	var text string
	if p.r.Intn(5) == 0 {
		// 20%: secondary-index lookup, dates uniform, nearly every text new.
		text = "SELECT * FROM purchase WHERE order_date = " + dateLit(p.r.Intn(p.n/4+2))
	} else {
		// 80%: primary-key lookup; the Zipf rank is scattered over the id
		// space so the hot head is not one heap page.
		id := p.zipf.Uint64() * 7919 % uint64(p.n)
		text = fmt.Sprintf("SELECT * FROM purchase WHERE id = %d", id)
	}
	return stmt{text: text, kind: kindRead, shard: -1, check: checkSampled(text, 64)}
}

// --- analytic_sqo ---

func setupAnalytic(r *run) (*system, error) {
	sizes := map[string]int{
		"purchase": r.scale(100000), "dim": 1000, "fact": r.scale(100000),
		"orders": r.scale(20000), "lineitem_per_order": 4, "orders_wide": r.scale(50000),
	}
	db := engine.Open()
	if err := data.LoadPurchase(db, data.PurchaseConfig{
		N: sizes["purchase"], Seed: 1, ShipWindowMode: "soft", IndexOrderDate: true,
	}); err != nil {
		return nil, err
	}
	if err := data.LoadStar(db, data.StarConfig{
		DimRows: sizes["dim"], FactRows: sizes["fact"], Seed: 2, FKMode: "informational",
	}); err != nil {
		return nil, err
	}
	orders := sizes["orders"]
	if err := data.LoadOrdersLineitem(db, data.HolesConfig{
		Orders: orders, LinesPer: 4, Seed: 5, BandLo: orders / 4, BandHi: orders / 2,
	}); err != nil {
		return nil, err
	}
	if err := data.LoadDenormalized(db, sizes["orders_wide"], 200, 7); err != nil {
		return nil, err
	}
	// Mine and install the characterizations the pool's rewrites need: the
	// orders⋈lineitem join holes ([8]) and the cust_id FDs ([29]). The
	// ship_window correlation is declared SOFT by the loader.
	left, err := db.Catalog().Table("orders")
	if err != nil {
		return nil, err
	}
	right, err := db.Catalog().Table("lineitem")
	if err != nil {
		return nil, err
	}
	jh, _, err := mining.MineJoinHoles(mining.JoinHoleRequest{
		Left: left, Right: right,
		JoinLeft: "okey", JoinRight: "okey",
		AttrLeft: "odate", AttrRight: "shipdate",
	})
	if err != nil {
		return nil, err
	}
	jh.Name = "holes_orders_lineitem"
	if err := db.Catalog().AddJoinHoles(jh); err != nil {
		return nil, err
	}
	mgr := softc.NewManager(db.Catalog())
	mgr.FDs = mining.FDMinerConfig{MaxLHS: 1}
	cands, err := mgr.DiscoverTable("orders_wide")
	if err != nil {
		return nil, err
	}
	var fds []mining.FD
	for _, fd := range cands.FDs {
		if fd.Det[0] == "cust_id" && fd.Confidence >= 1 {
			fds = append(fds, fd)
		}
	}
	if len(fds) == 0 {
		return nil, fmt.Errorf("analytic_sqo: no cust_id FD mined")
	}
	if err := mgr.InstallFDs("orders_wide", fds); err != nil {
		return nil, err
	}
	sys := &system{dbs: []*engine.Database{db}, readOnly: true, sizes: sizes, pool: analyticPool(sizes)}
	sys.addr, err = sys.serve(db)
	return sys, err
}

// analyticPool is the fixed 48-text statement pool: 14 E1-shaped, 10
// E2-shaped, 10 E4-shaped, 8 FD-simplified, and 6 (1 in 8) full scans no
// characterization helps.
func analyticPool(sizes map[string]int) []string {
	var pool []string
	days := sizes["purchase"] / 4
	for i := 0; i < 14; i++ {
		d := (i + 1) * days / 15
		pool = append(pool, fmt.Sprintf(
			"SELECT COUNT(*) AS n, SUM(amount) AS s FROM purchase WHERE ship_date BETWEEN %s AND %s",
			dateLit(d), dateLit(d+13)))
	}
	orders := sizes["orders"]
	for i := 0; i < 10; i++ {
		// Five ranges start inside the planted hole band (trimmed), five
		// straddle it (interior hole: page exclusion only).
		lo := orders/4 + (i+1)*orders/50
		if i >= 5 {
			lo = orders/4 - (i-4)*orders/100
		}
		hi := orders/2 + (i%5+1)*orders/100
		pool = append(pool, fmt.Sprintf(
			"SELECT COUNT(*) AS n, SUM(l.qty) AS q FROM orders o, lineitem l WHERE o.okey = l.okey"+
				" AND o.odate >= %s AND o.odate <= %s AND l.shipdate >= %s AND l.shipdate <= %s",
			dateLit(lo), dateLit(hi), dateLit(lo), dateLit(hi+90)))
	}
	fact := sizes["fact"]
	for i := 0; i < 10; i++ {
		a := i * fact / 11
		pool = append(pool, fmt.Sprintf(
			"SELECT COUNT(*) AS n, SUM(f.qty) AS q FROM fact f, dim d WHERE f.dim_id = d.id AND f.id >= %d AND f.id < %d",
			a, a+fact/10))
	}
	wide := sizes["orders_wide"]
	for i := 0; i < 4; i++ {
		a := i * wide / 5
		pool = append(pool, fmt.Sprintf(
			"SELECT cust_id, cust_name, SUM(amount) AS s FROM orders_wide WHERE id >= %d AND id < %d GROUP BY cust_id, cust_name ORDER BY cust_id",
			a, a+wide/10))
		pool = append(pool, fmt.Sprintf(
			"SELECT cust_id, cust_name, region FROM orders_wide WHERE id >= %d AND id < %d ORDER BY cust_id, cust_name, region",
			a, a+wide/100))
	}
	for i := 0; i < 3; i++ {
		pool = append(pool, fmt.Sprintf("SELECT COUNT(*) AS n, SUM(price) AS s FROM fact WHERE qty > %d", 10+15*i))
		pool = append(pool, fmt.Sprintf("SELECT COUNT(*) AS n, MAX(amount) AS m FROM orders_wide WHERE region = %d", i))
	}
	return pool
}

type poolStream struct {
	readOnly
	r    *rand.Rand
	pool []string
}

func analyticStreams(r *run, sys *system) []stream {
	out := make([]stream, nClients)
	for c := range out {
		out[c] = &poolStream{r: r.rng(c), pool: sys.pool}
	}
	return out
}

func (p *poolStream) next() stmt {
	return stmt{text: p.pool[p.r.Intn(len(p.pool))], kind: kindRead, shard: -1, check: true}
}

// --- mixed_rw_durable ---

const (
	durableRows = 50000
	// durableTail is the fixed number of write statements between the
	// checkpoint and the crash copy: recovery_s replays exactly this tail
	// over a fixed snapshot, so it does not drift with write speed.
	durableTail = 2000
	// checkpointEvery is the automatic checkpoint cadence in logged
	// statements: several checkpoint cycles fit in one window.
	checkpointEvery = 1024
)

func setupDurable(r *run) (*system, error) {
	n := r.scale(durableRows)
	sys := &system{sizes: map[string]int{"purchase": n, "recovered_tail_stmts": durableTail}}
	sys.durOpts = engine.DurableOptions{SyncPolicy: wal.SyncAlways, CheckpointEvery: checkpointEvery}
	loadDir, err := r.tempDir()
	if err != nil {
		return nil, err
	}
	// Bulk load without per-row fsyncs, checkpoint, and reopen under the
	// serving policy — the snapshot is the fixed base recovery starts from.
	db, _, err := engine.OpenDurable(loadDir, engine.DurableOptions{SyncPolicy: wal.SyncNone, CheckpointEvery: -1})
	if err != nil {
		return nil, err
	}
	if err := data.LoadPurchase(db, data.PurchaseConfig{
		N: n, Seed: 1, ShipWindowMode: "soft", IndexOrderDate: true,
	}); err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil { // Close checkpoints
		return nil, err
	}
	// The tail runs with automatic checkpoints off, so recovery replays all
	// of it. It is part of the data, not of the traffic: its seed is fixed,
	// and wal.replayed_records is the same on every run and seed.
	if db, _, err = engine.OpenDurable(loadDir, engine.DurableOptions{SyncPolicy: wal.SyncAlways, CheckpointEvery: -1}); err != nil {
		return nil, err
	}
	tail := newWriter(rand.New(rand.NewSource(1)), n, int64(n))
	sess := db.NewSession("setup")
	for i := 0; i < durableTail; i++ {
		s := tail.next()
		if _, err := sess.ExecCtx(context.Background(), s.text); err != nil {
			return nil, fmt.Errorf("setup tail %q: %w", s.text, err)
		}
		tail.acked(s)
	}
	for tail.inTxn() { // never crash inside the tail's last transaction
		s := tail.next()
		if _, err := sess.ExecCtx(context.Background(), s.text); err != nil {
			return nil, fmt.Errorf("setup tail %q: %w", s.text, err)
		}
		tail.acked(s)
	}
	sess.Close()
	// Crash: copy the directory without Close, then recover the copy.
	sys.dataDir, err = r.tempDir()
	if err != nil {
		return nil, err
	}
	if err := copyDir(loadDir, sys.dataDir); err != nil {
		return nil, err
	}
	sys.recoverAt = time.Now()
	rdb, rs, err := engine.OpenDurable(sys.dataDir, sys.durOpts)
	sys.recoverDur = time.Since(sys.recoverAt)
	if err != nil {
		return nil, fmt.Errorf("recover crash copy: %w", err)
	}
	sys.recovery = rs
	sys.closers = append(sys.closers, func() { _ = rdb.Close() })
	if err := db.Close(); err != nil {
		return nil, err
	}
	sys.dbs = []*engine.Database{rdb}
	sys.nextID = tail.nextID
	sys.pool = durableReadPool(n)
	sys.addr, err = sys.serve(rdb)
	return sys, err
}

// durableReadPool is the reader's 32 E1-shaped 14-day aggregates: 22 over
// the most recent tenth of the loaded dates, 10 spread over the rest.
func durableReadPool(n int) []string {
	days := n / 4
	var pool []string
	for i := 0; i < 32; i++ {
		d := days - days/10 + i*(days/10-14)/22
		if i >= 22 {
			d = (i - 21) * (days - days/10) / 11
		}
		pool = append(pool, fmt.Sprintf(
			"SELECT COUNT(*) AS n, SUM(amount) AS s FROM purchase WHERE ship_date BETWEEN %s AND %s",
			dateLit(d), dateLit(d+13)))
	}
	return pool
}

// writer is client 0's stream on mixed_rw_durable: 70% append-order
// in-band INSERT, 20% UPDATE by id, 10% BEGIN; 3×INSERT; COMMIT. No
// statement violates ship_window, so the ASC stays active.
type writer struct {
	r      *rand.Rand
	loaded int   // ids below this were bulk loaded; UPDATEs target them
	nextID int64 // next purchase id to insert
	queue  []stmt
	open   bool // a transaction is open

	// What the server acknowledged: inserted ids (a transaction's only at
	// COMMIT) and the last amount each updated id was set to.
	inserted []int64
	staged   []int64
	updated  map[int64]float64
}

func newWriter(r *rand.Rand, loaded int, nextID int64) *writer {
	return &writer{r: r, loaded: loaded, nextID: nextID, updated: map[int64]float64{}}
}

func (w *writer) insert() stmt {
	id := w.nextID
	w.nextID++
	order := int(id/4) + w.r.Intn(3)
	text := fmt.Sprintf("INSERT INTO purchase VALUES (%d, %s, %s, %d.%02d)",
		id, dateLit(order), dateLit(order+w.r.Intn(21)), w.r.Intn(100), w.r.Intn(100))
	return stmt{text: text, kind: kindWrite, shard: -1, key: id}
}

func (w *writer) next() stmt {
	if len(w.queue) > 0 {
		s := w.queue[0]
		w.queue = w.queue[1:]
		return s
	}
	switch p := w.r.Intn(10); {
	case p < 7:
		return w.insert()
	case p < 9:
		// Updated amounts are >= 1000, loaded ones < 100: the durability
		// check finds every updated row with one scan.
		id := int64(w.r.Intn(w.loaded))
		amt := float64(100000+w.r.Intn(900000)) / 100
		return stmt{text: fmt.Sprintf("UPDATE purchase SET amount = %.2f WHERE id = %d", amt, id), kind: kindWrite, shard: -1, key: id, val: amt}
	default:
		w.queue = append(w.queue, w.insert(), w.insert(), w.insert(), stmt{text: "COMMIT", kind: kindWrite, shard: -1})
		return stmt{text: "BEGIN", kind: kindBegin, shard: -1}
	}
}

func (w *writer) acked(s stmt) {
	switch s.text[0] {
	case 'B':
		w.open = true
	case 'C':
		w.open = false
		w.inserted = append(w.inserted, w.staged...)
		w.staged = w.staged[:0]
	case 'I':
		if w.open {
			w.staged = append(w.staged, s.key)
		} else {
			w.inserted = append(w.inserted, s.key)
		}
	case 'U':
		w.updated[s.key] = s.val
	}
}

func (w *writer) inTxn() bool { return w.open || len(w.queue) > 0 }

func durableStreams(r *run, sys *system) []stream {
	return []stream{
		newWriter(r.rng(0), sys.sizes["purchase"], sys.nextID),
		&poolStream{r: r.rng(1), pool: sys.pool},
	}
}

// durableAfter asserts the ASC survived the window, then crashes the
// serving engine (directory copy without Close) and checks that every
// acknowledged write is in the recovered copy. Under SyncAlways an ack
// means fsynced; the copy reads through the OS page cache, which a kill -9
// also leaves intact — power loss is not simulated.
func durableAfter(r *run, sys *system, streams []stream) (checked, wrong int, err error) {
	db := sys.dbs[0]
	con := db.Catalog().ConstraintByName("ship_window")
	checked++
	if con == nil || !con.Active {
		wrong++
		r.notef("ship_window is no longer active: a window write violated the band")
	}
	crash, err := r.tempDir()
	if err != nil {
		return checked, wrong, err
	}
	if err := copyDir(sys.dataDir, crash); err != nil {
		return checked, wrong, err
	}
	rdb, _, err := engine.OpenDurable(crash, sys.durOpts)
	if err != nil {
		return checked, wrong, fmt.Errorf("reopen crash copy: %w", err)
	}
	defer rdb.Close()
	w := streams[0].(*writer)
	res, err := rdb.Exec(fmt.Sprintf("SELECT id FROM purchase WHERE id >= %d", sys.nextID))
	if err != nil {
		return checked, wrong, err
	}
	present := make(map[int64]bool, len(res.Rows))
	for _, row := range res.Rows {
		present[row[0].Int()] = true
	}
	for _, id := range w.inserted {
		checked++
		if !present[id] {
			wrong++
		}
	}
	res, err = rdb.Exec("SELECT id, amount FROM purchase WHERE amount >= 1000")
	if err != nil {
		return checked, wrong, err
	}
	got := make(map[int64]float64, len(res.Rows))
	for _, row := range res.Rows {
		got[row[0].Int()] = row[1].Float()
	}
	for id, amt := range w.updated {
		checked++
		if got[id] != amt {
			wrong++
		}
	}
	if wrong > 0 {
		r.notef("durability: %d of %d acknowledged facts missing after crash recovery", wrong, checked)
	}
	return checked, wrong, nil
}

// --- sharded_mixed ---

const nShards = 4

func setupSharded(r *run) (*system, error) {
	rows := r.scale(80000)
	sys := &system{sizes: map[string]int{"events": rows, "shards": nShards}}
	cfg := shard.Config{DialTimeout: 5 * time.Second, DialAttempts: 3, TrackCols: []string{"events.v"}}
	for i := 0; i < nShards; i++ {
		db := engine.Open()
		addr, err := sys.serve(db)
		if err != nil {
			return nil, err
		}
		sys.dbs = append(sys.dbs, db)
		cfg.Addrs = append(cfg.Addrs, addr)
	}
	sys.shardAddrs = cfg.Addrs
	var bounds []string
	for i := 1; i < nShards; i++ {
		bounds = append(bounds, fmt.Sprint(i*rows/nShards))
	}
	spec, err := shard.ParseSpec("events=range(k:" + strings.Join(bounds, ",") + ")")
	if err != nil {
		return nil, err
	}
	cfg.Specs = []shard.Spec{spec}
	if sys.router, err = shard.New(cfg); err != nil {
		return nil, err
	}
	sys.closers = append(sys.closers, sys.router.Close)
	sess := sys.router.NewSession()
	defer sess.Close()
	ctx := context.Background()
	for _, ddl := range []string{
		"CREATE TABLE events (k INT NOT NULL, v INT, grp INT)",
		"CREATE INDEX idx_events_k ON events (k)",
	} {
		if _, err := sess.Exec(ctx, ddl); err != nil {
			return nil, err
		}
	}
	// S2's scattered key order: a coprime stride walks the key space, so
	// every heap page's synopsis spans nearly the whole shard range and
	// single-node zone maps cannot prune what the router's registry can.
	var vals []string
	for i := 0; i < rows; i++ {
		k := (i * 10007) % rows
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", k, k, k%10))
		if len(vals) == 200 || i == rows-1 {
			if _, err := sess.Exec(ctx, "INSERT INTO events VALUES "+strings.Join(vals, ", ")); err != nil {
				return nil, err
			}
			vals = vals[:0]
		}
	}
	if _, err := sess.Exec(ctx, "ANALYZE events"); err != nil {
		return nil, err
	}
	if _, err := sess.Exec(ctx, "ROUTER SYNC"); err != nil {
		return nil, err
	}
	fe := shard.NewFrontend(sys.router, shard.FrontendConfig{Addr: "127.0.0.1:0"})
	addr, err := fe.Listen()
	if err != nil {
		return nil, err
	}
	sys.background(fe.Serve, fe.Shutdown)
	sys.addr = addr.String()
	for g := 0; g < 5; g++ {
		sys.pool = append(sys.pool, fmt.Sprintf(
			"SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM events WHERE grp >= %d GROUP BY grp ORDER BY grp", g))
	}
	return sys, nil
}

// shardedStream mixes 50% one-shard v-band aggregates (registry-pruned),
// 20% point reads by k, 20% broadcast GROUP BY, 10% routed in-range
// INSERTs (v = k lies inside the owning shard's synced range).
type shardedStream struct {
	r         *rand.Rand
	rows      int
	broadcast []string
	inserted  []int64 // acknowledged keys, replayed into the twin
}

func shardedStreams(r *run, sys *system) []stream {
	out := make([]stream, nClients)
	for c := range out {
		out[c] = &shardedStream{r: r.rng(c), rows: sys.sizes["events"], broadcast: sys.pool}
	}
	return out
}

func (s *shardedStream) next() stmt {
	per := s.rows / nShards
	switch p := s.r.Intn(10); {
	case p < 5:
		sh, width := s.r.Intn(nShards), per/50
		lo := sh*per + s.r.Intn(per-width)
		text := fmt.Sprintf("SELECT COUNT(*) AS n, SUM(v) AS s FROM events WHERE v >= %d AND v <= %d", lo, lo+width)
		return stmt{text: text, kind: kindRead, shard: sh, check: checkSampled(text, 16)}
	case p < 7:
		k := s.r.Intn(s.rows)
		text := fmt.Sprintf("SELECT k, v, grp FROM events WHERE k = %d", k)
		return stmt{text: text, kind: kindRead, shard: k / per, check: checkSampled(text, 16)}
	case p < 9:
		return stmt{text: s.broadcast[s.r.Intn(len(s.broadcast))], kind: kindRead, shard: -1, check: true}
	default:
		k := s.r.Intn(s.rows)
		return stmt{text: fmt.Sprintf("INSERT INTO events VALUES (%d, %d, %d)", k, k, k%10), kind: kindWrite, shard: k / per, key: int64(k)}
	}
}

func (s *shardedStream) acked(st stmt) {
	if st.kind == kindWrite {
		s.inserted = append(s.inserted, st.key)
	}
}

func (s *shardedStream) inTxn() bool { return false }

// shardedReference builds the single-node twin after the window: the
// loaded rows plus every acknowledged insert, in one engine with every
// rewrite, prune and index path off.
func shardedReference(r *run, sys *system, streams []stream) (func(string) (*engine.Result, error), error) {
	twin := engine.Open()
	makePlain(twin)
	if _, err := twin.Exec("CREATE TABLE events (k INT NOT NULL, v INT, grp INT)"); err != nil {
		return nil, err
	}
	rows := sys.sizes["events"]
	all := make([]types.Row, 0, rows)
	row := func(k int64) types.Row {
		return types.Row{types.NewInt(k), types.NewInt(k), types.NewInt(k % 10)}
	}
	for k := 0; k < rows; k++ {
		all = append(all, row(int64(k)))
	}
	for _, st := range streams {
		for _, k := range st.(*shardedStream).inserted {
			all = append(all, row(k))
		}
	}
	if err := data.BulkInsert(twin, "events", all); err != nil {
		return nil, err
	}
	return twin.Exec, nil
}

// --- the single-node reference ---

// makePlain turns off every rewrite rule, synopsis prune, index path,
// batch kernel, constraint-informed estimate and the plan cache.
func makePlain(db *engine.Database) {
	db.RewriteOpts.NoJoinElim = true
	db.RewriteOpts.NoPredIntro = true
	db.RewriteOpts.NoBranchPrune = true
	db.RewriteOpts.NoHoleTrim = true
	db.RewriteOpts.NoSortOpt = true
	db.RewriteOpts.NoExceptionAST = true
	db.RewriteOpts.NoSSCTwins = true
	db.RewriteOpts.NoASTRouting = true
	db.RewriteOpts.NoPruneIntro = true
	db.NoIndexes = true
	db.NoSSCEstimation = true
	db.NoASTEstimation = true
	db.NoPrune = true
	db.NoBatch = true
	db.DisablePlanCache = true
}

// plainReference is the twin of the single-node read-only workloads: the
// served engine's own heap, re-read with makePlain's configuration. It is
// applied after the window and after every wire-side answer was collected,
// when no statement is in flight. Reloading a second engine would check the
// same loaders against themselves and cost a full set-up per run.
func plainReference(r *run, sys *system, streams []stream) (func(string) (*engine.Result, error), error) {
	makePlain(sys.dbs[0])
	return sys.dbs[0].Exec, nil
}
