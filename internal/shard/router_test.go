package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"softdb/internal/client"
	"softdb/internal/engine"
	"softdb/internal/exec"
	"softdb/internal/server"
	"softdb/internal/sql"
	"softdb/internal/types"
	"softdb/internal/wire"
)

// cluster is an in-process shard fleet: n engine servers, a router over
// them, and a single-node twin engine that receives every statement the
// router does — the differential oracle.
type cluster struct {
	t      *testing.T
	r      *Router
	sess   *Session
	single *engine.Database
	srvs   []*server.Server
}

func newCluster(t *testing.T, n int, mutate func(*Config)) *cluster {
	t.Helper()
	cfg := Config{DialTimeout: 5 * time.Second, DialAttempts: 2}
	var srvs []*server.Server
	for i := 0; i < n; i++ {
		db := engine.Open()
		srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
		addr, err := srv.Listen()
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve() }()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
		cfg.Addrs = append(cfg.Addrs, addr.String())
		srvs = append(srvs, srv)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	c := &cluster{t: t, r: r, sess: r.NewSession(), single: engine.Open(), srvs: srvs}
	t.Cleanup(c.sess.Close)
	return c
}

// exec applies one statement through the router AND to the single-node
// twin, failing on either error.
func (c *cluster) exec(stmt string) {
	c.t.Helper()
	if _, err := c.sess.Exec(context.Background(), stmt); err != nil {
		c.t.Fatalf("router %q: %v", stmt, err)
	}
	if _, err := c.single.Exec(stmt); err != nil {
		c.t.Fatalf("single %q: %v", stmt, err)
	}
}

// routerOnly applies a statement through the router alone (e.g. ROUTER
// SYNC, which the twin has no notion of).
func (c *cluster) routerOnly(stmt string) *client.Result {
	c.t.Helper()
	res, err := c.sess.Exec(context.Background(), stmt)
	if err != nil {
		c.t.Fatalf("router %q: %v", stmt, err)
	}
	return res
}

// canon renders a result for comparison: ordered queries compare rows in
// place, unordered ones as a sorted multiset.
func canon(cols []string, rows []types.Row, ordered bool) string {
	var b strings.Builder
	b.WriteString(strings.Join(cols, "|"))
	b.WriteString("\n")
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r.String()
	}
	if !ordered {
		sort.Strings(lines)
	}
	b.WriteString(strings.Join(lines, "\n"))
	return b.String()
}

// differ runs one query on router and twin and requires byte-identical
// canonical results.
func (c *cluster) differ(query string, ordered bool) {
	c.compare(query, ordered, false)
}

// differOrOverflow is differ for generated data near the INT edges: the
// query may also fail on both sides, with the same text, when its cause is
// a SUM past the INT range. Any other error fails the test.
func (c *cluster) differOrOverflow(query string, ordered bool) {
	c.compare(query, ordered, true)
}

func (c *cluster) compare(query string, ordered, overflowOK bool) {
	c.t.Helper()
	got, gerr := c.sess.Exec(context.Background(), query)
	want, werr := c.single.Exec(query)
	if overflowOK && isSumOverflow(gerr) && isSumOverflow(werr) {
		if gerr.Error() != werr.Error() {
			c.t.Errorf("%q failed differently\nrouter: %v\nsingle: %v", query, gerr, werr)
		}
		return
	}
	if gerr != nil {
		c.t.Fatalf("router %q: %v", query, gerr)
	}
	if werr != nil {
		c.t.Fatalf("single %q: %v (router answered %v)", query, werr, got.Rows)
	}
	g := canon(got.Columns, got.Rows, ordered)
	w := canon(want.Columns, want.Rows, ordered)
	if g != w {
		c.t.Errorf("%q diverged\nrouter:\n%s\nsingle:\n%s", query, g, w)
	}
}

// isSumOverflow reports whether err is a SUM past the INT range, raised
// locally or relayed from a shard over the wire.
func isSumOverflow(err error) bool {
	var we *wire.Error
	return errors.Is(err, exec.ErrSumOverflow) ||
		errors.As(err, &we) && we.Msg == exec.ErrSumOverflow.Error()
}

const diffSchema = `CREATE TABLE orders (id INT PRIMARY KEY, amount INT, region TEXT, note TEXT)`

func loadDiffData(c *cluster) {
	c.exec(diffSchema)
	c.exec("CREATE TABLE regions (name TEXT, zone INT)")
	for _, r := range []string{"('east', 1)", "('west', 2)", "('north', 1)"} {
		c.exec("INSERT INTO regions VALUES " + r)
	}
	regions := []string{"'east'", "'west'", "'north'"}
	var rows []string
	for i := 0; i < 120; i++ {
		note := "NULL"
		if i%7 == 0 {
			note = fmt.Sprintf("'n%d'", i)
		}
		rows = append(rows, fmt.Sprintf("(%d, %d, %s, %s)", i, (i*13)%500, regions[i%3], note))
	}
	// Multi-row inserts exercise the router's per-shard split.
	for i := 0; i < len(rows); i += 10 {
		c.exec("INSERT INTO orders VALUES " + strings.Join(rows[i:i+10], ", "))
	}
	// Mixed DML so the shards aren't insert-only.
	c.exec("UPDATE orders SET amount = amount + 1 WHERE amount < 50")
	c.exec("DELETE FROM orders WHERE id >= 110 AND note IS NULL")
}

// differentialQueries is the shared suite run under every combination of
// scheme (hash/range) and pruning (on/off), over the fixed data and over
// seeded data (TestSeededDifferential).
// SUM/AVG arguments stay INT so cross-shard combines are exact.
var differentialQueries = []struct {
	q       string
	ordered bool
}{
	{"SELECT * FROM orders ORDER BY id", true},
	{"SELECT id, amount FROM orders WHERE amount > 100 ORDER BY id", true},
	{"SELECT id FROM orders WHERE id = 57", false},
	{"SELECT id FROM orders WHERE id >= 30 AND id < 40 ORDER BY id", true},
	{"SELECT COUNT(*) FROM orders", false},
	{"SELECT COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount) FROM orders", false},
	{"SELECT COUNT(note) FROM orders", false},
	{"SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM orders GROUP BY region ORDER BY region", true},
	{"SELECT region, AVG(amount) AS mean FROM orders GROUP BY region ORDER BY region", true},
	{"SELECT DISTINCT region FROM orders", false},
	{"SELECT id, amount FROM orders ORDER BY amount DESC, id LIMIT 7", true},
	{"SELECT id FROM orders WHERE amount > 9999", false},
	{"SELECT o.id, r.zone FROM orders o, regions r WHERE o.region = r.name AND o.id < 20 ORDER BY o.id", true},
	{"SELECT SUM(amount) FROM orders WHERE region = 'east'", false},
	// Sort keys outside the select list travel as helper columns.
	{"SELECT amount FROM orders ORDER BY id DESC LIMIT 9", true},
	{"SELECT DISTINCT region FROM orders WHERE id < 30 ORDER BY id", true},
	{"SELECT DISTINCT region FROM orders ORDER BY region DESC", true},
	{"SELECT * FROM orders ORDER BY amount DESC, id LIMIT 6", true},
	{"SELECT id, amount AS a FROM orders ORDER BY a, id DESC LIMIT 8", true},
	{"SELECT COUNT(*) AS n, SUM(amount) AS s FROM orders GROUP BY region", false},
	{"SELECT MIN(note), MAX(note), MIN(region) FROM orders", false},
	{"SELECT region, MIN(note) AS lo, MAX(note) AS hi FROM orders GROUP BY region ORDER BY hi", true},
	// AVG over INT values past 2^53: amount * 2^54.
	{"SELECT AVG(amount * 18014398509481984) FROM orders", false},
	{"SELECT region, AVG(amount * 18014398509481984) AS m FROM orders GROUP BY region ORDER BY region", true},
}

func runDifferential(t *testing.T, spec string) {
	for _, prune := range []bool{true, false} {
		// The "/parallel=false" level carries no setting; it keeps the
		// subtest IDs stable for tooling that tracks them.
		name := fmt.Sprintf("prune=%v/parallel=false", prune)
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, 3, func(cfg *Config) {
				sp, err := ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Specs = []Spec{sp}
			})
			loadDiffData(c)
			if prune {
				c.routerOnly("ROUTER SYNC")
			} else {
				if err := c.sess.Set("shard_prune", "off"); err != nil {
					t.Fatal(err)
				}
			}
			for _, dq := range differentialQueries {
				c.differ(dq.q, dq.ordered)
			}
		})
	}
}

func TestDifferentialHash(t *testing.T) {
	runDifferential(t, "orders=hash(id)")
}

func TestDifferentialRange(t *testing.T) {
	runDifferential(t, "orders=range(id:40,80)")
}

// seededAmount draws one amount: NULL, a small value, one at or beside
// ±2^53, or one at or near the INT edges. Every value's FLOAT image is a
// multiple of 2^20, so AVG's FLOAT sum of them is exact in any order and
// any split across shards. A rounded float sum depends on its association,
// on one node and across shards alike; until FLOAT sums are exact this
// differential leaves that out, as it leaves out FLOAT columns.
func seededAmount(r *rand.Rand) string {
	const unit = 1 << 20
	switch p := r.Intn(10); {
	case p == 0:
		return "NULL"
	case p < 5:
		return strconv.FormatInt((r.Int63n(1001)-500)*unit, 10)
	case p < 7:
		v := int64(1<<53) + (r.Int63n(3)-1)*unit
		if r.Intn(2) == 0 {
			v = -v
		}
		return strconv.FormatInt(v, 10)
	default:
		edges := []int64{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 &^ (unit - 1), math.MinInt64, math.MinInt64 + 1, math.MinInt64 + unit}
		return strconv.FormatInt(edges[r.Intn(len(edges))], 10)
	}
}

// loadSeededData loads orders rows generated from seed — ids 0..79 beside
// ids at ±2^53 and the INT edges, seededAmount amounts, NULL notes — then
// updates and deletes some of them.
func loadSeededData(c *cluster, seed int64) {
	r := rand.New(rand.NewSource(seed))
	c.exec(diffSchema)
	c.exec("CREATE TABLE regions (name TEXT, zone INT)")
	c.exec("INSERT INTO regions VALUES ('east', 1), ('west', 2), ('north', 1)")
	ids := []int64{math.MinInt64, math.MinInt64 + 1, -(1 << 53), -1, 1 << 53, 1<<53 + 1, math.MaxInt64 - 1, math.MaxInt64}
	for i := int64(0); i < 80; i++ {
		ids = append(ids, i)
	}
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	regions := []string{"'east'", "'west'", "'north'", "NULL"}
	var rows []string
	for _, id := range ids {
		note := "NULL"
		if r.Intn(3) == 0 {
			note = fmt.Sprintf("'n%d'", r.Intn(50))
		}
		rows = append(rows, fmt.Sprintf("(%s, %s, %s, %s)", strconv.FormatInt(id, 10), seededAmount(r), regions[r.Intn(len(regions))], note))
	}
	for i := 0; i < len(rows); i += 11 {
		c.exec("INSERT INTO orders VALUES " + strings.Join(rows[i:min(i+11, len(rows))], ", "))
	}
	c.exec(fmt.Sprintf("UPDATE orders SET amount = %s WHERE id < %d", seededAmount(r), r.Intn(40)))
	c.exec(fmt.Sprintf("DELETE FROM orders WHERE id >= %d AND id < 80 AND note IS NULL", 40+r.Intn(40)))
}

// TestSeededDifferential runs differentialQueries over generated data
// under hash and range specs on 2 and 3 shards, pruning on (with amount
// tracked) and off, against the single-node twin, exactly: the same rows,
// or the same SUM overflow error from both.
func TestSeededDifferential(t *testing.T) {
	specs := map[int][]string{
		2: {"orders=hash(id)", "orders=range(id:40)"},
		3: {"orders=hash(id)", "orders=range(id:0,60)"},
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, n := range []int{2, 3} {
			for _, spec := range specs[n] {
				for _, prune := range []bool{true, false} {
					t.Run(fmt.Sprintf("seed=%d/shards=%d/%s/prune=%v", seed, n, spec, prune), func(t *testing.T) {
						c := newCluster(t, n, func(cfg *Config) {
							sp, err := ParseSpec(spec)
							if err != nil {
								t.Fatal(err)
							}
							cfg.Specs = []Spec{sp}
							cfg.TrackCols = []string{"orders.amount"}
						})
						loadSeededData(c, seed)
						if prune {
							c.routerOnly("ROUTER SYNC")
						} else if err := c.sess.Set("shard_prune", "off"); err != nil {
							t.Fatal(err)
						}
						for _, dq := range differentialQueries {
							c.differOrOverflow(dq.q, dq.ordered)
						}
					})
				}
			}
		}
	}
}

// shardQueryCounts snapshots the per-shard forwarded-statement counters.
func (c *cluster) shardQueryCounts() []int64 {
	return c.r.ShardQueryCounts()
}

func contacted(before, after []int64) int {
	n := 0
	for i := range before {
		if after[i] > before[i] {
			n++
		}
	}
	return n
}

func TestPartitionRoutingContactsOneShard(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) {
		sp, _ := ParseSpec("orders=range(id:40,80)")
		cfg.Specs = []Spec{sp}
	})
	loadDiffData(c)
	before := c.shardQueryCounts()
	res, err := c.sess.Exec(context.Background(), "SELECT id, amount FROM orders WHERE id = 57")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if n := contacted(before, c.shardQueryCounts()); n != 1 {
		t.Fatalf("point query contacted %d shards, want 1", n)
	}
	// Broadcast for comparison touches all three.
	before = c.shardQueryCounts()
	if _, err := c.sess.Exec(context.Background(), "SELECT COUNT(*) FROM orders"); err != nil {
		t.Fatal(err)
	}
	if n := contacted(before, c.shardQueryCounts()); n != 3 {
		t.Fatalf("broadcast contacted %d shards, want 3", n)
	}
}

// TestConstraintPruning is the zone-map analogy end to end: after a sync,
// a predicate outside every other shard's value range contacts exactly
// one shard, with results byte-identical to the broadcast the same query
// performs when pruning is off.
func TestConstraintPruning(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) {
		sp, _ := ParseSpec("orders=hash(id)")
		cfg.Specs = []Spec{sp}
		cfg.TrackCols = []string{"orders.amount"}
	})
	loadDiffData(c)
	// Disjoint per-shard amount bands so range entries can prune: shard
	// assignment is by hashed id, so rewrite amounts into id-correlated
	// bands the sync will discover.
	c.routerOnly("ROUTER SYNC")

	// A predicate over an amount band present on (at most) a subset of
	// shards: compare pruned vs broadcast results.
	query := "SELECT id, amount FROM orders WHERE amount >= 450 AND amount <= 460 ORDER BY id"
	pruned, err := c.sess.Exec(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.sess.Set("shard_prune", "off"); err != nil {
		t.Fatal(err)
	}
	broadcast, err := c.sess.Exec(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if canon(pruned.Columns, pruned.Rows, true) != canon(broadcast.Columns, broadcast.Rows, true) {
		t.Fatalf("pruned and broadcast diverged:\n%v\nvs\n%v", pruned.Rows, broadcast.Rows)
	}
}

func TestEmptyShardPrunes(t *testing.T) {
	c := newCluster(t, 2, func(cfg *Config) {
		sp, _ := ParseSpec("orders=range(id:1000)")
		cfg.Specs = []Spec{sp}
	})
	c.exec(diffSchema)
	c.exec("INSERT INTO orders VALUES (1, 10, 'east', NULL)") // all rows land on shard 0
	c.routerOnly("ROUTER SYNC")
	res := c.routerOnly("EXPLAIN SELECT COUNT(*) FROM orders")
	plan := planText(res)
	if !strings.Contains(plan, "shards=1/2 pruned=1") {
		t.Fatalf("empty shard 1 should be pruned from the broadcast:\n%s", plan)
	}
	if !strings.Contains(plan, "shard-pruned 1") || !strings.Contains(plan, "empty") {
		t.Fatalf("plan should name the pruned shard and reason:\n%s", plan)
	}
	// And the count is still right.
	c.differ("SELECT COUNT(*) FROM orders", false)
}

func planText(res *client.Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r[0].Str())
		b.WriteString("\n")
	}
	return b.String()
}

// TestCrossShardInvalidation is acceptance criterion (c): a violating
// write on one shard retires the backing registry entry at the router —
// via the deactivation notice riding the write's own response — before
// the next routed query runs.
func TestCrossShardInvalidation(t *testing.T) {
	c := newCluster(t, 2, func(cfg *Config) {
		sp, _ := ParseSpec("orders=range(id:100)")
		cfg.Specs = []Spec{sp}
	})
	c.exec(diffSchema)
	for i := 0; i < 10; i++ {
		c.exec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, 'east', NULL)", i, i*10))
		c.exec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, 'west', NULL)", 100+i, i*10))
	}
	c.routerOnly("ROUTER SYNC")

	// Shard 0's synced range is id in [0, 9]: a query for id = 50 (owned
	// by shard 0 per the partition bounds) is pruned by the registry.
	query := "SELECT id FROM orders WHERE id = 50"
	res := c.routerOnly("EXPLAIN " + query)
	if !strings.Contains(planText(res), "pruned=1") {
		t.Fatalf("id=50 should prune shard 0 before the write:\n%s", planText(res))
	}
	if got := c.routerOnly(query); len(got.Rows) != 0 {
		t.Fatalf("no row yet: %v", got.Rows)
	}

	// The violating write: id=50 routes to shard 0 and breaks its synced
	// range CHECK. The deactivation notice must retire the entry before
	// Exec returns.
	c.exec("INSERT INTO orders VALUES (50, 1, 'east', NULL)")
	if c.r.Registry().Retired() == 0 {
		t.Fatal("violating write should have retired the shard 0 range entry")
	}

	// The very next routed query sees the row: no stale prune.
	got := c.routerOnly(query)
	if len(got.Rows) != 1 || got.Rows[0][0].Int() != 50 {
		t.Fatalf("row must be visible after invalidation: %v", got.Rows)
	}
	res = c.routerOnly("EXPLAIN " + query)
	if !strings.Contains(planText(res), "pruned=0") {
		t.Fatalf("retired entry must not prune:\n%s", planText(res))
	}
	c.differ(query, false)
}

func TestHoleSyncAndPrune(t *testing.T) {
	c := newCluster(t, 2, func(cfg *Config) {
		sp, _ := ParseSpec("orders=hash(id)")
		cfg.Specs = []Spec{sp}
		h, err := ParseHole("0:orders.amount:1000,2000")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Holes = []Hole{h}
	})
	c.exec(diffSchema)
	for i := 0; i < 20; i++ {
		c.exec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, 'east', NULL)", i, i))
	}
	res := c.routerOnly("ROUTER SYNC")
	joined := strings.Join(res.Notices, "\n")
	if !strings.Contains(joined, "hole") {
		t.Fatalf("sync notices should mention the verified hole:\n%s", joined)
	}
	plan := planText(c.routerOnly("EXPLAIN SELECT id FROM orders WHERE amount >= 1200 AND amount <= 1300"))
	if !strings.Contains(plan, "proven hole") {
		t.Fatalf("predicate inside the hole should prune shard 0:\n%s", plan)
	}
	c.differ("SELECT id FROM orders WHERE amount >= 1200 AND amount <= 1300", false)
}

func TestTxnSingleShard(t *testing.T) {
	c := newCluster(t, 2, func(cfg *Config) {
		sp, _ := ParseSpec("orders=range(id:100)")
		cfg.Specs = []Spec{sp}
	})
	c.exec(diffSchema)
	ctx := context.Background()
	if _, err := c.sess.Exec(ctx, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.sess.Exec(ctx, "INSERT INTO orders VALUES (1, 10, 'east', NULL)"); err != nil {
		t.Fatal(err)
	}
	// Same shard again: fine.
	if _, err := c.sess.Exec(ctx, "SELECT * FROM orders WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.sess.Exec(ctx, "COMMIT"); err != nil {
		t.Fatal(err)
	}
	res := c.routerOnly("SELECT COUNT(*) FROM orders")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("committed row missing: %v", res.Rows)
	}
}

func TestTxnWrongShard(t *testing.T) {
	c := newCluster(t, 2, func(cfg *Config) {
		sp, _ := ParseSpec("orders=range(id:100)")
		cfg.Specs = []Spec{sp}
	})
	c.exec(diffSchema)
	ctx := context.Background()
	c.routerOnly("BEGIN")
	c.routerOnly("INSERT INTO orders VALUES (1, 10, 'east', NULL)") // pins shard 0
	_, err := c.sess.Exec(ctx, "INSERT INTO orders VALUES (200, 10, 'west', NULL)")
	if client.Kind(err) != exec.KindWrongShard {
		t.Fatalf("kind = %v (err %v), want wrong-shard", client.Kind(err), err)
	}
	c.routerOnly("ROLLBACK")
}

func TestTxnMultiShardRejected(t *testing.T) {
	c := newCluster(t, 2, func(cfg *Config) {
		sp, _ := ParseSpec("orders=range(id:100)")
		cfg.Specs = []Spec{sp}
	})
	c.exec(diffSchema)
	ctx := context.Background()
	c.routerOnly("BEGIN")
	// A single INSERT spanning both shards.
	_, err := c.sess.Exec(ctx, "INSERT INTO orders VALUES (1, 1, 'east', NULL), (200, 2, 'west', NULL)")
	if client.Kind(err) != exec.KindMultiShardTxn {
		t.Fatalf("kind = %v (err %v), want multi-shard-txn", client.Kind(err), err)
	}
	// A broadcast read inside the transaction.
	_, err = c.sess.Exec(ctx, "SELECT COUNT(*) FROM orders")
	if client.Kind(err) != exec.KindMultiShardTxn {
		t.Fatalf("kind = %v (err %v), want multi-shard-txn", client.Kind(err), err)
	}
	c.routerOnly("ROLLBACK")
	// Outside the transaction both statements work.
	c.routerOnly("INSERT INTO orders VALUES (1, 1, 'east', NULL), (200, 2, 'west', NULL)")
	res := c.routerOnly("SELECT COUNT(*) FROM orders")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("count = %v", res.Rows)
	}
}

func TestReplicatedTableWrites(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) {
		sp, _ := ParseSpec("orders=hash(id)")
		cfg.Specs = []Spec{sp}
	})
	c.exec(diffSchema)
	c.exec("CREATE TABLE regions (name TEXT, zone INT)")
	c.exec("INSERT INTO regions VALUES ('east', 1)")
	// Every shard must hold the replicated row (the partitioned join
	// depends on it); ask each shard directly through its counter deltas.
	for shard := 0; shard < 3; shard++ {
		res, err := c.r.adminQuery(context.Background(), shard, "SELECT COUNT(*) FROM regions")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int() != 1 {
			t.Fatalf("shard %d: replicated row missing", shard)
		}
	}
	c.exec("UPDATE regions SET zone = 2 WHERE name = 'east'")
	c.exec("INSERT INTO orders VALUES (1, 10, 'east', NULL)")
	c.differ("SELECT o.id, r.zone FROM orders o, regions r WHERE o.region = r.name", false)
}

func TestUpdatePartitionKeyRejected(t *testing.T) {
	c := newCluster(t, 2, func(cfg *Config) {
		sp, _ := ParseSpec("orders=hash(id)")
		cfg.Specs = []Spec{sp}
	})
	c.exec(diffSchema)
	_, err := c.sess.Exec(context.Background(), "UPDATE orders SET id = 5 WHERE id = 1")
	if err == nil || !strings.Contains(err.Error(), "partition key") {
		t.Fatalf("err = %v, want partition-key rejection", err)
	}
}

func TestShardUnreachable(t *testing.T) {
	db0 := engine.Open()
	srv0 := server.New(db0, server.Config{Addr: "127.0.0.1:0"})
	a0, err := srv0.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv0.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv0.Shutdown(ctx)
	})
	db1 := engine.Open()
	srv1 := server.New(db1, server.Config{Addr: "127.0.0.1:0"})
	a1, err := srv1.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv1.Serve() }()

	// Range partitioning so id=1 deterministically lives on shard 0, the
	// shard that stays up.
	sp, _ := ParseSpec("orders=range(id:100)")
	r, err := New(Config{
		Addrs:        []string{a0.String(), a1.String()},
		Specs:        []Spec{sp},
		DialTimeout:  500 * time.Millisecond,
		DialAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	sess := r.NewSession()
	t.Cleanup(sess.Close)
	ctx := context.Background()
	if _, err := sess.Exec(ctx, diffSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, "INSERT INTO orders VALUES (1, 10, 'east', NULL)"); err != nil {
		t.Fatal(err)
	}

	// Kill shard 1 and broadcast: the statement must fail fast with the
	// typed kind, not hang.
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = srv1.Shutdown(shutCtx)
	cancel()
	deadline, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	_, err = sess.Exec(deadline, "SELECT COUNT(*) FROM orders")
	if client.Kind(err) != exec.KindShardUnreachable {
		t.Fatalf("kind = %v (err %v), want shard-unreachable", client.Kind(err), err)
	}
	if deadline.Err() != nil {
		t.Fatal("unreachable shard made the router hang")
	}
	if r.cUnreach.Value() == 0 {
		t.Fatal("unreachable counter should have incremented")
	}
	// Statements that never touch the dead shard still work.
	res, err := sess.Exec(ctx, "SELECT id FROM orders WHERE id = 1")
	if err != nil {
		t.Fatalf("point query to the live shard: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestShowShardsAndEconomy(t *testing.T) {
	c := newCluster(t, 2, func(cfg *Config) {
		sp, _ := ParseSpec("orders=range(id:100)")
		cfg.Specs = []Spec{sp}
	})
	c.exec(diffSchema)
	c.exec("INSERT INTO orders VALUES (1, 10, 'east', NULL)")
	c.routerOnly("ROUTER SYNC")
	res := c.routerOnly("SHOW SHARDS")
	if len(res.Columns) != 8 || res.Columns[0] != "shard" {
		t.Fatalf("columns = %v", res.Columns)
	}
	text := ""
	for _, r := range res.Rows {
		text += r.String() + "\n"
	}
	for _, want := range []string{"configured", "partition", "range", "router_orders"} {
		if !strings.Contains(text, want) {
			t.Errorf("SHOW SHARDS missing %q:\n%s", want, text)
		}
	}
	// Earn a prune, then check the economy surfaced it.
	c.routerOnly("SELECT id FROM orders WHERE id = 50")
	econ := c.routerOnly("SHOW CONSTRAINTS ECONOMY")
	if len(econ.Columns) != 2 || econ.Columns[1] != "shards_pruned" {
		t.Fatalf("economy columns = %v", econ.Columns)
	}
	total := int64(0)
	for _, r := range econ.Rows {
		total += r[1].Int()
	}
	if total == 0 {
		t.Fatalf("a pruned query should credit the ledger: %v", econ.Rows)
	}
}

func TestRouterDDLFansOut(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) {
		sp, _ := ParseSpec("orders=hash(id)")
		cfg.Specs = []Spec{sp}
	})
	c.exec(diffSchema)
	c.exec("CREATE INDEX idx_amount ON orders (amount)")
	c.exec("ALTER TABLE orders ADD CONSTRAINT amount_pos CHECK (amount >= 0) SOFT")
	for i := 0; i < 30; i++ {
		c.exec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, 'east', NULL)", i, i))
	}
	c.differ("SELECT id FROM orders WHERE amount = 7", false)
	c.exec("DROP TABLE orders")
	// Recreate under the same name: no stale registry entries.
	c.exec(diffSchema)
	c.exec("INSERT INTO orders VALUES (500, 1, 'east', NULL)")
	c.differ("SELECT COUNT(*) FROM orders", false)
}

// connectFrontend serves r on an ephemeral wire front end and returns a
// client connected to it; both are torn down with the test.
func connectFrontend(t *testing.T, r *Router) *client.Conn {
	t.Helper()
	fe := NewFrontend(r, FrontendConfig{Addr: "127.0.0.1:0"})
	addr, err := fe.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = fe.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = fe.Shutdown(ctx)
	})
	conn, err := client.Connect(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// TestRejectedSetLeavesSessionUsable: a setting the shard engines reject
// errors at SET time and is never stored, whether or not the session has a
// shard connection open yet — so later lazy dials do not replay it and the
// session keeps working.
func TestRejectedSetLeavesSessionUsable(t *testing.T) {
	c := newCluster(t, 2, func(cfg *Config) {
		sp, _ := ParseSpec("orders=hash(id)")
		cfg.Specs = []Spec{sp}
	})
	loadDiffData(c)
	ctx := context.Background()
	want := c.single.MustExec("SELECT COUNT(*) FROM orders").Rows[0][0].Int()
	count := func(s *Session) {
		t.Helper()
		res, err := s.Exec(ctx, "SELECT COUNT(*) FROM orders")
		if err != nil {
			t.Fatalf("SELECT after a rejected SET: %v", err)
		}
		if got := res.Rows[0][0].Int(); got != want {
			t.Fatalf("count = %d, want %d", got, want)
		}
	}

	fresh := c.r.NewSession() // no shard connection open yet
	defer fresh.Close()
	if err := fresh.Set("no_such_knob", "1"); err == nil {
		t.Fatal("a setting the shards reject must error on a fresh session")
	}
	if len(fresh.settings) != 0 {
		t.Fatalf("rejected setting was stored: %v", fresh.settings)
	}
	count(fresh) // dials every shard; nothing bad is replayed

	// With connections open the error is returned and nothing is stored.
	if err := fresh.Set("prune", "off"); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Set("prune", "sideways"); err == nil {
		t.Fatal("a bad value must error with connections open")
	}
	if got := fresh.settings["prune"]; got != "off" || len(fresh.settings) != 1 {
		t.Fatalf("stored settings after a rejected SET: %v", fresh.settings)
	}
	fresh.dropConn(0) // the next use re-dials shard 0 and replays prune=off
	count(fresh)
}

// TestRouterRejectsParallelSetting: SET parallel and SET batch through the
// router's wire front end fail with the shard engine's unknown-setting
// error, and the connection keeps serving.
func TestRouterRejectsParallelSetting(t *testing.T) {
	c := newCluster(t, 2, func(cfg *Config) {
		sp, _ := ParseSpec("orders=hash(id)")
		cfg.Specs = []Spec{sp}
	})
	loadDiffData(c)
	conn := connectFrontend(t, c.r)
	for _, kv := range [][2]string{{"parallel", "4"}, {"batch", "off"}} {
		err := conn.Set(kv[0], kv[1])
		if err == nil || !strings.Contains(err.Error(), `unknown setting "`+kv[0]+`"`) {
			t.Fatalf("SET %s = %s through the router: got %v, want an unknown-setting error", kv[0], kv[1], err)
		}
	}
	res, err := conn.Query(context.Background(), "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatalf("connection unusable after a rejected SET: %v", err)
	}
	want := c.single.MustExec("SELECT COUNT(*) FROM orders").Rows[0][0].Int()
	if got := res.Rows[0][0].Int(); got != want {
		t.Fatalf("count after rejected SET = %d, want %d", got, want)
	}
}

// TestFrontendWireRoundTrip drives the router through the real TCP wire
// front end with the ordinary client library.
func TestFrontendWireRoundTrip(t *testing.T) {
	c := newCluster(t, 2, func(cfg *Config) {
		sp, _ := ParseSpec("orders=hash(id)")
		cfg.Specs = []Spec{sp}
	})
	conn := connectFrontend(t, c.r)
	ctx := context.Background()
	if _, err := conn.Query(ctx, diffSchema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := conn.Query(ctx, fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, 'east', NULL)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := conn.Query(ctx, "SELECT COUNT(*), SUM(amount) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 10 || res.Rows[0][1].Int() != 45 {
		t.Fatalf("wire result = %v", res.Rows)
	}
	if err := conn.Set("shard_prune", "off"); err != nil {
		t.Fatalf("SET over the wire: %v", err)
	}
	if _, err := conn.Query(ctx, "SHOW SHARDS"); err != nil {
		t.Fatalf("SHOW SHARDS over the wire: %v", err)
	}
	// Typed error end to end: wrong-shard inside a wire transaction.
	if _, err := conn.Query(ctx, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query(ctx, "SELECT id FROM orders WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	_, err = conn.Query(ctx, "SELECT COUNT(*) FROM orders")
	if client.Kind(err) != exec.KindMultiShardTxn {
		t.Fatalf("kind over the wire = %v (err %v)", client.Kind(err), err)
	}
	if _, err := conn.Query(ctx, "ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

func TestExplainAnalyzeShardLine(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) {
		sp, _ := ParseSpec("orders=range(id:40,80)")
		cfg.Specs = []Spec{sp}
	})
	loadDiffData(c)
	c.routerOnly("ROUTER SYNC")
	plan := planText(c.routerOnly("EXPLAIN ANALYZE SELECT id FROM orders WHERE id = 57"))
	if !strings.Contains(plan, "router: shards=1/3") {
		t.Fatalf("EXPLAIN ANALYZE missing router shard line:\n%s", plan)
	}
	plan = planText(c.routerOnly("EXPLAIN ANALYZE SELECT COUNT(*) FROM orders"))
	if !strings.Contains(plan, "router: shards=3/3 pruned=0") {
		t.Fatalf("broadcast EXPLAIN ANALYZE:\n%s", plan)
	}
}

// TestRouterMergePast2p53: the router's DISTINCT and GROUP BY merges equate
// keys by exact value, as one node does. Each shard holds one of 2^53 and
// 2^53+1, which share a float image.
func TestRouterMergePast2p53(t *testing.T) {
	c := newCluster(t, 2, func(cfg *Config) {
		sp, err := ParseSpec("big=range(id:100)")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Specs = []Spec{sp}
	})
	c.exec("CREATE TABLE big (id INT PRIMARY KEY, k INT)")
	c.exec("INSERT INTO big VALUES (1, 9007199254740992), (2, 9007199254740992), (101, 9007199254740993), (102, 9007199254740993)")
	for _, q := range []string{
		"SELECT DISTINCT k FROM big",
		"SELECT k, COUNT(*) AS n FROM big GROUP BY k",
	} {
		c.differ(q, false)
		res, err := c.sess.Exec(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("%s through the router: %v, want 2 rows", q, res.Rows)
		}
	}
}

// bigCluster is two shards split at id 100 over big (id, k INT, d DATE,
// b BOOL), loaded with rows.
func bigCluster(t *testing.T, rows ...string) *cluster {
	c := newCluster(t, 2, func(cfg *Config) {
		sp, _ := ParseSpec("big=range(id:100)")
		cfg.Specs = []Spec{sp}
	})
	c.exec("CREATE TABLE big (id INT PRIMARY KEY, k INT, d DATE, b BOOL)")
	c.exec("INSERT INTO big VALUES " + strings.Join(rows, ", "))
	return c
}

// TestRouterAvgPastIntRange: AVG's partial sums in FLOAT, as one node's AVG
// does, so an INT total past the INT range on one shard is no error. AVG
// over DATE and BOOL merges too.
func TestRouterAvgPastIntRange(t *testing.T) {
	c := bigCluster(t,
		"(1, 4611686018427387904, DATE '2020-01-01', TRUE)", "(2, 4611686018427387904, DATE '2020-01-04', FALSE)",
		"(101, 1, DATE '2021-03-01', TRUE)", "(102, 3, NULL, NULL)")
	for _, q := range []string{
		"SELECT AVG(k) FROM big",
		"SELECT AVG(d), AVG(b) FROM big",
		"SELECT b, AVG(k) AS m, AVG(d) AS md FROM big GROUP BY b ORDER BY b",
	} {
		c.differ(q, true)
	}
	res := c.routerOnly("SELECT AVG(k) FROM big")
	if got := res.Rows[0][0].String(); got != "2.305843009213694e+18" {
		t.Fatalf("AVG(k) = %s", got)
	}
}

// TestRouterSumPartialPastIntRange: a SUM whose partial leaves the INT
// range on one shard while the total fits answers as one node does; a
// total past the range fails with one node's error.
func TestRouterSumPartialPastIntRange(t *testing.T) {
	c := bigCluster(t,
		"(1, 9223372036854775807, NULL, TRUE)", "(2, 7, NULL, TRUE)",
		"(101, -9, NULL, TRUE)", "(102, NULL, NULL, FALSE)")
	for _, q := range []string{
		"SELECT SUM(k) FROM big",
		"SELECT SUM(k) AS s, COUNT(*) FROM big",
		"SELECT b, SUM(k), AVG(k) FROM big GROUP BY b ORDER BY b",
	} {
		c.differ(q, true)
	}
	res := c.routerOnly("SELECT SUM(k), COUNT(*) FROM big")
	if got := fmt.Sprint(res.Columns, res.Rows); got != "[sum(big.k) count(*)] [(9223372036854775805, 4)]" {
		t.Fatalf("router = %s", got)
	}
	c.exec("INSERT INTO big VALUES (103, 9, NULL, NULL)")
	c.differOrOverflow("SELECT SUM(k) FROM big", true)
	if _, err := c.sess.Exec(context.Background(), "SELECT SUM(k) FROM big"); !strings.Contains(fmt.Sprint(err), "SUM overflows INT") {
		t.Fatalf("total past the INT range: %v", err)
	}
}

// TestExplainShowsRouterOperators: a multi-shard EXPLAIN prints the
// router's operator tree under the first shard's plan. It sends that shard
// one statement, and one more only when a * hides the width.
func TestExplainShowsRouterOperators(t *testing.T) {
	c := newCluster(t, 3, func(cfg *Config) {
		sp, _ := ParseSpec("orders=hash(id)")
		cfg.Specs = []Spec{sp}
	})
	loadDiffData(c)
	for _, tc := range []struct {
		q     string
		want  []string
		stmts int64
	}{
		{"SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM orders WHERE id >= 0 GROUP BY region ORDER BY region LIMIT 2",
			[]string{"router: Limit 2", "router:   Sort by #0", "router:     Project #0, #1, #2", "router:       HashAggregate by (#0) [SUM(#1), SUM(#2)]", "router:         Values [rows of 3 shards]"}, 1},
		{"SELECT DISTINCT region FROM orders ORDER BY id",
			[]string{"router: Project #0", "router:   Sort by #1", "router:     Distinct", "router:       Values [rows of 3 shards]"}, 1},
		{"SELECT * FROM orders ORDER BY amount LIMIT 3",
			[]string{"router: Limit 3", "router:   Project #0, #1, #2, #3", "router:     Sort by #4"}, 2},
	} {
		before := c.shardQueryCounts()
		plan := planText(c.routerOnly("EXPLAIN " + tc.q))
		var sent int64
		for i, n := range c.shardQueryCounts() {
			sent += n - before[i]
		}
		if sent != tc.stmts {
			t.Errorf("EXPLAIN %s sent %d shard statements, want %d", tc.q, sent, tc.stmts)
		}
		for _, w := range tc.want {
			if !strings.Contains(plan, w+"\n") {
				t.Errorf("EXPLAIN %s: missing %q in\n%s", tc.q, w, plan)
			}
		}
		if !strings.Contains(plan, "router: shards=3/3 pruned=0") {
			t.Errorf("EXPLAIN %s: no shard line in\n%s", tc.q, plan)
		}
	}
}

// TestShardedMixedPerShardText: the benchmark's broadcast GROUP BY reaches
// the shards as the same statement it always has, so they do the same work.
func TestShardedMixedPerShardText(t *testing.T) {
	p := mustPlan(t, "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM events WHERE grp >= 0 GROUP BY grp ORDER BY grp")
	if got, want := sql.Print(p.perShard), "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM events WHERE (grp >= 0) GROUP BY grp"; got != want {
		t.Fatalf("per-shard = %q, want %q", got, want)
	}
}

// TestRouterSplitSumFloatInfKeepsOverflow pins a known gap: the split
// retry splits every SUM, and a FLOAT SUM over ±Inf has the low part
// Inf − Inf, so the split statement fails and the router answers the
// shard's INT overflow where one node answers. Drop this test when the
// router learns its partials' kinds (ROADMAP item 16).
func TestRouterSplitSumFloatInfKeepsOverflow(t *testing.T) {
	c := newCluster(t, 2, func(cfg *Config) {
		sp, _ := ParseSpec("big=range(id:100)")
		cfg.Specs = []Spec{sp}
	})
	c.exec("CREATE TABLE big (id INT PRIMARY KEY, k INT, f FLOAT)")
	c.exec("INSERT INTO big VALUES (1, 9223372036854775807, 1e308 * 10), (2, 7, 1.5), (101, -9, 2.5)")
	const q = "SELECT SUM(k), SUM(f) FROM big"
	want, err := c.single.Exec(q)
	if err != nil {
		t.Fatalf("single: %v", err)
	}
	if got := fmt.Sprint(want.Rows); got != "[(9223372036854775805, +Inf)]" {
		t.Fatalf("single = %s", got)
	}
	if _, err := c.sess.Exec(context.Background(), q); !isSumOverflow(err) {
		t.Fatalf("router: %v, want the shard's SUM overflow", err)
	}
	c.differ("SELECT SUM(k) FROM big", false)
}
