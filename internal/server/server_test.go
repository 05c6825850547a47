package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"softdb/internal/client"
	"softdb/internal/engine"
	"softdb/internal/exec"
	"softdb/internal/fault"
	"softdb/internal/server"
	"softdb/internal/shard"
	"softdb/internal/softc"
	"softdb/internal/types"
	"softdb/internal/wire"
)

// startServer listens on :0 and serves db until the test ends.
func startServer(t *testing.T, db *engine.Database, cfg server.Config) (*server.Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	return serve(t, server.New(db, cfg))
}

// serve listens and serves s until the test ends.
func serve(t *testing.T, s *server.Server) (*server.Server, string) {
	t.Helper()
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, addr.String()
}

// backends are the two kinds of backend the server fronts. start serves
// newDB's data: "engine" serves one such database, "router" a router over
// two shards that each hold one (a table without a partition spec is
// replicated, so a read goes to one shard). conns reads the gauge of
// connections currently served.
var backends = []struct {
	name  string
	start func(t *testing.T, newDB func() *engine.Database, cfg server.Config) (s *server.Server, addr string, conns func() int64)
}{
	{"engine", func(t *testing.T, newDB func() *engine.Database, cfg server.Config) (*server.Server, string, func() int64) {
		db := newDB()
		s, addr := startServer(t, db, cfg)
		return s, addr, func() int64 { return int64(metricValue(t, db, "softdb_server_connections")) }
	}},
	{"router", func(t *testing.T, newDB func() *engine.Database, cfg server.Config) (*server.Server, string, func() int64) {
		s, addr, r := startRouter(t, newDB, cfg)
		return s, addr, r.Metrics().Gauge("softdb_router_connections").Value
	}},
}

// startRouter serves a router over two shards, each a database newDB
// builds, until the test ends.
func startRouter(t *testing.T, newDB func() *engine.Database, cfg server.Config) (*server.Server, string, *shard.Router) {
	t.Helper()
	var addrs []string
	for i := 0; i < 2; i++ {
		_, a := startServer(t, newDB(), server.Config{})
		addrs = append(addrs, a)
	}
	r, err := shard.New(shard.Config{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	cfg.Addr = "127.0.0.1:0"
	s, addr := serve(t, server.Over(r.Backend(), cfg))
	return s, addr, r
}

// TestRouterCountsEachRequestOnce: behind the router the server registers
// no families of its own, so the router's metrics count each wire
// connection and request exactly once.
func TestRouterCountsEachRequestOnce(t *testing.T) {
	_, addr, r := startRouter(t, engine.Open, server.Config{})
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Query(context.Background(), "SHOW SHARDS"); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := r.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "softdb_server_") {
		t.Errorf("router metrics carry a server family:\n%s", b.String())
	}
	if n := r.Metrics().Counter("softdb_router_requests_total").Value(); n != 3 {
		t.Errorf("softdb_router_requests_total = %d, want 3", n)
	}
	if n := r.Metrics().Gauge("softdb_router_connections").Value(); n != 1 {
		t.Errorf("softdb_router_connections = %d, want 1", n)
	}
}

// corrDB seeds the pruning table from the engine tests: clustered a,
// b = a + small noise (a minable absolute correlation), NULLs in b.
func corrDB(t *testing.T, n int, mine bool) *engine.Database {
	t.Helper()
	db := engine.Open()
	db.NoIndexes = true
	db.MustExec("CREATE TABLE t (a INT NOT NULL, b INT, c INT)")
	te, err := db.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		b := types.Datum(types.NewInt(int64(i + i%4)))
		if i%97 == 0 {
			b = types.Null
		}
		if err := db.InsertRow(te, types.Row{
			types.NewInt(int64(i)), b, types.NewInt(int64(i % 10))}); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExec("ANALYZE t")
	if mine {
		mgr := softc.NewManager(db.Catalog())
		cands, err := mgr.DiscoverTable("t")
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.InstallCorrelations(mgr.SelectCorrelations(cands.Correlations, 4)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestServerBoundAddr: listening on :0 reports the actual bound port.
func TestServerBoundAddr(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			_, addr, _ := b.start(t, engine.Open, server.Config{})
			tcp, err := net.ResolveTCPAddr("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			if tcp.Port == 0 {
				t.Fatalf("Listen(:0) must report the real port, got %s", addr)
			}
		})
	}
}

// TestServerEndToEnd: DDL, DML (with rows-affected), and queries through
// the wire return exactly what the in-process API returns.
func TestServerEndToEnd(t *testing.T) {
	db := engine.Open()
	_, addr := startServer(t, db, server.Config{})
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Session() == "" {
		t.Fatal("welcome should carry a session label")
	}

	ctx := context.Background()
	if _, err := c.Query(ctx, "CREATE TABLE kv (k INT NOT NULL, v STRING)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(ctx, "INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, NULL)")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 3 {
		t.Fatalf("rows affected: %d", res.RowsAffected)
	}
	remote, err := c.Query(ctx, "SELECT k, v FROM kv WHERE k >= 1")
	if err != nil {
		t.Fatal(err)
	}
	local, err := db.ExecCtx(ctx, "SELECT k, v FROM kv WHERE k >= 1")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(remote.Columns) != fmt.Sprint(local.Columns) {
		t.Fatalf("columns: remote %v, local %v", remote.Columns, local.Columns)
	}
	if len(remote.Rows) != len(local.Rows) {
		t.Fatalf("rows: remote %d, local %d", len(remote.Rows), len(local.Rows))
	}
	for i := range remote.Rows {
		for j := range remote.Rows[i] {
			if remote.Rows[i][j].String() != local.Rows[i][j].String() {
				t.Fatalf("row %d col %d: %s vs %s", i, j, remote.Rows[i][j], local.Rows[i][j])
			}
		}
	}

	// Parse errors travel as plain (non-lifecycle) errors.
	_, err = c.Query(ctx, "SELEC nonsense")
	if err == nil || client.Kind(err) != exec.KindError {
		t.Fatalf("parse error over the wire: %v (kind %s)", err, client.Kind(err))
	}
	// The connection survives statement errors.
	if _, err := c.Query(ctx, "SELECT k FROM kv"); err != nil {
		t.Fatalf("connection should survive a statement error: %v", err)
	}
}

// TestServerLargeResult: results beyond one row batch stream correctly.
func TestServerLargeResult(t *testing.T) {
	db := corrDB(t, 2000, false)
	_, addr := startServer(t, db, server.Config{})
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query(context.Background(), "SELECT a, b, c FROM t WHERE a >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2000 {
		t.Fatalf("large result lost rows: %d", len(res.Rows))
	}
	if int(res.Rows[1999][0].Int()) != 1999 {
		t.Fatalf("last row mangled: %v", res.Rows[1999])
	}
}

// TestServerSessionSettings: SET over the wire shapes this session's
// statements only; invalid settings error without killing the connection.
func TestServerSessionSettings(t *testing.T) {
	db := corrDB(t, 4000, false)
	_, addr := startServer(t, db, server.Config{})
	const q = "SELECT a, b FROM t WHERE a >= 100 AND a <= 140"

	tuned, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tuned.Close()
	plain, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	if err := tuned.Set("prune", "off"); err != nil {
		t.Fatal(err)
	}
	if err := tuned.Set("no_such_knob", "1"); err == nil {
		t.Fatal("unknown setting should error")
	}
	if _, err := tuned.Query(context.Background(), q); err != nil {
		t.Fatalf("connection should survive a bad SET: %v", err)
	}
	if _, err := plain.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	// The sessions compiled distinct plans (knobs are in the cache key) and
	// each session's traces show its own prune setting.
	if got := db.CachedPlanCount(); got != 2 {
		t.Fatalf("two knob sets should compile two plans, got %d", got)
	}
	var sawTuned, sawPlain bool
	for _, tr := range db.QueryLog().Recent(8) {
		switch tr.Session {
		case tuned.Session():
			sawTuned = true
			if tr.PagesSkipped != 0 {
				t.Errorf("tuned session pruned despite prune=off: %d", tr.PagesSkipped)
			}
		case plain.Session():
			sawPlain = true
			if tr.PagesSkipped == 0 {
				t.Errorf("plain session should prune")
			}
		}
	}
	if !sawTuned || !sawPlain {
		t.Fatalf("traces missing a session: tuned=%t plain=%t", sawTuned, sawPlain)
	}
}

// TestServerRejectsParallelSetting: SET parallel and SET batch over the wire
// fail with the engine's unknown-setting error, and the connection keeps
// serving.
func TestServerRejectsParallelSetting(t *testing.T) {
	db := corrDB(t, 400, false)
	_, addr := startServer(t, db, server.Config{})
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, kv := range [][2]string{{"parallel", "4"}, {"batch", "off"}} {
		err = c.Set(kv[0], kv[1])
		if err == nil || !strings.Contains(err.Error(), `unknown setting "`+kv[0]+`"`) {
			t.Fatalf("SET %s = %s over the wire: got %v, want an unknown-setting error", kv[0], kv[1], err)
		}
	}
	res, err := c.Query(context.Background(), "SELECT COUNT(*) AS n FROM t")
	if err != nil {
		t.Fatalf("connection unusable after a rejected SET: %v", err)
	}
	if got := res.Rows[0][0].Int(); got != 400 {
		t.Fatalf("count after rejected SET = %d, want 400", got)
	}
}

// TestServerMaxConns: connections beyond the cap get a typed busy error.
func TestServerMaxConns(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			_, addr, _ := b.start(t, engine.Open, server.Config{MaxConns: 2})
			c1, err := client.Connect(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c1.Close()
			c2, err := client.Connect(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			_, err = client.Connect(addr)
			if err == nil {
				t.Fatal("third connection should be rejected")
			}
			if client.Kind(err) != exec.KindBusy {
				t.Fatalf("rejection should be typed busy, got %v", err)
			}
			// Closing one frees a slot.
			c1.Close()
			waitFor(t, time.Second, func() bool {
				c3, err := client.Connect(addr)
				if err != nil {
					return false
				}
				c3.Close()
				return true
			})
		})
	}
}

// TestServerLoadShedding: with the shedder on, statements beyond
// MaxConcurrent+ShedQueueDepth fail fast with kind busy at the
// server.admission boundary instead of queueing on the engine gate.
func TestServerLoadShedding(t *testing.T) {
	db := corrDB(t, 2000, false)
	db.MaxConcurrent = 1
	db.NoPrune = true
	db.Fault = fault.New(fault.Config{SlowProb: 1, SlowDelay: time.Millisecond})
	_, addr := startServer(t, db, server.Config{Shed: true, ShedQueueDepth: 1})

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Connect(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			_, err = c.Query(context.Background(), "SELECT COUNT(*) AS n FROM t WHERE c >= 0")
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	var ok, shed int
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case client.Kind(err) == exec.KindBusy:
			shed++
			var we *wire.Error
			if !errors.As(err, &we) || we.Op != "server.admission" {
				t.Fatalf("shed error should carry the admission op: %v", err)
			}
		default:
			t.Fatalf("unexpected error under overload: %v", err)
		}
	}
	// Gate 1 + queue depth 1: at least some of the 8 must shed, and the
	// admitted ones must all succeed.
	if shed == 0 {
		t.Fatal("no statement was shed under 8x overload")
	}
	if ok == 0 {
		t.Fatal("every statement shed; admitted work should still finish")
	}
	if got := metricValue(t, db, "softdb_server_shed_total"); got != float64(shed) {
		t.Fatalf("shed counter %v != observed %d", got, shed)
	}
}

// TestServerDrain: Shutdown stops accepting, cancels in-flight statements
// (the client sees a typed canceled error, flushed before close), and
// returns once handlers exit.
func TestServerDrain(t *testing.T) {
	slowDB := func() *engine.Database {
		db := corrDB(t, 2000, false)
		db.NoPrune = true
		db.Fault = fault.New(fault.Config{SlowProb: 1, SlowDelay: 2 * time.Millisecond})
		return db
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			s, addr, _ := b.start(t, slowDB, server.Config{})
			c, err := client.Connect(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			idle, err := client.Connect(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer idle.Close()

			queryErr := make(chan error, 1)
			go func() {
				_, err := c.Query(context.Background(), "SELECT COUNT(*) AS n FROM t WHERE c >= 0")
				queryErr <- err
			}()
			time.Sleep(20 * time.Millisecond) // let the statement reach the scan

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("drain exceeded its deadline: %v", err)
			}
			select {
			case err := <-queryErr:
				if client.Kind(err) != exec.KindCanceled {
					t.Fatalf("drained statement should be typed canceled, got %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("in-flight query never returned after drain")
			}
			if _, err := client.Connect(addr); err == nil {
				t.Fatal("drained server should refuse new connections")
			}
		})
	}
}

// TestServerBusyWhileDraining: a connection the listener accepts after
// the drain began gets a typed busy error, not a silent close.
func TestServerBusyWhileDraining(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			s, addr, conns := b.start(t, engine.Open, server.Config{})
			s.SetDraining(true)
			_, err := client.Connect(addr)
			s.SetDraining(false) // let the cleanup's Shutdown run the real drain
			if client.Kind(err) != exec.KindBusy {
				t.Fatalf("connection during drain should be typed busy, got %v", err)
			}
			if n := conns(); n != 0 {
				t.Fatalf("a rejected connection must open no session, %d served", n)
			}
		})
	}
}

// TestServerIdleTimeout: a connection that sends nothing is closed once
// the idle timeout lapses.
func TestServerIdleTimeout(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			_, addr, conns := b.start(t, engine.Open, server.Config{IdleTimeout: 50 * time.Millisecond})
			c, err := client.Connect(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			waitFor(t, 2*time.Second, func() bool { return conns() == 0 })
		})
	}
}

// TestServerFaultKindsMatchLocal is the fault-injection-through-the-wire
// check: for each injected failure mode, a remote client receives exactly
// the typed kind a local ExecCtx caller gets.
func TestServerFaultKindsMatchLocal(t *testing.T) {
	cases := []struct {
		name  string
		fc    fault.Config
		ctxTO time.Duration
	}{
		{name: "read-error", fc: fault.Config{ReadErrProb: 1}},
		{name: "page-panic", fc: fault.Config{PanicProb: 1}},
		{name: "slow-timeout", fc: fault.Config{SlowProb: 1, SlowDelay: 2 * time.Millisecond}, ctxTO: 15 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := corrDB(t, 2000, false)
			db.NoPrune = true
			db.Fault = fault.New(tc.fc)
			const q = "SELECT COUNT(*) AS n FROM t WHERE c >= 0"

			lctx := context.Background()
			if tc.ctxTO > 0 {
				var cancel context.CancelFunc
				lctx, cancel = context.WithTimeout(lctx, tc.ctxTO)
				defer cancel()
			}
			_, localErr := db.ExecCtx(lctx, q)
			lqe, ok := exec.AsQueryError(localErr)
			if !ok {
				t.Fatalf("local fault should be a QueryError, got %v", localErr)
			}

			_, addr := startServer(t, db, server.Config{})
			c, err := client.Connect(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rctx := context.Background()
			if tc.ctxTO > 0 {
				var cancel context.CancelFunc
				rctx, cancel = context.WithTimeout(rctx, tc.ctxTO)
				defer cancel()
			}
			_, remoteErr := c.Query(rctx, q)
			if remoteErr == nil {
				t.Fatal("fault should surface remotely")
			}
			if client.Kind(remoteErr) != lqe.Kind {
				t.Fatalf("remote kind %s != local kind %s (remote err: %v)",
					client.Kind(remoteErr), lqe.Kind, remoteErr)
			}
			var we *wire.Error
			if errors.As(remoteErr, &we) && lqe.Op != "" && we.Op != lqe.Op {
				t.Errorf("remote op %q != local op %q", we.Op, lqe.Op)
			}
		})
	}
}

// TestServerCrossSessionInvalidation: one session's violating write
// deactivates an ASC (the notice travels to that client), and another
// session's EXPLAIN over the wire stops showing the prune-introduction —
// the cross-session cache-invalidation story end to end.
func TestServerCrossSessionInvalidation(t *testing.T) {
	db := corrDB(t, 4000, true)
	_, addr := startServer(t, db, server.Config{})
	reader, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	writer, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	ctx := context.Background()
	const q = "EXPLAIN SELECT a FROM t WHERE b >= 200 AND b <= 240"
	planLines := func(res *client.Result) string {
		var b strings.Builder
		for _, r := range res.Rows {
			b.WriteString(r[0].Str())
			b.WriteByte('\n')
		}
		return b.String()
	}
	before, err := reader.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planLines(before), "prune-introduction applied") {
		t.Fatalf("mined correlation should drive prune-introduction:\n%s", planLines(before))
	}

	res, err := writer.Query(ctx, "INSERT INTO t VALUES (100, 999999, 0)")
	if err != nil {
		t.Fatal(err)
	}
	var deactivated bool
	for _, n := range res.Notices {
		if strings.Contains(n, "deactivated by violating write") {
			deactivated = true
		}
	}
	if !deactivated {
		t.Fatalf("violating write should notify the writing client; notices: %v", res.Notices)
	}

	after, err := reader.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(planLines(after), "prune-introduction applied") {
		t.Fatalf("other sessions must see the deactivation:\n%s", planLines(after))
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// metricValue reads one un-labeled series from the db registry's
// Prometheus exposition.
func metricValue(t *testing.T, db *engine.Database, name string) float64 {
	t.Helper()
	var b strings.Builder
	if err := db.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	return -1
}
