// Package softdb's top-level benchmarks: one testing.B benchmark per
// experiment in EXPERIMENTS.md (E1–E13), each re-running the experiment's
// measured configuration so `go test -bench=.` regenerates the reproduction
// numbers. For the formatted result tables, run cmd/scbench.
package softdb_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"softdb/internal/bench"
	"softdb/internal/engine"
	"softdb/internal/exec"
	"softdb/internal/expr"
	"softdb/internal/mining"
	"softdb/internal/server"
	"softdb/internal/shard"
	"softdb/internal/softc"
	"softdb/internal/types"
	"softdb/internal/vec"
	"softdb/internal/wal"
	"softdb/internal/workload"
)

// reportPages attaches a pages-per-op metric so benchmark output carries
// the paper's unit of cost alongside wall time. Pages and comparisons are
// accumulated over every iteration and reported as per-op means, so the
// metric reflects the run, not whatever the final iteration happened to do.
func runQueryBench(b *testing.B, db *engine.Database, q string) {
	b.Helper()
	var pages, cmps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(q)
		if err != nil {
			b.Fatal(err)
		}
		pages += res.Ctx.IO.PagesRead
		cmps += res.Ctx.Comparisons
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
	b.ReportMetric(float64(cmps)/float64(b.N), "cmp/op")
}

// openE returns a database for the E-series benchmarks: plan caching off so
// every iteration pays the full path, and zone-map pruning pinned off so
// each benchmark isolates the one semantic rewrite it measures (the same
// isolation internal/bench applies; BenchmarkP2Prune measures pruning).
func openE() *engine.Database {
	db := engine.Open()
	db.DisablePlanCache = true
	db.NoPrune = true
	return db
}

// BenchmarkE1PredicateIntroduction measures the ship_date equality query
// with the mined correlation installed (the optimized side of E1); the
// /baseline variant disables the rewrite.
func BenchmarkE1PredicateIntroduction(b *testing.B) {
	for _, mode := range []string{"baseline", "sqo"} {
		b.Run(mode, func(b *testing.B) {
			db := openE()
			if err := workload.LoadPurchase(db, workload.PurchaseConfig{
				N: 50000, Seed: 1, IndexOrderDate: true,
			}); err != nil {
				b.Fatal(err)
			}
			mgr := softc.NewManager(db.Catalog())
			cands, err := mgr.DiscoverTable("purchase")
			if err != nil {
				b.Fatal(err)
			}
			if err := mgr.InstallCorrelations(mgr.SelectCorrelations(cands.Correlations, 1)); err != nil {
				b.Fatal(err)
			}
			db.RewriteOpts.NoPredIntro = mode == "baseline"
			runQueryBench(b, db, "SELECT id FROM purchase WHERE ship_date = DATE '1999-01-01' + 6000")
		})
	}
}

// BenchmarkE2JoinHoles measures the straddling range join with and without
// hole trimming.
func BenchmarkE2JoinHoles(b *testing.B) {
	for _, mode := range []string{"baseline", "holetrim"} {
		b.Run(mode, func(b *testing.B) {
			db := setupHoleBench(b, 10000, 2)
			db.RewriteOpts.NoHoleTrim = mode == "baseline"
			runQueryBench(b, db, holesQueryFor(10000))
		})
	}
}

func setupHoleBench(b *testing.B, orders, lines int) *engine.Database {
	b.Helper()
	db := openE()
	if err := workload.LoadOrdersLineitem(db, workload.HolesConfig{
		Orders: orders, LinesPer: lines, Seed: 5, BandLo: orders / 4, BandHi: orders / 2,
	}); err != nil {
		b.Fatal(err)
	}
	left, _ := db.Catalog().Table("orders")
	right, _ := db.Catalog().Table("lineitem")
	jh, _, err := mining.MineJoinHoles(mining.JoinHoleRequest{
		Left: left, Right: right,
		JoinLeft: "okey", JoinRight: "okey",
		AttrLeft: "odate", AttrRight: "shipdate",
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.Catalog().AddJoinHoles(jh); err != nil {
		b.Fatal(err)
	}
	return db
}

func holesQueryFor(orders int) string {
	lo := orders/4 + orders/16
	hi := orders/2 + orders/8
	return fmt.Sprintf(`SELECT COUNT(*) AS n FROM orders o, lineitem l
		WHERE o.okey = l.okey
		AND o.odate >= DATE '1999-01-01' + %d AND o.odate <= DATE '1999-01-01' + %d
		AND l.shipdate >= DATE '1999-01-01' + %d AND l.shipdate <= DATE '1999-01-01' + %d`,
		lo, hi, lo, hi+90)
}

// BenchmarkE3Cardinality measures estimation latency with and without SSC
// twins and reports the mean q-error of each mode as a custom metric.
func BenchmarkE3Cardinality(b *testing.B) {
	db := openE()
	if err := workload.LoadProject(db, workload.ProjectConfig{
		N: 20000, LongFrac: 0.1, Seed: 3, Confidence: 0.9,
	}); err != nil {
		b.Fatal(err)
	}
	q := "SELECT id FROM project WHERE start_date <= DATE '1999-01-01' + 5000 AND end_date >= DATE '1999-01-01' + 5000"
	for _, mode := range []string{"independence", "ssctwin"} {
		b.Run(mode, func(b *testing.B) {
			db.NoSSCEstimation = mode == "independence"
			var est float64
			for i := 0; i < b.N; i++ {
				res, err := db.Exec(q)
				if err != nil {
					b.Fatal(err)
				}
				est = res.EstRows
			}
			b.ReportMetric(est, "est-rows")
		})
	}
}

// BenchmarkE4JoinElimination measures the fact⋈dim aggregate with and
// without join elimination.
func BenchmarkE4JoinElimination(b *testing.B) {
	for _, mode := range []string{"join", "eliminated"} {
		b.Run(mode, func(b *testing.B) {
			db := openE()
			if err := workload.LoadStar(db, workload.StarConfig{
				DimRows: 1000, FactRows: 30000, Seed: 2, FKMode: "informational",
			}); err != nil {
				b.Fatal(err)
			}
			db.RewriteOpts.NoJoinElim = mode == "join"
			runQueryBench(b, db, "SELECT SUM(f.qty) AS s FROM fact f, dim d WHERE f.dim_id = d.id")
		})
	}
}

// BenchmarkE5BranchPrune measures the Jan–Mar query against the 12-branch
// view with and without branch elimination.
func BenchmarkE5BranchPrune(b *testing.B) {
	for _, mode := range []string{"all-branches", "pruned"} {
		b.Run(mode, func(b *testing.B) {
			db := openE()
			if err := workload.LoadPartitionedSales(db, 2000, 3); err != nil {
				b.Fatal(err)
			}
			db.RewriteOpts.NoBranchPrune = mode == "all-branches"
			runQueryBench(b, db, "SELECT SUM(amount) AS s FROM sales WHERE month >= 1 AND month <= 3")
		})
	}
}

// BenchmarkE6ExceptionAST measures the late-shipments query under the three
// E6 configurations.
func BenchmarkE6ExceptionAST(b *testing.B) {
	db := openE()
	if err := workload.LoadPurchase(db, workload.PurchaseConfig{
		N: 30000, LateFrac: 0.01, Seed: 4, ShipWindowMode: "ssc", IndexOrderDate: true,
	}); err != nil {
		b.Fatal(err)
	}
	db.MustExec(`CREATE SUMMARY TABLE late_shipments AS
		(SELECT * FROM purchase WHERE ship_date > order_date + 21)`)
	if err := db.LinkException("ship_window", "late_shipments"); err != nil {
		b.Fatal(err)
	}
	db.MustExec("ANALYZE purchase")
	q := "SELECT id FROM purchase WHERE ship_date = DATE '1999-01-01' + 3500"
	for _, mode := range []string{"scan", "exception-ast"} {
		b.Run(mode, func(b *testing.B) {
			db.RewriteOpts.NoExceptionAST = mode == "scan"
			db.RewriteOpts.NoSSCTwins = mode == "scan"
			runQueryBench(b, db, q)
		})
	}
}

// BenchmarkE7FDSort measures the FD-simplified ORDER BY.
func BenchmarkE7FDSort(b *testing.B) {
	for _, mode := range []string{"full-keys", "fd-simplified"} {
		b.Run(mode, func(b *testing.B) {
			db := openE()
			if err := workload.LoadDenormalized(db, 20000, 100, 7); err != nil {
				b.Fatal(err)
			}
			mgr := softc.NewManager(db.Catalog())
			mgr.FDs = mining.FDMinerConfig{MaxLHS: 1}
			cands, err := mgr.DiscoverTable("orders_wide")
			if err != nil {
				b.Fatal(err)
			}
			var useful []mining.FD
			for _, fd := range cands.FDs {
				if fd.Det[0] == "cust_id" && fd.Confidence >= 1 {
					useful = append(useful, fd)
				}
			}
			if err := mgr.InstallFDs("orders_wide", useful); err != nil {
				b.Fatal(err)
			}
			db.RewriteOpts.NoSortOpt = mode == "full-keys"
			runQueryBench(b, db, "SELECT cust_id, cust_name FROM orders_wide ORDER BY cust_id, cust_name, region")
		})
	}
}

// BenchmarkE8CheckingOverhead measures bulk-load cost with enforced vs
// informational constraints (the §1 loading argument). Each op loads a
// fixed 2000-row batch into a fresh table, so the two modes run at
// identical scale.
func BenchmarkE8CheckingOverhead(b *testing.B) {
	const batch = 2000
	for _, mode := range []string{"informational", "enforced"} {
		b.Run(mode, func(b *testing.B) {
			fkSuffix, checkSuffix := "", ""
			if mode == "informational" {
				fkSuffix, checkSuffix = " NOT ENFORCED", " INFORMATIONAL"
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := engine.Open()
				db.MustExec("CREATE TABLE dim (id INT PRIMARY KEY)")
				for d := 0; d < 100; d++ {
					db.MustExec(fmt.Sprintf("INSERT INTO dim VALUES (%d)", d))
				}
				// No fact PK: isolates the FK+check cost.
				db.MustExec(fmt.Sprintf(`CREATE TABLE fact (
					id INT, dim_id INT NOT NULL, qty INT,
					FOREIGN KEY (dim_id) REFERENCES dim (id)%s,
					CHECK (qty >= 0)%s)`, fkSuffix, checkSuffix))
				te, err := db.Catalog().Table("fact")
				if err != nil {
					b.Fatal(err)
				}
				rows := make([]types.Row, batch)
				for r := 0; r < batch; r++ {
					row, err := te.Def.ValidateRow(benchFactRow(r))
					if err != nil {
						b.Fatal(err)
					}
					rows[r] = row
				}
				b.StartTimer()
				for _, row := range rows {
					if err := db.InsertRow(te, row); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(batch), "rows/op")
		})
	}
}

// BenchmarkE9Currency measures the margin-of-error bookkeeping under an
// update stream.
func BenchmarkE9Currency(b *testing.B) {
	db := engine.Open()
	if err := workload.LoadProject(db, workload.ProjectConfig{
		N: 10000, LongFrac: 0, Seed: 9, Confidence: 0.999,
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.MustExec(fmt.Sprintf("UPDATE project SET end_date = start_date + 400 WHERE id = %d", i%10000))
	}
}

// BenchmarkE10Miners measures the two discovery algorithms.
func BenchmarkE10Miners(b *testing.B) {
	b.Run("correlation-50k", func(b *testing.B) {
		db := engine.Open()
		if err := workload.LoadPurchase(db, workload.PurchaseConfig{N: 50000, Seed: 6}); err != nil {
			b.Fatal(err)
		}
		te, _ := db.Catalog().Table("purchase")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mining.FitLinear(te.Heap, 2, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("holes-20k", func(b *testing.B) {
		db := engine.Open()
		if err := workload.LoadOrdersLineitem(db, workload.HolesConfig{
			Orders: 20000, LinesPer: 1, Seed: 6, BandLo: 5000, BandHi: 10000,
		}); err != nil {
			b.Fatal(err)
		}
		left, _ := db.Catalog().Table("orders")
		right, _ := db.Catalog().Table("lineitem")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := mining.MineJoinHoles(mining.JoinHoleRequest{
				Left: left, Right: right,
				JoinLeft: "okey", JoinRight: "okey",
				AttrLeft: "odate", AttrRight: "shipdate",
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11Violation measures the synchronous cheap-repair path: a write
// that retires holes and invalidates dependent plans.
func BenchmarkE11Violation(b *testing.B) {
	db := setupHoleBench(b, 10000, 2)
	db.DisablePlanCache = false
	q := holesQueryFor(10000)
	if _, err := db.Exec(q); err != nil {
		b.Fatal(err)
	}
	bandMid := 10000/4 + 1250
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		okey := 20000 + i
		db.MustExec(fmt.Sprintf("INSERT INTO orders VALUES (%d, DATE '1999-01-01' + %d)", okey, bandMid))
		db.MustExec(fmt.Sprintf("INSERT INTO lineitem VALUES (%d, %d, DATE '1999-01-01' + %d, 1)",
			2000000+i, okey, bandMid+10))
	}
}

// BenchmarkFullSuite runs every experiment once per iteration; useful for
// spotting regressions across the whole reproduction.
func BenchmarkFullSuiteSmoke(b *testing.B) {
	if testing.Short() {
		b.Skip("full suite is slow")
	}
	for i := 0; i < b.N; i++ {
		rep, err := bench.E5BranchPrune(500)
		if err != nil {
			b.Fatal(err)
		}
		_ = rep
	}
}

// benchFactRow builds one deterministic fact row.
func benchFactRow(i int) types.Row {
	return types.Row{
		types.NewInt(int64(i)),
		types.NewInt(int64(i % 100)),
		types.NewInt(int64(i % 500)),
	}
}

// BenchmarkE12ASTRouting measures the correlated-predicate query with and
// without AST routing.
func BenchmarkE12ASTRouting(b *testing.B) {
	db := openE()
	db.MustExec("CREATE TABLE purchase (id INT PRIMARY KEY, region INT, amount FLOAT)")
	te, err := db.Catalog().Table("purchase")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		region, amount := i%7, i%90
		if i%20 == 0 {
			region, amount = 3, 90+i%10
		}
		row, err := te.Def.ValidateRow(types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(region)), types.NewFloat(float64(amount)),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := db.InsertRow(te, row); err != nil {
			b.Fatal(err)
		}
	}
	db.MustExec("CREATE SUMMARY TABLE premium AS (SELECT * FROM purchase WHERE amount >= 90 AND region = 3)")
	db.MustExec("ANALYZE purchase")
	q := "SELECT id FROM purchase WHERE amount >= 90 AND region = 3"
	for _, mode := range []string{"base-table", "ast-routed"} {
		b.Run(mode, func(b *testing.B) {
			db.RewriteOpts.NoASTRouting = mode == "base-table"
			runQueryBench(b, db, q)
		})
	}
}

// BenchmarkE13VirtualColumn measures the expression-predicate query before
// and after registering the duration virtual column (estimation-only; wall
// time is flat, the est-rows metric is the result).
func BenchmarkE13VirtualColumn(b *testing.B) {
	db := openE()
	if err := workload.LoadProject(db, workload.ProjectConfig{N: 20000, LongFrac: 0.1, Seed: 13}); err != nil {
		b.Fatal(err)
	}
	q := "SELECT id FROM project WHERE end_date - start_date <= 5"
	run := func(b *testing.B) {
		var est float64
		for i := 0; i < b.N; i++ {
			res, err := db.Exec(q)
			if err != nil {
				b.Fatal(err)
			}
			est = res.EstRows
		}
		b.ReportMetric(est, "est-rows")
	}
	b.Run("default-estimate", run)
	if err := db.AddVirtualColumn("project", "duration", "end_date - start_date"); err != nil {
		b.Fatal(err)
	}
	b.Run("virtual-column", run)
}

// BenchmarkObsOverhead measures what the observability layer costs the
// query path (experiment O1). The off/ variants run with tracing disabled —
// metrics counters and the query-log ring still update, which is the
// always-on production configuration — and should stay within a few percent
// of the pre-instrumentation engine. The on/ variants add the per-operator
// span wrappers and bound the cost of \trace on / EXPLAIN ANALYZE.
func BenchmarkObsOverhead(b *testing.B) {
	db := engine.Open()
	if err := workload.LoadStar(db, workload.StarConfig{DimRows: 1000, FactRows: 100000, Seed: 11}); err != nil {
		b.Fatal(err)
	}
	queries := []struct{ name, q string }{
		{"filter-scan", "SELECT id, qty FROM fact WHERE qty > 25 AND price < 500.0"},
		{"group-agg", "SELECT dim_id, COUNT(*) AS n, SUM(qty) AS total FROM fact GROUP BY dim_id"},
	}
	for _, qc := range queries {
		for _, tracing := range []bool{false, true} {
			label := "tracing-off"
			if tracing {
				label = "tracing-on"
			}
			b.Run(fmt.Sprintf("%s/%s", qc.name, label), func(b *testing.B) {
				db.SetTracing(tracing)
				runQueryBench(b, db, qc.q)
			})
		}
	}
	db.SetTracing(false)
}

// BenchmarkR1LifecycleOverhead bounds what the query-lifecycle plumbing
// costs a query that never exercises it (experiment R1). The ctx=on
// variants run under a live cancelable deadline context, so every page and
// row checkpoint performs the full done-channel select; the ctx=off
// variants run with a background context — the fast path where the
// checkpoint is a nil test. No faults, budgets, or cancellations fire in
// either variant; the acceptance bar is <=5% wall-time overhead.
func BenchmarkR1LifecycleOverhead(b *testing.B) {
	db := engine.Open()
	if err := workload.LoadStar(db, workload.StarConfig{DimRows: 1000, FactRows: 100000, Seed: 17}); err != nil {
		b.Fatal(err)
	}
	queries := []struct{ name, q string }{
		{"filter-scan", "SELECT id, qty FROM fact WHERE qty > 25 AND price < 500.0"},
		{"group-agg", "SELECT dim_id, COUNT(*) AS n, SUM(qty) AS total FROM fact GROUP BY dim_id"},
	}
	for _, qc := range queries {
		for _, withCtx := range []bool{false, true} {
			label := "ctx=off"
			if withCtx {
				label = "ctx=on"
			}
			b.Run(fmt.Sprintf("%s/%s", qc.name, label), func(b *testing.B) {
				var pages int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctx := context.Background()
					cancel := context.CancelFunc(func() {})
					if withCtx {
						ctx, cancel = context.WithTimeout(ctx, time.Hour)
					}
					res, err := db.ExecCtx(ctx, qc.q)
					cancel()
					if err != nil {
						b.Fatal(err)
					}
					pages += res.Ctx.IO.PagesRead
				}
				b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
			})
		}
	}
}

// BenchmarkS1Server measures wire-protocol query throughput: concurrent
// clients driving mixed read/DML traffic through a TCP server backed by
// one engine instance (experiment S1). Each op is one full driver run;
// qps and the accepted-statement latency percentiles are reported as
// custom metrics, accumulated across iterations like pages/op.
func BenchmarkS1Server(b *testing.B) {
	const rows, clients, ops = 8000, 16, 10
	db := engine.Open()
	db.NoIndexes = true
	db.MustExec("CREATE TABLE t (a INT NOT NULL, b INT, c INT)")
	te, err := db.Catalog().Table("t")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := db.InsertRow(te, types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i + i%4)), types.NewInt(int64(i % 10)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	db.MustExec("ANALYZE t")
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.Listen()
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	var qps, p50, p95, p99 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := workload.RunDriver(workload.DriverConfig{
			Addr: addr.String(), Clients: clients, OpsPerClient: ops, Seed: int64(100 + i),
			Statement: func(c, op int, r *rand.Rand) string {
				if op%10 == 9 {
					a := rows*10 + i*1000000 + c*10000 + op
					return fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 0)", a, a+1)
				}
				lo := r.Intn(rows - 50)
				return fmt.Sprintf("SELECT a, b, c FROM t WHERE a >= %d AND a <= %d", lo, lo+40)
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.ErrKinds) > 0 || rep.Shed > 0 {
			b.Fatalf("driver saw failures: %+v", rep)
		}
		qps += rep.Throughput
		p50 += float64(rep.Accepted.P50.Microseconds())
		p95 += float64(rep.Accepted.P95.Microseconds())
		p99 += float64(rep.Accepted.P99.Microseconds())
	}
	n := float64(b.N)
	b.ReportMetric(qps/n, "qps")
	b.ReportMetric(p50/n, "p50_us")
	b.ReportMetric(p95/n, "p95_us")
	b.ReportMetric(p99/n, "p99_us")
}

// BenchmarkT1ReadUnderWrites measures the MVCC tentpole's headline number
// (experiment T1): reader p99 over slow-page scans, alone and with a
// concurrent insert flood. Before snapshot isolation a writer serialized
// behind each materializing scan and later readers queued behind the
// writer, so the under-write p99 degraded multi-x; scbench's trajectory
// check gates on the ratio staying small.
func BenchmarkT1ReadUnderWrites(b *testing.B) {
	var ro, rw float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roRep, rwRep, err := bench.T1ReadLatencies(bench.DefaultT1)
		if err != nil {
			b.Fatal(err)
		}
		if len(roRep.ErrKinds) > 0 || len(rwRep.ErrKinds) > 0 {
			b.Fatalf("driver saw failures: ro=%v rw=%v", roRep.ErrKinds, rwRep.ErrKinds)
		}
		ro += float64(roRep.Accepted.P99.Microseconds())
		rw += float64(rwRep.Accepted.P99.Microseconds())
	}
	n := float64(b.N)
	b.ReportMetric(ro/n, "ro_p99_us")
	b.ReportMetric(rw/n, "rw_p99_us")
}

// runPruneBench reports per-op page reads and skips alongside wall time —
// the two units the P2 pruning claims are stated in.
func runPruneBench(b *testing.B, db *engine.Database, q string) {
	b.Helper()
	var pages, skipped int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(q)
		if err != nil {
			b.Fatal(err)
		}
		pages += res.Ctx.IO.PagesRead
		skipped += res.Ctx.IO.PagesSkipped
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
	b.ReportMetric(float64(skipped)/float64(b.N), "skipped/op")
}

// BenchmarkP2Prune measures zone-map pruning on the three P2 workloads:
// a selective clustered range scan (filter-derived skips), the same scan
// driven through a mined ASC correlation (constraint-derived prune
// predicate), and a join whose range straddles an interior join hole
// (exclusion predicate). The off/ variants pin NoPrune for the baseline.
func BenchmarkP2Prune(b *testing.B) {
	const n = 20000
	selDB := engine.Open()
	selDB.DisablePlanCache = true
	if err := workload.LoadPurchase(selDB, workload.PurchaseConfig{N: n, Seed: 21}); err != nil {
		b.Fatal(err)
	}
	lo := n / 4 / 4
	selQ := fmt.Sprintf("SELECT id FROM purchase WHERE order_date >= DATE '1999-01-01' + %d AND order_date <= DATE '1999-01-01' + %d", lo, lo+20)

	corrDB := engine.Open()
	corrDB.DisablePlanCache = true
	if err := workload.LoadPurchase(corrDB, workload.PurchaseConfig{N: n, Seed: 22}); err != nil {
		b.Fatal(err)
	}
	mgr := softc.NewManager(corrDB.Catalog())
	cands, err := mgr.DiscoverTable("purchase")
	if err != nil {
		b.Fatal(err)
	}
	if err := mgr.InstallCorrelations(mgr.SelectCorrelations(cands.Correlations, 1)); err != nil {
		b.Fatal(err)
	}
	corrQ := fmt.Sprintf("SELECT id FROM purchase WHERE ship_date >= DATE '1999-01-01' + %d AND ship_date <= DATE '1999-01-01' + %d", lo, lo+20)

	holeDB := engine.Open()
	holeDB.DisablePlanCache = true
	if err := workload.LoadOrdersLineitem(holeDB, workload.HolesConfig{
		Orders: n, LinesPer: 2, Seed: 23, BandLo: n / 4, BandHi: n / 2,
	}); err != nil {
		b.Fatal(err)
	}
	left, _ := holeDB.Catalog().Table("orders")
	right, _ := holeDB.Catalog().Table("lineitem")
	jh, _, err := mining.MineJoinHoles(mining.JoinHoleRequest{
		Left: left, Right: right,
		JoinLeft: "okey", JoinRight: "okey",
		AttrLeft: "odate", AttrRight: "shipdate",
	})
	if err != nil {
		b.Fatal(err)
	}
	jh.Name = "p2_holes"
	if err := holeDB.Catalog().AddJoinHoles(jh); err != nil {
		b.Fatal(err)
	}
	holeQ := fmt.Sprintf(`SELECT COUNT(*) AS c FROM orders o, lineitem l
		WHERE o.okey = l.okey
		AND o.odate >= DATE '1999-01-01' + %d AND o.odate <= DATE '1999-01-01' + %d
		AND l.shipdate >= DATE '1999-01-01' + %d AND l.shipdate <= DATE '1999-01-01' + %d`,
		n/8, 3*n/4, n/8, 3*n/4+89)

	cases := []struct {
		name string
		db   *engine.Database
		q    string
	}{
		{"selective-scan", selDB, selQ},
		{"corr-derived", corrDB, corrQ},
		{"hole-interval", holeDB, holeQ},
	}
	for _, c := range cases {
		for _, prune := range []string{"off", "on"} {
			b.Run(fmt.Sprintf("%s/prune=%s", c.name, prune), func(b *testing.B) {
				c.db.NoPrune = prune == "off"
				runPruneBench(b, c.db, c.q)
			})
		}
	}
}

// BenchmarkP2PruneOverhead bounds what synopsis consultation costs a scan
// that cannot skip anything: an unselective predicate over an unclustered
// column reads every page in both modes, so any wall-time gap between the
// variants is pure bookkeeping (the acceptance bar is <=5%).
func BenchmarkP2PruneOverhead(b *testing.B) {
	db := engine.Open()
	db.DisablePlanCache = true
	if err := workload.LoadStar(db, workload.StarConfig{DimRows: 1000, FactRows: 100000, Seed: 24}); err != nil {
		b.Fatal(err)
	}
	q := "SELECT COUNT(*) AS c FROM fact WHERE qty >= 0"
	for _, prune := range []string{"off", "on"} {
		b.Run("full-scan/prune="+prune, func(b *testing.B) {
			db.NoPrune = prune == "off"
			runPruneBench(b, db, q)
		})
	}
}

// BenchmarkD1Recovery measures crash recovery: each iteration recovers a
// fresh copy of a crash image (a data directory with an uncheckpointed
// 4000-statement log, copied before the shutdown checkpoint) and reports
// records replayed per op. The /checkpointed variant recovers the same
// workload written under the default checkpoint cadence, so only the tail
// past the last snapshot replays.
func BenchmarkD1Recovery(b *testing.B) {
	for _, mode := range []struct {
		name  string
		every int
	}{{"uncheckpointed", -1}, {"checkpointed", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			src := b.TempDir()
			db, _, err := engine.OpenDurable(src, engine.DurableOptions{
				SyncPolicy: wal.SyncNone, CheckpointEvery: mode.every,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.ExecScript(
				"CREATE TABLE d1 (k INT PRIMARY KEY, v INT NOT NULL, CONSTRAINT d1_v_pos CHECK (v >= 0) SOFT); CREATE INDEX idx_d1_v ON d1 (v);"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 4000; i++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO d1 VALUES (%d, %d)", i, i%1000)); err != nil {
					b.Fatal(err)
				}
			}
			// Snapshot the crash image before Close writes its checkpoint.
			image := b.TempDir()
			copyBenchDir(b, src, image)
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}

			var replayed int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				copyBenchDir(b, image, dir)
				b.StartTimer()
				rdb, rs, err := engine.OpenDurable(dir, engine.DurableOptions{SyncPolicy: wal.SyncNone})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				replayed += rs.RecordsReplayed
				rdb.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(replayed)/float64(b.N), "records/op")
		})
	}
}

// copyBenchDir copies every regular file in src into dst.
func copyBenchDir(b *testing.B, src, dst string) {
	b.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkO2EconomyOverhead bounds what the constraint-economy ledger
// costs a steady-state query that exercises its crediting hot path: a
// join-hole-trimmed range join whose pruned scans attribute skipped pages
// to the hole characterization and whose finished executions flush a
// q-error observation (experiment O2). The ledger-off variant runs the
// identical cached plan with db.NoEconomy set, so the delta isolates the
// atomic-add crediting; the acceptance bar is <=5% wall time.
func BenchmarkO2EconomyOverhead(b *testing.B) {
	n := 20000
	db := engine.Open()
	if err := workload.LoadOrdersLineitem(db, workload.HolesConfig{
		Orders: n, LinesPer: 2, Seed: 5, BandLo: n / 4, BandHi: n / 2,
	}); err != nil {
		b.Fatal(err)
	}
	left, err := db.Catalog().Table("orders")
	if err != nil {
		b.Fatal(err)
	}
	right, err := db.Catalog().Table("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	jh, _, err := mining.MineJoinHoles(mining.JoinHoleRequest{
		Left: left, Right: right,
		JoinLeft: "okey", JoinRight: "okey",
		AttrLeft: "odate", AttrRight: "shipdate",
	})
	if err != nil {
		b.Fatal(err)
	}
	jh.Name = "holes_orders_lineitem"
	if err := db.Catalog().AddJoinHoles(jh); err != nil {
		b.Fatal(err)
	}
	// The ranges straddle the planted hole band, so the rewriter plants an
	// interior exclusion prune predicate and every iteration attributes
	// skipped pages to the hole — the ledger's hottest crediting path.
	lo, hi := n/8, 3*n/4
	q := fmt.Sprintf(`SELECT COUNT(*) AS c FROM orders o, lineitem l
		WHERE o.okey = l.okey
		AND o.odate >= DATE '1999-01-01' + %d AND o.odate <= DATE '1999-01-01' + %d
		AND l.shipdate >= DATE '1999-01-01' + %d AND l.shipdate <= DATE '1999-01-01' + %d`,
		lo, hi, lo, hi+10)
	if _, err := db.Exec(q); err != nil {
		b.Fatal(err)
	}
	for _, ledger := range []bool{true, false} {
		label := "ledger-on"
		if !ledger {
			label = "ledger-off"
		}
		b.Run(label, func(b *testing.B) {
			db.NoEconomy = !ledger
			runQueryBench(b, db, q)
		})
	}
	db.NoEconomy = false
}

// BenchmarkV1Kernels measures the compiled predicate kernels against the
// per-row tree-walk they replaced, one sub-benchmark pair per kernel
// family (see EXPERIMENTS.md §V1). Each op evaluates the whole batch, and
// ns/row is reported so single-iteration snapshot runs still carry a
// meaningful per-row number.
func BenchmarkV1Kernels(b *testing.B) {
	const nRows = 65536
	rows := bench.V1Rows(nRows)
	for _, kc := range bench.V1Cases() {
		prog := expr.CompilePredicate(kc.Conds)
		b.Run(kc.Name+"/kernel", func(b *testing.B) {
			var batch vec.Batch
			batch.Reset(rows)
			ident := vec.IdentitySel(nil, nRows)
			out := make([]int32, 0, nRows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel := ident
				for s := range prog.Stages {
					var err error
					sel, err = prog.RunStage(s, &batch, sel, out)
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nRows), "ns/row")
		})
		b.Run(kc.Name+"/treewalk", func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, row := range rows {
					for _, c := range kc.Conds {
						ok, err := expr.EvalBool(c, row)
						if err != nil {
							b.Fatal(err)
						}
						if !ok {
							break
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nRows), "ns/row")
		})
	}
}

// BenchmarkV2FrozenScan measures the frozen-page experiment's statements
// (see EXPERIMENTS.md §V2) with the scanned table's page images cold before
// every execution, warm, and thawed every fourth execution. ns/row divides
// by the rows the statement reads; frozen/op is how many page reads were
// served from images. scbench gates warm < cold on the two page scans.
func BenchmarkV2FrozenScan(b *testing.B) {
	db, cases, err := bench.V2DB(100000, 50000)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cases {
		for _, mode := range bench.V2Modes {
			b.Run(c.Name+"/"+mode, func(b *testing.B) {
				if _, err := db.Exec(c.SQL); err != nil {
					b.Fatal(err)
				}
				var rows, pages, frozen int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if err := bench.V2Prepare(db, c, mode, i); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					res, err := db.Exec(c.SQL)
					if err != nil {
						b.Fatal(err)
					}
					io := res.Ctx.IO.Load()
					rows, pages, frozen = io.RowsRead, io.PagesRead, frozen+io.PagesFrozen
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*rows), "ns/row")
				b.ReportMetric(float64(pages), "pages/op")
				b.ReportMetric(float64(frozen)/float64(b.N), "frozen/op")
			})
		}
	}
}

// BenchmarkV3IndexPagePath measures the run-time index access path (see
// EXPERIMENTS.md §V3): each range read entry by entry (the forced entry
// path) and on the page path over frozen and over cold pages, in ns per
// range entry, and the hash-join build over every fact row with the typed
// int table and the generic string-keyed one, in ns per build row. scbench
// gates the page path under the entry path on the wider frozen range.
func BenchmarkV3IndexPagePath(b *testing.B) {
	db, cases, err := bench.V3DB(100000)
	if err != nil {
		b.Fatal(err)
	}
	te, err := db.Catalog().Table("fact")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cases {
		scan, err := bench.V3Scan(db, c)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range bench.V3Modes {
			b.Run(c.Name+"/"+mode, func(b *testing.B) {
				if _, _, _, err := bench.V3Run(scan, mode); err != nil { // freezes the pages
					b.Fatal(err)
				}
				var pages, frozen int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "pages-cold" {
						b.StopTimer()
						te.Heap.ThawAll()
						b.StartTimer()
					}
					_, _, ctx, err := bench.V3Run(scan, mode)
					if err != nil {
						b.Fatal(err)
					}
					pages, frozen = ctx.IO.PagesRead, frozen+ctx.IO.PagesFrozen
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*c.Entries()), "ns/entry")
				b.ReportMetric(float64(pages), "pages/op")
				b.ReportMetric(float64(frozen)/float64(b.N), "frozen/op")
			})
		}
	}
	for _, mode := range bench.V3BuildModes {
		join, buildRows, err := bench.V3Join(db, mode)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("build/"+mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := join.Run(exec.NewCtx(context.Background(), exec.CtxOptions{}), func(*vec.Batch) bool { return true }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*buildRows), "ns/row")
		})
	}
}

// BenchmarkS2Router measures the constraint-aware shard router's zone-map
// analogy (experiment S2): a query whose predicate lies inside exactly one
// shard's synced value range, with registry pruning on (pruned) and off
// (broadcast). The shards/op metric is the number of shards contacted per
// statement; scbench's trajectory check gates pruned < broadcast — the
// regression it catches is the registry silently no longer excluding
// shards.
func BenchmarkS2Router(b *testing.B) {
	const shards, rows = 4, 8000
	addrs := make([]string, 0, shards)
	for i := 0; i < shards; i++ {
		db := engine.Open()
		db.NoIndexes = true
		srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
		addr, err := srv.Listen()
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		addrs = append(addrs, addr.String())
	}
	spec, err := shard.ParseSpec(fmt.Sprintf("events=range(k:%d,%d,%d)", rows/4, rows/2, 3*rows/4))
	if err != nil {
		b.Fatal(err)
	}
	r, err := shard.New(shard.Config{
		Addrs: addrs, Specs: []shard.Spec{spec},
		TrackCols:   []string{"events.v"},
		DialTimeout: 5 * time.Second, DialAttempts: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	sess := r.NewSession()
	defer sess.Close()
	ctx := context.Background()
	if _, err := sess.Exec(ctx, "CREATE TABLE events (k INT NOT NULL, v INT)"); err != nil {
		b.Fatal(err)
	}
	var vals []string
	for i := 0; i < rows; i++ {
		k := (i * 10007) % rows
		vals = append(vals, fmt.Sprintf("(%d, %d)", k, k))
		if len(vals) == 200 || i == rows-1 {
			if _, err := sess.Exec(ctx, "INSERT INTO events VALUES "+joinComma(vals)); err != nil {
				b.Fatal(err)
			}
			vals = vals[:0]
		}
	}
	if _, err := sess.Exec(ctx, "ROUTER SYNC"); err != nil {
		b.Fatal(err)
	}
	// The measured statement: a value band covered only by the last
	// shard's synced range.
	q := fmt.Sprintf("SELECT COUNT(*) AS n, SUM(v) AS s FROM events WHERE v >= %d AND v <= %d", rows-rows/8, rows-1)
	for _, mode := range []string{"pruned", "broadcast"} {
		b.Run(mode, func(b *testing.B) {
			if err := sess.Set("shard_prune", map[string]string{"pruned": "on", "broadcast": "off"}[mode]); err != nil {
				b.Fatal(err)
			}
			before := r.ShardQueryCounts()
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Exec(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			var contacted int64
			for i, c := range r.ShardQueryCounts() {
				contacted += c - before[i]
			}
			b.ReportMetric(float64(contacted)/float64(b.N), "shards/op")
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "qps")
		})
	}
}

func joinComma(vals []string) string {
	out := ""
	for i, v := range vals {
		if i > 0 {
			out += ", "
		}
		out += v
	}
	return out
}

// BenchmarkC1PlanTemplate measures the three costs a statement can pay on
// the SELECT path (experiment C1), on the two point_lookup shapes over a
// 200k-row purchase: cold-plan (plan cache off: parse, build, rewrite,
// optimize, execute), text-repeat (the same text every iteration: a plan
// cache hit), and template-rebind (a fresh literal every iteration: a hit
// on the shape's template, rebound to the new literal — before shape
// keying this was a cold plan plus a cache store).
func BenchmarkC1PlanTemplate(b *testing.B) {
	n := 200000
	if testing.Short() {
		n = 20000
	}
	load := func(disableCache bool) *engine.Database {
		db := engine.Open()
		db.DisablePlanCache = disableCache
		if err := workload.LoadPurchase(db, workload.PurchaseConfig{
			N: n, Seed: 1, ShipWindowMode: "soft", IndexOrderDate: true,
		}); err != nil {
			b.Fatal(err)
		}
		return db
	}
	cold, cached := load(true), load(false)
	for _, sh := range bench.C1Shapes {
		modes := []struct {
			name   string
			db     *engine.Database
			repeat bool
		}{
			{"cold-plan", cold, false},
			{"text-repeat", cached, true},
			{"template-rebind", cached, false},
		}
		for _, m := range modes {
			b.Run(sh.Name+"/"+m.name, func(b *testing.B) {
				texts := make([]string, b.N)
				for i := range texts {
					if m.repeat {
						texts[i] = sh.Text(n, 1)
					} else {
						texts[i] = sh.Text(n, i+2)
					}
				}
				if _, err := m.db.Exec(sh.Text(n, 1)); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.db.Exec(texts[i]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
