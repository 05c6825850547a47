package softdb_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"softdb/internal/bench"
	"softdb/internal/engine"
	"softdb/internal/workload"
)

// goldenCounts is the committed semantic baseline: every deterministic
// count the experiments' workloads yield, by entry and unit.
const goldenCounts = "BENCH_2026-08-08.json"

var update = flag.Bool("update", false, "rewrite "+goldenCounts+" from this run's counts")

// countEntry is one measured configuration and its counts, keyed by unit
// (pages/op, skipped/op, frozen/op, images/op, page-paths/op, cmp/op,
// rows/op, records/op, shards/op, est-rows). Each is the count of a single
// execution.
type countEntry struct {
	Name   string             `json:"name"`
	Counts map[string]float64 `json:"counts"`
}

// recorder collects the entries a count case measures.
type recorder func(name string, counts map[string]float64)

// TestSemanticCounts runs each experiment's deterministic workload once and
// compares every count against goldenCounts exactly: a changed value, a
// missing entry and an extra one all fail. `go test . -run
// TestSemanticCounts -update` rewrites the file; a change that moves a
// count says so.
func TestSemanticCounts(t *testing.T) {
	var got []countEntry
	rec := func(name string, counts map[string]float64) {
		got = append(got, countEntry{name, counts})
	}
	for _, measure := range countCases {
		measure(t, rec)
	}
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		must(t, err)
		must(t, os.WriteFile(goldenCounts, append(buf, '\n'), 0o644))
		return
	}
	raw, err := os.ReadFile(goldenCounts)
	must(t, err)
	var golden []countEntry
	must(t, json.Unmarshal(raw, &golden))
	for _, d := range compareCounts(golden, got) {
		t.Error(d)
	}
}

// compareCounts lists every (entry, unit) whose count differs between the
// golden file and a run, or that only one of them has, in sorted order.
func compareCounts(golden, got []countEntry) []string {
	type key struct{ entry, unit string }
	index := func(es []countEntry) map[key]float64 {
		m := map[key]float64{}
		for _, e := range es {
			for unit, v := range e.Counts {
				m[key{e.Name, unit}] = v
			}
		}
		return m
	}
	want, have := index(golden), index(got)
	var diffs []string
	for k, v := range have {
		if w, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s %s: measured %v, not in the golden file", k.entry, k.unit, v))
		} else if w != v {
			diffs = append(diffs, fmt.Sprintf("%s %s: measured %v, golden file has %v", k.entry, k.unit, v, w))
		}
	}
	for k, w := range want {
		if _, ok := have[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s %s: golden file has %v, not measured", k.entry, k.unit, w))
		}
	}
	sort.Strings(diffs)
	return diffs
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func run(t *testing.T, db *engine.Database, q string) *engine.Result {
	t.Helper()
	res, err := db.Exec(q)
	must(t, err)
	return res
}

func pagesCmp(res *engine.Result) map[string]float64 {
	return map[string]float64{"pages/op": float64(res.Ctx.IO.PagesRead), "cmp/op": float64(res.Ctx.Comparisons)}
}

func pagesSkipped(res *engine.Result) map[string]float64 {
	return map[string]float64{"pages/op": float64(res.Ctx.IO.PagesRead), "skipped/op": float64(res.Ctx.IO.PagesSkipped)}
}

// estRows records a row estimate to four significant digits: its last bits
// come from floating-point arithmetic that may differ between architectures
// (fused multiply-add), and the digits kept pin the estimator all the same.
func estRows(res *engine.Result) map[string]float64 {
	est, _ := strconv.ParseFloat(strconv.FormatFloat(res.EstRows, 'g', 4, 64), 64)
	return map[string]float64{"est-rows": est}
}

// countCases are the workloads, one per count-bearing experiment (O1 and R1
// share R1's database), at the sizes and seeds the golden file was first
// measured at.
var countCases = []func(t *testing.T, rec recorder){
	func(t *testing.T, rec recorder) {
		db, err := bench.CorrelatedPurchaseDB(workload.PurchaseConfig{N: 50000, Seed: 1, IndexOrderDate: true})
		must(t, err)
		for _, mode := range []string{"baseline", "sqo"} {
			db.RewriteOpts.NoPredIntro = mode == "baseline"
			rec("E1PredicateIntroduction/"+mode, pagesCmp(run(t, db, "SELECT id FROM purchase WHERE ship_date = DATE '1999-01-01' + 6000")))
		}
	},
	func(t *testing.T, rec recorder) {
		db, err := bench.HolesDB(10000, 2, 5)
		must(t, err)
		for _, mode := range []string{"baseline", "holetrim"} {
			db.RewriteOpts.NoHoleTrim = mode == "baseline"
			rec("E2JoinHoles/"+mode, pagesCmp(run(t, db, bench.HolesQuery(10000))))
		}
	},
	func(t *testing.T, rec recorder) {
		db := bench.OpenSQO()
		must(t, workload.LoadProject(db, workload.ProjectConfig{N: 20000, LongFrac: 0.1, Seed: 3, Confidence: 0.9}))
		for _, mode := range []string{"independence", "ssctwin"} {
			db.NoSSCEstimation = mode == "independence"
			rec("E3Cardinality/"+mode, estRows(run(t, db, "SELECT id FROM project WHERE start_date <= DATE '1999-01-01' + 5000 AND end_date >= DATE '1999-01-01' + 5000")))
		}
	},
	func(t *testing.T, rec recorder) {
		db := bench.OpenSQO()
		must(t, workload.LoadStar(db, workload.StarConfig{DimRows: 1000, FactRows: 30000, Seed: 2, FKMode: "informational"}))
		for _, mode := range []string{"join", "eliminated"} {
			db.RewriteOpts.NoJoinElim = mode == "join"
			rec("E4JoinElimination/"+mode, pagesCmp(run(t, db, "SELECT SUM(f.qty) AS s FROM fact f, dim d WHERE f.dim_id = d.id")))
		}
	},
	func(t *testing.T, rec recorder) {
		db := bench.OpenSQO()
		must(t, workload.LoadPartitionedSales(db, 2000, 3))
		for _, mode := range []string{"all-branches", "pruned"} {
			db.RewriteOpts.NoBranchPrune = mode == "all-branches"
			rec("E5BranchPrune/"+mode, pagesCmp(run(t, db, "SELECT SUM(amount) AS s FROM sales WHERE month >= 1 AND month <= 3")))
		}
	},
	func(t *testing.T, rec recorder) {
		db, err := bench.ExceptionASTDB(30000, 0.01)
		must(t, err)
		for _, mode := range []string{"scan", "exception-ast"} {
			db.RewriteOpts.NoExceptionAST = mode == "scan"
			db.RewriteOpts.NoSSCTwins = mode == "scan"
			rec("E6ExceptionAST/"+mode, pagesCmp(run(t, db, "SELECT id FROM purchase WHERE ship_date = DATE '1999-01-01' + 3500")))
		}
	},
	func(t *testing.T, rec recorder) {
		db := bench.OpenSQO()
		must(t, workload.LoadDenormalized(db, 20000, 100, 7))
		_, err := bench.InstallCustomerFDs(db)
		must(t, err)
		for _, mode := range []string{"full-keys", "fd-simplified"} {
			db.RewriteOpts.NoSortOpt = mode == "full-keys"
			rec("E7FDSort/"+mode, pagesCmp(run(t, db, "SELECT cust_id, cust_name FROM orders_wide ORDER BY cust_id, cust_name, region")))
		}
	},
	func(t *testing.T, rec recorder) {
		for _, mode := range []string{"informational", "enforced"} {
			db := engine.Open()
			must(t, bench.LoadConstrainedFact(db, 2000, mode))
			te, err := db.Catalog().Table("fact")
			must(t, err)
			rec("E8CheckingOverhead/"+mode, map[string]float64{"rows/op": float64(te.Heap.RowCount())})
		}
	},
	func(t *testing.T, rec recorder) {
		db, err := bench.ASTDB(20000, false)
		must(t, err)
		for _, mode := range []string{"base-table", "ast-routed"} {
			db.RewriteOpts.NoASTRouting = mode == "base-table"
			rec("E12ASTRouting/"+mode, pagesCmp(run(t, db, "SELECT id FROM purchase WHERE amount >= 90 AND region = 3")))
		}
	},
	func(t *testing.T, rec recorder) {
		db := bench.OpenSQO()
		must(t, workload.LoadProject(db, workload.ProjectConfig{N: 20000, LongFrac: 0.1, Seed: 13}))
		q := "SELECT id FROM project WHERE end_date - start_date <= 5"
		rec("E13VirtualColumn/default-estimate", estRows(run(t, db, q)))
		must(t, db.AddVirtualColumn("project", "duration", "end_date - start_date"))
		rec("E13VirtualColumn/virtual-column", estRows(run(t, db, q)))
	},
	// O1 and R1: tracing and a live deadline context observe the same
	// pages and comparisons they would without them.
	func(t *testing.T, rec recorder) {
		db, err := bench.R1DB(100000)
		must(t, err)
		for _, qc := range bench.R1Queries {
			for _, label := range []string{"tracing-off", "tracing-on"} {
				db.SetTracing(label == "tracing-on")
				rec("ObsOverhead/"+qc.Name+"/"+label, pagesCmp(run(t, db, qc.SQL)))
			}
		}
		db.SetTracing(false)
		for _, qc := range bench.R1Queries {
			for _, label := range []string{"ctx=off", "ctx=on"} {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if label == "ctx=on" {
					ctx, cancel = context.WithTimeout(ctx, time.Hour)
				}
				res, err := db.ExecCtx(ctx, qc.SQL)
				cancel()
				must(t, err)
				rec("R1LifecycleOverhead/"+qc.Name+"/"+label, map[string]float64{"pages/op": float64(res.Ctx.IO.PagesRead)})
			}
		}
	},
	func(t *testing.T, rec recorder) {
		workloads, err := bench.P2Workloads(20000)
		must(t, err)
		// The entries predate the join-hole workload's current name.
		names := []string{"selective-scan", "corr-derived", "hole-interval"}
		for i, w := range workloads {
			for _, prune := range []string{"off", "on"} {
				w.DB.NoPrune = prune == "off"
				rec(fmt.Sprintf("P2Prune/%s/prune=%s", names[i], prune), pagesSkipped(run(t, w.DB, w.SQL)))
			}
		}
	},
	func(t *testing.T, rec recorder) {
		db := bench.OpenSQO()
		must(t, workload.LoadStar(db, workload.StarConfig{DimRows: 1000, FactRows: 100000, Seed: 24}))
		for _, prune := range []string{"off", "on"} {
			db.NoPrune = prune == "off"
			rec("P2PruneOverhead/full-scan/prune="+prune, pagesSkipped(run(t, db, "SELECT COUNT(*) AS c FROM fact WHERE qty >= 0")))
		}
	},
	func(t *testing.T, rec recorder) {
		for _, mode := range []struct {
			name  string
			every int
		}{{"uncheckpointed", -1}, {"checkpointed", 0}} {
			_, rs, err := bench.RecoverCrashImage(4000, mode.every)
			must(t, err)
			rec("D1Recovery/"+mode.name, map[string]float64{"records/op": float64(rs.RecordsReplayed)})
		}
	},
	func(t *testing.T, rec recorder) {
		db, err := bench.HolesDB(20000, 2, 5)
		must(t, err)
		db.NoPrune, db.DisablePlanCache = false, false
		q := bench.O2HolesQuery(20000)
		run(t, db, q) // the measured executions hit the cached plan
		for _, mode := range []string{"ledger-on", "ledger-off"} {
			db.NoEconomy = mode == "ledger-off"
			rec("O2EconomyOverhead/"+mode, pagesCmp(run(t, db, q)))
		}
	},
	// V2: a cold execution freezes every page it reads that is settled (the
	// images/op unit), a warm one none; thaw-every-4 thaws before its first
	// execution.
	func(t *testing.T, rec recorder) {
		db, cases, err := bench.V2DB(100000, 50000)
		must(t, err)
		for _, c := range cases {
			te, err := db.Catalog().Table(c.Table)
			must(t, err)
			for _, mode := range bench.V2Modes {
				run(t, db, c.SQL)
				must(t, bench.V2Prepare(db, c, mode, 0))
				before, _ := te.Heap.FreezeStats()
				io := run(t, db, c.SQL).Ctx.IO.Load()
				after, _ := te.Heap.FreezeStats()
				rec("V2FrozenScan/"+c.Name+"/"+mode, map[string]float64{
					"pages/op": float64(io.PagesRead), "frozen/op": float64(io.PagesFrozen), "images/op": float64(after - before),
				})
			}
		}
	},
	func(t *testing.T, rec recorder) {
		db, cases, err := bench.V3DB(100000)
		must(t, err)
		te, err := db.Catalog().Table("fact")
		must(t, err)
		for _, c := range cases {
			scan, err := bench.V3Scan(db, c)
			must(t, err)
			for _, mode := range bench.V3Modes {
				_, _, _, err := bench.V3Run(scan, mode) // freezes the pages
				must(t, err)
				if mode == "pages-cold" {
					te.Heap.ThawAll()
				}
				_, _, ctx, err := bench.V3Run(scan, mode)
				must(t, err)
				rec("V3IndexPagePath/"+c.Name+"/"+mode, map[string]float64{
					"pages/op": float64(ctx.IO.PagesRead), "frozen/op": float64(ctx.IO.PagesFrozen), "page-paths/op": float64(ctx.PagePaths),
				})
			}
		}
	},
	// S2: a value band only the last of four shards' synced ranges covers.
	func(t *testing.T, rec recorder) {
		const rows = 8000
		f, err := bench.NewS2Fleet(4, rows)
		must(t, err)
		defer f.Close()
		ctx := context.Background()
		_, err = f.Session.Exec(ctx, "ROUTER SYNC")
		must(t, err)
		q := fmt.Sprintf("SELECT COUNT(*) AS n, SUM(v) AS s FROM events WHERE v >= %d AND v <= %d", rows-rows/8, rows-1)
		for _, mode := range []string{"pruned", "broadcast"} {
			must(t, f.Session.Set("shard_prune", map[string]string{"pruned": "on", "broadcast": "off"}[mode]))
			before := f.Router.ShardQueryCounts()
			_, err := f.Session.Exec(ctx, q)
			must(t, err)
			var contacted int64
			for i, c := range f.Router.ShardQueryCounts() {
				contacted += c - before[i]
			}
			rec("S2Router/"+mode, map[string]float64{"shards/op": float64(contacted)})
		}
	},
}

// TestCompareCounts checks that each kind of drift between the golden file
// and a run is reported, naming the entry and the unit.
func TestCompareCounts(t *testing.T) {
	golden := []countEntry{
		{"E1PredicateIntroduction/sqo", map[string]float64{"pages/op": 6, "cmp/op": 0}},
		{"S2Router/pruned", map[string]float64{"shards/op": 1}},
	}
	for _, tc := range []struct {
		name string
		got  []countEntry
		want string // "" when the run matches the file
	}{
		{"identical", golden, ""},
		{"changed value", []countEntry{
			{"E1PredicateIntroduction/sqo", map[string]float64{"pages/op": 7, "cmp/op": 0}},
			golden[1],
		}, "E1PredicateIntroduction/sqo pages/op: measured 7, golden file has 6"},
		{"entry missing from the run", golden[:1], "S2Router/pruned shards/op: golden file has 1, not measured"},
		{"entry missing from the file", append(golden[:2:2], countEntry{"S2Router/broadcast", map[string]float64{"shards/op": 4}}),
			"S2Router/broadcast shards/op: measured 4, not in the golden file"},
		{"unit added to an entry", []countEntry{
			golden[0],
			{"S2Router/pruned", map[string]float64{"shards/op": 1, "pages/op": 3}},
		}, "S2Router/pruned pages/op: measured 3, not in the golden file"},
	} {
		diffs := compareCounts(golden, tc.got)
		switch {
		case tc.want == "" && len(diffs) != 0:
			t.Errorf("%s: unexpected diffs %q", tc.name, diffs)
		case tc.want != "" && (len(diffs) != 1 || diffs[0] != tc.want):
			t.Errorf("%s: diffs %q, want exactly %q", tc.name, diffs, tc.want)
		}
	}
}
