package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/softc"
	"softdb/internal/types"
)

// pruneDB builds a table clustered on col a with b = a + small noise (an
// absolute linear correlation the miner will find), NULLs sprinkled into b.
func pruneDB(t *testing.T, n int, mine bool) *Database {
	t.Helper()
	db := Open()
	db.NoIndexes = true
	db.MustExec("CREATE TABLE t (a INT NOT NULL, b INT, c INT)")
	te, _ := db.Catalog().Table("t")
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

// TestPruneSelectiveScan: a selective range over the clustered column skips
// most pages, returns exactly the rows an unpruned scan returns, and the
// skip counts surface in the result counters, EXPLAIN ANALYZE, the query
// trace, and the metrics registry.
func TestPruneSelectiveScan(t *testing.T) {
	db := pruneDB(t, 4000, false)
	q := "SELECT a, b FROM t WHERE a >= 100 AND a <= 140"
	res := db.MustExec(q)
	io := res.Ctx.IO.Load()
	if io.PagesSkipped == 0 {
		t.Fatalf("selective scan should skip pages: %+v", io)
	}
	db.NoPrune = true
	base := db.MustExec(q)
	db.NoPrune = false
	bio := base.Ctx.IO.Load()
	if bio.PagesSkipped != 0 {
		t.Fatalf("NoPrune scan skipped pages: %+v", bio)
	}
	if io.PagesRead+io.PagesSkipped != bio.PagesRead {
		t.Fatalf("page accounting: read %d + skipped %d != total %d",
			io.PagesRead, io.PagesSkipped, bio.PagesRead)
	}
	if got, want := sortedKeys(res.Rows), sortedKeys(base.Rows); len(got) != len(want) {
		t.Fatalf("pruned scan returned %d rows, unpruned %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("row %d differs: %s vs %s", i, got[i], want[i])
			}
		}
	}
	// Selectivity: a 41-of-4000 range must read well under a quarter of the
	// pages (the P2 acceptance bar).
	if 4*io.PagesRead > bio.PagesRead {
		t.Errorf("pruned scan read %d of %d pages; want <= 25%%", io.PagesRead, bio.PagesRead)
	}

	// EXPLAIN ANALYZE renders skip counts per node and in the footer.
	ea := db.MustExec("EXPLAIN ANALYZE " + q)
	var out strings.Builder
	for _, r := range ea.Rows {
		out.WriteString(r[0].String())
		out.WriteByte('\n')
	}
	text := out.String()
	if !strings.Contains(text, "skipped=") || !strings.Contains(text, "prune=") {
		t.Errorf("EXPLAIN ANALYZE missing per-node skip figures:\n%s", text)
	}
	if !strings.Contains(text, "skipped:") {
		t.Errorf("EXPLAIN ANALYZE missing footer skip count:\n%s", text)
	}

	// The trace ring and the metrics registry both carry the counts.
	traces := db.QueryLog().Recent(16)
	found := false
	for _, tr := range traces {
		if tr.SQL == q && tr.PagesSkipped > 0 {
			found = true
			if !strings.Contains(tr.Render(), "skipped=") {
				t.Errorf("trace render missing skipped: %s", tr.Render())
			}
		}
	}
	if !found {
		t.Error("no trace recorded a positive PagesSkipped")
	}
	if v := db.Metrics().Counter("softdb_scan_pages_skipped_total").Value(); v == 0 {
		t.Error("softdb_scan_pages_skipped_total not incremented")
	}
	var buf bytes.Buffer
	if err := db.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "softdb_scan_pages_skipped_total") {
		t.Error("metrics dump missing softdb_scan_pages_skipped_total")
	}
}

// TestPruneOverheadUnselective: synopsis checks on a full scan that can
// prune nothing must not change what the scan reads — zero skips, full
// pages, identical rows. (The root TestSemanticCounts pins the same counts
// at 100k rows as P2PruneOverhead.)
func TestPruneOverheadUnselective(t *testing.T) {
	db := pruneDB(t, 4000, false)
	q := "SELECT a FROM t WHERE c >= 0" // c is unclustered and always >= 0
	res := db.MustExec(q)
	io := res.Ctx.IO.Load()
	if io.PagesSkipped != 0 {
		t.Fatalf("unselective scan should not skip: %+v", io)
	}
	db.NoPrune = true
	base := db.MustExec(q)
	db.NoPrune = false
	if bio := base.Ctx.IO.Load(); bio.PagesRead != io.PagesRead || len(base.Rows) != len(res.Rows) {
		t.Fatalf("unselective scan diverged: pruned %+v/%d rows, baseline %+v/%d rows",
			io, len(res.Rows), bio, len(base.Rows))
	}
}

// TestPruneCorrelationDerived: an absolute mined correlation lets the
// rewriter plant a prune-only predicate on the twinned column; a violating
// write deactivates the correlation and the derived pruning provably stops
// — the replanned query carries no prune-introduction event and no derived
// prune predicate in its plan.
func TestPruneCorrelationDerived(t *testing.T) {
	db := pruneDB(t, 4000, true)
	// Filter on b only: the correlation b ~ a plants a derived prune
	// interval on a (no indexes exist, so predicate introduction proper is
	// rejected and the prune-only path fires).
	q := "SELECT a FROM t WHERE b >= 200 AND b <= 240"
	res := db.MustExec(q)
	applied := false
	for _, e := range res.Events {
		if e.Rule == "prune-introduction" && e.Applied {
			applied = true
		}
	}
	if !applied {
		t.Fatalf("expected an applied prune-introduction event; events: %v", res.Events)
	}
	if !strings.Contains(res.Plan, "prune=") {
		t.Fatalf("plan should show the derived prune predicate:\n%s", res.Plan)
	}
	if io := res.Ctx.IO.Load(); io.PagesSkipped == 0 {
		t.Fatalf("derived+filter pruning should skip pages: %+v", io)
	}

	// Violate the correlation's envelope: b wildly off the line for a known
	// a. The write-path check deactivates the ASC synchronously.
	ins := db.MustExec("INSERT INTO t VALUES (100, 999999, 0)")
	dropped := false
	for _, n := range ins.Notices {
		if strings.Contains(n, "deactivated by violating write") {
			dropped = true
		}
	}
	if !dropped {
		t.Fatalf("violating insert should deactivate the correlation; notices: %v", ins.Notices)
	}
	// Replan: the derived prune predicate must be gone.
	res2 := db.MustExec(q)
	for _, e := range res2.Events {
		if e.Rule == "prune-introduction" && e.Applied {
			t.Fatalf("prune-introduction still fires after ASC violation: %v", e)
		}
	}
	if strings.Contains(res2.Plan, "prune=") {
		t.Fatalf("plan still carries a derived prune predicate after violation:\n%s", res2.Plan)
	}
	// Answers still match an unpruned run.
	db.NoPrune = true
	base := db.MustExec(q)
	db.NoPrune = false
	if len(res2.Rows) != len(base.Rows) {
		t.Fatalf("row count after violation: %d vs unpruned %d", len(res2.Rows), len(base.Rows))
	}
}

// TestPruneSSCBelowFloor: a statistical constraint must never prune — the
// refusal is recorded as a below-floor rejection event and counted in the
// per-reason metric.
func TestPruneSSCBelowFloor(t *testing.T) {
	db := Open()
	db.NoIndexes = true
	db.MustExec(`CREATE TABLE orders (
		id INT PRIMARY KEY,
		placed INT NOT NULL,
		shipped INT,
		CONSTRAINT lag CHECK (shipped <= placed + 7) SOFT STATISTICAL CONFIDENCE 0.95)`)
	for i := 0; i < 500; i++ {
		lag := i % 5
		if i%50 == 0 {
			lag = 30
		}
		db.MustExec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d)", i, i, i+lag))
	}
	db.MustExec("ANALYZE orders")
	res := db.MustExec("SELECT id FROM orders WHERE placed >= 100 AND placed <= 120")
	rejected := false
	for _, e := range res.Events {
		if e.Rule == "prune-introduction" && !e.Applied && e.Reason == "below-floor" {
			rejected = true
		}
	}
	if !rejected {
		t.Fatalf("expected a below-floor prune rejection; events: %v", res.Events)
	}
	if v := db.Metrics().Counter("softdb_prune_rejected_total", "reason", "below-floor").Value(); v == 0 {
		t.Error("softdb_prune_rejected_total{reason=below-floor} not incremented")
	}
}

// holesDB builds an orders ⋈ lineitem pair where orders with
// amount ∈ [400, 999] have no lineitems in the queried quantity band, and
// registers the corresponding interior hole. The hole spans several whole
// heap pages of the amount-clustered orders table (168 rows/page at this
// schema), so exclusion pruning has pages to skip.
func holesDB(t *testing.T) (*Database, *catalog.JoinHoles) {
	t.Helper()
	db := Open()
	db.NoIndexes = true
	db.MustExec("CREATE TABLE orders (oid INT NOT NULL, amount INT NOT NULL)")
	db.MustExec("CREATE TABLE lineitem (oid INT NOT NULL, qty INT NOT NULL)")
	oe, _ := db.Catalog().Table("orders")
	le, _ := db.Catalog().Table("lineitem")
	for i := 0; i < 2000; i++ {
		amount := int64(i) // clustered
		if err := db.InsertRow(oe, types.Row{types.NewInt(int64(i)), types.NewInt(amount)}); err != nil {
			t.Fatal(err)
		}
	}
	// Lineitem is inserted in a scattered order so every one of its pages
	// mixes small and large quantities: the query's qty filter can then
	// prune nothing on lineitem, leaving the interior hole as the ONLY
	// prune source in the join (it targets the orders side).
	for j := 0; j < 2000; j++ {
		i := (j*7 + 13) % 2000 // gcd(7, 2000) = 1: a permutation
		qty := int64(i % 50)
		if i >= 400 && i < 1000 {
			qty += 1000 // hole: these orders' lineitems live outside qty [0,100]
		}
		if err := db.InsertRow(le, types.Row{types.NewInt(int64(i)), types.NewInt(qty)}); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExec("ANALYZE orders")
	db.MustExec("ANALYZE lineitem")
	jh := &catalog.JoinHoles{
		Name: "oh", LeftTable: "orders", RightTable: "lineitem",
		JoinLeft: "oid", JoinRight: "oid", AttrLeft: "amount", AttrRight: "qty",
		Holes: []catalog.Rect{{
			A: expr.Between(types.NewInt(400), types.NewInt(999), true, true),
			B: expr.Between(types.NewInt(0), types.NewInt(100), true, true),
		}},
	}
	if err := db.Catalog().AddJoinHoles(jh); err != nil {
		t.Fatal(err)
	}
	return db, jh
}

// TestPruneHoleRetirement: an interior join hole is pure prune signal — the
// range rewrite cannot split the scan interval, but pages wholly inside the
// hole's extent are skipped. Retiring the hole with a violating write stops
// the pruning entirely (skipped drops to zero, full scan), the §4.3
// fallback made observable.
func TestPruneHoleRetirement(t *testing.T) {
	db, jh := holesDB(t)
	// qty band inside the hole's B extent; amount unconstrained, so the
	// hole is interior (nothing to trim) and exclusion pruning is the ONLY
	// prune source on the orders scan.
	q := "SELECT orders.oid FROM orders, lineitem WHERE orders.oid = lineitem.oid AND lineitem.qty >= 10 AND lineitem.qty <= 90"
	res := db.MustExec(q)
	io := res.Ctx.IO.Load()
	if io.PagesSkipped == 0 {
		t.Fatalf("interior hole should skip orders pages: %+v\nplan:\n%s", io, res.Plan)
	}
	planted := false
	for _, e := range res.Events {
		if e.Rule == "prune-introduction" && e.Applied && e.Constraint == "oh" {
			planted = true
		}
	}
	if !planted {
		t.Fatalf("expected a hole prune-introduction event; events: %v", res.Events)
	}
	db.NoPrune = true
	base := db.MustExec(q)
	db.NoPrune = false
	if got, want := sortedKeys(res.Rows), sortedKeys(base.Rows); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("hole pruning changed answers: %d vs %d rows", len(got), len(want))
	}

	// Runtime check: mutate the hole set in place (as a concurrent retire
	// would, before any plan is invalidated). The planted predicate must
	// self-disable at the next scan — zero skips even on the same plan.
	savedHoles := jh.Holes
	jh.Holes = nil
	resLive := db.MustExec(q)
	if lio := resLive.Ctx.IO.Load(); lio.PagesSkipped != 0 {
		t.Fatalf("prune predicate survived hole removal: %+v", lio)
	}
	jh.Holes = savedHoles

	// §4.3 retirement through the write path: a lineitem row landing inside
	// the hole's B extent retires the rectangle and bumps the catalog.
	ins := db.MustExec("INSERT INTO lineitem VALUES (450, 50)")
	retired := false
	for _, n := range ins.Notices {
		if strings.Contains(n, "holes retired") {
			retired = true
		}
	}
	if !retired {
		t.Fatalf("violating insert should retire the hole; notices: %v", ins.Notices)
	}
	res2 := db.MustExec(q)
	if io2 := res2.Ctx.IO.Load(); io2.PagesSkipped != 0 {
		t.Fatalf("pruning should stop after hole retirement: %+v", io2)
	}
	for _, e := range res2.Events {
		if e.Rule == "prune-introduction" && e.Applied {
			t.Fatalf("prune-introduction still fires after retirement: %v", e)
		}
	}
	// The new row joins: oid 450 with qty 50 now matches.
	found := false
	for _, r := range res2.Rows {
		if r[0].Int() == 450 {
			found = true
		}
	}
	if !found {
		t.Fatal("post-retirement scan missed the row the hole would have hidden")
	}
}
