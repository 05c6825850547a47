package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"softdb/internal/fault"
	"softdb/internal/mining"
	"softdb/internal/obs"
	"softdb/internal/softc"
	"softdb/internal/wal"
)

// holeEconDB builds the deterministic page-skip workload: an orders ⋈
// lineitem join whose range straddles a mined interior join hole. Pages of
// orders lying wholly inside the hole band [n/4, n/2) are skipped by the
// hole's exclusion predicate — and since the query range strictly contains
// the band, the filter predicates alone can never prove them, so every one
// of those skips is attributed to the hole constraint, not to "filter".
func holeEconDB(t *testing.T, n int) (*Database, string) {
	t.Helper()
	db := newDB(t, `
		CREATE TABLE orders (okey INT PRIMARY KEY, odate DATE NOT NULL);
		CREATE TABLE lineitem (lkey INT PRIMARY KEY, okey INT, shipdate DATE);
	`)
	lo, hi := n/4, n/2
	var lk int
	for i := 0; i < n; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO orders VALUES (%d, DATE '1999-01-01' + %d)", i, i))
		if i >= lo && i < hi {
			continue // the hole band: orders with no lineitems
		}
		db.MustExec(fmt.Sprintf("INSERT INTO lineitem VALUES (%d, %d, DATE '1999-01-01' + %d)", lk, i, i+3))
		lk++
	}
	db.MustExec("ANALYZE orders")
	db.MustExec("ANALYZE lineitem")

	left, err := db.Catalog().Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	right, err := db.Catalog().Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	jh, _, err := mining.MineJoinHoles(mining.JoinHoleRequest{
		Left: left, Right: right,
		JoinLeft: "okey", JoinRight: "okey",
		AttrLeft: "odate", AttrRight: "shipdate",
	})
	if err != nil {
		t.Fatal(err)
	}
	jh.Name = "hole_econ"
	if err := db.Catalog().AddJoinHoles(jh); err != nil {
		t.Fatal(err)
	}
	return db, jh.Name
}

// holeEconQuery straddles the [n/4, n/2) band so subtraction cannot trim
// the range and only the exclusion predicate can skip interior pages.
func holeEconQuery(n int) string {
	return fmt.Sprintf(`SELECT COUNT(*) AS c FROM orders o, lineitem l
		WHERE o.okey = l.okey
		AND o.odate >= DATE '1999-01-01' + %d AND o.odate <= DATE '1999-01-01' + %d
		AND l.shipdate >= DATE '1999-01-01' + %d AND l.shipdate <= DATE '1999-01-01' + %d`,
		n/8, 3*n/4, n/8, 3*n/4+10)
}

// economyRow finds one constraint's ledger row.
func economyRow(t *testing.T, db *Database, name string) obs.EconomyRow {
	t.Helper()
	for _, r := range db.ConstraintEconomy() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no ledger row for %q in %+v", name, db.ConstraintEconomy())
	return obs.EconomyRow{}
}

// TestEconomyPageSkipAttributionExact: each execution of the straddling
// join skips the same interior pages, every one credited to the hole
// constraint, so the ledger counter is exactly per-run-skips × runs.
func TestEconomyPageSkipAttributionExact(t *testing.T) {
	const n = 3000
	db, hole := holeEconDB(t, n)
	q := holeEconQuery(n)

	if _, err := db.Exec(q); err != nil {
		t.Fatal(err)
	}
	first := economyRow(t, db, hole)
	if first.PagesSkipped <= 0 {
		t.Fatalf("interior hole skipped no pages on first run: %+v", first)
	}
	if first.QErrNodes != 1 {
		t.Fatalf("one successful run should observe one q-error: %+v", first)
	}

	const extra = 10
	for i := 0; i < extra; i++ {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	after := economyRow(t, db, hole)
	if want := first.PagesSkipped * (extra + 1); after.PagesSkipped != want {
		t.Errorf("pages skipped = %d, want exactly %d (%d per run × %d runs)",
			after.PagesSkipped, want, first.PagesSkipped, extra+1)
	}
	if after.QErrNodes != extra+1 {
		t.Errorf("q-error nodes = %d, want exactly %d (one per successful run)", after.QErrNodes, extra+1)
	}
	if after.CostDeltaMilli < 0 {
		t.Errorf("negative masked-plan cost delta: %+v", after)
	}
	if after.Kind != "JOIN HOLES" || !after.Active {
		t.Errorf("catalog decoration wrong: kind=%q active=%v", after.Kind, after.Active)
	}
}

// TestEconomyShadowCostingNeverChangesPlan: the masked re-optimizations the
// ledger runs at plan time must be invisible — the chosen plan, its cost,
// and the query answer are identical with the economy on and off.
func TestEconomyShadowCostingNeverChangesPlan(t *testing.T) {
	const n = 1500
	q := holeEconQuery(n)
	dbOn, _ := holeEconDB(t, n)
	dbOff, _ := holeEconDB(t, n)
	dbOff.NoEconomy = true
	// Cache off: every statement recompiles, so shadow costing runs on each
	// and the comparison always sees a fresh optimization.
	dbOn.DisablePlanCache = true
	dbOff.DisablePlanCache = true

	planOn := planLines(t, dbOn, "EXPLAIN "+q)
	planOff := planLines(t, dbOff, "EXPLAIN "+q)
	if planOn != planOff {
		t.Errorf("shadow costing changed the chosen plan:\n-- economy on --\n%s\n-- economy off --\n%s", planOn, planOff)
	}

	resOn, err := dbOn.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := dbOff.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(resOn.Rows) != fmt.Sprint(resOff.Rows) {
		t.Errorf("answers diverged: %v vs %v", resOn.Rows, resOff.Rows)
	}
	if resOn.EstCost != resOff.EstCost {
		t.Errorf("chosen-plan cost diverged: %g vs %g", resOn.EstCost, resOff.EstCost)
	}
	// Re-planning after the ledger has accrued state still picks the same plan.
	if again := planLines(t, dbOn, "EXPLAIN "+q); again != planOn {
		t.Errorf("plan changed after ledger accrual:\n%s\nvs\n%s", again, planOn)
	}

	// With the economy off, nothing accrues.
	if rows := dbOff.ConstraintEconomy(); len(rows) != 0 {
		t.Errorf("NoEconomy database accrued ledger rows: %+v", rows)
	}
}

// TestEconomyExplainAnalyzeLines: EXPLAIN ANALYZE renders the per-constraint
// benefit annotations for the executed statement.
func TestEconomyExplainAnalyzeLines(t *testing.T) {
	const n = 1500
	db, hole := holeEconDB(t, n)
	out := planLines(t, db, "EXPLAIN ANALYZE "+holeEconQuery(n))
	if !strings.Contains(out, "economy: constraint "+hole+": pages skipped ") {
		t.Errorf("EXPLAIN ANALYZE missing the pages-skipped economy line:\n%s", out)
	}
}

// TestEconomyRefreshAndWALCosts: retry backoff charges the constraint the
// exact nominal delays, a successful refresh charges measured wall time,
// and on a durable database every registry image rewrite charges one WAL
// record to each constraint that caused it.
func TestEconomyRefreshAndWALCosts(t *testing.T) {
	db, _, err := OpenDurable(t.TempDir(), DurableOptions{SyncPolicy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.ExecScript(`
		CREATE TABLE purchase (
			id INT PRIMARY KEY,
			order_date DATE NOT NULL,
			ship_date DATE,
			CONSTRAINT ship_window CHECK (ship_date >= order_date AND ship_date <= order_date + 21) SOFT
		);
	`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		db.MustExec(fmt.Sprintf(
			"INSERT INTO purchase VALUES (%d, DATE '1999-01-01' + %d, DATE '1999-01-01' + %d)",
			i, i, i+(i%21)))
	}
	db.MustExec("ANALYZE purchase")

	// Every attempt faults: the wrapper sleeps 10ms then 20ms (stubbed) and
	// must charge exactly those nominal delays — the refresh body never runs.
	m := db.SoftcManager()
	m.Fault = fault.New(fault.Config{Seed: 1, ReadErrProb: 1})
	pol := softc.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Sleep: func(time.Duration) {}}
	if _, err := m.RefreshCheckConfidenceWithRetry(context.Background(), "purchase", "ship_window", pol); err == nil {
		t.Fatal("refresh succeeded at 100% fault rate")
	}
	row := economyRow(t, db, "ship_window")
	const wantBackoff = int64(30 * time.Millisecond)
	if row.RefreshNanos != wantBackoff {
		t.Errorf("refresh cost = %dns, want exactly %dns (10ms + 20ms nominal backoff)", row.RefreshNanos, wantBackoff)
	}
	if row.WALRecords != 0 {
		t.Errorf("failed refresh must not charge WAL records: %+v", row)
	}

	// A successful refresh adds measured wall time on top and rewrites the
	// registry image once — one WAL record charged.
	m.Fault = nil
	if _, err := m.RefreshCheckConfidence("purchase", "ship_window"); err != nil {
		t.Fatal(err)
	}
	row = economyRow(t, db, "ship_window")
	if row.RefreshNanos <= wantBackoff {
		t.Errorf("successful refresh charged no wall time: %dns", row.RefreshNanos)
	}
	if row.WALRecords != 1 {
		t.Errorf("WAL records = %d, want exactly 1 (one registry image rewrite)", row.WALRecords)
	}

	// DML write hooks charge maintenance to the soft check.
	for i := 0; i < 200; i++ {
		db.MustExec(fmt.Sprintf(
			"INSERT INTO purchase VALUES (%d, DATE '1999-01-01' + %d, DATE '1999-01-01' + %d)",
			1000+i, i, i+5))
	}
	if row = economyRow(t, db, "ship_window"); row.MaintNanos <= 0 {
		t.Errorf("200 checked inserts charged no maintenance: %+v", row)
	}
}

// TestEconomySurfacesAgree: SHOW CONSTRAINTS ECONOMY, ConstraintEconomy(),
// /debug/constraints, and /metrics are one code path over one set of
// counters — the same constraint must report the same figures on all four.
func TestEconomySurfacesAgree(t *testing.T) {
	const n = 2000
	db, hole := holeEconDB(t, n)
	q := holeEconQuery(n)
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}

	ref := economyRow(t, db, hole)
	if ref.PagesSkipped <= 0 {
		t.Fatalf("workload produced no attributed skips: %+v", ref)
	}

	// SQL surface.
	res, err := db.Exec("SHOW CONSTRAINTS ECONOMY")
	if err != nil {
		t.Fatal(err)
	}
	wantCols := "constraint kind mode active pages_skipped shards_pruned rows_short_circuited rewrite_rows cost_delta qerr_delta maint_us refresh_us exc_bytes wal_records net_benefit_us"
	if got := strings.Join(res.Columns, " "); got != wantCols {
		t.Errorf("SHOW columns = %q, want %q", got, wantCols)
	}
	var showRow []string
	for _, r := range res.Rows {
		if r[0].Str() == hole {
			for _, d := range r {
				showRow = append(showRow, d.String())
			}
		}
	}
	if showRow == nil {
		t.Fatalf("SHOW CONSTRAINTS ECONOMY has no row for %q", hole)
	}
	if showRow[4] != fmt.Sprint(ref.PagesSkipped) {
		t.Errorf("SHOW pages_skipped = %s, ledger says %d", showRow[4], ref.PagesSkipped)
	}
	if showRow[9] != fmt.Sprint(ref.MaintNanos/1000) {
		t.Errorf("SHOW maint_us = %s, ledger says %d", showRow[9], ref.MaintNanos/1000)
	}

	// HTTP surfaces.
	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()
	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}

	var debugRows []obs.EconomyRow
	if err := json.Unmarshal([]byte(get("/debug/constraints")), &debugRows); err != nil {
		t.Fatalf("/debug/constraints is not an EconomyRow array: %v", err)
	}
	found := false
	for _, r := range debugRows {
		if r.Name == hole {
			found = true
			if r.PagesSkipped != ref.PagesSkipped || r.QErrNodes != ref.QErrNodes || r.WALRecords != ref.WALRecords {
				t.Errorf("/debug/constraints diverged from ledger: %+v vs %+v", r, ref)
			}
		}
	}
	if !found {
		t.Fatalf("/debug/constraints missing %q:\n%v", hole, debugRows)
	}

	metrics := get("/metrics")
	wantSeries := fmt.Sprintf("%s{constraint=%q} %d", obs.MetricBenefitPagesSkipped, hole, ref.PagesSkipped)
	if !strings.Contains(metrics, wantSeries) {
		t.Errorf("/metrics missing series %q", wantSeries)
	}
	for _, fam := range []string{
		obs.MetricBenefitQErrSum, obs.MetricCostMaintenance, obs.MetricCostRefresh,
		obs.MetricCostWALRecords, obs.MetricQErrBlindSum,
	} {
		if !strings.Contains(metrics, fam) {
			t.Errorf("/metrics missing family %s", fam)
		}
	}

	// The decorated view is ranked by net benefit, descending.
	all := db.ConstraintEconomy()
	for i := 1; i < len(all); i++ {
		if all[i-1].NetBenefitUs < all[i].NetBenefitUs {
			t.Errorf("ledger not ranked by net benefit: %v", all)
		}
	}
}

// TestEconomyLedgerConcurrent runs concurrent scans, DML write hooks, and a
// faulting refresh-retry loop against one database and then checks the
// ledger's exact arithmetic: counters from disjoint activities must land on
// their own constraints with no lost or misattributed credits. Run with
// -race, this is also the data-race gate for the whole credit path.
func TestEconomyLedgerConcurrent(t *testing.T) {
	const n = 2000
	db, hole := holeEconDB(t, n)
	db.MustExec(`CREATE TABLE ballast (id INT PRIMARY KEY, v INT,
		CONSTRAINT ballast_pos CHECK (v >= 0) SOFT)`)
	q := holeEconQuery(n)

	// Warm the plan cache and measure one run's deterministic skip count.
	if _, err := db.Exec(q); err != nil {
		t.Fatal(err)
	}
	perRun := economyRow(t, db, hole).PagesSkipped
	if perRun <= 0 {
		t.Fatal("warm-up run skipped no pages")
	}
	planBefore := planLines(t, db, "EXPLAIN "+q)

	const (
		scanners    = 4
		scansEach   = 20
		writers     = 2
		writesEach  = 150
		refreshes   = 10
		backoffEach = int64(30 * time.Millisecond) // 10ms + 20ms nominal
	)
	m := db.SoftcManager()
	m.Fault = fault.New(fault.Config{Seed: 7, ReadErrProb: 1})
	pol := softc.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, Sleep: func(time.Duration) {}}

	var wg sync.WaitGroup
	errs := make(chan error, scanners*scansEach+writers*writesEach)
	for s := 0; s < scanners; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scansEach; i++ {
				if _, err := db.Exec(q); err != nil {
					errs <- err
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writesEach; i++ {
				id := w*writesEach + i
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO ballast VALUES (%d, %d)", id, id%7)); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < refreshes; i++ {
			// Every attempt faults, so each call charges exactly the nominal
			// backoff and never touches the table.
			if _, err := m.RefreshCheckConfidenceWithRetry(context.Background(), "ballast", "ballast_pos", pol); err == nil {
				errs <- fmt.Errorf("refresh succeeded at 100%% fault rate")
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	holeRow := economyRow(t, db, hole)
	totalScans := int64(1 + scanners*scansEach)
	if want := perRun * totalScans; holeRow.PagesSkipped != want {
		t.Errorf("pages skipped = %d, want exactly %d (%d per run × %d runs)",
			holeRow.PagesSkipped, want, perRun, totalScans)
	}
	if holeRow.QErrNodes != totalScans {
		t.Errorf("q-error nodes = %d, want exactly %d", holeRow.QErrNodes, totalScans)
	}

	ballast := economyRow(t, db, "ballast_pos")
	if want := int64(refreshes) * backoffEach; ballast.RefreshNanos != want {
		t.Errorf("refresh cost = %dns, want exactly %dns (%d retries × 30ms nominal backoff)",
			ballast.RefreshNanos, want, refreshes)
	}
	if ballast.MaintNanos <= 0 {
		t.Errorf("%d checked inserts charged no maintenance: %+v", writers*writesEach, ballast)
	}
	if ballast.PagesSkipped != 0 || ballast.RewriteRows != 0 {
		t.Errorf("ballast constraint earned benefits it cannot have: %+v", ballast)
	}

	// The executed plan never moved while the ledger accrued under load.
	if planAfter := planLines(t, db, "EXPLAIN "+q); planAfter != planBefore {
		t.Errorf("plan changed during concurrent ledger accrual:\n%s\nvs\n%s", planAfter, planBefore)
	}
}
