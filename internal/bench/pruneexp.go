package bench

import (
	"fmt"
	"time"

	"softdb/internal/engine"
	"softdb/internal/exec"
	"softdb/internal/mining"
	"softdb/internal/plan"
	"softdb/internal/softc"
	"softdb/internal/sql"
	"softdb/internal/storage"
	"softdb/internal/workload"
)

// P2Prune measures zone-map page pruning by itself, against an unpruned
// baseline (the one experiment that runs with NoPrune off). Three workloads:
//
//   - selective-scan: a clustered range filter; the page synopses alone
//     prove most pages irrelevant (filter-derived pruning).
//   - corr-derived: the query constrains only ship_date; the installed
//     ASC correlation derives order_date bounds with ±ε margin, planting an
//     extra prune-only predicate. On co-clustered data its page set largely
//     coincides with the filter's — the differential value of the derived
//     predicate is that it deactivates when the ASC is violated (E11).
//   - join-hole: the query range straddles a mined join hole. Range
//     subtraction cannot exploit an interior hole (the range would split),
//     but pages lying wholly inside the hole are skipped by an exclusion
//     predicate. The filter-only configuration (prune on, constraint-derived
//     introduction off) isolates what the hole adds beyond the filter.
func P2Prune(n int) (*Report, error) {
	rep := &Report{
		ID:     "P2",
		Title:  "zone-map page pruning from synopses and soft constraints",
		Claim:  "per-page min/max synopses let sargable predicates — including ones derived from ASC correlations and join holes — skip pages wholesale; selective scans read a fraction of the pages at identical answers",
		Header: []string{"workload", "config", "pages", "skipped", "out rows", "page speedup", "prune ns/page"},
	}

	// Workload 1: selective clustered range scan (filter-derived pruning).
	db := engine.Open()
	db.DisablePlanCache = true
	if err := workload.LoadPurchase(db, workload.PurchaseConfig{N: n, Seed: 21}); err != nil {
		return nil, err
	}
	lo := n / 4 / 4 // order_date offset: 4 orders per day
	selQ := fmt.Sprintf("SELECT id FROM purchase WHERE order_date >= DATE '1999-01-01' + %d AND order_date <= DATE '1999-01-01' + %d", lo, lo+20)
	if err := addPruneRows(rep, db, "selective-scan", selQ, false); err != nil {
		return nil, err
	}

	// Workload 2: correlation-derived pruning (same table, fresh DB so the
	// mined ASC is the only installed characterization).
	dbc := engine.Open()
	dbc.DisablePlanCache = true
	if err := workload.LoadPurchase(dbc, workload.PurchaseConfig{N: n, Seed: 22}); err != nil {
		return nil, err
	}
	mgr := softc.NewManager(dbc.Catalog())
	cands, err := mgr.DiscoverTable("purchase")
	if err != nil {
		return nil, err
	}
	if err := mgr.InstallCorrelations(mgr.SelectCorrelations(cands.Correlations, 1)); err != nil {
		return nil, err
	}
	corrQ := fmt.Sprintf("SELECT id FROM purchase WHERE ship_date >= DATE '1999-01-01' + %d AND ship_date <= DATE '1999-01-01' + %d", lo, lo+20)
	if err := addPruneRows(rep, dbc, "corr-derived", corrQ, true); err != nil {
		return nil, err
	}

	// Workload 3: interior join hole. The planted band [n/4, n/2) has no
	// lineitems; the query range strictly contains it, so subtraction cannot
	// trim, only page exclusion applies.
	dbh := engine.Open()
	dbh.DisablePlanCache = true
	if err := workload.LoadOrdersLineitem(dbh, workload.HolesConfig{
		Orders: n, LinesPer: 2, Seed: 23, BandLo: n / 4, BandHi: n / 2,
	}); err != nil {
		return nil, err
	}
	left, err := dbh.Catalog().Table("orders")
	if err != nil {
		return nil, err
	}
	right, err := dbh.Catalog().Table("lineitem")
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
	jh.Name = "p2_holes"
	if err := dbh.Catalog().AddJoinHoles(jh); err != nil {
		return nil, err
	}
	holeQ := fmt.Sprintf(`SELECT COUNT(*) AS c FROM orders o, lineitem l
		WHERE o.okey = l.okey
		AND o.odate >= DATE '1999-01-01' + %d AND o.odate <= DATE '1999-01-01' + %d
		AND l.shipdate >= DATE '1999-01-01' + %d AND l.shipdate <= DATE '1999-01-01' + %d`,
		n/8, 3*n/4, n/8, 3*n/4+89)
	if err := addPruneRows(rep, dbh, "join-hole", holeQ, true); err != nil {
		return nil, err
	}

	rep.Notef("n=%d; all configurations return identical answers (asserted)", n)
	rep.Notef("filter-only = synopses on, constraint-derived prune introduction off; its gap to 'prune on' is what the soft characterizations add")
	return rep, nil
}

// addPruneRows runs q under pruning off / (optionally) filter-only / fully
// on, verifies identical answers and page accounting, and appends one row
// per configuration.
func addPruneRows(rep *Report, db *engine.Database, wl, q string, filterOnly bool) error {
	db.NoPrune = true
	offPages, offSkipped, offRows, offSum, err := runPruneCounted(db, q)
	if err != nil {
		return err
	}
	if offSkipped != 0 {
		return fmt.Errorf("P2 %s: baseline skipped %d pages with pruning off", wl, offSkipped)
	}
	rep.AddRow(wl, "prune off", offPages, int64(0), offRows, "1.00", "-")

	configs := []string{"prune on"}
	if filterOnly {
		configs = []string{"filter-only", "prune on"}
	}
	db.NoPrune = false
	for _, name := range configs {
		db.RewriteOpts.NoPruneIntro = name == "filter-only"
		pages, skipped, rows, sum, err := runPruneCounted(db, q)
		if err != nil {
			return err
		}
		if rows != offRows || sum != offSum {
			return fmt.Errorf("P2 %s/%s: answer diverged: %d rows (sum %d) vs %d (sum %d)",
				wl, name, rows, sum, offRows, offSum)
		}
		if pages+skipped != offPages {
			return fmt.Errorf("P2 %s/%s: page accounting broke: %d read + %d skipped != %d total",
				wl, name, pages, skipped, offPages)
		}
		nsPerPage, err := pruneNsPerPage(db, q)
		if err != nil {
			return err
		}
		rep.AddRow(wl, name, pages, skipped, rows, fmt.Sprintf("%.2f", ratio(offPages, pages)), nsPerPage)
	}
	db.RewriteOpts.NoPruneIntro = false
	return nil
}

// pruneNsPerPage times the prune pass every scan of q's plan runs before
// reading a page — the one exec.CountSkippablePages shares with the scans —
// and reports its cost per zone entry walked.
func pruneNsPerPage(db *engine.Database, q string) (string, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return "", fmt.Errorf("P2: %q is not a SELECT", q)
	}
	res, _, err := db.Plan(sel)
	if err != nil {
		return "", err
	}
	const reps = 200
	var pages int64
	var elapsed time.Duration
	var walk func(exec.Operator)
	walk = func(op exec.Operator) {
		var heap *storage.Heap
		var prune []plan.PrunePred
		switch s := op.(type) {
		case *exec.SeqScan:
			heap, prune = s.Heap, s.Prune
		case *exec.IndexScan:
			heap, prune = s.Heap, s.Prune
		}
		if len(prune) > 0 {
			start := time.Now()
			for i := 0; i < reps; i++ {
				exec.CountSkippablePages(heap, prune)
			}
			elapsed += time.Since(start)
			pages += reps * heap.PageCount()
		}
		for _, in := range op.Inputs() {
			walk(in)
		}
	}
	walk(res.Root)
	if pages == 0 {
		return "-", nil
	}
	return fmt.Sprintf("%.2f", float64(elapsed.Nanoseconds())/float64(pages)), nil
}

// runPruneCounted executes q and returns its page, skip, and row counts plus
// a content fingerprint (the sum of every integer cell), so COUNT/SUM
// answers are compared by value, not just cardinality.
func runPruneCounted(db *engine.Database, q string) (pages, skipped int64, rows int, sum int64, err error) {
	res, err := db.Exec(q)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for _, row := range res.Rows {
		for _, d := range row {
			if !d.IsNull() && d.IsNumeric() {
				sum += d.Int()
			}
		}
	}
	io := res.Ctx.IO
	return io.PagesRead, io.PagesSkipped, len(res.Rows), sum, nil
}
