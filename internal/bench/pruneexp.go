package bench

import (
	"fmt"
	"time"

	"softdb/internal/engine"
	"softdb/internal/exec"
	"softdb/internal/plan"
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

	workloads, err := P2Workloads(n)
	if err != nil {
		return nil, err
	}
	for _, w := range workloads {
		if err := addPruneRows(rep, w.DB, w.Name, w.SQL, w.FilterOnly); err != nil {
			return nil, err
		}
	}
	rep.Notef("n=%d; all configurations return identical answers (asserted)", n)
	rep.Notef("filter-only = synopses on, constraint-derived prune introduction off; its gap to 'prune on' is what the soft characterizations add")
	return rep, nil
}

// P2Workload is one of P2's measured statements and the database it runs
// on. FilterOnly marks the workloads whose query gains a constraint-derived
// prune predicate, where filter-only differs from prune on.
type P2Workload struct {
	Name       string
	DB         *engine.Database
	SQL        string
	FilterOnly bool
}

// P2Workloads builds the three workloads P2Prune describes over n rows, each
// on its own OpenSQO database so its characterization is the only one
// installed.
func P2Workloads(n int) ([]P2Workload, error) {
	sel := OpenSQO()
	if err := workload.LoadPurchase(sel, workload.PurchaseConfig{N: n, Seed: 21}); err != nil {
		return nil, err
	}
	corr, err := CorrelatedPurchaseDB(workload.PurchaseConfig{N: n, Seed: 22})
	if err != nil {
		return nil, err
	}
	holes, err := HolesDB(n, 2, 23)
	if err != nil {
		return nil, err
	}
	lo := n / 4 / 4 // order_date offset: 4 orders per day
	return []P2Workload{
		{"selective-scan", sel, fmt.Sprintf("SELECT id FROM purchase WHERE order_date >= DATE '1999-01-01' + %d AND order_date <= DATE '1999-01-01' + %d", lo, lo+20), false},
		{"corr-derived", corr, fmt.Sprintf("SELECT id FROM purchase WHERE ship_date >= DATE '1999-01-01' + %d AND ship_date <= DATE '1999-01-01' + %d", lo, lo+20), true},
		{"join-hole", holes, fmt.Sprintf(`SELECT COUNT(*) AS c FROM orders o, lineitem l
		WHERE o.okey = l.okey
		AND o.odate >= DATE '1999-01-01' + %d AND o.odate <= DATE '1999-01-01' + %d
		AND l.shipdate >= DATE '1999-01-01' + %d AND l.shipdate <= DATE '1999-01-01' + %d`,
			n/8, 3*n/4, n/8, 3*n/4+89), true},
	}, nil
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
