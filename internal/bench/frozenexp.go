package bench

import (
	"fmt"
	"time"

	"softdb/internal/engine"
	"softdb/internal/workload"
)

// V2Case is one measured statement of the frozen-page experiment.
type V2Case struct {
	Name  string
	Table string // the heap whose pages the modes thaw
	SQL   string
	// PageScan reports that the statement reads Table through a page scan,
	// the path that reads frozen pages. The others read an index range,
	// which reads them only when it switches to the page path at run time.
	PageScan bool
}

// V2Modes are the page states a V2 statement is measured in: every page
// thawed before each execution (what the first scan after a restart pays:
// the per-slot visibility walk, which freezes the page again), every page
// frozen, and a thaw of the whole table every fourth execution (a
// write-heavy table).
var V2Modes = []string{"cold", "warm", "thaw-every-4"}

// V2DB loads the analytic tables of the experiment — the star schema's fact
// and the denormalized orders_wide with its cust_id FDs mined and installed
// — and returns the statements to measure.
func V2DB(factRows, wideRows int) (*engine.Database, []V2Case, error) {
	db := engine.Open()
	if err := workload.LoadStar(db, workload.StarConfig{DimRows: 1000, FactRows: factRows, Seed: 2, FKMode: "informational"}); err != nil {
		return nil, nil, err
	}
	if err := workload.LoadDenormalized(db, wideRows, 200, 7); err != nil {
		return nil, nil, err
	}
	if _, err := InstallCustomerFDs(db); err != nil {
		return nil, nil, err
	}
	cases := []V2Case{
		{"fact-scan", "fact", "SELECT COUNT(*) AS n, SUM(price) AS s FROM fact WHERE qty > 25", true},
		{"wide-scan", "orders_wide", "SELECT COUNT(*) AS n, MAX(amount) AS m FROM orders_wide WHERE region = 1", true},
		{"fd-group-order", "orders_wide", fmt.Sprintf(
			"SELECT cust_id, cust_name, SUM(amount) AS s FROM orders_wide WHERE id >= %d AND id < %d GROUP BY cust_id, cust_name ORDER BY cust_id",
			wideRows/5, wideRows/5+wideRows/10), false},
		{"e4-index-range", "fact", fmt.Sprintf(
			"SELECT COUNT(*) AS n, SUM(f.qty) AS q FROM fact f, dim d WHERE f.dim_id = d.id AND f.id >= %d AND f.id < %d",
			factRows/11, factRows/11+factRows/10), false},
	}
	return db, cases, nil
}

// V2Prepare puts c's table in the page state mode prescribes for execution
// number run (the ordinal drives the periodic thaw). Callers keep it outside
// the timed section: the experiment measures scans, not the thaw.
func V2Prepare(db *engine.Database, c V2Case, mode string, run int) error {
	if mode == "cold" || (mode == "thaw-every-4" && run%4 == 0) {
		te, err := db.Catalog().Table(c.Table)
		if err != nil {
			return err
		}
		te.Heap.ThawAll()
	}
	return nil
}

// V2FrozenScan measures what frozen pages buy a scan: the same statement,
// same plan, with the table thawed before every execution, frozen, and
// thawed every fourth execution. Page scans over frozen pages skip the
// per-slot visibility walk; the two index-range statements (the FD-reduced
// GROUP BY … ORDER BY and the join-eliminated E4 range) read frozen pages
// exactly when their range switched to the page path, and fetch rows by
// RowID, untouched by the frozen bit, otherwise. Answers, page/row charges
// and the access path are checked equal across modes; "freezes" is how many
// pages the mode's first execution froze.
func V2FrozenScan(factRows, wideRows int) (*Report, error) {
	rep := &Report{
		ID:     "V2",
		Title:  "frozen typed pages: cold vs warm vs periodically thawed",
		Claim:  "once the rewrites have fired what is left is the scan; an all-visible page is marked frozen once, so repeated scans skip the per-slot visibility walk at identical plans, pages and rows",
		Header: []string{"statement", "path", "rows read", "ns/row cold", "ns/row warm", "ns/row thaw-every-4", "cold/warm", "frozen pages warm", "freezes cold", "freezes warm"},
	}
	db, cases, err := V2DB(factRows, wideRows)
	if err != nil {
		return nil, err
	}
	const reps = 12
	var pageBytes int64
	for _, c := range cases {
		te, err := db.Catalog().Table(c.Table)
		if err != nil {
			return nil, err
		}
		nsPerRow := map[string]float64{}
		freezes := map[string]int{}
		var answer string
		var rowsRead, pagesRead, frozenWarm, pagePaths int64
		for _, mode := range V2Modes {
			if _, err := db.Exec(c.SQL); err != nil { // plan cached, images built
				return nil, err
			}
			var total time.Duration
			for run := 0; run < reps; run++ {
				if err := V2Prepare(db, c, mode, run); err != nil {
					return nil, err
				}
				before, _ := te.Heap.FreezeStats()
				start := time.Now()
				res, err := db.Exec(c.SQL)
				if err != nil {
					return nil, err
				}
				total += time.Since(start)
				if run == 0 {
					after, _ := te.Heap.FreezeStats()
					freezes[mode] = after - before
				}
				io := res.Ctx.IO.Load()
				got := fmt.Sprint(res.Rows)
				if answer == "" {
					answer, rowsRead, pagesRead, pagePaths = got, io.RowsRead, io.PagesRead, res.Ctx.PagePaths
				}
				if got != answer || io.RowsRead != rowsRead || io.PagesRead != pagesRead || res.Ctx.PagePaths != pagePaths {
					return nil, fmt.Errorf("V2 %s [%s]: answer, charges or access path moved with the page state: pages %d rows %d page paths %d vs pages %d rows %d page paths %d",
						c.Name, mode, io.PagesRead, io.RowsRead, res.Ctx.PagePaths, pagesRead, rowsRead, pagePaths)
				}
				if mode == "warm" {
					frozenWarm = io.PagesFrozen
				}
			}
			nsPerRow[mode] = float64(total.Nanoseconds()) / float64(reps) / float64(rowsRead)
		}
		if c.PageScan {
			pageBytes += te.Heap.PageBytes()
		}
		path := "index range"
		switch {
		case c.PageScan:
			path = "page scan"
		case pagePaths > 0:
			path = "index range, page path"
		case frozenWarm != 0:
			return nil, fmt.Errorf("V2 %s: an index range on its entry path read %d frozen pages", c.Name, frozenWarm)
		}
		if path != "index range" && frozenWarm == 0 {
			return nil, fmt.Errorf("V2 %s: a warm %s read no frozen page", c.Name, path)
		}
		rep.AddRow(c.Name, path, rowsRead,
			fmt.Sprintf("%.1f", nsPerRow["cold"]), fmt.Sprintf("%.1f", nsPerRow["warm"]), fmt.Sprintf("%.1f", nsPerRow["thaw-every-4"]),
			fmt.Sprintf("%.2f", nsPerRow["cold"]/nsPerRow["warm"]), frozenWarm, freezes["cold"], freezes["warm"])
	}
	rep.Notef("fact %d rows, orders_wide %d rows; rows read counts index entries too on an index range's entry path, and every row of a read page on its page path; the two page-scanned tables' pages hold %d KiB (typed values, null masks and stamps: the only copy of the data)", factRows, wideRows, pageBytes/1024)
	return rep, nil
}
