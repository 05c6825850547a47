package bench

import (
	"fmt"

	"softdb/internal/engine"
)

// ASTDB creates a purchase table whose region and amount columns
// are strongly correlated (region 3 is the premium region: almost all
// amounts >= 90 come from it), an AST over the premium rows, and
// statistics. The correlation is what defeats the independence assumption.
func ASTDB(n int, informational bool) (*engine.Database, error) {
	db := OpenSQO()
	if _, err := db.Exec(`CREATE TABLE purchase (
		id INT PRIMARY KEY,
		region INT,
		amount FLOAT)`); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		region := i % 7
		amount := i % 90 // below 90
		if i%20 == 0 {   // 5% premium rows, concentrated in region 3
			region = 3
			amount = 90 + i%10
		}
		if _, err := db.Exec(fmt.Sprintf(
			"INSERT INTO purchase VALUES (%d, %d, %d)", i, region, amount)); err != nil {
			return nil, err
		}
	}
	kind := ""
	if informational {
		kind = "INFORMATIONAL "
	}
	if _, err := db.Exec(fmt.Sprintf(
		"CREATE %sSUMMARY TABLE premium AS (SELECT * FROM purchase WHERE amount >= 90 AND region = 3)", kind)); err != nil {
		return nil, err
	}
	if _, err := db.Exec("ANALYZE purchase"); err != nil {
		return nil, err
	}
	return db, nil
}

// E12ASTs reproduces the §4.4 AST discussion beyond exceptions: a
// materialized AST matching the query's predicates becomes a routing choice
// (scan the small AST instead of the base table), and an information AST —
// "not routable, but can be used for filter factor estimation" — supplies
// the exact joint selectivity of a correlated predicate pair that the
// independence assumption butchers.
func E12ASTs(n int) (*Report, error) {
	rep := &Report{
		ID:     "E12",
		Title:  "AST routing and AST-based filter-factor estimation",
		Claim:  "a matching AST is a routable choice point, and even unmaterialized (information) ASTs fix correlated-predicate estimates (§4.4)",
		Header: []string{"config", "pages", "est rows", "actual rows", "q-error"},
	}
	q := "SELECT id FROM purchase WHERE amount >= 90 AND region = 3"

	// Materialized AST: routing + estimation.
	db, err := ASTDB(n, false)
	if err != nil {
		return nil, err
	}
	db.RewriteOpts.NoASTRouting = true
	db.NoASTEstimation = true
	base, err := db.Exec(q)
	if err != nil {
		return nil, err
	}
	actual := float64(len(base.Rows))
	rep.AddRow("base table, independence est", base.Ctx.IO.PagesRead, base.EstRows, len(base.Rows), qError(base.EstRows, actual))

	db.NoASTEstimation = false
	est, err := db.Exec(q)
	if err != nil {
		return nil, err
	}
	rep.AddRow("base table, AST-backed est", est.Ctx.IO.PagesRead, est.EstRows, len(est.Rows), qError(est.EstRows, actual))

	db.RewriteOpts.NoASTRouting = false
	routed, err := db.Exec(q)
	if err != nil {
		return nil, err
	}
	rep.AddRow("routed through AST", routed.Ctx.IO.PagesRead, routed.EstRows, len(routed.Rows), qError(routed.EstRows, actual))
	if len(routed.Rows) != len(base.Rows) {
		rep.Notef("WARNING: routing changed answers: %d vs %d", len(routed.Rows), len(base.Rows))
	}

	// Information AST: estimation only, never routed.
	dbi, err := ASTDB(n, true)
	if err != nil {
		return nil, err
	}
	info, err := dbi.Exec(q)
	if err != nil {
		return nil, err
	}
	rep.AddRow("information AST (est only)", info.Ctx.IO.PagesRead, info.EstRows, len(info.Rows), qError(info.EstRows, actual))
	rep.Notef("the AST covers both correlated predicates, so its row count is the exact joint selectivity")
	return rep, nil
}
