package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"softdb/internal/catalog"
	"softdb/internal/exec"
	"softdb/internal/types"
)

func newDB(t *testing.T, script string) *Database {
	t.Helper()
	db := Open()
	if script != "" {
		if _, err := db.ExecScript(script); err != nil {
			t.Fatalf("setup: %v", err)
		}
	}
	return db
}

func rowsAsStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func TestCreateInsertSelect(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE emp (id INT PRIMARY KEY, name VARCHAR(20), salary FLOAT);
		INSERT INTO emp VALUES (1, 'ann', 100.5), (2, 'bob', 90.0), (3, 'carol', 120.25);
	`)
	res, err := db.Exec("SELECT name, salary FROM emp WHERE salary > 95 ORDER BY salary DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", rowsAsStrings(res.Rows))
	}
	if res.Rows[0][0].Str() != "carol" || res.Rows[1][0].Str() != "ann" {
		t.Errorf("order: %v", rowsAsStrings(res.Rows))
	}
	if res.Columns[0] != "name" || res.Columns[1] != "salary" {
		t.Errorf("columns: %v", res.Columns)
	}
}

func TestArithmeticProjection(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (a INT, b INT);
		INSERT INTO t VALUES (3, 4);
	`)
	rows, err := db.Query("SELECT a + b * 2 AS v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 11 {
		t.Errorf("3+4*2 = %v", rows[0][0])
	}
}

func TestJoinAndAggregate(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE dept (id INT PRIMARY KEY, name VARCHAR(20));
		CREATE TABLE emp (id INT PRIMARY KEY, dept_id INT NOT NULL, salary FLOAT);
		INSERT INTO dept VALUES (1, 'eng'), (2, 'ops');
		INSERT INTO emp VALUES (10, 1, 100), (11, 1, 110), (12, 2, 90);
	`)
	rows, err := db.Query(`
		SELECT d.name, COUNT(*) AS n, SUM(e.salary) AS total
		FROM dept d, emp e
		WHERE d.id = e.dept_id
		GROUP BY d.name
		ORDER BY n DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups: %v", rowsAsStrings(rows))
	}
	if rows[0][0].Str() != "eng" || rows[0][1].Int() != 2 || rows[0][2].Float() != 210 {
		t.Errorf("eng group: %v", rows[0])
	}
	if rows[1][0].Str() != "ops" || rows[1][1].Int() != 1 {
		t.Errorf("ops group: %v", rows[1])
	}
}

func TestScalarAggregates(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (a INT, b INT);
		INSERT INTO t VALUES (1, NULL), (2, 5), (3, 7);
	`)
	rows, err := db.Query("SELECT COUNT(*) , COUNT(b), SUM(b), MIN(a), MAX(a), AVG(b) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r[0].Int() != 3 || r[1].Int() != 2 || r[2].Int() != 12 || r[3].Int() != 1 || r[4].Int() != 3 {
		t.Errorf("aggregates: %v", r)
	}
	if r[5].Float() != 6 {
		t.Errorf("avg: %v", r[5])
	}
	// Empty input: scalar aggregation still produces one row.
	rows, err = db.Query("SELECT COUNT(*), SUM(a) FROM t WHERE a > 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Errorf("empty scalar agg: %v", rowsAsStrings(rows))
	}
}

// TestIntegerSumExact: SUM over INT values is exact past 2^53, fits or fails
// on the exact total whatever order the values arrive in, and reports a
// total outside the INT range as a KindError QueryError — in the engine and
// in the reference interpreter alike.
func TestIntegerSumExact(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (g INT, a INT);
		INSERT INTO t VALUES (1, 9007199254740993), (1, 1), (2, 9007199254740993);
		CREATE TABLE big (g INT, a INT);
		INSERT INTO big VALUES (1, 9223372036854775807), (1, 1), (1, -5), (2, 9223372036854775807), (2, 1);
	`)
	runners := map[string]func(q string) (*Result, error){
		"engine":    db.Exec,
		"reference": func(q string) (*Result, error) { return db.reference(context.Background(), nil, q, nil) },
	}
	for name, run := range runners {
		for q, want := range map[string]string{
			"SELECT g, SUM(a) FROM t GROUP BY g":               "(1, 9007199254740994) (2, 9007199254740993)",
			"SELECT SUM(a) FROM t":                             "(18014398509481987)",
			"SELECT g, SUM(a) FROM big WHERE g = 1 GROUP BY g": "(1, 9223372036854775803)",
			"SELECT SUM(a) FROM big WHERE a > 0":               "overflow",
			"SELECT g, SUM(a) FROM big GROUP BY g":             "overflow",
		} {
			res, err := run(q)
			if want == "overflow" {
				if qe, ok := exec.AsQueryError(err); !ok || qe.Kind != exec.KindError || !strings.Contains(err.Error(), "SUM overflows INT") {
					t.Errorf("%s: %s: %v, want a SUM overflow error", name, q, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q, err)
			}
			if got := strings.Join(rowsAsStrings(res.Rows), " "); got != want {
				t.Errorf("%s: %s = %s, want %s", name, q, got, want)
			}
		}
	}
}

func TestDistinctAndLimit(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1), (2), (2), (3), (3), (3);
	`)
	rows, err := db.Query("SELECT DISTINCT a FROM t ORDER BY a LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int() != 1 || rows[1][0].Int() != 2 {
		t.Errorf("distinct+limit: %v", rowsAsStrings(rows))
	}
}

func TestUnionAll(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE a (x INT); CREATE TABLE b (x INT);
		INSERT INTO a VALUES (1); INSERT INTO b VALUES (2);
	`)
	rows, err := db.Query("SELECT x FROM a UNION ALL SELECT x FROM b")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("union: %v", rowsAsStrings(rows))
	}
}

func TestUpdateDelete(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (id INT PRIMARY KEY, v INT);
		INSERT INTO t VALUES (1, 10), (2, 20), (3, 30);
	`)
	res := db.MustExec("UPDATE t SET v = v + 1 WHERE id >= 2")
	if res.RowsAffected != 2 {
		t.Errorf("update affected: %d", res.RowsAffected)
	}
	rows, _ := db.Query("SELECT v FROM t WHERE id = 3")
	if rows[0][0].Int() != 31 {
		t.Errorf("after update: %v", rows[0])
	}
	res = db.MustExec("DELETE FROM t WHERE v = 10")
	if res.RowsAffected != 1 {
		t.Errorf("delete affected: %d", res.RowsAffected)
	}
	rows, _ = db.Query("SELECT COUNT(*) FROM t")
	if rows[0][0].Int() != 2 {
		t.Errorf("after delete: %v", rows[0])
	}
}

func TestPrimaryKeyEnforced(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (id INT PRIMARY KEY, v INT);
		INSERT INTO t VALUES (1, 10);
	`)
	if _, err := db.Exec("INSERT INTO t VALUES (1, 99)"); err == nil {
		t.Error("duplicate PK should fail")
	}
	if _, err := db.Exec("INSERT INTO t VALUES (NULL, 5)"); err == nil {
		t.Error("NULL PK should fail")
	}
}

func TestForeignKeyEnforced(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE p (id INT PRIMARY KEY);
		CREATE TABLE c (id INT PRIMARY KEY, pid INT, FOREIGN KEY (pid) REFERENCES p (id));
		INSERT INTO p VALUES (1);
	`)
	db.MustExec("INSERT INTO c VALUES (10, 1)")
	db.MustExec("INSERT INTO c VALUES (11, NULL)") // NULL FK allowed
	if _, err := db.Exec("INSERT INTO c VALUES (12, 99)"); err == nil {
		t.Error("orphan FK should fail")
	}
}

func TestCheckConstraintEnforced(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (a INT, b INT, CHECK (a <= b))`)
	db.MustExec("INSERT INTO t VALUES (1, 2)")
	db.MustExec("INSERT INTO t VALUES (NULL, 2)") // NULL check passes
	if _, err := db.Exec("INSERT INTO t VALUES (3, 2)"); err == nil {
		t.Error("check violation should fail")
	}
	if _, err := db.Exec("UPDATE t SET a = 10 WHERE b = 2"); err == nil {
		t.Error("check violation on update should fail")
	}
}

func TestInformationalConstraintNotChecked(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (a INT, b INT, CONSTRAINT c1 CHECK (a <= b) INFORMATIONAL)`)
	// A violating insert succeeds: informational constraints are promises,
	// never checked (§1).
	db.MustExec("INSERT INTO t VALUES (3, 2)")
	con := db.Catalog().ConstraintByName("c1")
	if con == nil || !con.Active {
		t.Error("informational constraint should remain active (the promise is external)")
	}
}

func TestASCDeactivatedOnViolation(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (a INT, b INT, CONSTRAINT soft1 CHECK (a <= b) SOFT);
		INSERT INTO t VALUES (1, 2);
	`)
	con := db.Catalog().ConstraintByName("soft1")
	if con == nil || !con.Active {
		t.Fatal("ASC should start active")
	}
	res := db.MustExec("INSERT INTO t VALUES (5, 2)") // violates, but succeeds
	if !con.Active {
		// expected
	} else {
		t.Error("ASC should be deactivated by a violating write")
	}
	if len(res.Notices) == 0 || !strings.Contains(res.Notices[0], "deactivated") {
		t.Errorf("notices: %v", res.Notices)
	}
	rows, _ := db.Query("SELECT COUNT(*) FROM t")
	if rows[0][0].Int() != 2 {
		t.Error("violating insert must still be applied")
	}
}

func TestASCAddRejectedWhenRowsViolate(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (a INT, b INT);
		INSERT INTO t VALUES (5, 2);
	`)
	if _, err := db.Exec("ALTER TABLE t ADD CONSTRAINT s CHECK (a <= b) SOFT"); err == nil {
		t.Error("ASC must be consistent with the current state")
	}
	// An SSC tolerates existing violations.
	db.MustExec("ALTER TABLE t ADD CONSTRAINT ssc CHECK (a <= b) SOFT STATISTICAL CONFIDENCE 0.5")
}

func TestJoinEliminationPlan(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE dim (id INT PRIMARY KEY, name VARCHAR(10));
		CREATE TABLE fact (id INT PRIMARY KEY, dim_id INT NOT NULL, qty INT,
			FOREIGN KEY (dim_id) REFERENCES dim (id) NOT ENFORCED);
		INSERT INTO dim VALUES (1, 'x'), (2, 'y');
		INSERT INTO fact VALUES (10, 1, 5), (11, 2, 7), (12, 1, 3);
	`)
	res, err := db.Exec("SELECT f.qty, f.dim_id FROM fact f, dim d WHERE f.dim_id = d.id")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Plan, "Join") {
		t.Errorf("join should be eliminated:\n%s", res.Plan)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows: %v", rowsAsStrings(res.Rows))
	}
	foundTrace := false
	for _, tr := range res.Trace {
		if strings.Contains(tr, "join-elimination") {
			foundTrace = true
		}
	}
	if !foundTrace {
		t.Errorf("trace: %v", res.Trace)
	}
	// Selecting a non-key dim column keeps the join.
	res, err = db.Exec("SELECT f.qty, d.name FROM fact f, dim d WHERE f.dim_id = d.id")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "Join") {
		t.Errorf("join needed here:\n%s", res.Plan)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows: %v", rowsAsStrings(res.Rows))
	}
}

func TestJoinEliminationNullableFK(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE dim (id INT PRIMARY KEY);
		CREATE TABLE fact (id INT PRIMARY KEY, dim_id INT,
			FOREIGN KEY (dim_id) REFERENCES dim (id) NOT ENFORCED);
		INSERT INTO dim VALUES (1);
		INSERT INTO fact VALUES (10, 1), (11, NULL);
	`)
	// Inner join drops the NULL row; elimination must preserve that.
	res, err := db.Exec("SELECT f.id FROM fact f, dim d WHERE f.dim_id = d.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 10 {
		t.Errorf("nullable FK elimination: %v\n%s", rowsAsStrings(res.Rows), res.Plan)
	}
}

func TestBranchPruningMonthlyView(t *testing.T) {
	db := Open()
	var script strings.Builder
	for m := 1; m <= 12; m++ {
		fmt.Fprintf(&script, `CREATE TABLE sales_%02d (month INT, amount INT, CHECK (month = %d));`, m, m)
		fmt.Fprintf(&script, `INSERT INTO sales_%02d VALUES (%d, %d);`, m, m, m*100)
	}
	script.WriteString("CREATE VIEW sales AS SELECT * FROM sales_01")
	for m := 2; m <= 12; m++ {
		fmt.Fprintf(&script, " UNION ALL SELECT * FROM sales_%02d", m)
	}
	script.WriteString(";")
	if _, err := db.ExecScript(script.String()); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT month, amount FROM sales WHERE month >= 1 AND month <= 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %v", rowsAsStrings(res.Rows))
	}
	// Only 3 of 12 branches should be scanned.
	scans := strings.Count(res.Plan, "SeqScan")
	if scans != 3 {
		t.Errorf("expected 3 scans, plan:\n%s", res.Plan)
	}
	if !strings.Contains(res.Plan, "pruned=9") {
		t.Errorf("pruned count missing:\n%s", res.Plan)
	}
}

func TestPredicateIntroductionFromCheck(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE purchase (
			id INT PRIMARY KEY,
			order_date DATE NOT NULL,
			ship_date DATE,
			CONSTRAINT ship_window CHECK (ship_date >= order_date AND ship_date <= order_date + 21) SOFT
		);
		CREATE INDEX idx_order ON purchase (order_date);
	`)
	for i := 0; i < 3000; i++ {
		db.MustExec(fmt.Sprintf(
			"INSERT INTO purchase VALUES (%d, DATE '1999-01-01' + %d, DATE '1999-01-01' + %d)",
			i, i, i+(i%21)))
	}
	db.MustExec("ANALYZE purchase")
	res, err := db.Exec("SELECT id FROM purchase WHERE ship_date = DATE '1999-03-15'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "IndexScan") {
		t.Errorf("introduced predicate should enable the index:\n%s\ntrace: %v", res.Plan, res.Trace)
	}
	// Verify correctness against a full scan baseline.
	db2 := Open()
	db2.RewriteOpts.NoPredIntro = true
	// re-run the whole setup on db2
	db2.MustExec(`CREATE TABLE purchase (
		id INT PRIMARY KEY, order_date DATE NOT NULL, ship_date DATE,
		CONSTRAINT ship_window CHECK (ship_date >= order_date AND ship_date <= order_date + 21) SOFT)`)
	for i := 0; i < 200; i++ {
		db2.MustExec(fmt.Sprintf(
			"INSERT INTO purchase VALUES (%d, DATE '1999-01-01' + %d, DATE '1999-01-01' + %d)",
			i, i, i+(i%21)))
	}
	for i := 200; i < 3000; i++ {
		db2.MustExec(fmt.Sprintf(
			"INSERT INTO purchase VALUES (%d, DATE '1999-01-01' + %d, DATE '1999-01-01' + %d)",
			i, i, i+(i%21)))
	}
	want, _ := db2.Query("SELECT id FROM purchase WHERE ship_date = DATE '1999-03-15'")
	if len(res.Rows) != len(want) {
		t.Errorf("rewrite changed answers: got %d rows, want %d", len(res.Rows), len(want))
	}
}

func TestExceptionASTUnionRewrite(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE purchase (
			id INT PRIMARY KEY,
			order_date DATE NOT NULL,
			ship_date DATE,
			CONSTRAINT ship3w CHECK (ship_date <= order_date + 21) SOFT STATISTICAL CONFIDENCE 0.99
		);
		CREATE INDEX idx_order ON purchase (order_date);
	`)
	// 99% within 3 weeks, 1% late.
	for i := 0; i < 300; i++ {
		lag := i % 20
		if i%100 == 0 {
			lag = 60 // late shipment
		}
		db.MustExec(fmt.Sprintf(
			"INSERT INTO purchase VALUES (%d, DATE '1999-01-01' + %d, DATE '1999-01-01' + %d)",
			i, i, i+lag))
	}
	db.MustExec(`CREATE SUMMARY TABLE late_shipments AS
		(SELECT * FROM purchase WHERE ship_date > order_date + 21)`)
	if err := db.LinkException("ship3w", "late_shipments"); err != nil {
		t.Fatal(err)
	}
	db.MustExec("ANALYZE purchase")
	db.DisablePlanCache = true // we toggle rewrite flags between runs

	q := "SELECT id FROM purchase WHERE ship_date = DATE '1999-01-01' + 160"
	res, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "late_shipments") || !strings.Contains(res.Plan, "UnionAll") {
		t.Errorf("exception-union rewrite expected:\n%s\ntrace: %v", res.Plan, res.Trace)
	}
	// Cross-check answers with the rewrite disabled.
	db.RewriteOpts.NoExceptionAST = true
	db.RewriteOpts.NoSSCTwins = true
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	db.RewriteOpts.NoExceptionAST = false
	if len(res.Rows) != len(want) {
		t.Errorf("rewrite changed answers: got %v want %v", rowsAsStrings(res.Rows), rowsAsStrings(want))
	}
	// The late row (id 100, lag 60 → ship = 1999-01-01 + 160) must appear.
	found := false
	for _, r := range res.Rows {
		if r[0].Int() == 100 {
			found = true
		}
	}
	if !found {
		t.Errorf("late shipment must be found via the exception AST: %v", rowsAsStrings(res.Rows))
	}
}

func TestSSCTwinChangesEstimate(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE project (
			id INT PRIMARY KEY,
			start_date DATE NOT NULL,
			end_date DATE,
			CONSTRAINT dur CHECK (end_date <= start_date + 30) SOFT STATISTICAL CONFIDENCE 0.9
		);
	`)
	for i := 0; i < 500; i++ {
		dur := i % 28
		if i%10 == 0 {
			dur = 200
		}
		db.MustExec(fmt.Sprintf(
			"INSERT INTO project VALUES (%d, DATE '1999-01-01' + %d, DATE '1999-01-01' + %d)",
			i, i, i+dur))
	}
	db.MustExec("ANALYZE project")
	db.DisablePlanCache = true // we toggle optimizer flags between runs
	q := "SELECT id FROM project WHERE start_date <= DATE '1999-06-15' AND end_date >= DATE '1999-06-15'"
	resWith, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	db.NoSSCEstimation = true
	resWithout, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	db.NoSSCEstimation = false
	if resWith.EstRows == resWithout.EstRows {
		t.Errorf("SSC twin should change the estimate: with=%.1f without=%.1f",
			resWith.EstRows, resWithout.EstRows)
	}
	// Identical answers either way — twins are estimation-only.
	if len(resWith.Rows) != len(resWithout.Rows) {
		t.Errorf("estimation-only predicates must not change answers: %d vs %d",
			len(resWith.Rows), len(resWithout.Rows))
	}
}

func TestFDSortSimplification(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE denorm (order_id INT PRIMARY KEY, cust_id INT, cust_name VARCHAR(20));
		INSERT INTO denorm VALUES (1, 100, 'ann'), (2, 100, 'ann'), (3, 200, 'bob');
	`)
	// cust_id → cust_name is a mined FD.
	err := db.Catalog().AddConstraint(&catalog.Constraint{
		Name: "fd_cust", Kind: catalog.FuncDep, Mode: catalog.ModeSoftAbsolute,
		Table: "denorm", Columns: []string{"cust_id"}, DepColumns: []string{"cust_name"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT cust_id, cust_name FROM denorm ORDER BY cust_id, cust_name")
	if err != nil {
		t.Fatal(err)
	}
	hasSimplify := false
	for _, tr := range res.Trace {
		if strings.Contains(tr, "sort-simplify") {
			hasSimplify = true
		}
	}
	if !hasSimplify {
		t.Errorf("FD should drop the second sort key; trace: %v", res.Trace)
	}
	// ORDER BY pk, anything: everything determined by the key.
	res, err = db.Exec("SELECT order_id, cust_name FROM denorm ORDER BY order_id, cust_name")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Trace, "; ")
	if !strings.Contains(joined, "sort-simplify") {
		t.Errorf("PK prefix should simplify sort; trace: %v", res.Trace)
	}
}

func TestSortEliminatedWhenKeyPinned(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (a INT, b INT);
		INSERT INTO t VALUES (1, 5), (1, 3);
	`)
	res, err := db.Exec("SELECT b FROM t WHERE a = 1 ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Plan, "Sort") {
		t.Errorf("sort on pinned column should vanish:\n%s", res.Plan)
	}
}

func TestGroupByReduction(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE denorm (id INT PRIMARY KEY, cust_id INT, cust_name VARCHAR(20), amt INT);
		INSERT INTO denorm VALUES (1, 100, 'ann', 5), (2, 100, 'ann', 6), (3, 200, 'bob', 7);
	`)
	if err := db.Catalog().AddConstraint(&catalog.Constraint{
		Name: "fd_cust", Kind: catalog.FuncDep, Mode: catalog.ModeSoftAbsolute,
		Table: "denorm", Columns: []string{"cust_id"}, DepColumns: []string{"cust_name"},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`SELECT cust_id, cust_name, SUM(amt) AS total
		FROM denorm GROUP BY cust_id, cust_name ORDER BY cust_id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups: %v", rowsAsStrings(res.Rows))
	}
	if res.Rows[0][2].Int() != 11 || res.Rows[1][2].Int() != 7 {
		t.Errorf("sums: %v", rowsAsStrings(res.Rows))
	}
	if !strings.Contains(res.Plan, "redundant") {
		t.Errorf("group reduction expected in plan:\n%s\ntrace: %v", res.Plan, res.Trace)
	}
}

func TestPlanCache(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (a INT, CONSTRAINT pos CHECK (a >= 0) SOFT);
		INSERT INTO t VALUES (1);
	`)
	q := "SELECT a FROM t WHERE a >= 0"
	db.MustExec(q)
	db.MustExec(q)
	cs := db.CacheStats()
	if cs.Hits < 1 {
		t.Errorf("expected a cache hit: %+v", cs)
	}
	if db.CachedPlanCount() != 1 {
		t.Errorf("cached plans: %d", db.CachedPlanCount())
	}
	// A violating write deactivates the ASC, bumping the catalog version
	// and invalidating dependent plans (§4.1).
	db.MustExec("INSERT INTO t VALUES (-5)")
	db.MustExec(q)
	cs = db.CacheStats()
	if cs.Invalidations < 1 {
		t.Errorf("expected invalidation after ASC violation: %+v", cs)
	}
}

func TestExplain(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1);
	`)
	res, err := db.Exec("EXPLAIN SELECT * FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	text := ""
	for _, r := range res.Rows {
		text += r[0].Str() + "\n"
	}
	if !strings.Contains(text, "SeqScan") || !strings.Contains(text, "estimated rows") {
		t.Errorf("explain output:\n%s", text)
	}
}

func TestInsertWithColumnList(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (a INT, b VARCHAR(5), c INT)`)
	db.MustExec("INSERT INTO t (c, a) VALUES (3, 1)")
	rows, _ := db.Query("SELECT a, b, c FROM t")
	if rows[0][0].Int() != 1 || !rows[0][1].IsNull() || rows[0][2].Int() != 3 {
		t.Errorf("column-list insert: %v", rows[0])
	}
}

func TestAnalyzeAndStats(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (a INT)`)
	for i := 0; i < 100; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d)", i%10))
	}
	db.MustExec("ANALYZE t")
	te, _ := db.Catalog().Table("t")
	if te.Stats == nil {
		t.Fatal("stats missing")
	}
	cs := te.Stats.Column("a")
	if cs.NDV != 10 || cs.RowCount != 100 {
		t.Errorf("stats: %s", cs)
	}
}

func TestViewExpansion(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (a INT, b INT);
		INSERT INTO t VALUES (1, 10), (2, 20);
		CREATE VIEW v AS SELECT a, b FROM t WHERE b > 5;
	`)
	rows, err := db.Query("SELECT a FROM v WHERE a = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 2 {
		t.Errorf("view rows: %v", rowsAsStrings(rows))
	}
}

func TestIndexScanUsedForSelectiveRange(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (a INT, b INT); CREATE INDEX ia ON t (a)`)
	for i := 0; i < 2000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i*2))
	}
	db.MustExec("ANALYZE t")
	res, err := db.Exec("SELECT b FROM t WHERE a BETWEEN 100 AND 110")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "IndexScan") {
		t.Errorf("selective range should use index:\n%s", res.Plan)
	}
	if len(res.Rows) != 11 {
		t.Errorf("rows: %d", len(res.Rows))
	}
	// Unselective predicate prefers a sequential scan.
	res, err = db.Exec("SELECT b FROM t WHERE a >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "SeqScan") {
		t.Errorf("unselective range should seq scan:\n%s", res.Plan)
	}
}

func TestContradictionYieldsEmpty(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (a INT); INSERT INTO t VALUES (1)`)
	res, err := db.Exec("SELECT a FROM t WHERE a = 1 AND a = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("contradiction: %v", rowsAsStrings(res.Rows))
	}
	if !strings.Contains(res.Plan, "Empty") {
		t.Errorf("plan should be Empty:\n%s", res.Plan)
	}
}

func TestErrorPaths(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (a INT)`)
	cases := []string{
		"SELECT * FROM missing",
		"SELECT missing FROM t",
		"INSERT INTO t VALUES (1, 2)",
		"INSERT INTO missing VALUES (1)",
		"UPDATE t SET missing = 1",
		"DELETE FROM missing",
		"CREATE TABLE t (a INT)",
		"CREATE INDEX i ON t (missing)",
		"ANALYZE missing",
		"SELECT a, COUNT(*) FROM t", // non-grouped scalar with aggregate
	}
	for _, q := range cases {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("%q should fail", q)
		}
	}
}

func TestHaving(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE sales (region INT, amount INT);
		INSERT INTO sales VALUES (1, 10), (1, 20), (2, 5), (2, 2), (3, 100);
	`)
	rows, err := db.Query(`SELECT region, SUM(amount) AS total
		FROM sales GROUP BY region HAVING total > 10 ORDER BY region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("having rows: %v", rowsAsStrings(rows))
	}
	if rows[0][0].Int() != 1 || rows[0][1].Int() != 30 {
		t.Errorf("group 1: %v", rows[0])
	}
	if rows[1][0].Int() != 3 || rows[1][1].Int() != 100 {
		t.Errorf("group 3: %v", rows[1])
	}
	// HAVING on a grouping column works too.
	rows, err = db.Query(`SELECT region, COUNT(*) AS n
		FROM sales GROUP BY region HAVING region <> 2 ORDER BY region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("having on group col: %v", rowsAsStrings(rows))
	}
	// Errors: HAVING without GROUP BY; unknown reference.
	if _, err := db.Exec("SELECT region FROM sales HAVING region > 1"); err == nil {
		t.Error("HAVING without GROUP BY should fail")
	}
	if _, err := db.Exec("SELECT region, SUM(amount) AS total FROM sales GROUP BY region HAVING bogus > 1"); err == nil {
		t.Error("unknown HAVING reference should fail")
	}
}

func TestIndexMinMaxShortcut(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (a INT NOT NULL, b INT); CREATE INDEX ia ON t (a)`)
	for i := 0; i < 5000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", (i*37)%10000, i))
	}
	db.MustExec("ANALYZE t")
	res, err := db.Exec("SELECT MIN(a), MAX(a) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "IndexMinMax") {
		t.Errorf("shortcut expected:\n%s", res.Plan)
	}
	// Validate against a scan-based answer.
	db.NoIndexes = true
	db.DisablePlanCache = true
	want, err := db.Exec("SELECT MIN(a), MAX(a) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	db.NoIndexes = false
	if !res.Rows[0].Equal(want.Rows[0]) {
		t.Errorf("shortcut answers: %v vs %v", res.Rows[0], want.Rows[0])
	}
	if res.Ctx.IO.PagesRead >= want.Ctx.IO.PagesRead {
		t.Errorf("shortcut should read fewer pages: %d vs %d",
			res.Ctx.IO.PagesRead, want.Ctx.IO.PagesRead)
	}
	// Filters disable the shortcut.
	res, _ = db.Exec("SELECT MIN(a) FROM t WHERE b > 10")
	if strings.Contains(res.Plan, "IndexMinMax") {
		t.Errorf("filtered min/max must not shortcut:\n%s", res.Plan)
	}
	// Nullable columns disable it (NULLs sort first in the index).
	db.MustExec("CREATE INDEX ib ON t (b)")
	res, _ = db.Exec("SELECT MIN(b) FROM t")
	if strings.Contains(res.Plan, "IndexMinMax") {
		t.Errorf("nullable min/max must not shortcut:\n%s", res.Plan)
	}
	// Shortcut stays correct under deletes (unlike a stored min/max SC).
	db.MustExec("DELETE FROM t WHERE a = 0")
	rows, _ := db.Query("SELECT MIN(a) FROM t")
	if rows[0][0].Int() == 0 {
		t.Error("min must move after deleting the minimum")
	}
}

func TestIndexMinMaxEmptyTable(t *testing.T) {
	db := newDB(t, `CREATE TABLE t (a INT NOT NULL); CREATE INDEX ia ON t (a)`)
	rows, err := db.Query("SELECT MIN(a), MAX(a) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0][0].IsNull() || !rows[0][1].IsNull() {
		t.Errorf("empty min/max: %v", rowsAsStrings(rows))
	}
}

func TestBackupPlanFailover(t *testing.T) {
	// A query whose plan depends on an ASC (predicate introduction) gets a
	// backup plan; overturning the ASC reverts to the backup instead of
	// recompiling (§4.1).
	db := newDB(t, `
		CREATE TABLE purchase (
			id INT PRIMARY KEY,
			order_date DATE NOT NULL,
			ship_date DATE,
			CONSTRAINT win CHECK (ship_date >= order_date AND ship_date <= order_date + 21) SOFT
		);
		CREATE INDEX io ON purchase (order_date);
	`)
	for i := 0; i < 3000; i++ {
		db.MustExec(fmt.Sprintf(
			"INSERT INTO purchase VALUES (%d, DATE '1999-01-01' + %d, DATE '1999-01-01' + %d)",
			i, i/2, i/2+i%20))
	}
	db.MustExec("ANALYZE purchase")
	q := "SELECT id FROM purchase WHERE ship_date = DATE '1999-06-01'"
	first := db.MustExec(q)
	if !strings.Contains(first.Plan, "IndexScan") {
		t.Fatalf("primary plan should use the ASC:\n%s", first.Plan)
	}
	db.ResetCacheStats()
	// Overturn the ASC with a violating write that the stale indexed plan
	// would have missed: its order_date lies far outside the introduced
	// three-week window, but its ship_date matches the query.
	db.MustExec("INSERT INTO purchase VALUES (99999, DATE '1998-01-01', DATE '1999-06-01')")
	second := db.MustExec(q)
	cs := db.CacheStats()
	if cs.Failovers != 1 {
		t.Errorf("expected a backup-plan failover: %+v", cs)
	}
	if cs.Misses != 0 {
		t.Errorf("failover should avoid recompilation: %+v", cs)
	}
	if strings.Contains(second.Plan, "IndexScan") {
		t.Errorf("backup plan must not rely on the overturned ASC:\n%s", second.Plan)
	}
	if len(second.Trace) == 0 || !strings.Contains(second.Trace[0], "backup-plan") {
		t.Errorf("trace should note the reversion: %v", second.Trace)
	}
	// Answers: the new (violating) row must appear.
	found := false
	for _, r := range second.Rows {
		if r[0].Int() == 99999 {
			found = true
		}
	}
	if !found {
		t.Errorf("backup plan missed the new row: %v", rowsAsStrings(second.Rows))
	}
	// The backup keeps serving (cache hit) until a hard change arrives.
	db.ResetCacheStats()
	db.MustExec(q)
	if db.CacheStats().Hits != 1 {
		t.Errorf("backup should now be the cached plan: %+v", db.CacheStats())
	}
	// A structural change (new index) invalidates even the backup.
	db.MustExec("CREATE INDEX is2 ON purchase (ship_date)")
	db.ResetCacheStats()
	db.MustExec(q)
	cs = db.CacheStats()
	if cs.Invalidations != 1 || cs.Misses != 1 {
		t.Errorf("hard change should recompile: %+v", cs)
	}
}

// TestRangeCheckEmptyScanIsShaped: a scan proven empty by a soft CHECK
// is a plan the CHECK shaped, like any other soft rewrite — under
// ASCDynamicOnly it is not cached, and by default it gets a §4.1 backup
// that takes over when the CHECK is overturned.
func TestRangeCheckEmptyScanIsShaped(t *testing.T) {
	setup := `
		CREATE TABLE t (id INT PRIMARY KEY, v INT, CONSTRAINT c CHECK (v >= 0 AND v <= 100) SOFT);
		INSERT INTO t VALUES (1, 10), (2, 50), (3, 100);
		ANALYZE t;
	`
	q := "SELECT COUNT(*) AS n FROM t WHERE v >= 500 AND v <= 600"

	db := newDB(t, setup)
	db.ASCDynamicOnly = true
	first := db.MustExec(q)
	if len(first.Events) == 0 || !strings.Contains(first.Events[0].Detail, "scan proven empty") {
		t.Fatalf("setup: the CHECK should prove the scan empty; events %v", first.Events)
	}
	if len(first.Trace) != 1 || !strings.HasPrefix(first.Trace[0], "branch-elimination: ") {
		t.Errorf("the empty scan should be the trace's one line: %v", first.Trace)
	}
	if second := db.MustExec(q); second.CacheHit {
		t.Error("ASCDynamicOnly cached a plan a soft CHECK shaped")
	}

	db = newDB(t, setup)
	db.MustExec(q)
	db.ResetCacheStats()
	db.MustExec("INSERT INTO t VALUES (999, 550)")
	res := db.MustExec(q)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("answer after overturning the CHECK: %v", rowsAsStrings(res.Rows))
	}
	if cs := db.CacheStats(); cs.Failovers != 1 || cs.Invalidations != 0 {
		t.Errorf("overturning the CHECK should fail over to the backup: %+v", cs)
	}
	if len(res.Trace) == 0 || !strings.Contains(res.Trace[0], "backup-plan") {
		t.Errorf("trace should note the reversion: %v", res.Trace)
	}
}

func TestWorkloadRecorder(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (a INT, b INT);
		INSERT INTO t VALUES (1, 2);
	`)
	db.MustExec("SELECT a FROM t WHERE b = 2")
	db.MustExec("SELECT a FROM t WHERE b > 0 AND a < 5")
	wl := db.WorkloadColumnCounts()
	if wl["t"]["b"] != 2 || wl["t"]["a"] != 1 {
		t.Errorf("workload counts: %v", wl)
	}
}

func TestLike(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (name VARCHAR(30));
		INSERT INTO t VALUES ('alice'), ('bob'), ('alicia'), ('malice'), (NULL);
	`)
	cases := []struct {
		q    string
		want int
	}{
		{"SELECT name FROM t WHERE name LIKE 'ali%'", 2},
		{"SELECT name FROM t WHERE name LIKE '%ice'", 2},
		{"SELECT name FROM t WHERE name LIKE '%ali%'", 3},
		{"SELECT name FROM t WHERE name LIKE 'al_ce'", 1},
		{"SELECT name FROM t WHERE name LIKE '%'", 4}, // NULL never matches
		{"SELECT name FROM t WHERE name NOT LIKE '%ali%'", 1},
		{"SELECT name FROM t WHERE name LIKE 'bob'", 1},
		{"SELECT name FROM t WHERE name LIKE ''", 0},
	}
	for _, c := range cases {
		rows, err := db.Query(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if len(rows) != c.want {
			t.Errorf("%s: %d rows, want %d: %v", c.q, len(rows), c.want, rowsAsStrings(rows))
		}
	}
}

func TestCountDistinct(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (g INT, v INT);
		INSERT INTO t VALUES (1, 10), (1, 10), (1, 20), (2, 30), (2, NULL), (2, 30);
	`)
	rows, err := db.Query("SELECT g, COUNT(DISTINCT v) AS d, COUNT(v) AS c FROM t GROUP BY g ORDER BY g")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups: %v", rowsAsStrings(rows))
	}
	if rows[0][1].Int() != 2 || rows[0][2].Int() != 3 {
		t.Errorf("group 1: %v", rows[0])
	}
	if rows[1][1].Int() != 1 || rows[1][2].Int() != 2 {
		t.Errorf("group 2 (NULL excluded): %v", rows[1])
	}
	// Scalar form.
	rows, _ = db.Query("SELECT COUNT(DISTINCT g) FROM t")
	if rows[0][0].Int() != 2 {
		t.Errorf("scalar count distinct: %v", rows[0])
	}
}

func TestASCDynamicOnly(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (a INT, b INT, CONSTRAINT w CHECK (a <= b + 3) SOFT);
		CREATE INDEX ib ON t (b);
	`)
	for i := 0; i < 2000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i))
	}
	db.MustExec("ANALYZE t")
	db.ASCDynamicOnly = true
	q := "SELECT b FROM t WHERE a = 500"
	res := db.MustExec(q)
	usedASC := false
	for _, tr := range res.Trace {
		if strings.Contains(tr, "predicate-introduction") {
			usedASC = true
		}
	}
	if !usedASC {
		t.Fatalf("setup: rewrite should fire; trace %v", res.Trace)
	}
	if db.CachedPlanCount() != 0 {
		t.Error("ASC-shaped plans must not be cached in dynamic-only mode")
	}
	// A plan without soft rewrites still caches.
	db.MustExec("SELECT b FROM t WHERE b = 500")
	if db.CachedPlanCount() != 1 {
		t.Errorf("plain plans should cache: %d", db.CachedPlanCount())
	}
}
