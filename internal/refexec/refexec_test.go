package refexec_test

import (
	"context"
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"softdb/internal/engine"
	"softdb/internal/plan"
	"softdb/internal/refexec"
	"softdb/internal/storage"
	"softdb/internal/types"
)

// TestImportsStayIndependent: the reference shares no code with what it
// checks — no file of the package imports the engine's executor, optimizer,
// rewriter, batches, indexes or statistics.
func TestImportsStayIndependent(t *testing.T) {
	forbidden := map[string]bool{}
	for _, p := range []string{"exec", "opt", "rewrite", "vec", "btree", "stats"} {
		forbidden["softdb/internal/"+p] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	parsed := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, imp := range f.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); forbidden[path] {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
	if parsed == 0 {
		t.Fatal("no package file parsed")
	}
}

// fixture loads t (a unique and indexed, b with NULLs, a summary table and a
// view over it), u (join keys with NULLs) and v (links t and u).
func fixture(t *testing.T) *engine.Database {
	t.Helper()
	db := engine.Open()
	db.MustExec("CREATE TABLE t (a INT NOT NULL, b INT, s STRING, f FLOAT)")
	db.MustExec("CREATE TABLE u (k INT, w INT)")
	db.MustExec("CREATE TABLE v (x INT, y INT)")
	for i := 0; i < 200; i++ {
		b := fmt.Sprint(i % 17)
		if i%9 == 0 {
			b = "NULL"
		}
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %s, 's%d', %g)", i, b, i%5, float64(i)/4))
	}
	for i := 0; i < 60; i++ {
		k := fmt.Sprint(i % 20)
		if i%7 == 0 {
			k = "NULL"
		}
		db.MustExec(fmt.Sprintf("INSERT INTO u VALUES (%s, %d)", k, i%3))
		db.MustExec(fmt.Sprintf("INSERT INTO v VALUES (%d, %d)", i*3, i%20))
	}
	db.MustExec("CREATE INDEX t_a ON t (a)")
	db.MustExec("CREATE SUMMARY TABLE tsum AS (SELECT * FROM t WHERE a >= 150)")
	db.MustExec("CREATE VIEW big AS SELECT a, b FROM t WHERE b > 10")
	for _, tbl := range []string{"t", "u", "v"} {
		db.MustExec("ANALYZE " + tbl)
	}
	return db
}

// TestAgainstEngine runs one query per logical node kind on the engine and
// through the reference (Database.NoBatch): the reference must evaluate the
// logical plan — its plan text names the node — and give the engine's
// answer.
func TestAgainstEngine(t *testing.T) {
	db := fixture(t)
	cases := []struct {
		name, q, node string
		empty         bool
	}{
		{"summary scan", "SELECT a, b FROM tsum WHERE b < 5", "ScanSummary tsum", false},
		{"view", "SELECT a, b FROM big WHERE a < 120", "Derived AS big", false},
		{"cross join", "SELECT t.a, u.w FROM t, u WHERE t.a < 4 AND u.w < 2", "JoinGroup [2 tables]\n", false},
		{"NULL keys", "SELECT t.a, t.b, u.w FROM t, u WHERE t.b = u.k", "JoinGroup [2 tables] on", false},
		{"join order", "SELECT COUNT(*) AS n, SUM(t.f) AS s FROM t, u, v WHERE t.a = v.x AND u.k = v.y", "JoinGroup [3 tables] on", false},
		{"COUNT DISTINCT", "SELECT s, COUNT(DISTINCT b) AS d, AVG(f) AS m FROM t GROUP BY s", "COUNT(DISTINCT", false},
		{"HAVING", "SELECT b, COUNT(*) AS n, SUM(f) AS sf FROM t GROUP BY b HAVING n > 11", "Filter", false},
		{"hidden sort column", "SELECT s, b FROM t WHERE a < 40 ORDER BY a DESC", "Sort by a DESC", false},
		{"UNION ALL", "SELECT a FROM t WHERE a < 5 UNION ALL (SELECT k FROM u WHERE k < 5)", "UnionAll [2 arms]", false},
		{"Empty", "SELECT COUNT(*) AS n, MIN(b) AS lo FROM t WHERE a > 10 AND a < 5", "Aggregate scalar", false},
		{"Empty rows", "SELECT a FROM t WHERE a > 10 AND a < 5", "Scan t", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := db.MustExec(c.q)
			db.NoBatch = true
			ref := db.MustExec(c.q)
			db.NoBatch = false
			if strings.Contains(ref.Plan, "SeqScan") || !strings.Contains(ref.Plan+"\n", c.node) {
				t.Fatalf("reference plan lacks %q:\n%s", c.node, ref.Plan)
			}
			if g, w := strings.Join(got.Columns, ","), strings.Join(ref.Columns, ","); g != w {
				t.Fatalf("headers %s, reference %s", g, w)
			}
			if d := refexec.Diff(got.Rows, ref.Rows, strings.Contains(c.q, "ORDER BY")); d != "" {
				t.Fatalf("%s\nengine plan:\n%s", d, got.Plan)
			}
			if (len(ref.Rows) == 0) != c.empty {
				t.Fatalf("%d rows", len(ref.Rows))
			}
		})
	}
	// The engine's rewrite proves the contradictory range empty; the
	// reference evaluates it, and a bare Empty node yields nothing.
	if plan := db.MustExec("SELECT a FROM t WHERE a > 10 AND a < 5").Plan; !strings.Contains(plan, "Empty") {
		t.Errorf("engine plan is not Empty:\n%s", plan)
	}
	rows, err := refexec.Run(context.Background(), &plan.Empty{Schema: []plan.ColumnInfo{{Name: "a", Kind: types.KindInt}}}, storage.SnapLatest, 0)
	if err != nil || len(rows) != 0 {
		t.Errorf("Empty: %v, %v", rows, err)
	}
}

// TestSnapshotAndOwnWrites: the reference reads at the statement's
// snapshot — a transaction sees its own uncommitted writes and not a later
// commit of another session's.
func TestSnapshotAndOwnWrites(t *testing.T) {
	db := fixture(t)
	db.NoBatch = true
	ctx := context.Background()
	reader, writer := db.NewSession("reader"), db.NewSession("writer")
	defer reader.Close()
	defer writer.Close()
	count := func(s *engine.Session) int64 {
		t.Helper()
		res, err := s.ExecCtx(ctx, "SELECT COUNT(*) AS n FROM t WHERE a >= 100")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Int()
	}
	if _, err := reader.ExecCtx(ctx, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if n := count(reader); n != 100 {
		t.Fatalf("reader counts %d", n)
	}
	for _, q := range []string{"BEGIN", "DELETE FROM t WHERE a >= 190", "INSERT INTO t VALUES (500, 1, 'x', 0.5)"} {
		if _, err := writer.ExecCtx(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if n := count(writer); n != 91 {
		t.Fatalf("writer sees %d rows of its own view, want 91", n)
	}
	if _, err := writer.ExecCtx(ctx, "COMMIT"); err != nil {
		t.Fatal(err)
	}
	if n := count(reader); n != 100 {
		t.Fatalf("pinned reader sees %d rows after another commit, want 100", n)
	}
	if n := db.MustExec("SELECT COUNT(*) AS n FROM t WHERE a >= 100").Rows[0][0].Int(); n != 91 {
		t.Fatalf("a fresh statement sees %d rows, want 91", n)
	}
}

// TestDiff: floats agree at four decimals, order matters only when asked.
func TestDiff(t *testing.T) {
	row := func(ds ...types.Datum) types.Row { return types.Row(ds) }
	a := []types.Row{row(types.NewInt(1), types.NewFloat(0.1+0.2)), row(types.NewInt(2), types.Null)}
	b := []types.Row{row(types.NewInt(2), types.Null), row(types.NewInt(1), types.NewFloat(0.3))}
	if d := refexec.Diff(a, b, false); d != "" {
		t.Errorf("unordered: %s", d)
	}
	if d := refexec.Diff(a, b, true); d == "" {
		t.Error("ordered comparison ignored the order")
	}
	if d := refexec.Diff(a[:1], b, false); d == "" {
		t.Error("row counts differ")
	}
}
