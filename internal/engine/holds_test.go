package engine

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"softdb/internal/types"
	"softdb/internal/wal"
)

// Regression tests for "row r satisfies characterization c" meaning one
// thing everywhere (DESIGN.md §25): the miner, the write hook, recovery,
// declaration and the rewriter's derived bounds all agree.

// loadMinedFloat fills t (id, a, b) with 200 two-decimal FLOAT rows,
// a ≈ k·b + 5…9 for a seeded two-decimal slope k, then mines the table and
// installs every correlation softc selects. With index set, a carries an
// index, so a bound derived for a from a filter on b becomes a real
// predicate of the plan.
func loadMinedFloat(t *testing.T, db *Database, seed int64, index bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := 1 + float64(rng.Intn(200))/100
	db.MustExec("CREATE TABLE t (id INT PRIMARY KEY, a FLOAT, b FLOAT)")
	if index {
		db.MustExec("CREATE INDEX t_a ON t (a)")
	}
	te, _ := db.Catalog().Table("t")
	for i := 0; i < 200; i++ {
		b := float64(i*50+rng.Intn(50)) / 100
		a := math.Round((k*b+5+4*rng.Float64())*100) / 100
		if err := db.InsertRow(te, types.Row{types.NewInt(int64(i)), types.NewFloat(a), types.NewFloat(b)}); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExec("ANALYZE t")
	mgr := db.SoftcManager()
	cands, err := mgr.DiscoverTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.InstallCorrelations(mgr.SelectCorrelations(cands.Correlations, 0)); err != nil {
		t.Fatal(err)
	}
}

// The row that defines a mined envelope must survive the bound derived
// from it. These seeds mined an ε under which that row fell one rounding
// step outside the a-range derived for WHERE b = v, so the introduced
// predicate dropped it from the answer.
func TestMinedFloatEnvelopeKeepsEdgeRows(t *testing.T) {
	for _, seed := range []int64{487, 489, 492, 494} {
		db := Open()
		loadMinedFloat(t, db, seed, true)
		active := 0
		for _, lc := range db.Catalog().AllCorrelations() {
			if lc.Active && lc.IsAbsolute() {
				active++
			}
		}
		if active == 0 {
			t.Fatalf("seed %d: no absolute correlation installed", seed)
		}
		te, _ := db.Catalog().Table("t")
		for _, row := range te.Heap.ScanAll() {
			q := "SELECT id FROM t WHERE b = " + strconv.FormatFloat(row[2].Float(), 'g', -1, 64)
			res := db.MustExec(q)
			found := false
			for _, r := range res.Rows {
				found = found || r[0].Int() == row[0].Int()
			}
			if !found {
				t.Fatalf("seed %d: %s lost row %v\n%s", seed, q, row, res.Plan)
			}
		}
	}
}

// Recovery re-proves every absolute characterization with the same row
// test the miner and the write path use, so a crash copy of a freshly
// mined FLOAT table recovers with every correlation still active.
func TestMinedFloatEnvelopeSurvivesRecovery(t *testing.T) {
	for _, seed := range []int64{0, 1, 2} {
		dir := t.TempDir()
		db, _, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncNone, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		loadMinedFloat(t, db, seed, false)
		want := renderState(db)
		cp := copyDataDir(t, dir)
		_ = db.Close()
		rec, rs, err := OpenDurable(cp, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := renderState(rec)
		_ = rec.Close()
		if got != want {
			t.Fatalf("seed %d: recovery changed the catalog (%d of %d re-proved characterizations invalidated)\n%s",
				seed, rs.Invalidated, rs.Revalidated, firstDiff(want, got))
		}
	}
}

// A NULL satisfies a CHECK (SQL semantics), whether the row was there
// before the constraint was declared or arrives after.
func TestCheckDeclaredOverNullRow(t *testing.T) {
	for _, mode := range []string{"", " SOFT"} {
		db := newDB(t, "CREATE TABLE t (id INT, x INT)")
		db.MustExec("INSERT INTO t VALUES (1, NULL)")
		db.MustExec("INSERT INTO t VALUES (2, 5)")
		if _, err := db.Exec("ALTER TABLE t ADD CONSTRAINT x_pos CHECK (x > 0)" + mode); err != nil {
			t.Fatalf("mode %q: declaring over a NULL row: %v", mode, err)
		}
		db.MustExec("INSERT INTO t VALUES (3, NULL)")
		con := db.Catalog().ConstraintByName("x_pos")
		if con == nil || !con.Active {
			t.Fatalf("mode %q: constraint missing or inactive: %+v", mode, con)
		}
		if _, err := db.Exec("INSERT INTO t VALUES (4, -1)"); (err == nil) != (mode != "") {
			t.Errorf("mode %q: violating insert returned %v", mode, err)
		}
	}
}

// An AST answers from the reader's snapshot, like the base table: a row
// committed after BEGIN stays out of the routed count inside the
// transaction.
func TestASTCountInsideTransactionMatchesUnrouted(t *testing.T) {
	db := astFixture(t, false)
	const q = "SELECT COUNT(*) AS n FROM purchase WHERE amount >= 90 AND region = 3"
	sess := db.NewSession("reader")
	defer sess.Close()
	sexec(t, sess, "BEGIN")
	before := sexec(t, sess, q)
	if !strings.Contains(before.Plan, "premium") {
		t.Fatalf("count is not routed through the AST:\n%s", before.Plan)
	}
	db.MustExec("INSERT INTO purchase VALUES (99999, 3, 95)")
	routed := sexec(t, sess, q)
	db.RewriteOpts.NoASTRouting = true
	unrouted := sexec(t, sess, q)
	db.RewriteOpts.NoASTRouting = false
	if r, u := routed.Rows[0][0].Int(), unrouted.Rows[0][0].Int(); r != u || r != before.Rows[0][0].Int() {
		t.Errorf("inside the transaction: routed count %d, unrouted %d, at BEGIN %d", r, u, before.Rows[0][0].Int())
	}
	sexec(t, sess, "COMMIT")
	if after := sexec(t, sess, q); after.Rows[0][0].Int() != before.Rows[0][0].Int()+1 {
		t.Errorf("after COMMIT the routed count is %d, want %d", after.Rows[0][0].Int(), before.Rows[0][0].Int()+1)
	}
	if n := db.Vacuum(); n != 0 {
		t.Errorf("vacuum reclaimed %d versions with nothing deleted", n)
	}
	db.MustExec("DELETE FROM purchase WHERE id = 99999")
	if n := db.Vacuum(); n != 2 {
		t.Errorf("vacuum reclaimed %d versions, want the base row and its AST copy", n)
	}

	// Own write: the AST holds only committed rows, so the transaction's
	// own insert must be counted all the same.
	sexec(t, sess, "BEGIN")
	base := sexec(t, sess, q).Rows[0][0].Int()
	sexec(t, sess, "INSERT INTO purchase VALUES (99998, 3, 95)")
	own := sexec(t, sess, q)
	db.RewriteOpts.NoASTRouting = true
	ownUnrouted := sexec(t, sess, q)
	db.RewriteOpts.NoASTRouting = false
	if o, u := own.Rows[0][0].Int(), ownUnrouted.Rows[0][0].Int(); o != u || o != base+1 {
		t.Errorf("after an own insert: count %d, unrouted %d, want %d\n%s", o, u, base+1, own.Plan)
	}
	sexec(t, sess, "ROLLBACK")
}

// softPosTable creates t(id, a) holding 500 rows with a >= 0, plus extra.
func softPosTable(t *testing.T, constraint string, extra string) *Database {
	t.Helper()
	db := Open()
	db.MustExec("CREATE TABLE t (id INT PRIMARY KEY, a INT" + constraint + ")")
	var vals []string
	for i := 0; i < 500; i++ {
		vals = append(vals, "("+strconv.Itoa(i)+", "+strconv.Itoa(i%50)+")")
	}
	if extra != "" {
		vals = append(vals, extra)
	}
	db.MustExec("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	db.MustExec("ANALYZE t")
	return db
}

// TestSoftCheckDoesNotHideOwnWrite: a soft CHECK holds for committed rows
// only, so inside a transaction that wrote a violating row a SELECT must
// not be planned as contradicting it — whether or not a plan for the text
// is already cached — and the plan it gets instead is not cached for others.
func TestSoftCheckDoesNotHideOwnWrite(t *testing.T) {
	db := softPosTable(t, ", CONSTRAINT pos CHECK (a >= 0) SOFT", "")
	const q = "SELECT COUNT(*) AS n FROM t WHERE a < 0"
	sess := db.NewSession("writer")
	defer sess.Close()
	other := db.NewSession("other")
	defer other.Close()
	if n := sexec(t, other, q).Rows[0][0].Int(); n != 0 {
		t.Fatalf("committed count %d, want 0", n)
	}
	sexec(t, sess, "BEGIN")
	sexec(t, sess, "INSERT INTO t VALUES (9999, -5)")
	if res := sexec(t, sess, q); res.Rows[0][0].Int() != 1 {
		t.Errorf("own violating insert: count %d, want 1\n%s", res.Rows[0][0].Int(), res.Plan)
	}
	if res := sexec(t, other, q); res.Rows[0][0].Int() != 0 || !strings.Contains(res.Plan, "Empty") {
		t.Errorf("another session: count %d, want 0 through the cached contradiction plan\n%s", res.Rows[0][0].Int(), res.Plan)
	}
	sexec(t, sess, "COMMIT")
	if n := sexec(t, sess, q).Rows[0][0].Int(); n != 1 {
		t.Errorf("after COMMIT: count %d, want 1", n)
	}
}

// TestSoftCheckAddedAfterSnapshot: a soft CHECK declared after a
// transaction's snapshot was verified against later data than the
// snapshot holds, so it must not shape that transaction's plans.
func TestSoftCheckAddedAfterSnapshot(t *testing.T) {
	db := softPosTable(t, "", "(9999, -5)")
	const q = "SELECT COUNT(*) AS n FROM t WHERE a < 0"
	sess := db.NewSession("reader")
	defer sess.Close()
	sexec(t, sess, "BEGIN")
	if n := sexec(t, sess, q).Rows[0][0].Int(); n != 1 {
		t.Fatalf("at BEGIN: count %d, want 1", n)
	}
	db.MustExec("DELETE FROM t WHERE id = 9999")
	db.MustExec("ALTER TABLE t ADD CONSTRAINT pos CHECK (a >= 0) SOFT")
	if res := sexec(t, sess, q); res.Rows[0][0].Int() != 1 {
		t.Errorf("same snapshot after the CHECK: count %d, want 1\n%s", res.Rows[0][0].Int(), res.Plan)
	}
	sexec(t, sess, "COMMIT")
	if res := sexec(t, sess, q); res.Rows[0][0].Int() != 0 || !strings.Contains(res.Plan, "Empty") {
		t.Errorf("after COMMIT: count %d, want 0 through the contradiction plan\n%s", res.Rows[0][0].Int(), res.Plan)
	}
}
