package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/types"
	"softdb/internal/wal"
)

// batchSchema is a table carrying every kind of characterization the
// insert path maintains: a primary key and a unique key (each with its
// index), a self-referencing foreign key, an enforced CHECK, two soft
// CHECKs (one of them ship_window's column-to-column shape), a secondary
// index and an AST; batchDB adds an absolute correlation and join holes.
const batchSchema = `
	CREATE TABLE p (id INT PRIMARY KEY, w INT);
	CREATE TABLE t (
		id INT PRIMARY KEY,
		u INT,
		par INT,
		a INT,
		d DATE,
		e DATE,
		f FLOAT,
		CONSTRAINT t_u UNIQUE (u),
		CONSTRAINT t_par FOREIGN KEY (par) REFERENCES t (id),
		CONSTRAINT a_floor CHECK (a >= -100),
		CONSTRAINT win CHECK (e >= d AND e <= d + 21) SOFT,
		CONSTRAINT f_pos CHECK (f >= 0.0) SOFT
	);
	CREATE INDEX t_a ON t (a);
	CREATE SUMMARY TABLE big_a AS (SELECT * FROM t WHERE a >= 50);
`

// batchPreload is the number of rows t holds before the load under test.
const batchPreload = 40

// batchDB opens a durable database in dir with batchSchema, the preloaded
// rows, the correlation f ≈ 0.5·a + 10 ± 6 and holes over (a, w).
func batchDB(t *testing.T, dir string) *Database {
	t.Helper()
	db, _, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncNone, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range strings.Split(batchSchema, ";") {
		if strings.TrimSpace(stmt) != "" {
			db.MustExec(stmt)
		}
	}
	for i := 0; i < 20; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO p VALUES (%d, %d)", i, i*10))
	}
	for i := 0; i < batchPreload; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, NULL, %d, DATE '2000-01-01' + %d, DATE '2000-01-01' + %d, %d.5)",
			i*5, 1000+i, i, i, i+3, i/2+10))
	}
	cat := db.Catalog()
	if err := cat.AddCorrelation(&catalog.LinearCorrelation{Name: "f_of_a", Table: "t", ColA: "f", ColB: "a",
		K: 0.5, B0: 10, Eps: 6, Confidence: 1, Active: true}); err != nil {
		t.Fatal(err)
	}
	var holes []catalog.Rect
	for lo := int64(-40); lo < 160; lo += 25 {
		holes = append(holes, catalog.Rect{
			A: expr.Between(types.NewInt(lo), types.NewInt(lo+9), true, true),
			B: expr.Between(types.NewInt(0), types.NewInt(500), true, true),
		})
	}
	if err := cat.AddJoinHoles(&catalog.JoinHoles{Name: "th", LeftTable: "t", RightTable: "p",
		JoinLeft: "id", JoinRight: "id", AttrLeft: "a", AttrRight: "w", Holes: holes}); err != nil {
		t.Fatal(err)
	}
	return db
}

// batchRows draws n rows for t, valid for its enforced constraints; with
// soft set, about one in soft violates ship_window, f_pos or the
// correlation (none when soft is 0).
func batchRows(rng *rand.Rand, n, soft int) []types.Row {
	ids := rng.Perm(n)
	us := rng.Perm(n)
	rows := make([]types.Row, n)
	for j := range rows {
		id := int64(10000 + ids[j]*3)
		u := types.NewInt(int64(us[j]))
		if rng.Intn(5) == 0 {
			u = types.Null
		}
		par := types.Null
		switch rng.Intn(6) {
		case 0:
			par = types.NewInt(int64(rng.Intn(batchPreload) * 5))
		case 1:
			if j > 0 {
				par = rows[rng.Intn(j)][0]
			}
		}
		a := int64(rng.Intn(200) - 50)
		d := int64(10957 + rng.Intn(60))
		e := types.NewDate(d + int64(rng.Intn(22)))
		f := types.NewFloat(0.5*float64(a) + 10 + float64(rng.Intn(81)-40)/10)
		if soft > 0 && rng.Intn(soft) == 0 {
			switch rng.Intn(3) {
			case 0:
				e = types.NewDate(d + 30)
			case 1:
				f = types.NewFloat(-1)
			default:
				f = types.NewFloat(0.5*float64(a) + 40)
			}
		}
		if rng.Intn(10) == 0 {
			e = types.Null
		}
		if rng.Intn(10) == 0 {
			f = types.Null
		}
		rows[j] = types.Row{types.NewInt(id), u, par, types.NewInt(a), types.NewDate(d), e, f}
	}
	return rows
}

// valuesText renders row as an INSERT statement's parenthesized VALUES list.
func valuesText(row types.Row) string {
	vals := make([]string, len(row))
	for i, d := range row {
		switch {
		case d.IsNull():
			vals[i] = "NULL"
		case d.Kind() == types.KindDate:
			vals[i] = "DATE '" + d.String() + "'"
		case d.Kind() == types.KindFloat:
			vals[i] = "CAST(" + d.String() + " AS FLOAT)"
		default:
			vals[i] = d.String()
		}
	}
	return "(" + strings.Join(vals, ", ") + ")"
}

// batchCounters are the engine-wide counts the insert path moves.
func batchCounters(db *Database) string {
	m := db.obs.metrics
	return fmt.Sprintf("checks=%d asc=%d corr=%d holes=%d", db.obs.checkEvals.Value(),
		m.Counter(mASCViolations).Value(), m.Counter(mCorrDrops).Value(), m.Counter(mHolesRetired).Value())
}

// batchPhysical renders what renderState leaves out: each heap's zone
// entries, frozen pages, slots per page, and every index's Validate.
func batchPhysical(t *testing.T, db *Database) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range db.Catalog().TableNames() {
		te, _ := db.Catalog().Table(name)
		frozen, _ := te.Heap.FreezeStats()
		fmt.Fprintf(&sb, "%s frozen=%d\n", name, frozen)
		for pi, page := range te.Heap.DumpPages() {
			fmt.Fprintf(&sb, "  page %d slots=%d zone=%+v\n", pi, len(page), *te.Heap.Synopsis(pi))
		}
		for _, ix := range te.Indexes {
			if err := ix.Tree.Validate(); err != nil {
				t.Fatalf("index %s: %v", ix.Name, err)
			}
		}
	}
	return sb.String()
}

// slotShape renders the number of slots on each page of t's heap.
func slotShape(t *testing.T, db *Database) string {
	t.Helper()
	te, err := db.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	var n []int
	for _, page := range te.Heap.DumpPages() {
		n = append(n, len(page))
	}
	return fmt.Sprint(n)
}

// walText renders the log's records past the first skip, without their
// LSNs, transaction ids and transaction boundaries.
func walText(t *testing.T, dir string, skip int) string {
	t.Helper()
	var sb strings.Builder
	n := 0
	if _, err := wal.ScanLog(wal.LogPath(dir), nil, func(r *wal.Record) error {
		if n++; n <= skip {
			return nil
		}
		switch r.Type {
		case wal.TypeBegin, wal.TypeCommit, wal.TypeAbort:
			return nil
		}
		fmt.Fprintf(&sb, "%d %s %v %v %q %x\n", r.Type, r.Table, r.RID, r.Row, r.SQL, r.Blob)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// walLen counts the log's records.
func walLen(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	if _, err := wal.ScanLog(wal.LogPath(dir), nil, func(*wal.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// batchQueries are answered by the reference interpreter on both sides.
var batchQueries = []string{
	"SELECT id, u, par, a, d, e, f FROM t ORDER BY id",
	"SELECT a, COUNT(*) AS n FROM t WHERE e <= d + 21 GROUP BY a ORDER BY a",
	"SELECT id, a FROM big_a ORDER BY id",
	"SELECT COUNT(*) AS n FROM t WHERE f >= 0.5 * a + 4 AND f <= 0.5 * a + 16",
}

// FuzzBatchInsertMatchesRowByRow loads the same rows into two copies of
// batchDB: as one batch (Database.InsertRows, or one multi-row INSERT) and
// as n single-row INSERT statements. Without an enforced violation the two
// must end identical: heap pages, slots, zone entries and frozen pages,
// index entries, the soft registry's active flags and currency counts, the
// check-evaluation and soft-event counters, the notices, the log's records
// and the reference interpreter's answers. With an enforced violation at
// row k — a duplicate primary or unique key, a failing CHECK, a parent that
// arrives later — the batch fails with the error text the row-by-row load
// stops with, and leaves no row of the batch behind; at a failing CHECK it
// leaves as many slots per page as the row-by-row load.
func FuzzBatchInsertMatchesRowByRow(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint8(0))
	f.Add(int64(2), uint8(120), uint8(6), uint8(0))
	f.Add(int64(3), uint8(200), uint8(3), uint8(1))
	f.Add(int64(4), uint8(60), uint8(9), uint8(2))
	f.Add(int64(5), uint8(90), uint8(0), uint8(3))
	f.Add(int64(6), uint8(30), uint8(4), uint8(4))
	f.Add(int64(7), uint8(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n, soft, fault uint8) {
		rng := rand.New(rand.NewSource(seed))
		rows := batchRows(rng, 1+int(n), int(soft))
		k := rng.Intn(len(rows))
		want := ""
		switch fault % 5 {
		case 1: // a primary key an earlier row (or a preloaded one) holds
			if k > 0 {
				rows[k][0] = rows[rng.Intn(k)][0]
			} else {
				rows[k][0] = types.NewInt(5)
			}
			want = "duplicate key"
		case 2: // a unique key an earlier row or the table holds
			rows[k][1] = types.NewInt(1000 + int64(rng.Intn(batchPreload)))
			if k > 0 && rng.Intn(2) == 0 && !rows[k-1][1].IsNull() {
				rows[k][1] = rows[k-1][1]
			}
			want = "duplicate key"
		case 3:
			rows[k][3] = types.NewInt(-500)
			want = "violates check constraint a_floor"
		case 4: // a parent that only a later row brings
			if k == len(rows)-1 {
				rows[k][2] = types.NewInt(7)
			} else {
				rows[k][2] = rows[k+1+rng.Intn(len(rows)-k-1)][0]
			}
			want = "no parent row"
		}
		dirA, dirB := filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")
		dbA, dbB := batchDB(t, dirA), batchDB(t, dirB)
		defer dbA.Close()
		defer dbB.Close()
		skip := walLen(t, dirA)
		before := renderState(dbA)
		te, err := dbA.Catalog().Table("t")
		if err != nil {
			t.Fatal(err)
		}

		// A: the batch.
		var noticesA []string
		var errA error
		if seed%2 == 0 {
			errA = dbA.InsertRows(te, rows)
		} else {
			var text []string
			for _, r := range rows {
				text = append(text, valuesText(r))
			}
			res, err := dbA.Exec("INSERT INTO t VALUES " + strings.Join(text, ", "))
			if errA = err; err == nil {
				noticesA = res.Notices
			}
		}
		// B: a row at a time, stopping where the first row fails.
		var noticesB []string
		var errB error
		for _, r := range rows {
			res, err := dbB.Exec("INSERT INTO t VALUES " + valuesText(r))
			if err != nil {
				errB = err
				break
			}
			noticesB = append(noticesB, res.Notices...)
		}

		if want != "" {
			if errA == nil || errB == nil || errA.Error() != errB.Error() || !strings.Contains(errA.Error(), want) {
				t.Fatalf("row %d of %d: batch error %v, row-by-row error %v, want both %q", k, len(rows), errA, errB, want)
			}
			// The failed batch leaves the table as it found it: its
			// versions aborted, its index entries and soft effects gone.
			after := renderState(dbA)
			if strip := func(s string) string {
				var keep []string
				for _, l := range strings.Split(s, "\n") {
					if !strings.HasPrefix(l, "    [") && !strings.HasPrefix(l, "TABLE t(") {
						keep = append(keep, l)
					}
				}
				return strings.Join(keep, "\n")
			}; strip(after) != strip(before) {
				t.Fatalf("failed batch changed the catalog:\n%s", firstDiff(strip(before), strip(after)))
			}
			if got := dbA.MustExec("SELECT COUNT(*) AS n FROM t").Rows[0][0].Int(); got != batchPreload {
				t.Fatalf("failed batch left %d rows visible, want %d", got, batchPreload)
			}
			// A failing CHECK is found before the batch takes a slot: the
			// batch leaves k aborted slots where the row-by-row load left k
			// rows.
			if a, b := slotShape(t, dbA), slotShape(t, dbB); fault%5 == 3 && a != b {
				t.Fatalf("slots per page: batch %s, row by row %s", a, b)
			}
			return
		}
		if errA != nil || errB != nil {
			t.Fatalf("valid rows: batch error %v, row-by-row error %v", errA, errB)
		}
		if seed%2 != 0 && strings.Join(noticesA, "\n") != strings.Join(noticesB, "\n") {
			t.Fatalf("notices differ:\n batch %q\n rows  %q", noticesA, noticesB)
		}
		for _, c := range []struct {
			what string
			a, b string
		}{
			{"counters", batchCounters(dbA), batchCounters(dbB)},
			{"catalog", renderState(dbA), renderState(dbB)},
			{"log", walText(t, dirA, skip), walText(t, dirB, skip)},
		} {
			if c.a != c.b {
				t.Fatalf("%s differ (batch, then row by row):\n%s", c.what, firstDiff(c.b, c.a))
			}
		}
		dbA.NoBatch, dbB.NoBatch = true, true
		for _, q := range batchQueries {
			ra, rb := dbA.MustExec(q), dbB.MustExec(q)
			if a, b := fmt.Sprint(ra.Rows), fmt.Sprint(rb.Rows); a != b {
				t.Fatalf("%s: batch %s, row by row %s", q, a, b)
			}
		}
		// The page scans above froze what they could; the pages must
		// freeze alike.
		if a, b := batchPhysical(t, dbA), batchPhysical(t, dbB); a != b {
			t.Fatalf("pages differ (row by row, then batch):\n%s", firstDiff(b, a))
		}
	})
}

// TestBatchInsertSoftViolationFailsOver: a batch with one row that breaks
// an ASC deactivates it before InsertRows returns, and the cached plan the
// ASC shaped fails over to its backup, which finds the row.
func TestBatchInsertSoftViolationFailsOver(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE purchase (
			id INT PRIMARY KEY,
			order_date DATE NOT NULL,
			ship_date DATE,
			CONSTRAINT win CHECK (ship_date >= order_date AND ship_date <= order_date + 21) SOFT
		);
		CREATE INDEX io ON purchase (order_date);
	`)
	te, _ := db.Catalog().Table("purchase")
	base := int64(10592) // 1999-01-01
	var rows []types.Row
	for i := int64(0); i < 3000; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewDate(base + i/2), types.NewDate(base + i/2 + i%20)})
	}
	if err := db.InsertRows(te, rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("ANALYZE purchase")
	q := "SELECT id FROM purchase WHERE ship_date = DATE '1999-06-01'"
	if first := db.MustExec(q); !strings.Contains(first.Plan, "IndexScan") {
		t.Fatalf("primary plan should use the ASC:\n%s", first.Plan)
	}
	db.ResetCacheStats()
	june1 := base + 151
	batch := []types.Row{
		{types.NewInt(5000), types.NewDate(base + 10), types.NewDate(base + 12)},
		{types.NewInt(5001), types.NewDate(base - 365), types.NewDate(june1)},
		{types.NewInt(5002), types.NewDate(base + 11), types.NewDate(base + 13)},
	}
	if err := db.InsertRows(te, batch); err != nil {
		t.Fatal(err)
	}
	if con := db.Catalog().ConstraintByName("win"); con == nil || con.Active {
		t.Fatalf("ASC still active after the violating batch: %+v", con)
	}
	res := db.MustExec(q)
	if cs := db.CacheStats(); cs.Failovers != 1 || cs.Misses != 0 {
		t.Fatalf("want one failover and no recompile: %+v", cs)
	}
	found := false
	for _, r := range res.Rows {
		found = found || r[0].Int() == 5001
	}
	if !found {
		t.Fatalf("the violating row is missing from the backup plan's answer:\n%s", res.Plan)
	}
}

// TestFailedInsertTakesNoSlots: a row that fails a check it fails on its
// own — a CHECK, a parent missing from another table — takes no heap slot,
// and neither do the rows after it, so a failed single-row INSERT leaves
// the heap's pages and slots as it found them and a multi-row INSERT that
// fails at row k leaves k aborted slots. A duplicate key is found on the
// index leaf the row's entry goes to, so the row, and the rows of its batch
// before the first row failing a check of its own, keep their aborted
// slots.
func TestFailedInsertTakesNoSlots(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE p (id INT PRIMARY KEY);
		CREATE TABLE c (
			id INT PRIMARY KEY,
			pid INT,
			a INT,
			CONSTRAINT c_p FOREIGN KEY (pid) REFERENCES p (id),
			CONSTRAINT a_pos CHECK (a >= 0)
		);
		INSERT INTO p VALUES (1), (2);
	`)
	te, _ := db.Catalog().Table("c")
	per := int64(te.Heap.RowsPerPage())
	for i := int64(0); i < per+per/2; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO c VALUES (%d, 1, %d)", i, i))
	}
	slots := func() (n int64) {
		for _, page := range te.Heap.DumpPages() {
			n += int64(len(page))
		}
		return n
	}
	want := slots()
	for _, c := range []struct {
		stmt, err string
		taken     int64
	}{
		{"INSERT INTO c VALUES (9000, 1, -1)", "violates check constraint a_pos", 0},
		{"INSERT INTO c VALUES (9000, 7, 1)", "no parent row", 0},
		{"INSERT INTO c VALUES (9000, 1, 1), (9001, 2, 1), (9002, 1, 1), (9003, 1, -1), (9004, 1, 1)", "violates check constraint a_pos", 3},
		{"INSERT INTO c VALUES (9000, 1, 1), (9001, 2, 1), (9002, 9, 1), (9003, 1, -1)", "no parent row", 2},
		{"INSERT INTO c VALUES (5, 1, 1)", "duplicate key", 1},
		{"INSERT INTO c VALUES (9000, 1, 1), (5, 1, 1), (9002, 1, 1), (9003, 1, -1)", "duplicate key", 3},
	} {
		if _, err := db.Exec(c.stmt); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Fatalf("%s: error %v, want %q", c.stmt, err, c.err)
		}
		want += c.taken
		if got := slots(); got != want {
			t.Fatalf("%s: heap holds %d slots, want %d", c.stmt, got, want)
		}
		if got, wantPages := te.Heap.PageCount(), (want+per-1)/per; got != wantPages {
			t.Fatalf("%s: heap holds %d pages, want %d", c.stmt, got, wantPages)
		}
	}
	if got := db.MustExec("SELECT COUNT(*) AS n FROM c").Rows[0][0].Int(); got != per+per/2 {
		t.Fatalf("%d rows visible, want %d", got, per+per/2)
	}
}
