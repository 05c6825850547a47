package engine

import (
	"errors"
	"math"
	"strings"
	"testing"

	"softdb/internal/types"
)

// Every keyed operator equates values by their exact value, the equality
// Datum.Compare and the B+tree use: 2^53 and 2^53+1 are two keys although
// they share a float image, and 0 and -0 are one.

// bigKeysDB holds d(id INT PRIMARY KEY, name) and g(k INT, name) with the
// keys 2^53 and 2^53+1, both under the name 'x'.
func bigKeysDB(t *testing.T) *Database {
	t.Helper()
	db := Open()
	db.MustExec("CREATE TABLE d (id INT PRIMARY KEY, name VARCHAR(8))")
	db.MustExec("CREATE TABLE g (k INT, name VARCHAR(8))")
	for _, tbl := range []string{"d", "g"} {
		db.MustExec("INSERT INTO " + tbl + " VALUES (9007199254740992, 'x'), (9007199254740993, 'x')")
	}
	return db
}

// keyedAnswer runs q and requires the reference interpreter's answer and
// the given row count.
func keyedAnswer(t *testing.T, db *Database, q string, rows int) *Result {
	t.Helper()
	got, err := db.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if d := refDiff(q, got, refAnswer(t, db, nil, q)); d != "" {
		t.Fatal(d)
	}
	if len(got.Rows) != rows {
		t.Fatalf("%s: %d rows %v, want %d", q, len(got.Rows), got.Rows, rows)
	}
	return got
}

func TestDistinctPast2p53(t *testing.T) {
	db := bigKeysDB(t)
	keyedAnswer(t, db, "SELECT DISTINCT id FROM d", 2)
	keyedAnswer(t, db, "SELECT DISTINCT k, name FROM g", 2)
	for _, q := range []string{"SELECT COUNT(DISTINCT id) AS n FROM d", "SELECT name, COUNT(DISTINCT k) AS n FROM g GROUP BY name"} {
		res := keyedAnswer(t, db, q, 1)
		if n := res.Rows[0][len(res.Rows[0])-1]; n.Int() != 2 {
			t.Fatalf("%s = %s, want 2", q, n)
		}
	}
}

// TestGroupByPast2p53 covers the int keyer (GROUP BY k), the generic keyer
// (GROUP BY k, name) and the FD-reduced key (GROUP BY id, name: the declared
// key determines name).
func TestGroupByPast2p53(t *testing.T) {
	db := bigKeysDB(t)
	for _, q := range []string{
		"SELECT k, COUNT(*) AS n FROM g GROUP BY k",
		"SELECT k, name, COUNT(*) AS n FROM g GROUP BY k, name",
		"SELECT id, name, COUNT(*) AS n FROM d GROUP BY id, name",
	} {
		res := keyedAnswer(t, db, q, 2)
		for _, r := range res.Rows {
			if n := r[len(r)-1]; n.Int() != 1 {
				t.Fatalf("%s: group %v counts %s, want 1", q, r, n)
			}
		}
	}
	if res := db.MustExec("EXPLAIN SELECT id, name, COUNT(*) AS n FROM d GROUP BY id, name"); !strings.Contains(res.Plan, "[redundant]") {
		t.Fatalf("GROUP BY id, name is not FD-reduced:\n%s", res.Plan)
	}
}

func TestUniqueAcceptsDistinctKeysPast2p53(t *testing.T) {
	db := bigKeysDB(t)
	if _, err := db.Exec("ALTER TABLE g ADD CONSTRAINT g_k UNIQUE (k)"); err != nil {
		t.Fatalf("2^53 and 2^53+1 rejected as duplicates: %v", err)
	}
	db.MustExec("INSERT INTO g VALUES (0, 'y')")
	if _, err := db.Exec("ALTER TABLE g ADD CONSTRAINT g_name UNIQUE (name)"); err == nil {
		t.Fatal("a duplicated name passed a UNIQUE check")
	}
}

func TestForeignKeyRejectsOrphanPast2p53(t *testing.T) {
	db := Open()
	db.MustExec("CREATE TABLE parent (id INT PRIMARY KEY)")
	db.MustExec("CREATE TABLE child (pid INT)")
	db.MustExec("INSERT INTO parent VALUES (9007199254740992)")
	db.MustExec("INSERT INTO child VALUES (9007199254740993)")
	if _, err := db.Exec("ALTER TABLE child ADD CONSTRAINT fk FOREIGN KEY (pid) REFERENCES parent (id)"); err == nil {
		t.Fatal("the orphan 2^53+1 passed against parent 2^53")
	}
	db.MustExec("DELETE FROM child")
	db.MustExec("INSERT INTO child VALUES (9007199254740992)")
	db.MustExec("ALTER TABLE child ADD CONSTRAINT fk FOREIGN KEY (pid) REFERENCES parent (id)")
}

// A FLOAT column against an INT one compares in FLOAT, as Compare does: the
// child's 2^53+1 equals the parent's 2^53.0 there, in a join and in an FK.
func TestFloatAgainstIntKeysCompareInFloat(t *testing.T) {
	db := Open()
	db.MustExec("CREATE TABLE fp (id FLOAT)")
	db.MustExec("CREATE TABLE ic (pid INT)")
	db.MustExec("INSERT INTO fp VALUES (9007199254740992.0)")
	db.MustExec("INSERT INTO ic VALUES (9007199254740993)")
	keyedAnswer(t, db, "SELECT pid, id FROM ic JOIN fp ON pid = id", 1)
	db.MustExec("ALTER TABLE ic ADD CONSTRAINT fk FOREIGN KEY (pid) REFERENCES fp (id)")
}

func TestNegativeZeroKeysAsZero(t *testing.T) {
	db := Open()
	db.MustExec("CREATE TABLE z (f FLOAT, k INT)")
	te, _ := db.Catalog().Table("z")
	for i, f := range []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)} {
		if err := db.InsertRows(te, []types.Row{{types.NewFloat(f), types.NewInt(int64(i % 2))}}); err != nil {
			t.Fatal(err)
		}
	}
	keyedAnswer(t, db, "SELECT DISTINCT f FROM z", 1)
	keyedAnswer(t, db, "SELECT COUNT(DISTINCT f) AS n FROM z", 1)
	if res := keyedAnswer(t, db, "SELECT f, COUNT(*) AS n FROM z GROUP BY f", 1); res.Rows[0][1].Int() != 4 {
		t.Fatalf("GROUP BY f: %v, want one group of 4", res.Rows)
	}
	keyedAnswer(t, db, "SELECT f, k, COUNT(*) AS n FROM z GROUP BY f, k", 2)
}

// TestNaNNeverStored: a float result that would be NaN is a query error at
// its source — string coercion, arithmetic, SUM and AVG — so FLOAT order is
// total, and an equality or range answers the same through an index as
// without one. ±Inf stays a value.
func TestNaNNeverStored(t *testing.T) {
	open := func(index bool) *Database {
		db := Open()
		db.MustExec("CREATE TABLE n (id INT PRIMARY KEY, x FLOAT)")
		if index {
			db.MustExec("CREATE INDEX n_x ON n (x)")
		}
		db.MustExec("INSERT INTO n VALUES (1, 5.0), (2, 3.5), (3, '+Inf'), (4, '-Inf'), (5, 12.0)")
		if _, err := db.Exec("INSERT INTO n VALUES (6, 'NaN')"); err == nil {
			t.Fatal("the string 'NaN' coerced to FLOAT")
		}
		for _, q := range []string{
			"UPDATE n SET x = x - x WHERE id = 3",
			"UPDATE n SET x = x * 0 WHERE id = 4",
			"SELECT x / x AS y FROM n WHERE id = 3",
		} {
			if _, err := db.Exec(q); !errors.Is(err, types.ErrNaN) {
				t.Fatalf("%s: %v, want ErrNaN", q, err)
			}
		}
		return db
	}
	plain, indexed := open(false), open(true)
	for _, q := range []string{
		"SELECT id FROM n WHERE x = 5.0",
		"SELECT id FROM n WHERE x >= 0 AND x <= 9",
		"SELECT id FROM n WHERE x > 100",
		"SELECT COUNT(*) AS c FROM n",
	} {
		a, b := plain.MustExec(q), indexed.MustExec(q)
		if d := refDiff(q, a, b); d != "" {
			t.Fatalf("no index vs index: %s", d)
		}
		if d := refDiff(q, b, refAnswer(t, indexed, nil, q)); d != "" {
			t.Fatal(d)
		}
	}
	if res := plain.MustExec("SELECT COUNT(*) AS c FROM n"); res.Rows[0][0].Int() != 5 {
		t.Fatalf("rows: %v, want 5", res.Rows)
	}
	for _, q := range []string{"SELECT SUM(x) AS s FROM n", "SELECT AVG(x) AS a FROM n"} {
		if _, err := plain.Exec(q); !errors.Is(err, types.ErrNaN) {
			t.Fatalf("%s (+Inf and -Inf summed): %v, want ErrNaN", q, err)
		}
	}
	if res := plain.MustExec("SELECT MAX(x) AS m FROM n"); !math.IsInf(res.Rows[0][0].Float(), 1) {
		t.Fatalf("MAX(x) = %v, want +Inf", res.Rows)
	}
}
