package engine

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"softdb/internal/catalog"
	"softdb/internal/exec"
	"softdb/internal/refexec"
	"softdb/internal/sql"
	"softdb/internal/types"
)

// exprSeeds are expressions chosen to poke every Datum accessor from
// evaluation: mixed-kind arithmetic, logic over non-booleans, LIKE on
// numbers, aggregates over strings, NULL propagation corners.
var exprSeeds = []string{
	"i + 1",
	"s + 1",
	"s * 2.5",
	"-s",
	"-d",
	"i AND b",
	"s OR b",
	"NOT i",
	"NOT s",
	"i LIKE 'x%'",
	"s LIKE '_b%'",
	"d LIKE s",
	"i BETWEEN s AND d",
	"s BETWEEN 1 AND 10",
	"i IN (1, 'x', NULL)",
	"s IN (i, f)",
	"i = s",
	"f < s",
	"d >= b",
	"b = 1",
	"s IS NULL",
	"i / 0",
	"f / 0.0",
	"i + f * 2 - d",
	"(i > 1) + 1",
	"COUNT(*)",
	"COUNT(DISTINCT s)",
	"SUM(s)",
	"SUM(b)",
	"AVG(d)",
	"AVG(s)",
	"MIN(s)",
	"MAX(b)",
	"SUM(i + s)",
}

// fuzzEvalDB builds the shared target table: one column per datum kind,
// with rows that include NULLs in every column.
func fuzzEvalDB(tb testing.TB) *Database {
	tb.Helper()
	db := Open()
	for _, stmt := range []string{
		"CREATE TABLE fz (i INT, f FLOAT, s VARCHAR(20), d DATE, b BOOLEAN)",
		"INSERT INTO fz VALUES (1, 1.5, 'abc', DATE '2000-01-02', TRUE)",
		"INSERT INTO fz VALUES (-7, 0.0, '', DATE '1999-12-31', FALSE)",
		"INSERT INTO fz VALUES (NULL, NULL, NULL, NULL, NULL)",
		"INSERT INTO fz VALUES (42, -2.25, 'x_y%z', DATE '2010-06-15', TRUE)",
	} {
		if _, err := db.Exec(stmt); err != nil {
			tb.Fatalf("seed %q: %v", stmt, err)
		}
	}
	return db
}

// evalExpr runs the expression in both projection and predicate position.
// The property: evaluation may reject the expression with a type error,
// but must never panic — neither an unrecovered panic (the fuzz engine
// catches those) nor a recovered one surfacing as a KindPanic QueryError.
func evalExpr(t *testing.T, db *Database, e string) {
	for _, query := range []string{
		"SELECT " + e + " FROM fz",
		"SELECT i FROM fz WHERE " + e,
	} {
		stmt, err := sql.Parse(query)
		if err != nil {
			continue // not well-typed-per-parser; out of scope
		}
		if _, err := db.ExecStmtCtx(context.Background(), stmt, ""); err != nil {
			if qe, ok := exec.AsQueryError(err); ok && qe.Kind == exec.KindPanic {
				t.Fatalf("expression %q reached a panic instead of a type error:\n%v\n%s",
					e, qe, qe.Stack)
			}
		}
	}
}

// FuzzExprEval evaluates arbitrary parser-accepted expressions against a
// table covering every datum kind, asserting user input can never drive
// evaluation into a panic (recovered or not) — only typed errors.
func FuzzExprEval(f *testing.F) {
	for _, e := range exprSeeds {
		f.Add(e)
	}
	db := fuzzEvalDB(f)
	f.Fuzz(func(t *testing.T, e string) {
		if len(e) > 1<<12 || strings.ContainsRune(e, ';') {
			t.Skip()
		}
		evalExpr(t, db, e)
	})
}

// TestExprEvalSeeds runs the fuzz property over the seed corpus on every
// plain `go test` run, without the fuzz engine.
func TestExprEvalSeeds(t *testing.T) {
	db := fuzzEvalDB(t)
	for _, e := range exprSeeds {
		evalExpr(t, db, e)
	}
}

// groupByShapes are the statements FuzzGroupByParity runs over table fg: the
// scalar, int and generic keyers, an FD-reduced key, a FLOAT key, HAVING,
// and filters that leave batches empty. AVG reads only f, whose float sums
// are exact: a float sum of values near 2^53 depends on the order it is
// associated in, which batch boundaries change.
var groupByShapes = []string{
	"SELECT COUNT(*) AS n, SUM(v) AS s, AVG(f) AS a, MIN(v) AS lo, MAX(f) AS hi FROM fg",
	"SELECT COUNT(*) AS n, SUM(v) AS s FROM fg WHERE k > 1000",
	"SELECT k, COUNT(*) AS n, SUM(v) AS s, COUNT(v) AS c, AVG(f) AS a FROM fg GROUP BY k",
	"SELECT k, name, SUM(v) AS s, COUNT(DISTINCT v) AS d, MIN(f) AS lo FROM fg GROUP BY k, name",
	"SELECT name, k, COUNT(*) AS n, MAX(v) AS hi, SUM(f) AS s FROM fg WHERE v > 0 GROUP BY name, k HAVING n > 1",
	"SELECT v, COUNT(*) AS n, MIN(k) AS lo FROM fg GROUP BY v ORDER BY v",
	"SELECT f, k, COUNT(*) AS n, SUM(v) AS s FROM fg WHERE f <= 0 GROUP BY f, k",
}

// groupBySeeds are byte strings FuzzGroupByParity decodes into rows: the
// empty table, NULL keys, keys at ±2^53, a tiny key domain over several
// heap pages, INT values whose sum overflows, and distinct keys past 2^53
// beside 0 and -0.
var groupBySeeds = [][]byte{
	{},
	{0, 0, 0, 8, 16, 8},
	{0x81, 1, 2, 0xc3, 3, 4, 0x85, 5, 6, 0xc7, 7, 8},
	bytes.Repeat([]byte{1, 2, 3, 2, 5, 9, 3, 7, 12, 4, 11, 33}, 200),
	{1, 0xff, 1, 1, 0xff, 2, 2, 0xfe, 3},
	{1, 0xff, 1, 1, 0xff, 2, 0xff, 0xfe, 3},
	{0x84, 1, 0x08, 0x85, 1, 0x88, 0x85, 2, 0x08, 0x86, 3, 0x88, 0xc4, 1, 0x88, 0xc5, 1, 0x08},
}

// fuzzGroupDB loads table fg (k INT, name determined by k through a declared
// soft FD, v INT, f FLOAT) with three bytes per row. An INT byte picks NULL,
// a value near ±2^53, an INT extreme or a small value; a FLOAT byte picks
// NULL, 0, -0 or a small multiple of 1/4.
func fuzzGroupDB(tb testing.TB, data []byte) *Database {
	tb.Helper()
	db := Open()
	db.MustExec("CREATE TABLE fg (k INT, name VARCHAR(32), v INT, f FLOAT)")
	if err := db.Catalog().AddConstraint(&catalog.Constraint{
		Name: "fd_fg_name", Kind: catalog.FuncDep, Mode: catalog.ModeSoftAbsolute,
		Table: "fg", Columns: []string{"k"}, DepColumns: []string{"name"},
	}); err != nil {
		tb.Fatal(err)
	}
	intOf := func(b byte) types.Datum {
		switch {
		case b%8 == 0:
			return types.Null
		case b == 0xff:
			return types.NewInt(math.MaxInt64)
		case b == 0xfe:
			return types.NewInt(math.MinInt64)
		case b&0x80 != 0:
			v := int64(1)<<53 + int64(b%8) - 4
			if b&0x40 != 0 {
				v = -v
			}
			return types.NewInt(v)
		}
		return types.NewInt(int64(b%4) - 1)
	}
	te, _ := db.Catalog().Table("fg")
	for ; len(data) >= 3; data = data[3:] {
		k, name := intOf(data[0]), types.Null
		if !k.IsNull() {
			name = types.NewString(k.String()) // the FD holds on k's exact value
		}
		f := types.Null
		switch b := data[2]; {
		case b == 0x08 || b == 0x88: // 0 and -0
			f = types.NewFloat(math.Copysign(0, float64(int8(b))))
		case b%8 != 0:
			f = types.NewFloat(float64(int8(b)) / 4)
		}
		if err := db.InsertRows(te, []types.Row{{k, name, intOf(data[1]), f}}); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// groupByParity runs every shape over rows decoded from data and requires the
// reference interpreter's answer, or, where the exact INT sum leaves the INT
// range, the same overflow error from both.
func groupByParity(t *testing.T, data []byte) {
	db := fuzzGroupDB(t, data)
	for _, q := range groupByShapes {
		got, err := db.Exec(q)
		ref, rerr := db.reference(context.Background(), nil, q, nil)
		switch {
		case err != nil || rerr != nil:
			if !errors.Is(err, exec.ErrSumOverflow) || !errors.Is(rerr, refexec.ErrSumOverflow) {
				t.Fatalf("%s: engine %v, reference %v", q, err, rerr)
			}
		default:
			if d := refDiff(q, got, ref); d != "" {
				t.Fatal(d)
			}
		}
	}
}

// FuzzGroupByParity checks grouped aggregation against the reference
// interpreter over fuzzed tables.
func FuzzGroupByParity(f *testing.F) {
	for _, s := range groupBySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*2000 {
			t.Skip()
		}
		groupByParity(t, data)
	})
}

// TestGroupByParitySeeds runs the fuzz property over the seed corpus on every
// plain `go test` run, without the fuzz engine.
func TestGroupByParitySeeds(t *testing.T) {
	for _, s := range groupBySeeds {
		groupByParity(t, s)
	}
}
