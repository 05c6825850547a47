package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"softdb/internal/btree"
	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/mining"
	"softdb/internal/refexec"
	"softdb/internal/softc"
	"softdb/internal/sql"
	"softdb/internal/storage"
	"softdb/internal/types"
)

// The differential tests run randomly generated queries through the full
// parse→rewrite→optimize→execute pipeline — with indexes created and mined
// soft constraints installed, so every rewrite rule is armed — and compare
// against brute-force evaluation over the raw rows. Any divergence is a
// soundness bug in the planner, the rewriter, or the executor.

// diffDB builds a table with correlated columns, NULLs, and duplicates —
// the shapes that trip up rewrites — plus mined soft constraints and an
// index.
func diffDB(t *testing.T, seed int64, n int) (*Database, []types.Row) {
	t.Helper()
	db := Open()
	db.DisablePlanCache = true
	db.MustExec(`CREATE TABLE t (
		a INT NOT NULL,
		b INT,
		c INT,
		d FLOAT)`)
	r := rand.New(rand.NewSource(seed))
	te, _ := db.Catalog().Table("t")
	var raw []types.Row
	for i := 0; i < n; i++ {
		a := int64(r.Intn(50))
		b := types.Datum(types.NewInt(a + int64(r.Intn(5)))) // correlated with a
		if r.Intn(10) == 0 {
			b = types.Null
		}
		c := types.NewInt(int64(r.Intn(10)))
		row := types.Row{types.NewInt(a), b, c, types.NewFloat(float64(r.Intn(100)) / 4)}
		validated, err := te.Def.ValidateRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRow(te, validated); err != nil {
			t.Fatal(err)
		}
		raw = append(raw, validated)
	}
	db.MustExec("CREATE INDEX idx_a ON t (a)")
	db.MustExec("ANALYZE t")
	// Arm the rewriter with mined (true) soft constraints.
	mgr := softc.NewManager(db.Catalog())
	cands, err := mgr.DiscoverTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.InstallCorrelations(mgr.SelectCorrelations(cands.Correlations, 4)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.InstallRanges(cands.Ranges); err != nil {
		t.Fatal(err)
	}
	mgr.FDs = mining.FDMinerConfig{MaxLHS: 1, MinConfidence: 1}
	return db, raw
}

// randPred builds a random predicate over columns a(0), b(1), c(2), d(3).
func randPred(r *rand.Rand, depth int) expr.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		return randLeaf(r)
	}
	switch r.Intn(4) {
	case 0:
		return expr.NewBinary(expr.OpAnd, randPred(r, depth-1), randPred(r, depth-1))
	case 1:
		return expr.NewBinary(expr.OpOr, randPred(r, depth-1), randPred(r, depth-1))
	case 2:
		return expr.NewUnary(expr.OpNot, randPred(r, depth-1))
	default:
		return randLeaf(r)
	}
}

var diffCols = []struct {
	name string
	kind types.Kind
}{
	{"a", types.KindInt}, {"b", types.KindInt}, {"c", types.KindInt}, {"d", types.KindFloat},
}

func randLeaf(r *rand.Rand) expr.Expr {
	ci := r.Intn(len(diffCols))
	col := expr.NewColumn("", diffCols[ci].name, -1, types.KindNull)
	switch r.Intn(6) {
	case 0:
		return expr.NewUnary(expr.OpIsNull, col)
	case 1:
		return expr.NewUnary(expr.OpIsNotNull, col)
	case 2:
		// IN list.
		var list []expr.Expr
		for i := 0; i < 1+r.Intn(3); i++ {
			list = append(list, expr.NewConst(types.NewInt(int64(r.Intn(60)))))
		}
		return expr.NewInList(col, list)
	case 3:
		// Column-to-column comparison.
		other := expr.NewColumn("", diffCols[r.Intn(len(diffCols))].name, -1, types.KindNull)
		return expr.NewBinary(randCmpOp(r), col, other)
	default:
		var v expr.Expr
		if diffCols[ci].kind == types.KindFloat {
			v = expr.NewConst(types.NewFloat(float64(r.Intn(100)) / 4))
		} else {
			v = expr.NewConst(types.NewInt(int64(r.Intn(60))))
		}
		return expr.NewBinary(randCmpOp(r), col, v)
	}
}

func randCmpOp(r *rand.Rand) expr.Op {
	return [...]expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}[r.Intn(6)]
}

// referenceFilter evaluates the predicate directly against the raw rows.
func referenceFilter(t *testing.T, db *Database, raw []types.Row, pred expr.Expr) []types.Row {
	t.Helper()
	te, _ := db.Catalog().Table("t")
	bound, err := bindToTable(pred, te.Def)
	if err != nil {
		t.Fatalf("reference bind: %v", err)
	}
	var out []types.Row
	for _, row := range raw {
		ok, err := expr.EvalBool(bound, row)
		if err != nil {
			t.Fatalf("reference eval: %v", err)
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

// refAnswer answers q with the reference interpreter at sess's snapshot
// (its open transaction's, if any): what the statement returns with
// Database.NoBatch set, without writing the shared field, so concurrent
// tests may call it.
func refAnswer(t testing.TB, db *Database, sess *Session, q string) *Result {
	t.Helper()
	res, err := db.reference(context.Background(), nil, q, sess)
	if err != nil {
		t.Fatalf("reference: %s: %v", q, err)
	}
	return res
}

// refDiff compares an engine answer to q with the reference's: the same
// headers, and the same rows — in order when q has an ORDER BY, FLOAT
// values at four decimals. It describes the first difference, or returns
// "".
func refDiff(q string, got, ref *Result) string {
	if g, w := strings.Join(got.Columns, ","), strings.Join(ref.Columns, ","); g != w {
		return fmt.Sprintf("%s: headers %s, reference %s", q, g, w)
	}
	if d := refexec.Diff(got.Rows, ref.Rows, strings.Contains(q, "ORDER BY")); d != "" {
		return fmt.Sprintf("%s: %s\nplan:\n%s", q, d, got.Plan)
	}
	return ""
}

func sortedKeys(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func TestDifferentialFilters(t *testing.T) {
	db, raw := diffDB(t, 77, 400)
	r := rand.New(rand.NewSource(78))
	for trial := 0; trial < 300; trial++ {
		pred := randPred(r, 3)
		sel := &sql.Select{
			Items: []sql.SelectItem{{Star: true}},
			From:  []sql.TableRef{{Table: "t"}},
			Where: pred,
			Limit: -1,
		}
		res, err := db.ExecStmt(sel, "")
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, pred, err)
		}
		want := referenceFilter(t, db, raw, pred)
		got := sortedKeys(res.Rows)
		exp := sortedKeys(want)
		if len(got) != len(exp) {
			t.Fatalf("trial %d: %s: got %d rows, want %d\nplan:\n%s",
				trial, pred, len(got), len(exp), res.Plan)
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("trial %d: %s: row %d differs: %s vs %s\nplan:\n%s",
					trial, pred, i, got[i], exp[i], res.Plan)
			}
		}
	}
}

// aggDB adds table g to db for the grouped-aggregate differentials: k in a
// tiny domain with NULLs, name functionally determined by k (a declared soft
// FD, so GROUP BY k, name is reduced to k), a DATE, INT values straddling
// ±2^53 and a FLOAT.
func aggDB(t *testing.T, db *Database, seed int64, n int) {
	t.Helper()
	db.MustExec("CREATE TABLE g (k INT, name VARCHAR(8), day DATE, big INT, f FLOAT)")
	te, _ := db.Catalog().Table("g")
	r := rand.New(rand.NewSource(seed))
	maybe := func(d types.Datum) types.Datum {
		if r.Intn(10) == 0 {
			return types.Null
		}
		return d
	}
	for i := 0; i < n; i++ {
		k, name := types.Null, types.Null
		if r.Intn(10) > 0 {
			v := int64(r.Intn(12) - 3)
			k, name = types.NewInt(v), types.NewString(fmt.Sprint("n", v))
		}
		big := int64(1)<<53 + int64(r.Intn(5)-2)
		if r.Intn(2) == 0 {
			big = -big
		}
		row := types.Row{k, name, maybe(types.NewDate(int64(18000 + r.Intn(6)))),
			maybe(types.NewInt(big)), maybe(types.NewFloat(float64(r.Intn(8)) / 2))}
		if err := db.InsertRow(te, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Catalog().AddConstraint(&catalog.Constraint{
		Name: "fd_g_name", Kind: catalog.FuncDep, Mode: catalog.ModeSoftAbsolute,
		Table: "g", Columns: []string{"k"}, DepColumns: []string{"name"},
	}); err != nil {
		t.Fatal(err)
	}
	db.MustExec("ANALYZE g")
}

// TestDifferentialAggregates runs generated GROUP BY queries through the full
// pipeline and compares each answer with the reference interpreter's. The
// shapes cover every keyer — int (INT and DATE keys, keys at ±2^53, and
// the FD-reduced (k, name) in either order), generic (two-column and FLOAT
// keys) — and every aggregate kind, with filters, HAVING and INT sums past
// 2^53.
func TestDifferentialAggregates(t *testing.T) {
	db, _ := diffDB(t, 81, 300)
	aggDB(t, db, 83, 400)
	r := rand.New(rand.NewSource(82))
	tables := []struct {
		name       string
		keys, args []string
		pred       func() string
	}{
		{"t", []string{"a", "b", "c", "d", "a, c"}, []string{"a", "b", "c", "d"},
			func() string { return randPred(r, 2).String() }},
		{"g", []string{"k", "day", "f", "big", "k, name", "name, k", "day, k"}, []string{"k", "name", "day", "big", "f"},
			func() string {
				return [...]string{"k > 2", "f <= 1.5", "big > 0", "day >= DATE '2019-04-14'", "k IS NULL", "k > 100"}[r.Intn(6)]
			}},
	}
	aggs := []string{"COUNT(%s)", "SUM(%s)", "AVG(%s)", "MIN(%s)", "MAX(%s)", "COUNT(DISTINCT %s)"}
	reduced := 0
	for trial := 0; trial < 300; trial++ {
		tb := tables[trial%len(tables)]
		key := tb.keys[r.Intn(len(tb.keys))]
		items := []string{key, "COUNT(*) AS n"}
		for i := 0; i < 3; i++ {
			arg, agg := tb.args[r.Intn(len(tb.args))], aggs[r.Intn(len(aggs))]
			// No SUM or AVG of strings, and no AVG of values near 2^53,
			// whose float sum depends on its association order.
			if (arg == "name" && strings.HasPrefix(agg, "SUM")) || (arg == "name" || arg == "big") && strings.HasPrefix(agg, "AVG") {
				agg = aggs[0]
			}
			items = append(items, fmt.Sprintf(agg+" AS x%d", arg, i))
		}
		q := fmt.Sprintf("SELECT %s FROM %s", strings.Join(items, ", "), tb.name)
		if r.Intn(3) > 0 {
			q += " WHERE " + tb.pred()
		}
		q += " GROUP BY " + key
		if r.Intn(4) == 0 {
			q += " HAVING n > 1"
		}
		if r.Intn(2) == 0 {
			q += " ORDER BY " + key
		}
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, q, err)
		}
		if d := refDiff(q, res, refAnswer(t, db, nil, q)); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
		if strings.Contains(res.Plan, "[redundant]") {
			reduced++
		}
	}
	if reduced == 0 {
		t.Fatal("no GROUP BY key was FD-reduced")
	}
}

func TestDifferentialJoins(t *testing.T) {
	db, raw := diffDB(t, 91, 200)
	db.MustExec("CREATE TABLE u (k INT NOT NULL, w INT)")
	ue, _ := db.Catalog().Table("u")
	r := rand.New(rand.NewSource(92))
	var uraw []types.Row
	for i := 0; i < 100; i++ {
		row := types.Row{types.NewInt(int64(r.Intn(50))), types.NewInt(int64(r.Intn(20)))}
		if err := db.InsertRow(ue, row); err != nil {
			t.Fatal(err)
		}
		uraw = append(uraw, row)
	}
	db.MustExec("ANALYZE u")
	for trial := 0; trial < 60; trial++ {
		lo := r.Intn(40)
		hi := lo + r.Intn(15)
		wLimit := int64(5 + r.Intn(15))
		q := fmt.Sprintf(
			"SELECT t.a, t.c, u.w FROM t, u WHERE t.a = u.k AND t.a >= %d AND t.a <= %d AND u.w < %d",
			lo, hi, wLimit)
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Reference nested loops.
		var want []string
		for _, tr := range raw {
			a := tr[0].Int()
			if a < int64(lo) || a > int64(hi) {
				continue
			}
			for _, ur := range uraw {
				if ur[0].Int() == a && !ur[1].IsNull() && ur[1].Int() < wLimit {
					want = append(want, types.Row{tr[0], tr[2], ur[1]}.String())
				}
			}
		}
		sort.Strings(want)
		got := sortedKeys(res.Rows)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %s: %d rows want %d\nplan:\n%s", trial, q, len(got), len(want), res.Plan)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: row %d: %s vs %s", trial, i, got[i], want[i])
			}
		}
	}
}

// TestDifferentialDML interleaves random inserts/updates/deletes with
// queries and checks the visible state matches a shadow copy.
func TestDifferentialDML(t *testing.T) {
	db := Open()
	db.MustExec("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	db.MustExec("CREATE INDEX iv ON t (v)")
	r := rand.New(rand.NewSource(101))
	shadow := map[int64]int64{}
	nextID := int64(0)
	for op := 0; op < 2000; op++ {
		switch r.Intn(4) {
		case 0, 1:
			v := int64(r.Intn(100))
			db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", nextID, v))
			shadow[nextID] = v
			nextID++
		case 2:
			if nextID == 0 {
				continue
			}
			id := int64(r.Intn(int(nextID)))
			v := int64(r.Intn(100))
			db.MustExec(fmt.Sprintf("UPDATE t SET v = %d WHERE id = %d", v, id))
			if _, ok := shadow[id]; ok {
				shadow[id] = v
			}
		case 3:
			if nextID == 0 {
				continue
			}
			id := int64(r.Intn(int(nextID)))
			db.MustExec(fmt.Sprintf("DELETE FROM t WHERE id = %d", id))
			delete(shadow, id)
		}
		if op%200 == 0 {
			lo := int64(r.Intn(100))
			rows, err := db.Query(fmt.Sprintf("SELECT id, v FROM t WHERE v >= %d", lo))
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, v := range shadow {
				if v >= lo {
					want++
				}
			}
			if len(rows) != want {
				t.Fatalf("op %d: %d rows want %d", op, len(rows), want)
			}
			for _, row := range rows {
				if shadow[row[0].Int()] != row[1].Int() {
					t.Fatalf("op %d: row %v disagrees with shadow", op, row)
				}
			}
		}
	}
	// Final index consistency: after a vacuum sheds dead versions and
	// their index entries, the v-index holds exactly the shadow rows.
	db.Vacuum()
	te, _ := db.Catalog().Table("t")
	if te.Heap.RowCount() != int64(len(shadow)) {
		t.Fatalf("row count %d want %d", te.Heap.RowCount(), len(shadow))
	}
	count := 0
	te.Indexes[0].Tree.Ascend(nil, func(_ btree.Key, rid storage.RowID) bool {
		count++
		return true
	})
	if count != len(shadow) {
		t.Fatalf("index entries %d want %d", count, len(shadow))
	}
}

// diffDBPrune is diffDB with a clustered first column: `a` increases with
// insertion order, so heap pages carry tight, non-overlapping a-ranges and
// zone-map pruning can actually engage. The correlated/NULL shapes of
// diffDB are preserved (b tracks a with noise and occasional NULLs), and
// the same miner arms the rewriter.
func diffDBPrune(t *testing.T, seed int64, n int) *Database {
	t.Helper()
	db := Open()
	db.DisablePlanCache = true
	db.MustExec(`CREATE TABLE t (
		a INT NOT NULL,
		b INT,
		c INT,
		d FLOAT)`)
	r := rand.New(rand.NewSource(seed))
	te, _ := db.Catalog().Table("t")
	for i := 0; i < n; i++ {
		a := int64(i * 50 / n) // clustered: pages hold narrow a-ranges
		b := types.Datum(types.NewInt(a + int64(r.Intn(5))))
		if r.Intn(10) == 0 {
			b = types.Null
		}
		row := types.Row{types.NewInt(a), b,
			types.NewInt(int64(r.Intn(10))), types.NewFloat(float64(r.Intn(100)) / 4)}
		validated, err := te.Def.ValidateRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRow(te, validated); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExec("ANALYZE t")
	mgr := softc.NewManager(db.Catalog())
	cands, err := mgr.DiscoverTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.InstallCorrelations(mgr.SelectCorrelations(cands.Correlations, 4)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.InstallRanges(cands.Ranges); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDifferentialPrune runs generated queries through every combination of
// {synopsis pruning on/off} × {index paths on/off} and asserts two
// invariants. Every configuration must give the reference interpreter's
// answer — pruning may only skip pages that provably hold no qualifying
// row, and an access path never changes an answer. And page accounting must
// balance exactly: with indexes disabled both prune modes lower to
// sequential scans over the same heaps, so every page is either read or
// skipped — pagesRead(on) + pagesSkipped(on) == pagesRead(off), with
// pagesSkipped(off) == 0.
func TestDifferentialPrune(t *testing.T) {
	db := diffDBPrune(t, 131, 2000)
	db.MustExec("CREATE INDEX idx_a ON t (a)")
	db.MustExec("CREATE TABLE u (k INT NOT NULL, w INT)")
	ue, _ := db.Catalog().Table("u")
	r := rand.New(rand.NewSource(132))
	for i := 0; i < 150; i++ {
		if err := db.InsertRow(ue, types.Row{
			types.NewInt(int64(r.Intn(50))), types.NewInt(int64(r.Intn(20)))}); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExec("ANALYZE u")

	type cfg struct {
		noPrune, noIndexes bool
		name               string
	}
	// The first two run with indexes off: the page-accounting pair.
	cfgs := []cfg{
		{true, true, "prune=off indexes=off"},
		{false, true, "prune=on indexes=off"},
		{true, false, "prune=off indexes=on"},
		{false, false, "prune=on indexes=on"},
	}
	var totalSkipped int64
	runAll := func(trial int, sel *sql.Select, desc string) {
		t.Helper()
		db.NoBatch = true
		ref, err := db.ExecStmt(sel, "")
		db.NoBatch = false
		if err != nil {
			t.Fatalf("trial %d [reference]: %s: %v", trial, desc, err)
		}
		results := make([]*Result, len(cfgs))
		for i, c := range cfgs {
			db.NoPrune, db.NoIndexes = c.noPrune, c.noIndexes
			res, err := db.ExecStmt(sel, "")
			if err != nil {
				t.Fatalf("trial %d [%s]: %s: %v", trial, c.name, desc, err)
			}
			if d := refDiff(desc, res, ref); d != "" {
				t.Fatalf("trial %d [%s]: %s", trial, c.name, d)
			}
			results[i] = res
		}
		db.NoPrune, db.NoIndexes = false, false
		// Page accounting: indexes are off, so the prune toggle must not
		// change the plan shape — only which pages get read.
		off, on := results[0].Ctx.IO.Load(), results[1].Ctx.IO.Load()
		if off.PagesSkipped != 0 {
			t.Fatalf("trial %d: %s: pruning-off scan skipped %d pages\nplan:\n%s",
				trial, desc, off.PagesSkipped, results[0].Plan)
		}
		if on.PagesRead+on.PagesSkipped != off.PagesRead {
			t.Fatalf("trial %d [%s]: %s: read %d + skipped %d != baseline %d pages\nplan:\n%s",
				trial, cfgs[1].name, desc, on.PagesRead, on.PagesSkipped, off.PagesRead, results[1].Plan)
		}
		totalSkipped += on.PagesSkipped
	}

	for trial := 0; trial < 120; trial++ {
		switch trial % 5 {
		case 0: // filter scan
			pred := randPred(r, 3)
			sel := &sql.Select{
				Items: []sql.SelectItem{{Star: true}},
				From:  []sql.TableRef{{Table: "t"}},
				Where: pred,
				Limit: -1,
			}
			runAll(trial, sel, fmt.Sprintf("filter %s", pred))
		case 1: // group aggregate
			pred := randPred(r, 2)
			groupCol := diffCols[r.Intn(3)].name
			aggCol := diffCols[r.Intn(len(diffCols))].name
			q := fmt.Sprintf(
				"SELECT %s, COUNT(*) AS n, SUM(%s) AS s, MIN(%s) AS lo, MAX(%s) AS hi FROM t GROUP BY %s",
				groupCol, aggCol, aggCol, aggCol, groupCol)
			stmt, err := sql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			sel := stmt.(*sql.Select)
			sel.Where = pred
			runAll(trial, sel, q)
		case 2: // explicit projection over a filtered scan
			pred := randPred(r, 3)
			q := "SELECT b, d, a, c FROM t"
			stmt, err := sql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			sel := stmt.(*sql.Select)
			sel.Where = pred
			runAll(trial, sel, fmt.Sprintf("project where %s", pred))
		case 3: // join aggregate (exercises the fused narrowed join output)
			lo := r.Intn(40)
			hi := lo + r.Intn(15)
			var q string
			if trial%2 == 0 {
				q = fmt.Sprintf(
					"SELECT COUNT(*) AS n FROM t, u WHERE t.a = u.k AND t.a >= %d AND t.a <= %d",
					lo, hi)
			} else {
				q = fmt.Sprintf(
					"SELECT u.w, COUNT(*) AS n, SUM(t.c) AS s FROM t, u WHERE t.a = u.k AND t.a >= %d AND t.a <= %d GROUP BY u.w",
					lo, hi)
			}
			stmt, err := sql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			runAll(trial, stmt.(*sql.Select), q)
		default: // equi-join with a selective range (prunable on both sides)
			lo := r.Intn(40)
			hi := lo + r.Intn(15)
			q := fmt.Sprintf(
				"SELECT t.a, t.c, u.w FROM t, u WHERE t.a = u.k AND t.a >= %d AND t.a <= %d",
				lo, hi)
			stmt, err := sql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			runAll(trial, stmt.(*sql.Select), q)
		}
	}
	// The accounting identity must not hold vacuously: the corpus contains
	// selective range predicates over clustered columns, so pruning has to
	// fire somewhere.
	if totalSkipped == 0 {
		t.Fatal("no pages were ever skipped; pruning never engaged")
	}
}
