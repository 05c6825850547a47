package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softdb/internal/types"
)

// The index page-path suite: an IndexScan whose bound range is wide enough
// finishes on the table's page loop instead of fetching entry by entry (see
// exec.IndexScan). The two paths must return the same rows at one snapshot,
// so every check runs a statement twice inside one transaction — once with
// the run-time switch, once with the entry path forced through
// entryPathOnlyKey — and holds both to the reference interpreter's answer
// at that snapshot.

// pagePathDB loads ev: every column but v clusters with insertion order, v
// does not, and d repeats each date twice. Every column a range below names
// is indexed.
func pagePathDB(t *testing.T, n int) *Database {
	t.Helper()
	db := Open()
	db.MustExec("CREATE TABLE ev (id INT PRIMARY KEY, grp INT, v INT, d DATE, f FLOAT, s STRING)")
	te, _ := db.Catalog().Table("ev")
	epoch, err := types.ParseDate("2000-01-01")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := types.Datum(types.NewInt(int64(i * 37 % 1000)))
		if i%53 == 0 {
			v = types.Null
		}
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7)), v,
			types.NewDate(epoch.Date() + int64(i/2)), types.NewFloat(float64(i) / 4), types.NewString(fmt.Sprintf("k%05d", i))}
		if err := db.InsertRows(te, []types.Row{row}); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"d", "f", "s", "v"} {
		db.MustExec(fmt.Sprintf("CREATE INDEX ev_%s ON ev (%s)", col, col))
	}
	db.MustExec("ANALYZE ev")
	return db
}

// pathExec runs q on sess, with the entry path forced when entryOnly.
func pathExec(t *testing.T, sess *Session, q string, entryOnly bool) *Result {
	t.Helper()
	ctx := context.Background()
	if entryOnly {
		ctx = context.WithValue(ctx, entryPathOnlyKey{}, true)
	}
	res, err := sess.ExecCtx(ctx, q)
	if err != nil {
		t.Fatalf("%s (entry only %v): %v", q, entryOnly, err)
	}
	return res
}

// pathsAgree runs q with the switch and on the forced entry path at the
// snapshot of the transaction it opens on sess (unless one is already open),
// and requires the reference interpreter's answer from both. It returns the
// switched result and its page-path switches.
func pathsAgree(sess *Session, q string) (res *Result, switched int64, err error) {
	if !sess.InTxn() {
		if _, err := sess.ExecCtx(context.Background(), "BEGIN"); err != nil {
			return nil, 0, err
		}
		defer func() {
			if _, cerr := sess.ExecCtx(context.Background(), "COMMIT"); err == nil {
				err = cerr
			}
		}()
	}
	ref, err := sess.db.reference(context.Background(), nil, q, sess)
	if err != nil {
		return nil, 0, fmt.Errorf("%s reference: %w", q, err)
	}
	for _, entryOnly := range []bool{false, true} {
		ctx := context.Background()
		if entryOnly {
			ctx = context.WithValue(ctx, entryPathOnlyKey{}, true)
		}
		got, err := sess.ExecCtx(ctx, q)
		if err != nil {
			return nil, 0, fmt.Errorf("%s (entry only %v): %w", q, entryOnly, err)
		}
		if d := refDiff(q, got, ref); d != "" {
			return nil, 0, fmt.Errorf("entry only %v: %s", entryOnly, d)
		}
		if !entryOnly {
			res, switched = got, got.Ctx.PagePaths
		} else if got.Ctx.PagePaths != 0 {
			return nil, 0, fmt.Errorf("%s: the forced entry path switched %d times", q, got.Ctx.PagePaths)
		}
	}
	return res, switched, nil
}

// comparePaths is pathsAgree on a quiet table, failing t on any difference,
// on a plan without an index scan, and on a switch count other than want
// (-1 accepts any). (At one snapshot the answer is fixed, but the decision
// reads the live index and synopses, which concurrent writers move: only a
// quiet table pins the count.)
func comparePaths(t *testing.T, sess *Session, q string, want int64) *Result {
	t.Helper()
	res, switched, err := pathsAgree(sess, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "IndexScan") {
		t.Fatalf("%s: not an index scan plan:\n%s", q, res.Plan)
	}
	if want >= 0 && switched != want {
		t.Fatalf("%s: %d page-path switches, want %d\n%s", q, switched, want, res.Plan)
	}
	return res
}

// TestIndexPagePathRanges: wide ranges over INT, DATE and FLOAT keys —
// closed, and open on either side — switch; a range that fits one chunk
// and every STRING-key range stay on the entry path; all of them answer
// alike on both paths.
func TestIndexPagePathRanges(t *testing.T) {
	db := pagePathDB(t, 6000)
	sess := db.NewSession("ranges")
	defer sess.Close()
	cases := []struct {
		where string
		want  int64
	}{
		{"id >= 1000 AND id < 2600", 1},
		{"id >= 100 AND id < 400", 0},
		{"id >= 4300", 1},
		{"id < 1700", 1},
		{"id > 2000 AND id <= 3800 AND grp = 3", 1},
		{"d >= DATE '2000-01-01' + 500 AND d < DATE '2000-01-01' + 1300", 1},
		{"f >= 900.0 AND f < 1300.0", 1},
		{"s >= 'k01000' AND s < 'k02600'", 0},
		{"v >= 100 AND v < 300", -1},
	}
	for _, c := range cases {
		for _, sel := range []string{"id, grp, v, d, f, s", "grp, COUNT(*) AS n, SUM(v) AS sv"} {
			q := fmt.Sprintf("SELECT %s FROM ev WHERE %s", sel, c.where)
			if strings.Contains(sel, "COUNT") {
				q += " GROUP BY grp"
			}
			res := comparePaths(t, sess, q, c.want)
			if len(res.Rows) == 0 {
				t.Fatalf("%s: empty answer", q)
			}
		}
	}
}

// TestIndexPagePathLimit: a LIMIT without ORDER BY may return any rows of
// the answer, and the two paths return different ones (page order is not
// key order) — each must be a sub-multiset of the full answer of the right
// size.
func TestIndexPagePathLimit(t *testing.T) {
	db := pagePathDB(t, 6000)
	sess := db.NewSession("limit")
	defer sess.Close()
	const where = "FROM ev WHERE id >= 1000 AND id < 2600 AND grp <> 2"
	full := comparePaths(t, sess, "SELECT id, v "+where, 1)
	for _, entryOnly := range []bool{false, true} {
		left := map[string]int{}
		for _, k := range sortedKeys(full.Rows) {
			left[k]++
		}
		res := pathExec(t, sess, "SELECT id, v "+where+" LIMIT 40", entryOnly)
		if len(res.Rows) != 40 {
			t.Fatalf("entry only %v: %d rows under LIMIT 40", entryOnly, len(res.Rows))
		}
		for _, k := range sortedKeys(res.Rows) {
			if left[k]--; left[k] < 0 {
				t.Fatalf("entry only %v: row %s is not (or not that often) in the answer", entryOnly, k)
			}
		}
		if want := int64(1); !entryOnly && res.Ctx.PagePaths != want {
			t.Fatalf("%d page-path switches under LIMIT, want %d", res.Ctx.PagePaths, want)
		}
	}
}

// TestIndexPagePathOwnWrites: inside a transaction the page path sees the
// transaction's own uncommitted inserts, deletes, updates and key moves
// exactly as the entry path does, and another session sees none of them.
func TestIndexPagePathOwnWrites(t *testing.T) {
	db := pagePathDB(t, 6000)
	w, other := db.NewSession("writer"), db.NewSession("other")
	defer w.Close()
	defer other.Close()
	// A closed range the writes shrink and an open one they grow. (A key
	// the transaction deleted stays taken until it commits, so nothing is
	// re-inserted under an old key.)
	queries := []string{
		"SELECT id, grp, v FROM ev WHERE id >= 1000 AND id < 2600",
		"SELECT id, v, s FROM ev WHERE id >= 4300",
	}
	var before []*Result
	for _, q := range queries {
		before = append(before, comparePaths(t, other, q, 1))
	}
	sexec(t, w, "BEGIN")
	sexec(t, w, "DELETE FROM ev WHERE id >= 1200 AND id < 1220")
	sexec(t, w, "UPDATE ev SET v = v + 1 WHERE id >= 2000 AND id < 2100")
	sexec(t, w, "UPDATE ev SET id = id + 20000 WHERE id >= 2500 AND id < 2510")
	sexec(t, w, "UPDATE ev SET id = id + 90000, v = 0 WHERE id >= 5000 AND id < 5005")
	sexec(t, w, "INSERT INTO ev VALUES (100500, 9, 9, DATE '2001-01-01', 1.5, 'new')")
	for i, delta := range []int{-20 - 10, 10 + 1} {
		mine := comparePaths(t, w, queries[i], 1)
		if want := len(before[i].Rows) + delta; len(mine.Rows) != want {
			t.Fatalf("%s: the writer sees %d rows, want %d", queries[i], len(mine.Rows), want)
		}
		got := comparePaths(t, other, queries[i], 1)
		if strings.Join(sortedKeys(got.Rows), "|") != strings.Join(sortedKeys(before[i].Rows), "|") {
			t.Fatalf("%s: another session saw uncommitted writes: %d rows, want %d", queries[i], len(got.Rows), len(before[i].Rows))
		}
	}
	sexec(t, w, "ROLLBACK")
	for i, q := range queries {
		if got := comparePaths(t, w, q, 1); len(got.Rows) != len(before[i].Rows) {
			t.Fatalf("%s after rollback: %d rows, want %d", q, len(got.Rows), len(before[i].Rows))
		}
	}
}

// TestIndexPagePathStaleEntries: committed UPDATEs and DELETEs leave index
// entries pointing at ended versions (MVCC removes none at write time);
// both paths must ignore them, before and after vacuum reclaims the
// versions.
func TestIndexPagePathStaleEntries(t *testing.T) {
	db := pagePathDB(t, 6000)
	sess := db.NewSession("stale")
	defer sess.Close()
	db.MustExec("UPDATE ev SET v = v + 1 WHERE id >= 1000 AND id < 2600")
	db.MustExec("UPDATE ev SET v = v + 1, f = f + 0.125 WHERE id >= 1500 AND id < 2000")
	db.MustExec("UPDATE ev SET id = id + 100000 WHERE id >= 2200 AND id < 2300")
	db.MustExec("DELETE FROM ev WHERE id >= 3000 AND id < 4500")
	queries := map[string]int{
		"SELECT id, v, f FROM ev WHERE id >= 1000 AND id < 2600":                                    1500,
		"SELECT id, v FROM ev WHERE id >= 2800":                                                     3200 - 1500 + 100,
		"SELECT COUNT(*) AS n FROM ev WHERE id >= 3000 AND id < 4500":                               1,
		"SELECT id, f FROM ev WHERE f >= 300.0 AND f < 700.0":                                       1600,
		"SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM ev WHERE id >= 900 AND id < 2900 GROUP BY grp": 7,
	}
	for _, vacuum := range []bool{false, true} {
		if vacuum {
			db.Vacuum()
		}
		for q, rows := range queries {
			res := comparePaths(t, sess, q, -1)
			if len(res.Rows) != rows {
				t.Fatalf("vacuum %v: %s: %d rows, want %d", vacuum, q, len(res.Rows), rows)
			}
		}
	}
	if res := db.MustExec("SELECT COUNT(*) AS n FROM ev WHERE id >= 3000 AND id < 4500"); res.Rows[0][0].Int() != 0 {
		t.Fatalf("deleted range still counts %v", res.Rows[0][0])
	}
}

// TestIndexPagePathUnderWriters: inserts, updates, deletes, rolled-back
// transactions and a background vacuum run beside four readers for two
// seconds; each reader compares the switched scan with the forced entry
// path and the reference interpreter inside one read transaction, i.e. at
// the same snapshot.
func TestIndexPagePathUnderWriters(t *testing.T) {
	const n = 6000
	db := pagePathDB(t, n)
	stopVacuum := db.StartVacuum(20 * time.Millisecond)
	defer stopVacuum()
	duration := 2 * time.Second
	if testing.Short() {
		duration = 300 * time.Millisecond
	}
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	var nextID atomic.Int64
	nextID.Store(n)
	write := func(label string, stmts func(r *rand.Rand) []string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession(label)
			defer sess.Close()
			r := rand.New(rand.NewSource(int64(len(label))))
			for time.Now().Before(deadline) {
				for _, q := range stmts(r) {
					// First-updater-wins conflicts and key collisions are
					// expected; the statement fails and the loop moves on.
					_, _ = sess.ExecCtx(context.Background(), q)
				}
			}
		}()
	}
	write("insert", func(*rand.Rand) []string {
		id := nextID.Add(1)
		return []string{fmt.Sprintf("INSERT INTO ev VALUES (%d, 1, 1, DATE '2000-01-01' + %d, %d.0, 'k%05d')", id, id/2, id/4, id)}
	})
	write("update", func(r *rand.Rand) []string {
		return []string{fmt.Sprintf("UPDATE ev SET v = v + 1 WHERE id = %d", r.Intn(n))}
	})
	write("move", func(r *rand.Rand) []string {
		return []string{fmt.Sprintf("UPDATE ev SET id = id + %d WHERE id = %d", 10*n, r.Intn(n))}
	})
	write("delete", func(r *rand.Rand) []string {
		return []string{fmt.Sprintf("DELETE FROM ev WHERE id = %d", r.Intn(n))}
	})
	write("rollback", func(r *rand.Rand) []string {
		return []string{"BEGIN",
			fmt.Sprintf("DELETE FROM ev WHERE id = %d", r.Intn(n)),
			fmt.Sprintf("INSERT INTO ev VALUES (%d, 2, 2, DATE '2000-01-01', 0.5, 'x')", -r.Intn(n)-1),
			"ROLLBACK"}
	})
	queries := []string{
		"SELECT id, v FROM ev WHERE id >= 1000 AND id < 2600",
		"SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM ev WHERE id >= 4300 GROUP BY grp",
		"SELECT id, d FROM ev WHERE d >= DATE '2000-01-01' + 500 AND d < DATE '2000-01-01' + 1300 AND v > 10",
	}
	var pairs, switched atomic.Int64
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := db.NewSession(fmt.Sprintf("read-%d", s))
			defer sess.Close()
			for i := 0; time.Now().Before(deadline); i++ {
				_, paths, err := pathsAgree(sess, queries[(s+i)%len(queries)])
				if err != nil {
					t.Error(err)
					return
				}
				pairs.Add(1)
				switched.Add(paths)
			}
		}(s)
	}
	wg.Wait()
	if pairs.Load() == 0 || switched.Load() == 0 {
		t.Fatalf("%d comparisons, %d page-path switches", pairs.Load(), switched.Load())
	}
}

// TestIndexPagePathObservability: a switched scan reports path=pages with
// its estimate and unpruned pages on its EXPLAIN ANALYZE node, the page
// path's skipped= and frozen= beside them, index_page_paths= in the trace
// ring, and softdb_index_scan_page_path_total in the metrics registry.
func TestIndexPagePathObservability(t *testing.T) {
	db := pagePathDB(t, 6000)
	const q = "SELECT COUNT(*) AS n, SUM(v) AS s FROM ev WHERE id >= 1000 AND id < 2600"
	db.MustExec(q) // freezes the pages the page path reads
	res := db.MustExec(q)
	if res.Ctx.PagePaths != 1 {
		t.Fatalf("%d page-path switches:\n%s", res.Ctx.PagePaths, res.Plan)
	}
	io := res.Ctx.IO.Load()
	if io.PagesSkipped == 0 || io.PagesFrozen == 0 {
		t.Fatalf("the page path skipped %d and read %d frozen pages", io.PagesSkipped, io.PagesFrozen)
	}
	ea := db.MustExec("EXPLAIN ANALYZE " + q)
	var text strings.Builder
	for _, r := range ea.Rows {
		text.WriteString(r[0].Str() + "\n")
	}
	var node string
	for _, line := range strings.Split(text.String(), "\n") {
		if strings.Contains(line, "IndexScan") {
			node = line
		}
	}
	for _, token := range []string{" path=pages est_entries=", " unpruned_pages=",
		fmt.Sprintf(" skipped=%d ", io.PagesSkipped), fmt.Sprintf(" frozen=%d/%d", io.PagesFrozen, io.PagesRead)} {
		if !strings.Contains(node, token) {
			t.Errorf("IndexScan node lacks %q:\n%s", token, text.String())
		}
	}
	found := false
	for _, tr := range db.QueryLog().Recent(8) {
		if tr.SQL == q && tr.IndexPagePaths == 1 && strings.Contains(tr.Render(), " index_page_paths=1") {
			found = true
		}
	}
	if !found {
		t.Error("no recent trace carries index_page_paths=1")
	}
	if v := db.Metrics().Counter("softdb_index_scan_page_path_total").Value(); v < 3 {
		t.Errorf("softdb_index_scan_page_path_total = %d after three switched scans", v)
	}
}

// TestIndexPagePathHoleCredit: a wide index range over the orders side of
// a join with an interior hole switches to the page path, where the hole's
// planted exclusion predicate skips the band's pages and earns the skip
// credit in the constraint-economy ledger; the entry path reads the same
// rows without skipping anything.
func TestIndexPagePathHoleCredit(t *testing.T) {
	// Enough orders that an index range straddling the hole band [n/4, n/2)
	// is narrow enough for the optimizer to choose the index.
	const n = 8000
	db, hole := holeEconDB(t, n)
	db.MustExec("CREATE INDEX orders_odate ON orders (odate)")
	sess := db.NewSession("hole")
	defer sess.Close()
	q := fmt.Sprintf(`SELECT COUNT(*) AS c FROM orders o, lineitem l
		WHERE o.okey = l.okey
		AND o.odate >= DATE '1999-01-01' + %d AND o.odate <= DATE '1999-01-01' + %d
		AND l.shipdate >= DATE '1999-01-01' + %d AND l.shipdate <= DATE '1999-01-01' + %d`,
		n/4-100, n/2+100, n/4-100, n/2+110)
	res := comparePaths(t, sess, q, 1)
	if !strings.Contains(res.Plan, "IndexScan orders") {
		t.Fatalf("orders is not read through its index:\n%s", res.Plan)
	}
	if io := res.Ctx.IO.Load(); io.PagesSkipped == 0 {
		t.Fatalf("the page path skipped no orders page: %+v", io)
	}
	if row := economyRow(t, db, hole); row.PagesSkipped <= 0 {
		t.Fatalf("the hole earned no skip credit: %+v", row)
	}
}
