package engine

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softdb/internal/catalog"
	"softdb/internal/mining"
	"softdb/internal/softc"
	"softdb/internal/sql"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/wal"
)

// The frozen-page suite: page images are a cache inside the one scan path,
// so nothing observable may depend on whether a page happens to be frozen —
// answers, accounting and EXPLAIN ANALYZE text are compared with images
// forced cold (every heap thawed, as after a restart) against warm, MVCC
// visibility is checked across thaws, and scans race writers and vacuum.

// thawAll drops every page image of every table: the state a restart leaves.
func thawAll(db *Database) {
	db.lockWrite()
	defer db.writeMu.Unlock()
	db.lock()
	defer db.mu.Unlock()
	for _, name := range db.cat.TableNames() {
		if te, err := db.cat.Table(name); err == nil {
			te.Heap.ThawAll()
		}
	}
}

func frozenPages(t *testing.T, db *Database, table string) int {
	t.Helper()
	te, err := db.Catalog().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	pages, _ := te.Heap.FreezeStats()
	return pages
}

var timeField = regexp.MustCompile(`(time|elapsed)[=:] ?[0-9.]+(µs|ms|s)`)

// analyzeText runs EXPLAIN ANALYZE sel and returns its text with the
// wall-clock figures blanked.
func analyzeText(t *testing.T, db *Database, sel *sql.Select) string {
	t.Helper()
	res, err := db.ExecStmt(&sql.Explain{Stmt: sel, Analyze: true}, "")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(timeField.ReplaceAllString(r[0].Str(), "$1=T"))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFrozenDifferentialColdWarm re-runs the prune on/off corpus once with
// every image cold and once warm: rows, headers, every counter and the
// EXPLAIN ANALYZE text must be equal, and the answer must be the reference
// interpreter's.
func TestFrozenDifferentialColdWarm(t *testing.T) {
	db := diffDBPrune(t, 131, 2000)
	db.NoIndexes = true
	db.MustExec("CREATE TABLE u (k INT NOT NULL, w INT)")
	ue, _ := db.Catalog().Table("u")
	r := rand.New(rand.NewSource(132))
	for i := 0; i < 150; i++ {
		if err := db.InsertRows(ue, []types.Row{{
			types.NewInt(int64(r.Intn(50))), types.NewInt(int64(r.Intn(20)))}}); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExec("ANALYZE u")

	parse := func(q string, randWhere bool) *sql.Select {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(*sql.Select)
		if randWhere {
			sel.Where = randPred(r, 2+r.Intn(2))
		}
		return sel
	}
	var totalFrozen int64
	for trial := 0; trial < 60; trial++ {
		var sel *sql.Select
		switch trial % 5 {
		case 0:
			sel = &sql.Select{Items: []sql.SelectItem{{Star: true}}, From: []sql.TableRef{{Table: "t"}},
				Where: randPred(r, 3), Limit: -1}
		case 1:
			g, a := diffCols[r.Intn(3)].name, diffCols[r.Intn(len(diffCols))].name
			sel = parse(fmt.Sprintf("SELECT %s, COUNT(*) AS n, SUM(%s) AS s, MIN(%s) AS lo, MAX(%s) AS hi FROM t GROUP BY %s ORDER BY %s",
				g, a, a, a, g, g), true)
		case 2:
			sel = parse("SELECT b, d, a, c FROM t", true)
		case 3:
			lo := r.Intn(40)
			sel = parse(fmt.Sprintf("SELECT u.w, COUNT(*) AS n, SUM(t.c) AS s FROM t, u WHERE t.a = u.k AND t.a >= %d AND t.a <= %d GROUP BY u.w",
				lo, lo+r.Intn(15)), false)
		default:
			sel = parse(fmt.Sprintf("SELECT COUNT(*) AS n, SUM(d) AS s, MAX(b) AS m FROM t WHERE c > %d", r.Intn(10)), false)
		}
		db.NoBatch = true
		ref, err := db.ExecStmt(sel, "")
		db.NoBatch = false
		if err != nil {
			t.Fatalf("trial %d reference: %v", trial, err)
		}
		for _, noPrune := range []bool{true, false} {
			db.NoPrune = noPrune
			name := fmt.Sprintf("trial %d prune=%v", trial, !noPrune)
			run := func(cold bool) (*Result, string) {
				if cold {
					thawAll(db)
				}
				res, err := db.ExecStmt(sel, "")
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if cold {
					thawAll(db)
				}
				return res, analyzeText(t, db, sel)
			}
			cold, coldText := run(true)
			warm, warmText := run(false)
			if d := refDiff(sql.Print(sel), cold, ref); d != "" {
				t.Fatalf("%s: %s", name, d)
			}
			if got, want := sortedKeys(warm.Rows), sortedKeys(cold.Rows); strings.Join(got, "|") != strings.Join(want, "|") {
				t.Fatalf("%s: warm images changed the answer (%d vs %d rows)\n%s", name, len(got), len(want), cold.Plan)
			}
			if strings.Join(warm.Columns, ",") != strings.Join(cold.Columns, ",") {
				t.Fatalf("%s: headers %v vs %v", name, warm.Columns, cold.Columns)
			}
			if cold.Ctx.IO != warm.Ctx.IO || cold.Ctx.ShortCircuits != warm.Ctx.ShortCircuits ||
				cold.Ctx.HashProbes != warm.Ctx.HashProbes {
				t.Fatalf("%s: accounting cold %+v sc=%d probes=%d, warm %+v sc=%d probes=%d\n%s", name,
					cold.Ctx.IO, cold.Ctx.ShortCircuits, cold.Ctx.HashProbes,
					warm.Ctx.IO, warm.Ctx.ShortCircuits, warm.Ctx.HashProbes, cold.Plan)
			}
			if cold.Ctx.Comparisons != warm.Ctx.Comparisons {
				t.Fatalf("%s: comparisons cold %d, warm %d", name, cold.Ctx.Comparisons, warm.Ctx.Comparisons)
			}
			if coldText != warmText {
				t.Fatalf("%s: EXPLAIN ANALYZE differs\ncold:\n%s\nwarm:\n%s", name, coldText, warmText)
			}
			totalFrozen += warm.Ctx.IO.PagesFrozen
		}
	}
	db.NoPrune = false
	if totalFrozen == 0 {
		t.Fatal("no scan ever read a frozen page")
	}
}

// TestFrozenSnapshotStability: a reader pinned before a DELETE, an UPDATE or
// an aborted INSERT that hits a frozen page keeps seeing the pre-image; a
// reader that starts after the commit does not; a transaction sees its own
// writes. Every check runs on the engine and on the reference interpreter
// at the same snapshot.
func TestFrozenSnapshotStability(t *testing.T) {
	db := Open()
	db.NoIndexes = true // every statement below is a page scan
	db.MustExec("CREATE TABLE acct (id INT NOT NULL, bal INT)")
	te, _ := db.Catalog().Table("acct")
	const n = 1000
	for i := 0; i < n; i++ {
		if err := db.InsertRows(te, []types.Row{{types.NewInt(int64(i)), types.NewInt(100)}}); err != nil {
			t.Fatal(err)
		}
	}
	sum := func(sess *Session) (cnt, bal int64) {
		t.Helper()
		const q = "SELECT COUNT(*) AS n, SUM(bal) AS s FROM acct WHERE bal >= 0"
		res := sexec(t, sess, q)
		if d := refDiff(q, res, refAnswer(t, db, sess, q)); d != "" {
			t.Fatal(d)
		}
		return res.Rows[0][0].Int(), res.Rows[0][1].Int()
	}
	old, w, fresh := db.NewSession("old"), db.NewSession("writer"), db.NewSession("fresh")
	defer old.Close()
	defer w.Close()
	defer fresh.Close()

	sexec(t, old, "BEGIN")
	if c, b := sum(old); c != n || b != 100*n {
		t.Fatalf("baseline %d rows / %d", c, b)
	}
	if pages := frozenPages(t, db, "acct"); pages == 0 {
		t.Fatalf("baseline scan froze %d pages", pages)
	}
	before := frozenPages(t, db, "acct")

	sexec(t, w, "BEGIN")
	sexec(t, w, "DELETE FROM acct WHERE id = 3")
	sexec(t, w, "UPDATE acct SET bal = 150 WHERE id = 500")
	if after := frozenPages(t, db, "acct"); after >= before {
		t.Fatalf("write intents thawed nothing: %d -> %d frozen pages", before, after)
	}
	// Uncommitted: only the writer sees its own changes.
	if c, b := sum(w); c != n-1 || b != 100*n-100+50 {
		t.Fatalf("writer's own view: %d rows / %d", c, b)
	}
	if c, b := sum(old); c != n || b != 100*n {
		t.Fatalf("pinned reader saw uncommitted writes: %d rows / %d", c, b)
	}
	if c, b := sum(fresh); c != n || b != 100*n {
		t.Fatalf("fresh reader saw uncommitted writes: %d rows / %d", c, b)
	}
	sexec(t, w, "COMMIT")
	if c, b := sum(old); c != n || b != 100*n {
		t.Fatalf("pinned reader lost the pre-image after commit: %d rows / %d", c, b)
	}
	if c, b := sum(fresh); c != n-1 || b != 100*n-100+50 {
		t.Fatalf("reader after commit: %d rows / %d", c, b)
	}

	// An aborted insert on a frozen-then-thawed tail leaves no trace.
	sexec(t, w, "BEGIN")
	sexec(t, w, "INSERT INTO acct VALUES (9999, 7)")
	if c, _ := sum(w); c != n {
		t.Fatalf("writer does not see its own insert: %d rows", c)
	}
	sexec(t, w, "ROLLBACK")
	if c, b := sum(fresh); c != n-1 || b != 100*n-100+50 {
		t.Fatalf("aborted insert leaked: %d rows / %d", c, b)
	}
	sexec(t, old, "COMMIT")
	if c, b := sum(old); c != n-1 || b != 100*n-100+50 {
		t.Fatalf("released reader: %d rows / %d", c, b)
	}
}

// TestFrozenScansUnderWriters: four writers (insert, update, delete,
// rollback) and a background vacuum run beside four scanners for two
// seconds; every scanner compares its scan with the reference interpreter's
// answer inside one read transaction, i.e. at the same snapshot.
func TestFrozenScansUnderWriters(t *testing.T) {
	db := Open()
	db.NoIndexes = true
	db.MustExec("CREATE TABLE ev (id INT NOT NULL, grp INT, v INT)")
	te, _ := db.Catalog().Table("ev")
	const n = 4000
	for i := 0; i < n; i++ {
		if err := db.InsertRows(te, []types.Row{{types.NewInt(int64(i)), types.NewInt(int64(i % 7)), types.NewInt(1)}}); err != nil {
			t.Fatal(err)
		}
	}
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
					// First-updater-wins conflicts are expected; the
					// statement fails and the loop moves on.
					_, _ = sess.ExecCtx(context.Background(), q)
				}
			}
		}()
	}
	write("insert", func(*rand.Rand) []string {
		return []string{fmt.Sprintf("INSERT INTO ev VALUES (%d, 1, 1)", nextID.Add(1))}
	})
	write("update", func(r *rand.Rand) []string {
		return []string{fmt.Sprintf("UPDATE ev SET v = v + 1 WHERE id = %d", r.Intn(n))}
	})
	write("delete", func(r *rand.Rand) []string {
		return []string{fmt.Sprintf("DELETE FROM ev WHERE id = %d", r.Intn(n))}
	})
	write("rollback", func(r *rand.Rand) []string {
		return []string{"BEGIN",
			fmt.Sprintf("DELETE FROM ev WHERE id = %d", r.Intn(n)),
			fmt.Sprintf("INSERT INTO ev VALUES (%d, 2, 2)", -r.Intn(n)-1),
			"ROLLBACK"}
	})
	queries := []string{
		"SELECT COUNT(*) AS n, SUM(v) AS s, MAX(id) AS m FROM ev WHERE grp >= 0",
		"SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM ev GROUP BY grp ORDER BY grp",
		"SELECT id, v FROM ev WHERE grp = 3 AND v > 1",
	}
	var scans, frozen atomic.Int64
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := db.NewSession(fmt.Sprintf("scan-%d", s))
			defer sess.Close()
			for i := 0; time.Now().Before(deadline); i++ {
				q := queries[(s+i)%len(queries)]
				if _, err := sess.ExecCtx(context.Background(), "BEGIN"); err != nil {
					t.Error(err)
					return
				}
				got, err := sess.ExecCtx(context.Background(), q)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				ref, err := db.reference(context.Background(), nil, q, sess)
				if err != nil {
					t.Errorf("%s reference: %v", q, err)
					return
				}
				if _, err := sess.ExecCtx(context.Background(), "COMMIT"); err != nil {
					t.Error(err)
					return
				}
				if d := refDiff(q, got, ref); d != "" {
					t.Errorf("at one snapshot: %s", d)
					return
				}
				scans.Add(1)
				frozen.Add(got.Ctx.IO.PagesFrozen)
			}
		}(s)
	}
	wg.Wait()
	if scans.Load() == 0 || frozen.Load() == 0 {
		t.Fatalf("%d scan pairs read %d frozen pages", scans.Load(), frozen.Load())
	}
	if _, thaws := te.Heap.FreezeStats(); thaws == 0 {
		t.Fatal("no writer ever thawed a page")
	}
}

// TestFrozenImagesDoNotSurviveRestart: crash recovery and checkpoint restore
// reopen with no image anywhere, freeze lazily on the first scan, and answer
// exactly as before the restart.
func TestFrozenImagesDoNotSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncNone, CheckpointEvery: 200})
	if err != nil {
		t.Fatal(err)
	}
	db.NoIndexes = true
	db.MustExec("CREATE TABLE t (a INT NOT NULL, b INT, c FLOAT)")
	for i := 0; i < 2000; i += 4 {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 0.5), (%d, NULL, 1.5), (%d, %d, 2.5), (%d, %d, 3.5)",
			i, i%9, i+1, i+2, i%5, i+3, i%3))
	}
	db.MustExec("DELETE FROM t WHERE a = 77")
	queries := []string{
		"SELECT COUNT(*) AS n, SUM(c) AS s, MAX(b) AS m FROM t WHERE b >= 1",
		"SELECT b, COUNT(*) AS n FROM t GROUP BY b ORDER BY b",
		"SELECT a, c FROM t WHERE a >= 1900",
	}
	type answer struct {
		rows string
		io   string
	}
	ask := func(db *Database) []answer {
		var out []answer
		for _, q := range queries {
			res := db.MustExec(q)
			io := res.Ctx.IO.Load()
			out = append(out, answer{strings.Join(sortedKeys(res.Rows), "|"),
				fmt.Sprintf("pages=%d rows=%d skipped=%d frozen=%d", io.PagesRead, io.RowsRead, io.PagesSkipped, io.PagesFrozen)})
		}
		return out
	}
	want := ask(db)
	if pages := frozenPages(t, db, "t"); pages == 0 {
		t.Fatalf("live engine froze %d pages", pages)
	}
	crash := copyDataDir(t, dir) // mid-log: recovery replays the tail past the last checkpoint
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]string{"crash recovery": crash, "checkpoint restore": dir} {
		re, _, err := OpenDurable(d, DurableOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		re.NoIndexes = true
		if pages := frozenPages(t, re, "t"); pages != 0 {
			t.Fatalf("%s reopened with %d frozen pages", name, pages)
		}
		got := ask(re)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: %s\n got %+v\nwant %+v", name, queries[i], got[i], want[i])
			}
		}
		if pages := frozenPages(t, re, "t"); pages == 0 {
			t.Errorf("%s: scans froze nothing", name)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrozenObservability: the frozen-page figures reach EXPLAIN ANALYZE,
// the trace ring and the metrics registry, and the page-bytes gauge is the
// heaps' own figure: a thaw frees nothing, a new page adds its bytes.
func TestFrozenObservability(t *testing.T) {
	db := pruneDB(t, 4000, false)
	q := "SELECT COUNT(*) AS n, SUM(b) AS s FROM t WHERE c >= 0"
	res := db.MustExec(q)
	io := res.Ctx.IO.Load()
	if io.PagesFrozen == 0 || io.PagesFrozen > io.PagesRead {
		t.Fatalf("frozen %d of %d page reads", io.PagesFrozen, io.PagesRead)
	}
	ea := db.MustExec("EXPLAIN ANALYZE " + q)
	var text strings.Builder
	for _, r := range ea.Rows {
		text.WriteString(r[0].Str() + "\n")
	}
	token := fmt.Sprintf("frozen=%d/%d", io.PagesFrozen, io.PagesRead)
	if !strings.Contains(text.String(), token) {
		t.Errorf("EXPLAIN ANALYZE lacks %s:\n%s", token, text.String())
	}
	found := false
	for _, tr := range db.QueryLog().Recent(8) {
		if tr.SQL == q && tr.PagesFrozen == io.PagesFrozen && strings.Contains(tr.Render(), token) {
			found = true
		}
	}
	if !found {
		t.Errorf("no recent trace carries %s", token)
	}
	metrics := func() string {
		var b strings.Builder
		if err := db.Metrics().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	m := metrics()
	for _, fam := range []string{"softdb_scan_pages_frozen_total", "softdb_storage_page_thaws_total", "softdb_storage_heap_page_bytes"} {
		if !strings.Contains(m, "# TYPE "+fam) {
			t.Errorf("metrics lack family %s", fam)
		}
	}
	if v := db.Metrics().Counter("softdb_scan_pages_frozen_total").Value(); v < 2*io.PagesFrozen {
		t.Errorf("softdb_scan_pages_frozen_total = %d after two scans of %d frozen pages", v, io.PagesFrozen)
	}
	te, err := db.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	bytes := db.Metrics().Gauge("softdb_storage_heap_page_bytes").Value()
	if bytes == 0 || bytes != te.Heap.PageBytes() {
		t.Fatalf("page-bytes gauge %d, heap t holds %d", bytes, te.Heap.PageBytes())
	}
	db.MustExec("DELETE FROM t WHERE a = 5")
	metrics()
	if v := db.Metrics().Counter("softdb_storage_page_thaws_total").Value(); v == 0 {
		t.Error("a DELETE on a frozen page counted no thaw")
	}
	if after := db.Metrics().Gauge("softdb_storage_heap_page_bytes").Value(); after != bytes {
		t.Errorf("page-bytes gauge moved on a thaw: %d -> %d", bytes, after)
	}
	for pages := te.Heap.PageCount(); te.Heap.PageCount() == pages; {
		db.MustExec("INSERT INTO t VALUES (-1, 0, 0)")
	}
	metrics()
	if after := db.Metrics().Gauge("softdb_storage_heap_page_bytes").Value(); after <= bytes || after != te.Heap.PageBytes() {
		t.Errorf("page-bytes gauge after a new page: %d -> %d, heap holds %d", bytes, after, te.Heap.PageBytes())
	}
}

// TestFrozenIndexPagePathColdWarm is the cold/warm differential for index
// scans that switched to the page path, which reads frozen images like a
// page scan: rows, every counter and the EXPLAIN ANALYZE text must not
// depend on the image state, and the answer must be the reference
// interpreter's.
func TestFrozenIndexPagePathColdWarm(t *testing.T) {
	db := pagePathDB(t, 6000)
	queries := []string{
		"SELECT id, v, f FROM ev WHERE id >= 1000 AND id < 2600 AND v > 100",
		"SELECT grp, COUNT(*) AS n, SUM(v) AS s, MAX(f) AS m FROM ev WHERE id >= 4300 GROUP BY grp",
		"SELECT id, d FROM ev WHERE d >= DATE '2000-01-01' + 500 AND d < DATE '2000-01-01' + 1300",
	}
	var totalFrozen int64
	for _, q := range queries {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(*sql.Select)
		db.NoBatch = true
		ref, err := db.ExecStmt(sel, "")
		db.NoBatch = false
		if err != nil {
			t.Fatalf("%s reference: %v", q, err)
		}
		run := func(cold bool) (*Result, string) {
			if cold {
				thawAll(db)
			}
			res, err := db.ExecStmt(sel, "")
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if cold {
				thawAll(db)
			}
			return res, analyzeText(t, db, sel)
		}
		cold, coldText := run(true)
		warm, warmText := run(false)
		if d := refDiff(q, cold, ref); d != "" {
			t.Fatal(d)
		}
		if cold.Ctx.PagePaths != 1 || warm.Ctx.PagePaths != 1 {
			t.Fatalf("%s: page-path switches cold %d, warm %d\n%s", q, cold.Ctx.PagePaths, warm.Ctx.PagePaths, cold.Plan)
		}
		if got, want := sortedKeys(warm.Rows), sortedKeys(cold.Rows); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("%s: warm images changed the answer (%d vs %d rows)", q, len(got), len(want))
		}
		if cold.Ctx.IO != warm.Ctx.IO || cold.Ctx.ShortCircuits != warm.Ctx.ShortCircuits || cold.Ctx.Comparisons != warm.Ctx.Comparisons {
			t.Fatalf("%s: accounting cold %+v sc=%d cmp=%d, warm %+v sc=%d cmp=%d", q,
				cold.Ctx.IO, cold.Ctx.ShortCircuits, cold.Ctx.Comparisons, warm.Ctx.IO, warm.Ctx.ShortCircuits, warm.Ctx.Comparisons)
		}
		if coldText != warmText {
			t.Fatalf("%s: EXPLAIN ANALYZE differs\ncold:\n%s\nwarm:\n%s", q, coldText, warmText)
		}
		totalFrozen += warm.Ctx.IO.PagesFrozen
	}
	if totalFrozen == 0 {
		t.Fatal("no switched index scan read a frozen page")
	}
}

// TestSetUpLeavesPagesCold: nothing is frozen at load (DESIGN.md §20), and
// set-up keeps it so. ANALYZE, the single-table miners and the join-hole
// miner read whole columns (Heap.Columns), which freezes no page and
// charges no query counter.
func TestSetUpLeavesPagesCold(t *testing.T) {
	db := Open()
	db.MustExec("CREATE TABLE orders (okey INT NOT NULL, odate DATE, amt FLOAT, cust INT, region VARCHAR(8))")
	db.MustExec("CREATE TABLE lineitem (okey INT NOT NULL, shipdate DATE, qty INT)")
	orders, err := db.Catalog().Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	lineitem, err := db.Catalog().Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		day := int64(10592 + i/8)
		if err := db.InsertRows(orders, []types.Row{{types.NewInt(int64(i)), types.NewDate(day),
			types.NewFloat(float64(i%500) / 4), types.NewInt(int64(i % 60)), types.NewString(fmt.Sprint("r", i%60%7))}}); err != nil {
			t.Fatal(err)
		}
		for l := int64(0); l < 3; l++ {
			if err := db.InsertRows(lineitem, []types.Row{{types.NewInt(int64(i)), types.NewDate(day + 1 + l*3), types.NewInt(l)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cold := func(when string) {
		t.Helper()
		for _, te := range []*catalog.TableEntry{orders, lineitem} {
			if pages, _ := te.Heap.FreezeStats(); pages != 0 {
				t.Fatalf("%s: %d of %s's %d pages frozen", when, pages, te.Def.Name, te.Heap.PageCount())
			}
		}
		if v := db.Metrics().Counter("softdb_scan_pages_frozen_total").Value(); v != 0 {
			t.Fatalf("%s: %d frozen page reads counted", when, v)
		}
	}
	cold("after the load")
	for _, table := range []string{"orders", "lineitem"} {
		res := db.MustExec("ANALYZE " + table)
		if io := res.Ctx.IO.Load(); io != (storage.Counters{}) {
			t.Errorf("ANALYZE %s charged %+v", table, io)
		}
	}
	cold("after ANALYZE")
	mgr := softc.NewManager(db.Catalog())
	cands, err := mgr.DiscoverTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands.FDs) == 0 || len(cands.Ranges) == 0 {
		t.Fatalf("discovery found %d FDs and %d ranges on orders", len(cands.FDs), len(cands.Ranges))
	}
	cold("after DiscoverTable")
	if _, rows, err := mining.MineJoinHoles(mining.JoinHoleRequest{Left: orders, Right: lineitem,
		JoinLeft: "okey", JoinRight: "okey", AttrLeft: "odate", AttrRight: "shipdate"}); err != nil || rows != 9000 {
		t.Fatalf("MineJoinHoles profiled %d join rows (err %v), want 9000", rows, err)
	}
	cold("after MineJoinHoles")
}
