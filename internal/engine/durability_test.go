package engine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"softdb/internal/btree"
	"softdb/internal/catalog"
	"softdb/internal/exec"
	"softdb/internal/fault"
	"softdb/internal/stats"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/wal"
)

// --- state rendering -------------------------------------------------------
//
// renderState serializes everything a crashed-and-recovered database must
// reproduce: table definitions, physical heap layout (dead slots included,
// so RowID assignment matches), heap versions, index contents, constraints
// with their full soft-state (activity, confidence, currency), virtual
// columns, statistics, summary tables, correlations, join holes, exception
// links, and views. The catalog's version counters are deliberately absent:
// recovery restores the soft registry from whole images rather than
// replaying each individual bump, so they may lawfully differ.

func renderState(db *Database) string {
	var sb strings.Builder
	cat := db.Catalog()
	for _, name := range cat.TableNames() {
		te, err := cat.Table(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&sb, "TABLE %s | v=%d rows=%d pages=%d\n",
			te.Def.String(), te.Heap.Version(), te.Heap.RowCount(), te.Heap.PageCount())
		renderHeap(&sb, te.Heap)
		for _, con := range te.Constraints {
			fmt.Fprintf(&sb, "  CON %s | active=%v conf=%.6f vv=%d mods=%d\n",
				con.Describe(), con.Active, con.Confidence, con.VerifiedVersion, con.ModsSince)
		}
		for _, ix := range te.Indexes {
			fmt.Fprintf(&sb, "  INDEX %s unique=%v cols=%v entries=%d\n",
				ix.Name, ix.Unique, ix.Columns, ix.Tree.Len())
			ix.Tree.Ascend(nil, func(key btree.Key, rid storage.RowID) bool {
				fmt.Fprintf(&sb, "    %v -> %v\n", key, rid)
				return true
			})
		}
		for _, vc := range te.Virtual {
			fmt.Fprintf(&sb, "  VIRTUAL %s canon=%q stats=%v\n", vc.Name, vc.Canon, vc.Stats)
		}
		renderStats(&sb, te.Stats)
	}
	for _, st := range cat.AllSummaries() {
		where := "<nil>"
		if st.Where != nil {
			where = st.Where.String()
		}
		fmt.Fprintf(&sb, "SUMMARY %s base=%s info=%v est=%d where=%s\n",
			st.Name, st.Base, st.Informational, st.RowCountEstimate, where)
		if st.Heap != nil {
			fmt.Fprintf(&sb, "  heap v=%d rows=%d pages=%d\n",
				st.Heap.Version(), st.Heap.RowCount(), st.Heap.PageCount())
			renderHeap(&sb, st.Heap)
		}
		renderStats(&sb, st.Stats)
	}
	for _, lc := range cat.AllCorrelations() {
		fmt.Fprintf(&sb, "CORR %s | vv=%d mods=%d\n", lc.Describe(), lc.VerifiedVersion, lc.ModsSince)
	}
	for _, jh := range cat.AllJoinHoles() {
		fmt.Fprintf(&sb, "HOLES %s | active=%v vv=%d mods=%d\n",
			jh.Describe(), jh.Active, jh.VerifiedVersion, jh.ModsSince)
		for _, r := range jh.Holes {
			fmt.Fprintf(&sb, "  %s\n", r.String())
		}
	}
	exc := cat.Exceptions()
	for _, k := range sortedMapKeys(exc) {
		fmt.Fprintf(&sb, "EXCEPTION %s -> %s\n", k, exc[k])
	}
	for _, name := range sortedMapKeys(db.views) {
		fmt.Fprintf(&sb, "VIEW %s\n", name)
	}
	return sb.String()
}

func renderHeap(sb *strings.Builder, h *storage.Heap) {
	for pi, page := range h.DumpPages() {
		for si, slot := range page {
			if slot.Dead {
				fmt.Fprintf(sb, "    [%d:%d] dead\n", pi, si)
			} else {
				fmt.Fprintf(sb, "    [%d:%d] %v\n", pi, si, slot.Row)
			}
		}
	}
}

func renderStats(sb *strings.Builder, ts *stats.TableStats) {
	if ts == nil {
		return
	}
	fmt.Fprintf(sb, "  STATS rows=%d pages=%d v=%d\n", ts.RowCount, ts.Pages, ts.Version)
	for _, col := range sortedMapKeys(ts.Columns) {
		fmt.Fprintf(sb, "    %s: %s\n", col, ts.Columns[col].String())
	}
}

func sortedMapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// firstDiff points at the first line where two renderings disagree.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  twin:      %q\n  recovered: %q", i+1, w, g)
		}
	}
	return "(identical)"
}

// copyDataDir snapshots the data directory byte-for-byte into a fresh temp
// dir — the moral equivalent of kill -9 between statements, since the WAL is
// append-only and the snapshot is replaced atomically.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// --- the seeded workload ---------------------------------------------------

type wop struct {
	desc    string
	mayFail bool
	run     func(db *Database) error
}

func sqlOp(text string) wop {
	return wop{desc: text, run: func(db *Database) error {
		_, err := db.Exec(text)
		return err
	}}
}

func sqlOpFails(text string) wop {
	op := sqlOp(text)
	op.mayFail = true
	return op
}

// durabilityWorkload is a deterministic mixed workload covering every record
// type the WAL knows: DML on two tables, index/summary/view DDL, ANALYZE,
// soft-constraint mining and installs, ASC-violating writes, virtual
// columns, exception links, intentional statement failures, and a truncate.
func durabilityWorkload() []wop {
	var ops []wop
	add := func(text string) { ops = append(ops, sqlOp(text)) }

	add(`CREATE TABLE orders (id INT PRIMARY KEY, qty INT NOT NULL, price INT, region INT,
		CONSTRAINT qty_pos CHECK (qty >= 0) SOFT)`)
	add(`CREATE TABLE items (id INT NOT NULL, weight INT)`)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		add(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d, %d)",
			i, 2*i+rng.Intn(3), 10+rng.Intn(90), i%5))
	}
	for i := 0; i < 10; i++ {
		add(fmt.Sprintf("INSERT INTO items VALUES (%d, %d)", i, 100+i))
	}
	add("CREATE INDEX idx_qty ON orders (qty)")
	add("CREATE SUMMARY TABLE pricey AS (SELECT * FROM orders WHERE price >= 80)")
	add("CREATE INFORMATIONAL SUMMARY TABLE cheap AS (SELECT * FROM orders WHERE price <= 20)")
	add("ANALYZE orders")
	add("ANALYZE items")
	ops = append(ops, wop{desc: "mine+install soft constraints", run: func(db *Database) error {
		mgr := db.SoftcManager()
		cands, err := mgr.DiscoverTable("orders")
		if err != nil {
			return err
		}
		sel := mgr.SelectCorrelations(cands.Correlations, 2)
		if len(sel) > 1 {
			if err := mgr.InstallOnProbation(sel[1:]); err != nil {
				return err
			}
			sel = sel[:1]
		}
		if err := mgr.InstallCorrelations(sel); err != nil {
			return err
		}
		return mgr.InstallRanges(cands.Ranges)
	}})
	add("SELECT id, qty FROM orders WHERE qty >= 20 AND qty <= 30")
	add("SELECT id FROM orders WHERE region = 1")
	add("UPDATE orders SET price = price + 5 WHERE region = 2")
	add("DELETE FROM orders WHERE id = 3")
	add("DELETE FROM orders WHERE id = 17")
	// Violates the mined qty/id ranges and the qty≈2·id envelope: the live
	// write path deactivates those ASCs, and replay must do the same.
	add("INSERT INTO orders VALUES (90, 500, 50, 1)")
	add("CREATE VIEW big AS SELECT id, qty FROM orders WHERE qty > 10")
	add("ALTER TABLE orders ADD CONSTRAINT price_cap CHECK (price <= 1000) SOFT")
	ops = append(ops, wop{desc: "add virtual column", run: func(db *Database) error {
		return db.AddVirtualColumn("orders", "margin", "price - region")
	}})
	add("ALTER TABLE orders ADD CONSTRAINT cheapish CHECK (price <= 120) SOFT STATISTICAL CONFIDENCE 0.9")
	ops = append(ops, wop{desc: "link exception AST", run: func(db *Database) error {
		return db.LinkException("cheapish", "pricey")
	}})
	ops = append(ops, sqlOpFails("CREATE TABLE orders (id INT)"))           // duplicate table
	ops = append(ops, sqlOpFails("INSERT INTO orders VALUES (0, 1, 1, 1)")) // duplicate PK
	ops = append(ops, wop{desc: "truncate items", run: func(db *Database) error {
		return db.TruncateTable("items")
	}})
	for i := 0; i < 6; i++ {
		add(fmt.Sprintf("INSERT INTO items VALUES (%d, %d)", i, 100+i))
	}
	add("UPDATE orders SET qty = qty - 1 WHERE id = 90")
	add("SELECT id FROM big WHERE qty > 30")
	add("ANALYZE orders")
	return ops
}

// --- the crash/recovery differential suite (ISSUE 6 satellite 1) -----------

// TestCrashRecoveryDifferential drives the seeded workload against a durable
// database, hard-stops it (directory copy) at K seeded points, recovers each
// copy, and requires the recovered state to be byte-identical — under
// renderState — to an in-memory twin that executed the same statement
// prefix and never crashed.
func TestCrashRecoveryDifferential(t *testing.T) {
	ops := durabilityWorkload()
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncNone, CheckpointEvery: 7})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	points := map[int]bool{}
	for len(points) < 6 {
		points[2+rng.Intn(len(ops)-2)] = true
	}
	copies := map[int]string{}
	for i, op := range ops {
		err := op.run(db)
		if err != nil && !op.mayFail {
			t.Fatalf("op %d (%s): %v", i, op.desc, err)
		}
		if err == nil && op.mayFail {
			t.Fatalf("op %d (%s): expected failure, got success", i, op.desc)
		}
		if points[i] {
			copies[i] = copyDataDir(t, dir)
		}
	}
	crashAtEnd := copyDataDir(t, dir)
	if err := db.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}

	twin := Open()
	check := func(label, cdir string) {
		t.Helper()
		rec, rs, err := OpenDurable(cdir, DurableOptions{SyncPolicy: wal.SyncNone})
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", label, err)
		}
		defer rec.Close()
		if rs.TailTruncated {
			// Copies are taken between statements; there is no torn tail.
			t.Errorf("%s: unexpected tail truncation: %v", label, rs.TailErr)
		}
		// Dead row versions are deliberately not durable: a checkpoint
		// writes a vacuumed and an unvacuumed heap identically, so the
		// recovered side comes back vacuum-normalized. Vacuum both sides
		// and compare that state — slot layout (hence RowIDs) survives
		// vacuum, so this still pins the physical story.
		rec.Vacuum()
		twin.Vacuum()
		if got, want := renderState(rec), renderState(twin); got != want {
			t.Errorf("%s: recovered state diverged from never-crashed twin\n%s",
				label, firstDiff(want, got))
		}
		if n := rec.CachedPlanCount(); n != 0 {
			t.Errorf("%s: plan cache survived recovery: %d entries", label, n)
		}
	}
	for i, op := range ops {
		if err := op.run(twin); err != nil && !op.mayFail {
			t.Fatalf("twin op %d (%s): %v", i, op.desc, err)
		}
		if cdir, ok := copies[i]; ok {
			check(fmt.Sprintf("crash after op %d (%s)", i, op.desc), cdir)
		}
	}
	check("crash after final op", crashAtEnd)

	// Clean shutdown checkpointed, so the reopen recovers from the snapshot
	// alone: zero records replayed, and the state still matches the twin.
	reopened, rs, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncNone})
	if err != nil {
		t.Fatalf("reopen after clean shutdown: %v", err)
	}
	defer reopened.Close()
	if rs.RecordsReplayed != 0 {
		t.Errorf("clean shutdown should leave nothing to replay: %d records", rs.RecordsReplayed)
	}
	if rs.SnapshotLSN == 0 {
		t.Error("clean shutdown should have written a snapshot")
	}
	reopened.Vacuum()
	twin.Vacuum()
	if got, want := renderState(reopened), renderState(twin); got != want {
		t.Errorf("reopened state diverged from twin\n%s", firstDiff(want, got))
	}
}

// --- recovered-constraint semantics (ISSUE 6 satellite 3) ------------------

// An ASC violated by DML that happened after the last checkpoint must come
// out of recovery deactivated: replay re-runs the soft write hooks, so the
// deactivation reproduces without revalidation having to catch it.
func TestRecoveredASCInvalidatedByReplayedDML(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncNone, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (a INT, CONSTRAINT pos CHECK (a >= 0) SOFT)")
	db.MustExec("INSERT INTO t VALUES (5)")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The snapshot holds pos as active; the violation is only in the log.
	db.MustExec("INSERT INTO t VALUES (-1)")
	if con := db.Catalog().ConstraintByName("pos"); con == nil || con.Active {
		t.Fatal("violating insert should have deactivated pos pre-crash")
	}
	cp := copyDataDir(t, dir)

	rec, rs, err := OpenDurable(cp, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	con := rec.Catalog().ConstraintByName("pos")
	if con == nil || con.Active {
		t.Fatalf("recovered ASC should be inactive: %+v", con)
	}
	// Replay itself deactivated it, mirroring the live path — revalidation
	// never saw an active violated constraint.
	if rs.Invalidated != 0 {
		t.Errorf("deactivation should come from replay, not revalidation: %+v", rs)
	}
}

// A registry image that claims an ASC is active while the recovered data
// violates it (possible if the crash interleaved with mining) must be caught
// by the recovery revalidation sweep.
func TestStaleActiveRegistryRevalidatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncNone, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (a INT)")
	for i := 0; i < 10; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	// Hand-install an active ASC the data already violates, bypassing the
	// write-path verification, then log the stale image.
	te, _ := db.Catalog().Table("t")
	parsed, err := parseExpression("a < 5")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := bindToTable(parsed, te.Def)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Catalog().AddConstraint(&catalog.Constraint{
		Name: "bogus", Kind: catalog.Check, Mode: catalog.ModeSoftAbsolute,
		Table: "t", CheckExpr: bound, Confidence: 1, Active: true,
	}); err != nil {
		t.Fatal(err)
	}
	db.SyncSoftRegistry()
	cp := copyDataDir(t, dir)

	rec, rs, err := OpenDurable(cp, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rs.Revalidated == 0 || rs.Invalidated == 0 {
		t.Errorf("revalidation should have run and invalidated: %+v", rs)
	}
	if con := rec.Catalog().ConstraintByName("bogus"); con == nil || con.Active {
		t.Fatalf("stale-active ASC must be deactivated by recovery: %+v", con)
	}
}

// Mined soft state logged via the registry image must survive a crash that
// happens before any checkpoint covers it.
func TestSoftRegistrySurvivesCrashBeforeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncNone, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (a INT NOT NULL, b INT)")
	for i := 0; i < 50; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, 2*i))
	}
	db.MustExec("ANALYZE t")
	mgr := db.SoftcManager()
	cands, err := mgr.DiscoverTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.InstallCorrelations(mgr.SelectCorrelations(cands.Correlations, 2)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.InstallRanges(cands.Ranges); err != nil {
		t.Fatal(err)
	}
	want := renderState(db)
	cp := copyDataDir(t, dir)

	rec, _, err := OpenDurable(cp, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := renderState(rec); got != want {
		t.Errorf("mined registry lost across crash\n%s", firstDiff(want, got))
	}
	if len(rec.Catalog().AllCorrelations()) == 0 {
		t.Error("no correlations recovered")
	}
}

// Zone-map pruning must work identically after recovery: the rebuilt heap
// republishes page synopses and the recovered correlations still introduce
// prune predicates, so a recovered engine skips the same pages a
// never-crashed one does and returns the same rows.
func TestZoneMapPruneParityAfterRecovery(t *testing.T) {
	const n = 3000
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncNone, CheckpointEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	db.NoIndexes = true
	db.MustExec("CREATE TABLE t (a INT NOT NULL, b INT, c INT)")
	te, _ := db.Catalog().Table("t")
	for i := 0; i < n; i++ {
		b := types.Datum(types.NewInt(int64(i + i%4)))
		if i%97 == 0 {
			b = types.Null
		}
		if err := db.InsertRows(te, []types.Row{{
			types.NewInt(int64(i)), b, types.NewInt(int64(i % 10))}}); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExec("ANALYZE t")
	mgr := db.SoftcManager()
	cands, err := mgr.DiscoverTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.InstallCorrelations(mgr.SelectCorrelations(cands.Correlations, 4)); err != nil {
		t.Fatal(err)
	}
	cp := copyDataDir(t, dir)
	_ = db.Close()

	rec, _, err := OpenDurable(cp, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	twin := pruneDB(t, n, true)

	q := "SELECT a, b FROM t WHERE a >= 100 AND a <= 140"
	rr := rec.MustExec(q)
	tr := twin.MustExec(q)
	rio, tio := rr.Ctx.IO.Load(), tr.Ctx.IO.Load()
	if rio.PagesSkipped == 0 {
		t.Fatalf("recovered engine pruned nothing: %+v\n%s", rio, rr.Plan)
	}
	if rio.PagesSkipped != tio.PagesSkipped || rio.PagesRead != tio.PagesRead {
		t.Errorf("prune parity: recovered read=%d skipped=%d, twin read=%d skipped=%d",
			rio.PagesRead, rio.PagesSkipped, tio.PagesRead, tio.PagesSkipped)
	}
	if len(rr.Rows) != len(tr.Rows) {
		t.Fatalf("row parity: recovered %d rows, twin %d", len(rr.Rows), len(tr.Rows))
	}
}

// The plan cache is a volatile structure keyed to a process lifetime; it
// must start cold after recovery and rebuild on demand.
func TestPlanCacheDoesNotSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t VALUES (1)")
	q := "SELECT a FROM t WHERE a >= 1"
	db.MustExec(q)
	if res := db.MustExec(q); !res.CacheHit {
		t.Fatal("second execution should hit the plan cache")
	}
	if db.CachedPlanCount() == 0 {
		t.Fatal("cache should hold the plan pre-crash")
	}
	cp := copyDataDir(t, dir)

	rec, _, err := OpenDurable(cp, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if n := rec.CachedPlanCount(); n != 0 {
		t.Fatalf("plan cache survived recovery: %d entries", n)
	}
	if res := rec.MustExec(q); res.CacheHit {
		t.Error("first post-recovery execution cannot be a cache hit")
	}
	if res := rec.MustExec(q); !res.CacheHit {
		t.Error("plan cache should rebuild after recovery")
	}
}

// --- crash-shape tests -----------------------------------------------------

// A crash mid-commit tears the tail frame; recovery truncates back to the
// last statement boundary and loses at most the in-flight statement.
func TestTornTailLosesOnlyInFlightStatement(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncNone, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t VALUES (1)")
	db.MustExec("INSERT INTO t VALUES (2)")
	cp := copyDataDir(t, dir)
	_ = db.Close()

	lp := wal.LogPath(cp)
	fi, err := os.Stat(lp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(lp, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	rec, rs, err := OpenDurable(cp, DurableOptions{})
	if err != nil {
		t.Fatalf("a torn tail must not be fatal: %v", err)
	}
	defer rec.Close()
	if !rs.TailTruncated {
		t.Error("tail truncation should be reported")
	}
	rows, err := rec.Query("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Fatalf("exactly the in-flight statement is lost; got rows %v", rows)
	}
}

// A crash mid-checkpoint (torn snapshot temp file) leaves the previous
// snapshot and the full log intact, so recovery still lands on the correct
// state.
func TestCheckpointTornWriteKeepsConsistency(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(fault.Config{WALSnapTornAfter: 4})
	db, _, err := OpenDurable(dir, DurableOptions{
		SyncPolicy: wal.SyncNone, CheckpointEvery: -1, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t VALUES (7)")
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint should fail under the torn-snapshot injector")
	}
	cp := copyDataDir(t, dir)

	rec, rs, err := OpenDurable(cp, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery after torn checkpoint: %v", err)
	}
	defer rec.Close()
	if rs.SnapshotLSN != 0 {
		t.Errorf("no snapshot should have landed: lsn=%d", rs.SnapshotLSN)
	}
	rows, err := rec.Query("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Fatalf("state after torn checkpoint: %v", rows)
	}
	if _, err := os.Stat(wal.SnapshotPath(cp) + ".tmp"); !os.IsNotExist(err) {
		t.Error("torn snapshot temp file should not linger")
	}
}

// An fsync failure latches the writer: the failing statement reports a
// typed recovery error, reads keep working, and every later mutation fails
// until a restart recovers the valid prefix.
func TestFsyncFailureLatchesMutations(t *testing.T) {
	inj := fault.New(fault.Config{WALSyncFailAt: 1})
	db, _, err := OpenDurable(t.TempDir(), DurableOptions{
		SyncPolicy: wal.SyncAlways, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Exec("CREATE TABLE t (a INT)")
	qe, ok := exec.AsQueryError(err)
	if !ok || qe.Kind != exec.KindRecovery {
		t.Fatalf("want KindRecovery QueryError, got %v", err)
	}
	// The in-memory application already happened; reads still serve.
	if _, err := db.Query("SELECT a FROM t"); err != nil {
		t.Fatalf("reads must survive a latched WAL: %v", err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("mutations must stay failed after the WAL latches")
	}
}

// A log that replays to a different outcome than it recorded is a fatal,
// typed recovery error — silent divergence is never acceptable.
func TestReplayDivergenceIsFatal(t *testing.T) {
	t.Run("row record for missing table", func(t *testing.T) {
		dir := t.TempDir()
		w, err := wal.OpenWriter(wal.LogPath(dir), 1, wal.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.Commit([]*wal.Record{
			{Type: wal.TypeInsert, Table: "ghost", Row: types.Row{types.NewInt(1)}},
		}); err != nil {
			t.Fatal(err)
		}
		w.Close()
		_, _, err = OpenDurable(dir, DurableOptions{})
		qe, ok := exec.AsQueryError(err)
		if !ok || qe.Kind != exec.KindRecovery {
			t.Fatalf("want fatal KindRecovery, got %v", err)
		}
	})
	t.Run("DDL outcome mismatch", func(t *testing.T) {
		dir := t.TempDir()
		w, err := wal.OpenWriter(wal.LogPath(dir), 1, wal.WriterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Logged as failed, but replay will succeed: divergence.
		if _, _, err := w.Commit([]*wal.Record{
			{Type: wal.TypeDDL, SQL: "CREATE TABLE t (a INT)", Applied: false},
		}); err != nil {
			t.Fatal(err)
		}
		w.Close()
		_, _, err = OpenDurable(dir, DurableOptions{})
		qe, ok := exec.AsQueryError(err)
		if !ok || qe.Kind != exec.KindRecovery {
			t.Fatalf("want fatal KindRecovery, got %v", err)
		}
	})
}
