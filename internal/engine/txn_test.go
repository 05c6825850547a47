package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softdb/internal/exec"
	"softdb/internal/fault"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/wal"
)

// The transaction differential suite: MVCC snapshot isolation, explicit
// BEGIN/COMMIT/ROLLBACK, first-updater-wins conflicts, and the
// commit-scoped soft-characterization hooks — serial and under -race.

// sexec runs one statement on a session, failing the test on error.
func sexec(t *testing.T, sess *Session, q string) *Result {
	t.Helper()
	res, err := sess.ExecCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("session %s: %s: %v", sess.Label(), q, err)
	}
	return res
}

// scount reads COUNT(*) through a session (inside its transaction if one
// is open).
func scount(t *testing.T, sess *Session, table string) int64 {
	t.Helper()
	res := sexec(t, sess, "SELECT COUNT(*) AS n FROM "+table)
	return res.Rows[0][0].Int()
}

func txnDB(t *testing.T) *Database {
	t.Helper()
	db := Open()
	db.MustExec("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	for i := 0; i < 10; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO acct VALUES (%d, %d)", i, 100*i))
	}
	return db
}

// A transaction reads from the snapshot taken at BEGIN: concurrent
// committed writes stay invisible until its own COMMIT, and its own
// uncommitted writes are visible to itself only.
func TestTxnSnapshotStability(t *testing.T) {
	db := txnDB(t)
	a := db.NewSession("a")
	defer a.Close()

	sexec(t, a, "BEGIN")
	if got := scount(t, a, "acct"); got != 10 {
		t.Fatalf("baseline count %d want 10", got)
	}
	db.MustExec("INSERT INTO acct VALUES (50, 1)") // commits outside the txn
	if got := scount(t, a, "acct"); got != 10 {
		t.Errorf("snapshot moved: count %d want 10 after concurrent commit", got)
	}
	sexec(t, a, "INSERT INTO acct VALUES (60, 2)")
	if got := scount(t, a, "acct"); got != 11 {
		t.Errorf("own write invisible: count %d want 11", got)
	}
	if n, _ := db.Query("SELECT id FROM acct WHERE id = 60"); len(n) != 0 {
		t.Error("uncommitted insert leaked to another snapshot")
	}
	sexec(t, a, "COMMIT")
	if got := scount(t, a, "acct"); got != 12 {
		t.Errorf("post-commit count %d want 12", got)
	}
}

// First-updater-wins: the second transaction to touch a row gets a typed
// conflict, immediately, whether it is explicit or implicit — and retrying
// after the winner commits still conflicts, because the loser's snapshot
// predates the winner's commit.
func TestFirstUpdaterWinsConflict(t *testing.T) {
	db := txnDB(t)
	a, b := db.NewSession("a"), db.NewSession("b")
	defer a.Close()
	defer b.Close()

	sexec(t, a, "BEGIN")
	sexec(t, b, "BEGIN")
	sexec(t, a, "UPDATE acct SET bal = bal + 1 WHERE id = 3")

	wantConflict := func(label string, err error) {
		t.Helper()
		qe, ok := exec.AsQueryError(err)
		if !ok || qe.Kind != exec.KindConflict {
			t.Fatalf("%s: want KindConflict QueryError, got %v", label, err)
		}
	}
	_, err := b.ExecCtx(context.Background(), "UPDATE acct SET bal = bal + 7 WHERE id = 3")
	wantConflict("explicit loser", err)
	_, err = db.Exec("DELETE FROM acct WHERE id = 3")
	wantConflict("implicit loser", err)

	sexec(t, a, "COMMIT")
	// B's snapshot predates A's commit; its update still loses.
	_, err = b.ExecCtx(context.Background(), "UPDATE acct SET bal = bal + 7 WHERE id = 3")
	wantConflict("stale-snapshot loser", err)
	sexec(t, b, "ROLLBACK")

	// A's update, and only A's, survived.
	rows, err := db.Query("SELECT bal FROM acct WHERE id = 3")
	if err != nil || len(rows) != 1 || rows[0][0].Int() != 301 {
		t.Fatalf("winner's write lost: rows=%v err=%v", rows, err)
	}
}

// A failed statement inside an explicit transaction undoes only itself;
// the transaction stays open and commits its earlier work.
func TestStatementAtomicityInsideTxn(t *testing.T) {
	db := txnDB(t)
	a := db.NewSession("a")
	defer a.Close()

	sexec(t, a, "BEGIN")
	sexec(t, a, "INSERT INTO acct VALUES (20, 1)")
	// Second row of the statement violates the PK; the whole statement —
	// including its first row — must vanish.
	if _, err := a.ExecCtx(context.Background(), "INSERT INTO acct VALUES (21, 1), (20, 2)"); err == nil {
		t.Fatal("duplicate-PK statement succeeded")
	}
	if got := scount(t, a, "acct"); got != 11 {
		t.Errorf("count %d want 11 (statement not atomically undone)", got)
	}
	sexec(t, a, "COMMIT")
	rows, _ := db.Query("SELECT id FROM acct WHERE id >= 20")
	if len(rows) != 1 || rows[0][0].Int() != 20 {
		t.Errorf("committed state wrong: %v", rows)
	}
}

// logicalState projects a database's observable state: table contents,
// soft-constraint registry, correlations, and summary contents. Unlike
// renderState it ignores physical slot layout, which legitimately differs
// once a rolled-back transaction has left aborted placeholder slots.
func logicalState(t *testing.T, db *Database) string {
	t.Helper()
	var sb strings.Builder
	cat := db.Catalog()
	for _, name := range cat.TableNames() {
		te, err := cat.Table(name)
		if err != nil {
			continue
		}
		cols := make([]string, len(te.Def.Columns))
		for i, c := range te.Def.Columns {
			cols[i] = c.Name
		}
		res, err := db.Exec(fmt.Sprintf("SELECT %s FROM %s", strings.Join(cols, ", "), name))
		if err != nil {
			t.Fatalf("logicalState %s: %v", name, err)
		}
		fmt.Fprintf(&sb, "TABLE %s rows=%d\n%s\n", name, te.Heap.RowCount(), fingerprint(res))
		for _, con := range te.Constraints {
			fmt.Fprintf(&sb, "  CON %s | active=%v conf=%.6f mods=%d\n",
				con.Describe(), con.Active, con.Confidence, con.ModsSince)
		}
		for _, lc := range cat.Correlations(name) {
			fmt.Fprintf(&sb, "  CORR %s | usable=%v abs=%v\n", lc.Name, lc.Usable(), lc.IsAbsolute())
		}
	}
	for _, st := range cat.AllSummaries() {
		rows := ""
		if st.Heap != nil {
			lines := []string{}
			st.Heap.Scan(nil, func(_ storage.RowID, row types.Row) bool {
				lines = append(lines, fmt.Sprint(row))
				return true
			})
			sort.Strings(lines)
			rows = strings.Join(lines, "\n")
		}
		fmt.Fprintf(&sb, "SUMMARY %s est=%d\n%s\n", st.Name, st.RowCountEstimate, rows)
	}
	return sb.String()
}

// A rolled-back transaction leaves the database logically identical to a
// twin that never ran it: no rows, no ASC deactivations, no synopsis or
// summary maintenance, no economy charges.
func TestRollbackLeavesLogicalTwin(t *testing.T) {
	build := func(withAborted bool) *Database {
		db := Open()
		db.MustExec("CREATE TABLE t (id INT PRIMARY KEY, qty INT)")
		for i := 0; i < 40; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, 2*i))
		}
		db.MustExec("ALTER TABLE t ADD CONSTRAINT qty_cap CHECK (qty <= 100) SOFT")
		db.MustExec("CREATE SUMMARY TABLE tsum AS (SELECT * FROM t WHERE qty > 50)")
		if withAborted {
			sess := db.NewSession("doomed")
			// Violates qty_cap (would deactivate it at commit), churns
			// the summary's predicate range, and deletes rows — all of
			// which must evaporate at ROLLBACK.
			sexec(t, sess, "BEGIN")
			sexec(t, sess, "INSERT INTO t VALUES (90, 900)")
			sexec(t, sess, "UPDATE t SET qty = qty + 60 WHERE id < 5")
			sexec(t, sess, "DELETE FROM t WHERE id = 20")
			sexec(t, sess, "ROLLBACK")
			sess.Close()
		}
		db.MustExec("INSERT INTO t VALUES (41, 82)") // post-txn write, both sides
		return db
	}
	twin, got := build(false), build(true)
	if w, g := logicalState(t, twin), logicalState(t, got); w != g {
		t.Errorf("rolled-back transaction left a trace\n--- twin ---\n%s\n--- with-abort ---\n%s", w, g)
	}
}

// A long scan must not block writers: the reader pins its snapshot, drops
// the shared lock, and only then materializes rows. The test parks a
// SELECT inside that window (via the engine's post-unlock hook) and
// requires a concurrent INSERT to commit while the scan is still parked —
// and the scan's eventual result to exclude it.
func TestSlowScanDoesNotBlockInsert(t *testing.T) {
	db := txnDB(t)
	parked := make(chan struct{})
	unpark := make(chan struct{})
	var once sync.Once
	testHookQueryUnlocked = func() {
		once.Do(func() {
			close(parked)
			<-unpark
		})
	}
	defer func() { testHookQueryUnlocked = nil }()

	type qr struct {
		n   int64
		err error
	}
	scan := make(chan qr, 1)
	go func() {
		res, err := db.Exec("SELECT COUNT(*) AS n FROM acct")
		if err != nil {
			scan <- qr{0, err}
			return
		}
		scan <- qr{res.Rows[0][0].Int(), nil}
	}()
	<-parked

	ins := make(chan error, 1)
	go func() {
		_, err := db.Exec("INSERT INTO acct VALUES (99, 0)")
		ins <- err
	}()
	select {
	case err := <-ins:
		if err != nil {
			t.Fatalf("concurrent insert failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		close(unpark)
		t.Fatal("INSERT blocked behind an executing scan")
	}
	close(unpark)
	r := <-scan
	if r.err != nil {
		t.Fatalf("scan failed: %v", r.err)
	}
	if r.n != 10 {
		t.Errorf("scan saw %d rows; its snapshot predates the insert, want 10", r.n)
	}
}

// Commit visibility must trail durability: under -wal-sync=always a commit
// whose fsync fails (existing fsync-fail fault site) surfaces a typed
// recovery error, and no reader — concurrent or later — ever observes the
// transaction's effects. Restart agrees.
func TestCommitInvisibleUntilFsync(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(fault.Config{WALSyncFailAt: 2}) // #1 is CREATE TABLE's
	db, _, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncAlways, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (a INT)")

	var dirty atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rows, err := db.Query("SELECT a FROM t"); err == nil && len(rows) > 0 {
				dirty.Store(int64(len(rows)))
			}
		}
	}()

	_, err = db.Exec("INSERT INTO t VALUES (1)")
	close(stop)
	wg.Wait()
	qe, ok := exec.AsQueryError(err)
	if !ok || qe.Kind != exec.KindRecovery {
		t.Fatalf("want KindRecovery on failed commit fsync, got %v", err)
	}
	if n := dirty.Load(); n != 0 {
		t.Errorf("a reader observed %d rows before the commit was durable", n)
	}
	if rows, err := db.Query("SELECT a FROM t"); err != nil || len(rows) != 0 {
		t.Errorf("failed commit left visible rows: %v %v", rows, err)
	}

	// Restart: the unsynced commit never reached the log.
	rec, _, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rows, err := rec.Query("SELECT a FROM t"); err != nil || len(rows) != 0 {
		t.Errorf("failed commit resurrected by recovery: %v %v", rows, err)
	}
}

// Crash with a transaction open (the kill -9 case): recovery replays every
// committed transaction and none of the in-flight one's streamed records.
func TestCrashMidTransactionDiscardsUncommitted(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	db.MustExec("INSERT INTO t VALUES (1, 10)")
	db.MustExec("INSERT INTO t VALUES (2, 20)")

	sess := db.NewSession("doomed")
	sexec(t, sess, "BEGIN")
	sexec(t, sess, "INSERT INTO t VALUES (3, 30)")
	sexec(t, sess, "UPDATE t SET v = 999 WHERE id = 1")
	// Hard stop with the transaction open: copy the data directory, as the
	// crash-differential suite does, leaving the WAL's final group
	// unterminated.
	crashed := copyDataDir(t, dir)

	rec, _, err := OpenDurable(crashed, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery with open transaction: %v", err)
	}
	defer rec.Close()
	// (The copy may catch a partial buffered stream write — a torn tail
	// inside the uncommitted group is legitimate and harmless.)
	rows, err := rec.Query("SELECT id, v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("recovered %d rows want 2 (uncommitted insert must be absent): %v", len(rows), rows)
	}
	for _, row := range rows {
		if row[0].Int() == 1 && row[1].Int() != 10 {
			t.Errorf("uncommitted update leaked into recovery: %v", row)
		}
	}

	// The live database commits the same transaction; a clean restart then
	// sees all of it — the two fates diverge only at the commit record.
	sexec(t, sess, "COMMIT")
	sess.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, _, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rows, _ = re.Query("SELECT v FROM t WHERE id = 1")
	if len(rows) != 1 || rows[0][0].Int() != 999 {
		t.Errorf("committed transaction lost across restart: %v", rows)
	}
}

// The concurrent stress mix: writers running explicit transactions over
// private key ranges (randomly committing or rolling back), contenders
// fighting over one shared row, and readers asserting snapshot-stable
// counts — under -race this is the MVCC layer's concurrency proof.
func TestTxnStress(t *testing.T) {
	db := Open()
	db.MustExec("CREATE TABLE s (id INT PRIMARY KEY, v INT)")
	db.MustExec("INSERT INTO s VALUES (0, 0)") // the contended row

	const writers, rounds, span = 4, 25, 1000
	var committed atomic.Int64
	var conflicts atomic.Int64
	var wg sync.WaitGroup // writers: bounded work
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			sess := db.NewSession(fmt.Sprintf("w%d", w))
			defer sess.Close()
			base := (w + 1) * span
			for r := 0; r < rounds; r++ {
				ctx := context.Background()
				if _, err := sess.ExecCtx(ctx, "BEGIN"); err != nil {
					t.Errorf("w%d BEGIN: %v", w, err)
					return
				}
				n := 1 + rng.Intn(3)
				ok := true
				for k := 0; k < n; k++ {
					id := base + r*10 + k
					if _, err := sess.ExecCtx(ctx, fmt.Sprintf("INSERT INTO s VALUES (%d, %d)", id, r)); err != nil {
						t.Errorf("w%d insert %d: %v", w, id, err)
						ok = false
						break
					}
				}
				// Fight over the shared row half the time.
				if ok && rng.Intn(2) == 0 {
					_, err := sess.ExecCtx(ctx, "UPDATE s SET v = v + 1 WHERE id = 0")
					if err != nil {
						if qe, isQE := exec.AsQueryError(err); !isQE || qe.Kind != exec.KindConflict {
							t.Errorf("w%d contended update: non-conflict error %v", w, err)
						}
						conflicts.Add(1)
						// The failed statement rolled itself back; the
						// transaction is still usable. Abandon it anyway
						// half the time to vary the mix.
						if rng.Intn(2) == 0 {
							if _, err := sess.ExecCtx(ctx, "ROLLBACK"); err != nil {
								t.Errorf("w%d ROLLBACK: %v", w, err)
							}
							continue
						}
					}
				}
				if !ok || rng.Intn(4) == 0 {
					if _, err := sess.ExecCtx(ctx, "ROLLBACK"); err != nil {
						t.Errorf("w%d ROLLBACK: %v", w, err)
					}
					continue
				}
				if _, err := sess.ExecCtx(ctx, "COMMIT"); err != nil {
					t.Errorf("w%d COMMIT: %v", w, err)
					continue
				}
				committed.Add(int64(n))
			}
		}(w)
	}
	// Readers: inside a transaction the count never moves. They loop until
	// the writers finish.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for rdr := 0; rdr < 2; rdr++ {
		rwg.Add(1)
		go func(rdr int) {
			defer rwg.Done()
			sess := db.NewSession(fmt.Sprintf("r%d", rdr))
			defer sess.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx := context.Background()
				if _, err := sess.ExecCtx(ctx, "BEGIN"); err != nil {
					t.Errorf("r%d BEGIN: %v", rdr, err)
					return
				}
				first := scount(t, sess, "s")
				second := scount(t, sess, "s")
				if first != second {
					t.Errorf("r%d: snapshot moved mid-transaction: %d then %d", rdr, first, second)
				}
				if _, err := sess.ExecCtx(ctx, "COMMIT"); err != nil {
					t.Errorf("r%d COMMIT: %v", rdr, err)
				}
			}
		}(rdr)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()

	rows, err := db.Query("SELECT id FROM s WHERE id > 0")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows)) != committed.Load() {
		t.Errorf("%d rows survived, %d committed", len(rows), committed.Load())
	}
	seen := map[int64]bool{}
	for _, row := range rows {
		if seen[row[0].Int()] {
			t.Fatalf("duplicate primary key %d", row[0].Int())
		}
		seen[row[0].Int()] = true
	}
	t.Logf("stress: %d committed inserts, %d write conflicts", committed.Load(), conflicts.Load())
}

// ExecScript pinpoints a failing statement by 1-based position and
// truncated text, and supports explicit transactions.
func TestExecScriptErrorsAndTransactions(t *testing.T) {
	db := Open()
	_, err := db.ExecScript(`
		CREATE TABLE t (a INT);
		INSERT INTO nope VALUES (1);
	`)
	if err == nil {
		t.Fatal("script with a bad statement succeeded")
	}
	if !strings.Contains(err.Error(), "script statement 2 (INSERT INTO nope") {
		t.Errorf("error lacks statement position/text: %v", err)
	}

	if _, err := db.ExecScript(`
		BEGIN;
		INSERT INTO t VALUES (1);
		INSERT INTO t VALUES (2);
		COMMIT;
		BEGIN;
		INSERT INTO t VALUES (3);
		ROLLBACK;
	`); err != nil {
		t.Fatalf("transactional script: %v", err)
	}
	rows, _ := db.Query("SELECT a FROM t")
	if len(rows) != 2 {
		t.Errorf("script committed %d rows want 2", len(rows))
	}
}

// DDL and ANALYZE refuse to run inside an explicit transaction; CREATE
// INDEX additionally refuses while an open transaction holds uncommitted
// writes to the table being indexed — and only then.
func TestDDLGuardsInsideTransactions(t *testing.T) {
	db := txnDB(t)
	db.MustExec("CREATE TABLE other (x INT)")
	a := db.NewSession("a")
	defer a.Close()
	sexec(t, a, "BEGIN")
	if _, err := a.ExecCtx(context.Background(), "CREATE TABLE u (x INT)"); err == nil ||
		!strings.Contains(err.Error(), "not allowed inside a transaction") {
		t.Errorf("DDL inside txn: %v", err)
	}
	sexec(t, a, "INSERT INTO acct VALUES (70, 0)")
	// Another connection cannot build an index while a write txn is open on
	// the table: the build would miss the in-flight insert.
	_, err := db.Exec("CREATE INDEX ab ON ACCT (bal)")
	qe, ok := exec.AsQueryError(err)
	if !ok || qe.Kind != exec.KindBusy {
		t.Errorf("CREATE INDEX under open write txn: want KindBusy, got %v", err)
	}
	// Writes to an unrelated table cannot be missing from the new index.
	if _, err := db.Exec("CREATE INDEX ox ON other (x)"); err != nil {
		t.Errorf("CREATE INDEX on a table the open txn never wrote: %v", err)
	}
	sexec(t, a, "COMMIT")
	if _, err := db.Exec("CREATE INDEX ab ON acct (bal)"); err != nil {
		t.Errorf("CREATE INDEX after drain: %v", err)
	}
}

// BEGIN without a session, nested BEGIN, and COMMIT/ROLLBACK with nothing
// open are all plain errors.
func TestTxnStatementErrors(t *testing.T) {
	db := txnDB(t)
	if _, err := db.Exec("BEGIN"); err == nil {
		t.Error("BEGIN without a session succeeded")
	}
	a := db.NewSession("a")
	defer a.Close()
	sexec(t, a, "BEGIN")
	if _, err := a.ExecCtx(context.Background(), "BEGIN"); err == nil {
		t.Error("nested BEGIN succeeded")
	}
	sexec(t, a, "ROLLBACK")
	if _, err := a.ExecCtx(context.Background(), "COMMIT"); err == nil {
		t.Error("COMMIT with nothing open succeeded")
	}
	if _, err := a.ExecCtx(context.Background(), "ROLLBACK"); err == nil {
		t.Error("ROLLBACK with nothing open succeeded")
	}
}
