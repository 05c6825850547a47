package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softdb/internal/exec"
	"softdb/internal/wal"
)

// The commit-protocol suite. A commit holds writeMu throughout, writes and
// fsyncs its log record under the shared lock, and takes the exclusive lock
// only to stamp, run the soft hooks and publish. So readers keep planning
// while a commit or rollback waits on the disk, every other writer waits
// for the whole commit (the gap between fsync and stamping included), and
// commit timestamps publish in order.

// park is a one-shot hook body: the first hold signals parked and blocks
// until unparked is closed.
type park struct {
	once     sync.Once
	parked   chan struct{}
	unparked chan struct{}
}

func newPark() *park {
	return &park{parked: make(chan struct{}), unparked: make(chan struct{})}
}

func (p *park) hold() {
	p.once.Do(func() {
		close(p.parked)
		<-p.unparked
	})
}

// within runs fn on its own goroutine and reports whether it returned
// before d elapsed; the returned channel closes when fn returns.
func within(d time.Duration, fn func()) (bool, chan struct{}) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
		return true, done
	case <-time.After(d):
		return false, done
	}
}

// countOf counts a table's rows (table may carry a WHERE clause). It is
// safe off the test goroutine; countRows fails the test on error.
func countOf(db *Database, table string) (int64, error) {
	res, err := db.Exec("SELECT COUNT(*) AS n FROM " + table)
	if err != nil {
		return 0, err
	}
	return res.Rows[0][0].Int(), nil
}

func countRows(t *testing.T, db *Database, table string) int64 {
	t.Helper()
	n, err := countOf(db, table)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// A commit parked inside its log write (after the fsync returned, before
// the publish) must not hold up a reader: the SELECT finishes and does not
// see the rows, and they are visible once the commit returns. The same for
// a ROLLBACK parked after writing its abort record. When the log was
// written under the exclusive lock, both SELECTs timed out.
func TestReadersDoNotWaitOnCommitFsync(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rollback bool
	}{{"commit", false}, {"rollback", true}} {
		t.Run(tc.name, func(t *testing.T) {
			db, _, err := OpenDurable(t.TempDir(), DurableOptions{SyncPolicy: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.MustExec("CREATE TABLE t (a INT)")
			sess := db.NewSession("w")
			defer sess.Close()
			end := "COMMIT"
			if tc.rollback {
				end = "ROLLBACK"
			}
			sexec(t, sess, "BEGIN")
			sexec(t, sess, "INSERT INTO t VALUES (1)")
			sexec(t, sess, "INSERT INTO t VALUES (2)")

			p := newPark()
			testHookLogWritten = p.hold
			defer func() { testHookLogWritten = nil }()
			endErr := make(chan error, 1)
			go func() {
				_, err := sess.ExecCtx(context.Background(), end)
				endErr <- err
			}()
			<-p.parked

			var n int64
			var qerr error
			ok, done := within(5*time.Second, func() { n, qerr = countOf(db, "t") })
			close(p.unparked)
			<-done
			if !ok {
				t.Fatalf("SELECT waited on a %s's log write", end)
			}
			if qerr != nil || n != 0 {
				t.Errorf("SELECT during the %s's log write: %d rows, err %v; want 0 rows", end, n, qerr)
			}
			if err := <-endErr; err != nil {
				t.Fatalf("%s: %v", end, err)
			}
			want := int64(2)
			if tc.rollback {
				want = 0
			}
			if n := countRows(t, db, "t"); n != want {
				t.Errorf("after %s: %d rows, want %d", end, n, want)
			}
		})
	}
}

// A commit parked between its fsync and its stamping holds writeMu, so no
// path that writes the log or changes heaps or the catalog may run until it
// has published: each op below must still be waiting while the commit is
// parked, and must then act on the committed row.
func TestCommitGapExcludesWriters(t *testing.T) {
	for _, tc := range []struct {
		name  string
		op    func(db *Database) error
		check func(t *testing.T, db *Database, dir string)
	}{
		{"create-index", func(db *Database) error {
			_, err := db.Exec("CREATE INDEX t_a ON t (a)")
			return err
		}, func(t *testing.T, db *Database, _ string) {
			if n := countRows(t, db, "t WHERE a = 7"); n != 1 {
				t.Errorf("indexed lookup found %d rows, want 1", n)
			}
		}},
		{"truncate", func(db *Database) error { return db.TruncateTable("t") },
			func(t *testing.T, db *Database, _ string) {
				if n := countRows(t, db, "t"); n != 0 {
					t.Errorf("TRUNCATE after the commit left %d rows", n)
				}
			}},
		{"vacuum", func(db *Database) error { db.Vacuum(); return nil },
			func(t *testing.T, db *Database, _ string) {
				if n := countRows(t, db, "t"); n != 1 {
					t.Errorf("%d rows after vacuum, want 1", n)
				}
			}},
		{"checkpoint", func(db *Database) error { return db.Checkpoint() },
			func(t *testing.T, _ *Database, dir string) {
				rec, rs, err := OpenDurable(copyDataDir(t, dir), DurableOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer rec.Close()
				if rs.RecordsReplayed != 0 {
					t.Errorf("recovery replayed %d records; the checkpoint should cover the commit", rs.RecordsReplayed)
				}
				if n := countRows(t, rec, "t"); n != 1 {
					t.Errorf("the checkpoint holds %d rows, want 1", n)
				}
			}},
		{"close", func(db *Database) error { return db.Close() },
			func(t *testing.T, _ *Database, dir string) {
				rec, _, err := OpenDurable(dir, DurableOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer rec.Close()
				if n := countRows(t, rec, "t"); n != 1 {
					t.Errorf("after Close and reopen: %d rows, want 1", n)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, _, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.MustExec("CREATE TABLE t (a INT)")

			p := newPark()
			testHookCommitGap = func(int64) { p.hold() }
			defer func() { testHookCommitGap = nil }()
			insErr := make(chan error, 1)
			go func() {
				_, err := db.Exec("INSERT INTO t VALUES (7)")
				insErr <- err
			}()
			<-p.parked

			var opErr error
			entered, done := within(100*time.Millisecond, func() { opErr = tc.op(db) })
			// A reader is not a writer: it plans and answers inside the gap,
			// without the parked commit's row.
			var n int64
			var qerr error
			readOK, readDone := within(5*time.Second, func() { n, qerr = countOf(db, "t") })
			close(p.unparked)
			<-readDone
			if err := <-insErr; err != nil {
				t.Fatalf("INSERT: %v", err)
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s did not finish after the commit published", tc.name)
			}
			if entered {
				t.Fatalf("%s ran inside a commit's gap between fsync and stamping", tc.name)
			}
			if !readOK || qerr != nil || n != 0 {
				t.Errorf("SELECT in the gap: finished=%v rows=%d err=%v, want finished with 0 rows", readOK, n, qerr)
			}
			if opErr != nil {
				t.Fatalf("%s: %v", tc.name, opErr)
			}
			tc.check(t, db, dir)
		})
	}
}

// WALStatusSnapshot reads the log writer's counters while sessions stream
// and commit explicit transactions. It failed under -race when it read them
// under the shared lock, which log writers also hold.
func TestWALStatusSnapshotDuringTransactions(t *testing.T) {
	db, _, err := OpenDurable(t.TempDir(), DurableOptions{SyncPolicy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec("CREATE TABLE t (a INT)")
	stop := make(chan struct{})
	var polls atomic.Int64
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
			if st := db.WALStatusSnapshot(); !st.Durable || st.Failed != "" {
				t.Errorf("WAL status: %+v", st)
				return
			}
			polls.Add(1)
		}
	}()
	sess := db.NewSession("w")
	for i := 0; i < 50; i++ {
		sexec(t, sess, "BEGIN")
		sexec(t, sess, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
		sexec(t, sess, "COMMIT")
	}
	sess.Close()
	close(stop)
	wg.Wait()
	st := db.WALStatusSnapshot()
	if st.NextLSN == 0 || st.WALBytes == 0 || polls.Load() == 0 {
		t.Errorf("status after 50 commits: %+v after %d polls", st, polls.Load())
	}
}

// The lock-wait clock: an uncontended acquisition is not observed, and a
// contended one is, under its lock and mode.
func TestLockWaitClock(t *testing.T) {
	db := Open()
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t VALUES (1)")
	countRows(t, db, "t")
	for i, h := range db.obs.lockWait {
		if n := h.Count(); n != 0 {
			t.Fatalf("lock-wait histogram %d observed %d waits on a serial run", i, n)
		}
	}

	// Each case holds a lock, starts a statement that needs it, gives the
	// statement time to queue, then releases.
	for _, tc := range []struct {
		name    string
		which   int
		hold    func()
		release func()
		stmt    string
	}{
		{"write", waitWrite, db.writeMu.Lock, db.writeMu.Unlock, "INSERT INTO t VALUES (2)"},
		{"exclusive", waitExclusive, db.mu.RLock, db.mu.RUnlock, "INSERT INTO t VALUES (3)"},
		{"shared", waitShared, func() { db.writeMu.Lock(); db.mu.Lock() },
			func() { db.mu.Unlock(); db.writeMu.Unlock() }, "SELECT COUNT(*) AS n FROM t"},
	} {
		h := db.obs.lockWait[tc.which]
		before := h.Count()
		tc.hold()
		var err error
		ok, done := within(50*time.Millisecond, func() { _, err = db.Exec(tc.stmt) })
		tc.release()
		<-done
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok {
			t.Fatalf("%s: the statement did not wait for the held lock", tc.name)
		}
		if h.Count() != before+1 || h.Sum() < 0.04 {
			t.Errorf("%s: %d waits summing %.4fs, want one of at least 0.04s", tc.name, h.Count()-before, h.Sum())
		}
	}
	var b strings.Builder
	if err := db.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`softdb_engine_lock_wait_seconds_count{lock="db",mode="shared"} 1`,
		`softdb_engine_lock_wait_seconds_count{lock="db",mode="exclusive"} 1`,
		`softdb_engine_lock_wait_seconds_count{lock="write",mode="exclusive"} 1`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// The commit-protocol stress: writer sessions (autocommit and explicit,
// some rolling back) over private key ranges, readers, and CREATE INDEX,
// ANALYZE, TRUNCATE, Vacuum and checkpoints interleaved, on a durable
// database under SyncAlways. A watchdog turns a deadlock into a failure
// with every goroutine's stack. Commit timestamps must publish in order,
// an acknowledged write must be visible to the next statement, the final
// state must equal the reference interpreter over a serial replay of the
// acknowledged operations, and a crash copy must recover all of them.
// Readers in read-only transactions (each one a commit) must see a
// snapshot that does not move and holds only rows writers inserted.
func TestCommitProtocolStress(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenDurable(dir, DurableOptions{SyncPolicy: wal.SyncAlways, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema := []string{
		"CREATE TABLE s (id INT PRIMARY KEY, w INT, v INT)",
		"CREATE TABLE scratch (id INT PRIMARY KEY, v INT)",
	}
	for _, q := range schema {
		db.MustExec(q)
	}

	// Commits pass the gap one at a time (writeMu), so the hook needs no
	// lock of its own. Every clock advance is a commit, so consecutive
	// timestamps and a clock one behind show the previous commit published
	// before this one prepared.
	var lastCts, commits int64
	testHookCommitGap = func(cts int64) {
		if pub := db.txnMgr.Snapshot(); pub != cts-1 || (lastCts != 0 && cts != lastCts+1) {
			t.Errorf("commit %d prepared with the clock at %d after commit %d", cts, pub, lastCts)
		}
		lastCts = cts
		commits++
	}
	defer func() { testHookCommitGap = nil }()

	const writers, ops, span = 4, 40, 10000
	// acked[g] is goroutine g's acknowledged operations in order; their
	// effects touch only g's rows, so replaying goroutine after goroutine
	// reproduces any interleaving.
	acked := make([][]string, writers+1)
	var wg, bg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			sess := db.NewSession(fmt.Sprintf("w%d", w))
			defer sess.Close()
			base, next := (w+1)*span, 0
			stmt := func() string {
				switch k := rng.Intn(10); {
				case k < 6:
					next++
					return fmt.Sprintf("INSERT INTO s VALUES (%d, %d, 0)", base+next, w)
				case k < 9:
					return fmt.Sprintf("UPDATE s SET v = v + 1 WHERE id = %d", base+1+rng.Intn(next+1))
				default:
					return fmt.Sprintf("DELETE FROM s WHERE id = %d", base+1+rng.Intn(next+1))
				}
			}
			run := func(q string) bool {
				if _, err := sess.ExecCtx(context.Background(), q); err != nil {
					t.Errorf("w%d %s: %v", w, q, err)
					return false
				}
				return true
			}
			for i := 0; i < ops; i++ {
				if w%2 == 0 { // autocommit
					q := stmt()
					if !run(q) {
						return
					}
					acked[w] = append(acked[w], q)
					if strings.HasPrefix(q, "INSERT") {
						if n, err := countOf(db, fmt.Sprintf("s WHERE id = %d", base+next)); err != nil || n != 1 {
							t.Errorf("w%d: acknowledged %s, then read %d rows (%v)", w, q, n, err)
						}
					}
					continue
				}
				if !run("BEGIN") {
					return
				}
				var txn []string
				for k := 1 + rng.Intn(3); k > 0; k-- {
					q := stmt()
					if !run(q) {
						return
					}
					txn = append(txn, q)
				}
				end := "COMMIT"
				if rng.Intn(4) == 0 {
					end = "ROLLBACK"
				}
				if !run(end) {
					return
				}
				if end == "COMMIT" {
					acked[w] = append(acked[w], txn...)
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	loop := func(body func(i int)) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body(i)
			}
		}()
	}
	// The truncater owns scratch: it fills and empties it, so its final
	// state depends on the order of its own acknowledged operations only.
	tr := writers
	loop(func(i int) {
		if i%5 == 4 {
			if err := db.TruncateTable("scratch"); err != nil {
				t.Errorf("TRUNCATE: %v", err)
				return
			}
			acked[tr] = append(acked[tr], "TRUNCATE scratch")
			return
		}
		q := fmt.Sprintf("INSERT INTO scratch VALUES (%d, %d)", i, i%7)
		if _, err := db.Exec(q); err != nil {
			t.Errorf("%s: %v", q, err)
			return
		}
		acked[tr] = append(acked[tr], q)
	})
	// DDL: up to three indexes on s (an open write transaction on s makes
	// CREATE INDEX busy, and it is tried again), and ANALYZE.
	indexes := 0
	loop(func(i int) {
		if indexes < 3 && i%4 == 0 {
			_, err := db.Exec(fmt.Sprintf("CREATE INDEX s_v%d ON s (v)", indexes))
			if qe, ok := exec.AsQueryError(err); ok && qe.Kind == exec.KindBusy {
				return
			}
			if err != nil {
				t.Errorf("CREATE INDEX: %v", err)
				return
			}
			indexes++
			return
		}
		if _, err := db.Exec("ANALYZE s"); err != nil {
			t.Errorf("ANALYZE: %v", err)
		}
		time.Sleep(time.Millisecond)
	})
	loop(func(i int) {
		if i%2 == 0 {
			db.Vacuum()
		} else if err := db.Checkpoint(); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		time.Sleep(time.Millisecond)
	})
	for r := 0; r < 2; r++ {
		sess := db.NewSession(fmt.Sprintf("r%d", r))
		defer sess.Close()
		loop(func(int) {
			if _, err := sess.ExecCtx(context.Background(), "BEGIN"); err != nil {
				t.Errorf("reader BEGIN: %v", err)
				return
			}
			// Inside the transaction the count never moves, and the rows
			// behind it are real ones (ids start above span).
			var counts [2]int64
			for k := range counts {
				res, err := sess.ExecCtx(context.Background(), "SELECT COUNT(*) AS n FROM s")
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				counts[k] = res.Rows[0][0].Int()
			}
			ids, err := sess.ExecCtx(context.Background(), "SELECT id FROM s")
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			if counts[0] != counts[1] || int64(len(ids.Rows)) != counts[0] {
				t.Errorf("snapshot moved inside a transaction: counts %v, then %d rows", counts, len(ids.Rows))
			}
			for _, r := range ids.Rows {
				if r[0].Int() <= span {
					t.Errorf("reader saw a row with id %d, which no writer inserted", r[0].Int())
					break
				}
			}
			if _, err := sess.ExecCtx(context.Background(), "COMMIT"); err != nil {
				t.Errorf("reader COMMIT: %v", err)
			}
			if _, err := db.Exec("SELECT w, COUNT(*) AS n, SUM(v) AS s FROM s GROUP BY w"); err != nil {
				t.Errorf("reader: %v", err)
			}
		})
	}

	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(stop)
		bg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		buf := make([]byte, 1<<20)
		t.Fatalf("deadlock: the stress did not finish; goroutines:\n%s", buf[:runtime.Stack(buf, true)])
	}
	testHookCommitGap = nil // the replay and the crash copy commit too
	if t.Failed() {
		return
	}

	replay := Open()
	for _, q := range schema {
		replay.MustExec(q)
	}
	for _, seq := range acked {
		for _, q := range seq {
			if q == "TRUNCATE scratch" {
				if err := replay.TruncateTable("scratch"); err != nil {
					t.Fatal(err)
				}
				continue
			}
			replay.MustExec(q)
		}
	}
	replay.NoBatch = true
	crashed, _, err := OpenDurable(copyDataDir(t, dir), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Close()
	for _, q := range []string{"SELECT id, w, v FROM s ORDER BY id", "SELECT id, v FROM scratch ORDER BY id"} {
		want := rowsOf(t, replay, q)
		if got := rowsOf(t, db, q); got != want {
			t.Errorf("%s: live state differs from the serial replay\nlive:   %.300s\nreplay: %.300s", q, got, want)
		}
		if got := rowsOf(t, crashed, q); got != want {
			t.Errorf("%s: the crash copy lost acknowledged commits\nrecovered: %.300s\nreplay:    %.300s", q, got, want)
		}
	}
	t.Logf("stress: %d commits, %d indexes, %d acknowledged writer ops", commits, indexes,
		len(acked[0])+len(acked[1])+len(acked[2])+len(acked[3]))
}

func rowsOf(t *testing.T, db *Database, q string) string {
	t.Helper()
	res, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r.String())
		b.WriteByte(';')
	}
	return b.String()
}
