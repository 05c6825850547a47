package engine

import (
	"fmt"
	"time"

	"softdb/internal/catalog"
	"softdb/internal/exec"
	"softdb/internal/storage"
	"softdb/internal/txn"
	"softdb/internal/types"
	"softdb/internal/wal"
)

// writeOp is one row effect applied by an open transaction: an uncommitted
// insert (a version stamped -txnID awaiting its commit timestamp) or an
// uncommitted delete (an end stamp of -txnID on an existing version). An
// UPDATE is a delete of the old version plus an insert of the new one.
type writeOp struct {
	te  *catalog.TableEntry
	del bool
	rid storage.RowID
	row types.Row // the inserted row, or the deleted version's image
}

// Tx is one open engine transaction. Implicit transactions wrap a single
// autocommit DML statement; explicit ones span BEGIN..COMMIT/ROLLBACK on a
// session. The apply phase (under writeMu plus the shared lock) installs
// uncommitted versions and records writeOps; commit writes the log under
// writeMu plus the shared lock, then stamps the ops with the commit
// timestamp, runs the commit-scoped soft hooks and publishes the timestamp
// under the exclusive lock; rollback reverses the ops.
//
// WAL strategy: an implicit transaction stages its redo records in recs
// and writes them as one atomic committed group. An explicit transaction
// streams each successful statement's records to the log as it goes
// (prefixed by a TypeBegin marker) and terminates the group with a bare
// TypeCommit or TypeAbort; recovery replays only terminated-by-commit
// groups, so a crash mid-transaction loses exactly the open transaction.
type Tx struct {
	t        *txn.Txn
	explicit bool
	ops      []writeOp
	recs     []*wal.Record // staged records for the statement/transaction in flight
	streamed bool          // explicit: some records already appended to the log
	done     bool
	// touched is the table the last write op went to; a write to another
	// table is reported to the transaction manager (see touch).
	touched *catalog.TableEntry
	// catVersion is the catalog version read before an explicit
	// transaction took its snapshot (see unverifiedView).
	catVersion int64
}

// touch reports the table a write op is about to modify to the transaction
// manager, which is how CREATE INDEX knows whether an open transaction
// holds uncommitted versions of the table it indexes.
func (db *Database) touch(tx *Tx, te *catalog.TableEntry) {
	if tx.touched != te {
		db.txnMgr.Touch(tx.t, te.Def.Name)
		tx.touched = te
	}
}

// ID returns the transaction's identifier.
func (tx *Tx) ID() int64 { return tx.t.ID }

// Snap returns the transaction's snapshot timestamp.
func (tx *Tx) Snap() int64 { return tx.t.Snap }

// conflictError is the first-updater-wins outcome: the statement tried to
// update or delete a version another transaction already ended.
func conflictError(table string, rid storage.RowID) error {
	return &exec.QueryError{Op: "engine.dml", Kind: exec.KindConflict,
		Err: fmt.Errorf("row %s in %s was modified by a concurrent transaction", rid, table)}
}

// txnFor returns the transaction a DML statement runs in: the session's
// open explicit transaction, or a fresh implicit one the caller commits
// when the statement succeeds.
func (db *Database) txnFor(sess *Session) (tx *Tx, implicit bool) {
	if sess != nil {
		if cur := sess.current(); cur != nil {
			return cur, false
		}
	}
	return &Tx{t: db.txnMgr.Begin()}, true
}

// snapshotFor resolves the MVCC view a statement reads from: the session's
// open transaction (own uncommitted writes visible), or a freshly pinned
// snapshot of the committed state. Call while holding db.mu (shared
// suffices) so the snapshot cannot be vacuumed before the pin lands; call
// release once execution finishes.
func (db *Database) snapshotFor(sess *Session) (snap, tid int64, release func()) {
	if sess != nil {
		if tx := sess.current(); tx != nil {
			return tx.t.Snap, tx.t.ID, func() {}
		}
	}
	snap = db.txnMgr.Snapshot()
	db.txnMgr.Pin(snap)
	return snap, 0, func() { db.txnMgr.Unpin(snap) }
}

// Lock acquisition. Each acquisition tries first, so an uncontended one
// reads no clock; a contended one records how long it waited in the
// lock-wait histogram of its lock and mode.

// lockWrite takes writeMu. It is always taken before db.mu.
func (db *Database) lockWrite() {
	if db.writeMu.TryLock() {
		return
	}
	start := time.Now()
	db.writeMu.Lock()
	db.obs.lockWait[waitWrite].Observe(time.Since(start).Seconds())
}

// rlock takes db.mu shared.
func (db *Database) rlock() {
	if db.mu.TryRLock() {
		return
	}
	start := time.Now()
	db.mu.RLock()
	db.obs.lockWait[waitShared].Observe(time.Since(start).Seconds())
}

// lock takes db.mu exclusively. Every caller holds writeMu.
func (db *Database) lock() {
	if db.mu.TryLock() {
		return
	}
	start := time.Now()
	db.mu.Lock()
	db.obs.lockWait[waitExclusive].Observe(time.Since(start).Seconds())
}

// execDML runs one DML statement inside the session's transaction (or an
// implicit one). The apply phase holds writeMu, which serializes appliers
// against each other and against every other writer, plus db.mu shared,
// so concurrent readers keep planning. A statement that fails is undone op
// by op (statement-level atomicity), leaving an explicit transaction open
// at its pre-statement state.
func (db *Database) execDML(sess *Session, apply func(tx *Tx) (*Result, error)) (*Result, error) {
	tx, implicit := db.txnFor(sess)
	db.lockWrite()
	db.rlock()
	opsMark, recsMark := len(tx.ops), len(tx.recs)
	res, err := apply(tx)
	if err == nil && !implicit {
		err = db.streamStmt(tx)
	}
	if err != nil {
		db.undoOps(tx, opsMark)
		tx.recs = tx.recs[:recsMark]
	}
	db.mu.RUnlock()
	db.writeMu.Unlock()
	if err != nil {
		if implicit {
			db.rollbackTx(tx)
		}
		return nil, err
	}
	if implicit {
		notices, cerr := db.commitTx(tx)
		if cerr != nil {
			return nil, cerr
		}
		res.Notices = append(res.Notices, notices...)
	}
	return res, nil
}

// streamStmt appends an explicit transaction's statement records to the
// log, prefixing the TypeBegin marker on the transaction's first write. No
// terminator and no fsync: durability is COMMIT's job. Called with writeMu
// held, which excludes every other log writer. A failed append latches the
// writer, so the group can never be terminated and recovery discards it.
func (db *Database) streamStmt(tx *Tx) error {
	d := db.dur
	if d == nil || len(tx.recs) == 0 {
		return nil
	}
	recs := tx.recs
	if !tx.streamed {
		recs = append([]*wal.Record{{Type: wal.TypeBegin, TxnID: tx.t.ID}}, recs...)
	}
	_, err := d.w.Append(recs)
	d.syncMetrics()
	if err != nil {
		return &exec.QueryError{Op: "wal.append", Kind: exec.KindRecovery, Err: err}
	}
	tx.streamed = true
	d.cFrames.Add(int64(len(recs)))
	tx.recs = tx.recs[:0]
	return nil
}

// testHookLogWritten, when set by a test, runs right after a commit's log
// write (logCommit) or a streamed transaction's abort record (abortTx)
// returned, fsync included under SyncAlways, with writeMu and the shared
// lock still held — the window in which readers must keep planning.
var testHookLogWritten func()

// testHookCommitGap, when set by a test, runs in commitTx between dropping
// the shared lock and taking the exclusive one, with the commit timestamp
// prepared and nothing stamped — the gap no other writer may enter.
var testHookCommitGap func(cts int64)

// commitTx makes tx durable and visible. It holds writeMu from start to
// finish, which orders it against every other writer. Under the shared
// lock it checks that no table it wrote was dropped, prepares the commit
// timestamp and writes the log (the commit record, under the configured
// sync policy), so readers keep planning while the fsync runs. Then, under
// the exclusive lock, it stamps the versions, runs the commit-scoped soft
// hooks and publishes the timestamp — so no reader can observe the
// transaction's effects before they are on disk, and an ASC a write
// violates leaves every plan before the commit returns. Between the two
// locks no other writer can run: each takes writeMu first. This is flush
// pipelining in the manner of Aether (Johnson et al., VLDB 2010) without
// its group commit: the disk wait leaves the lock readers need. Returns
// the notices the commit hooks raised.
func (db *Database) commitTx(tx *Tx) ([]string, error) {
	db.lockWrite()
	defer db.writeMu.Unlock()
	if tx.done {
		return nil, fmt.Errorf("engine: transaction already finished")
	}
	cts, err := db.logCommit(tx)
	if err != nil {
		return nil, err
	}
	if h := testHookCommitGap; h != nil {
		h(cts)
	}
	db.lock()
	defer db.mu.Unlock()
	db.notices = nil
	// The ops are stamped, and then the soft write hook runs, one batch at a
	// time: a run of ops on one table that all insert or all delete, in op
	// order. An insert batch's versions sit in runs of consecutive slots,
	// stamped a run at a time. The hook's ASC violation checks, summary-table
	// maintenance, staleness bumps and their economy charges thus fire only
	// for effects that actually commit. The runtime lock fences the catalog
	// fields prune-predicate Check closures read during lock-free query
	// execution.
	for i, j := 0, 0; i < len(tx.ops); i = j {
		j = batchEnd(tx.ops, i)
		if te := tx.ops[i].te; tx.ops[i].del {
			for _, op := range tx.ops[i:j] {
				te.Heap.SetEnd(op.rid, cts)
			}
		} else {
			for _, r := range pageRuns(tx.ops[i:j]) {
				te.Heap.CommitRun(int(r.page), r.lo, r.hi, cts)
			}
		}
	}
	catalog.RuntimeLock()
	for i, j := 0, 0; i < len(tx.ops); i = j {
		j = batchEnd(tx.ops, i)
		db.softWrite(tx.ops[i].te, tx.ops[i:j], cts)
	}
	catalog.RuntimeUnlock()
	db.txnMgr.Publish(cts)
	db.txnMgr.Finish(tx.t)
	tx.done = true
	notices := db.notices
	// Checkpoint cadence runs after Finish so this transaction no longer
	// blocks the ActiveWrites gate.
	if d := db.dur; d != nil && d.checkpointEvery > 0 && d.stmts >= d.checkpointEvery {
		if cerr := db.checkpointLocked(); cerr != nil {
			if l := db.obs.logger.Load(); l != nil {
				l.Error("checkpoint failed", "err", cerr)
			}
		}
	}
	return notices, nil
}

// logCommit is commit's first half, under writeMu plus the shared lock: the
// dropped-table check, the commit timestamp and the log write. On failure
// the transaction is rolled back before anything was published.
func (db *Database) logCommit(tx *Tx) (int64, error) {
	db.rlock()
	defer db.mu.RUnlock()
	// A table dropped between apply and commit would leave commit stamps
	// pointing into a detached heap; fail the commit instead.
	for _, op := range tx.ops {
		if cur, err := db.cat.Table(op.te.Def.Name); err != nil || cur != op.te {
			db.abortTx(tx)
			return 0, fmt.Errorf("engine: table %s was dropped by a concurrent statement; transaction rolled back", op.te.Def.Name)
		}
	}
	cts := db.txnMgr.PrepareCommit()
	if err := db.walCommitTx(tx); err != nil {
		db.abortTx(tx)
		return 0, err
	}
	if h := testHookLogWritten; h != nil {
		h()
	}
	return cts, nil
}

// walCommitTx writes the transaction's commit record (plus, for implicit
// transactions, its staged records as one atomic group) and applies the
// writer's sync policy. Called with writeMu and the shared lock held.
func (db *Database) walCommitTx(tx *Tx) error {
	d := db.dur
	if d == nil {
		return nil
	}
	var batch int64
	var err error
	switch {
	case tx.streamed:
		_, _, err = d.w.CommitTxn(tx.t.ID, nil)
		batch = 1
	case len(tx.recs) > 0:
		_, _, err = d.w.CommitTxn(tx.t.ID, tx.recs)
		batch = int64(len(tx.recs)) + 1
	default:
		return nil // read-only or no-op transaction: nothing to log
	}
	tx.recs = nil
	d.syncMetrics()
	if err != nil {
		return &exec.QueryError{Op: "wal.commit", Kind: exec.KindRecovery, Err: err}
	}
	d.cFrames.Add(batch)
	d.hBatch.Observe(float64(batch))
	d.stmts++
	return nil
}

// rollbackTx discards tx: every op is reversed in reverse order and, when
// the transaction had streamed records, a TypeAbort terminator closes its
// log group so recovery installs placeholder slots instead of rows. It
// runs on commit's protocol: writeMu plus the shared lock, so readers keep
// planning while the abort record is written and fsynced.
func (db *Database) rollbackTx(tx *Tx) {
	db.lockWrite()
	defer db.writeMu.Unlock()
	db.rlock()
	defer db.mu.RUnlock()
	if tx.done {
		return
	}
	db.abortTx(tx)
}

// abortTx is the shared rollback core, called with writeMu plus the
// shared lock held. Nothing of tx was published, so undoing its ops and
// finishing it needs no exclusive lock.
func (db *Database) abortTx(tx *Tx) {
	db.undoOps(tx, 0)
	tx.recs = nil
	if d := db.dur; d != nil && tx.streamed {
		if _, _, err := d.w.Abort(tx.t.ID); err != nil {
			// The group stays unterminated; recovery discards it, which is
			// the same outcome the abort record would have produced.
			if l := db.obs.logger.Load(); l != nil {
				l.Error("WAL abort record failed", "err", err)
			}
		}
		d.syncMetrics()
		if h := testHookLogWritten; h != nil {
			h()
		}
	}
	db.txnMgr.Finish(tx.t)
	tx.done = true
}

// undoOps reverses tx.ops[from:] in reverse order: inserted versions are
// aborted (and their index entries — which rollback, unlike commit, must
// remove to keep parity with a recovered database — deleted), uncommitted
// delete stamps are cleared. Called with writeMu held, under either side
// of db.mu: stamp flips are atomic stores lock-free readers tolerate, and
// the index trees latch themselves.
func (db *Database) undoOps(tx *Tx, from int) {
	for i := len(tx.ops) - 1; i >= from; i-- {
		op := tx.ops[i]
		if op.del {
			op.te.Heap.ClearEnd(op.rid)
		} else {
			for _, ix := range op.te.Indexes {
				ix.Tree.Delete(ix.KeyFor(op.row), op.rid)
			}
			op.te.Heap.AbortInsert(op.rid)
		}
	}
	tx.ops = tx.ops[:from]
}

// --- BEGIN / COMMIT / ROLLBACK statements ---

// beginStmt opens an explicit transaction on the session.
func (db *Database) beginStmt(sess *Session) (*Result, error) {
	if sess == nil {
		return nil, fmt.Errorf("engine: BEGIN requires a session (Database.Exec runs each statement in its own transaction)")
	}
	// Read before the snapshot is taken: a characterization declared in
	// between then counts as newer than the snapshot.
	v := db.cat.Version()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.cur != nil {
		return nil, fmt.Errorf("engine: a transaction is already open")
	}
	sess.cur = &Tx{t: db.txnMgr.Begin(), explicit: true, catVersion: v}
	return &Result{}, nil
}

// unverifiedView reports whether sess's open transaction may see rows the
// catalog's soft characterizations were never checked against, which are
// verified and maintained against committed data only: the transaction's
// own writes, or a snapshot older than the catalog. Call with db.mu held.
func (db *Database) unverifiedView(sess *Session) bool {
	if sess == nil {
		return false
	}
	tx := sess.current()
	return tx != nil && (len(tx.ops) > 0 || tx.catVersion != db.cat.Version())
}

// commitStmt commits the session's open transaction; the commit hooks'
// notices ride on the COMMIT result.
func (db *Database) commitStmt(sess *Session) (*Result, error) {
	tx := sess.takeCurrent()
	if tx == nil {
		return nil, fmt.Errorf("engine: no transaction is open")
	}
	notices, err := db.commitTx(tx)
	if err != nil {
		return nil, err
	}
	return &Result{Notices: notices, RowsAffected: int64(len(tx.ops))}, nil
}

// rollbackStmt discards the session's open transaction.
func (db *Database) rollbackStmt(sess *Session) (*Result, error) {
	tx := sess.takeCurrent()
	if tx == nil {
		return nil, fmt.Errorf("engine: no transaction is open")
	}
	db.rollbackTx(tx)
	return &Result{}, nil
}

// Vacuum physically sheds row versions no present or future snapshot can
// see (committed-ended before the oldest pinned snapshot, and aborted
// slots) from tables and summary tables, returning how many were shed.
// Index entries pointing at
// reclaimed slots are swept in the same pass, restoring the
// one-entry-per-version invariant the write path relaxes (commit-time
// deletes leave entries behind for exactly this pass to collect).
// Runs only when called — directly, or on a timer via StartVacuum; the
// engine never vacuums behind a query's back mid-statement (writeMu and
// the exclusive lock here serialize against the statement paths).
func (db *Database) Vacuum() int {
	db.lockWrite()
	defer db.writeMu.Unlock()
	db.lock()
	defer db.mu.Unlock()
	h := db.txnMgr.Horizon()
	n := 0
	for _, st := range db.cat.AllSummaries() {
		if st.Heap != nil {
			n += st.Heap.Vacuum(h)
		}
	}
	for _, name := range db.cat.TableNames() {
		te, err := db.cat.Table(name)
		if err != nil {
			continue
		}
		n += te.Heap.Vacuum(h)
		for _, ix := range te.Indexes {
			ix.Tree.Sweep(func(rid storage.RowID) bool {
				b, _, ok := te.Heap.Meta(rid)
				return !ok || b == storage.Aborted
			})
		}
	}
	return n
}
