package engine

import (
	"fmt"
	"os"
	"sort"
	"time"

	"softdb/internal/catalog"
	"softdb/internal/exec"
	"softdb/internal/expr"
	"softdb/internal/fault"
	"softdb/internal/obs"
	"softdb/internal/schema"
	"softdb/internal/sql"
	"softdb/internal/storage"
	"softdb/internal/vec"
	"softdb/internal/wal"
	"softdb/internal/wire/codec"
)

// DefaultCheckpointEvery is how many logged statements pass between
// automatic checkpoints when DurableOptions doesn't say.
const DefaultCheckpointEvery = 256

// DurableOptions configures a durable database opened with OpenDurable.
type DurableOptions struct {
	// SyncPolicy selects when commits fsync (see wal.SyncPolicy).
	SyncPolicy wal.SyncPolicy
	// SyncInterval is the minimum gap between fsyncs under
	// wal.SyncInterval.
	SyncInterval time.Duration
	// CheckpointEvery is how many logged statements pass between automatic
	// checkpoints; 0 means DefaultCheckpointEvery, negative disables
	// automatic checkpoints (explicit Checkpoint calls still work).
	CheckpointEvery int
	// Fault, when set, gates the WAL's writes, fsyncs, snapshot writes and
	// recovery reads through the injector's deterministic sites.
	Fault *fault.Injector
}

// RecoveryStats reports what OpenDurable's recovery pass did.
type RecoveryStats struct {
	// SnapshotLSN is the checkpoint snapshot's last covered LSN (0 when no
	// snapshot existed).
	SnapshotLSN uint64
	// RecordsReplayed counts redo records applied from the log (commit
	// terminators excluded).
	RecordsReplayed int64
	// StatementsReplayed counts committed record groups applied.
	StatementsReplayed int64
	// TailTruncated reports that the log held bytes past the last commit —
	// a torn frame or an unterminated record group — which recovery cut
	// off. At most the in-flight statement is lost.
	TailTruncated bool
	// TailErr describes the torn or corrupt frame that ended the scan, when
	// there was one. A clean unterminated group truncates without an error.
	TailErr *exec.QueryError
	// Revalidated counts absolute soft characterizations re-checked against
	// the recovered data; Invalidated counts those the check overturned.
	Revalidated int
	// Invalidated counts recovered characterizations deactivated because
	// the replayed data no longer satisfies them.
	Invalidated int
	// WALBytes is the committed log length recovery kept.
	WALBytes int64
}

// walState is the durable half of a Database: the open log writer, the
// records staged by the statement in flight, and the checkpoint cadence.
// It is guarded by db.mu like the rest of the mutating state.
type walState struct {
	dir             string
	w               *wal.Writer
	fault           *fault.Injector
	pending         []*wal.Record
	stmts           int // logged statements since the last checkpoint
	checkpointEvery int

	// Resolved metric counters; lastBytes/lastFsyncs track the writer's
	// lifetime totals already exported.
	cBytes, cFsyncs, cCheckpoints, cFrames *obs.Counter
	lastBytes, lastFsyncs                  int64
	hBatch, hCkptDur                       *obs.Histogram

	// recovery is what OpenDurable's recovery pass found, kept for
	// /debug/wal.
	recovery RecoverySummary
}

// RecoverySummary is the JSON-friendly form of RecoveryStats served by
// /debug/wal (the error rendered as text).
type RecoverySummary struct {
	SnapshotLSN        uint64 `json:"snapshot_lsn"`
	RecordsReplayed    int64  `json:"records_replayed"`
	StatementsReplayed int64  `json:"statements_replayed"`
	TailTruncated      bool   `json:"tail_truncated"`
	TailErr            string `json:"tail_err,omitempty"`
	Revalidated        int    `json:"revalidated"`
	Invalidated        int    `json:"invalidated"`
	WALBytes           int64  `json:"wal_bytes"`
}

// summary converts the recovery outcome for the debug endpoint.
func (rs *RecoveryStats) summary() RecoverySummary {
	s := RecoverySummary{
		SnapshotLSN:        rs.SnapshotLSN,
		RecordsReplayed:    rs.RecordsReplayed,
		StatementsReplayed: rs.StatementsReplayed,
		TailTruncated:      rs.TailTruncated,
		Revalidated:        rs.Revalidated,
		Invalidated:        rs.Invalidated,
		WALBytes:           rs.WALBytes,
	}
	if rs.TailErr != nil {
		s.TailErr = rs.TailErr.Error()
	}
	return s
}

// WALStatus is the durability snapshot served at /debug/wal. A zero value
// (Durable false) marks an in-memory database.
type WALStatus struct {
	Durable bool   `json:"durable"`
	Dir     string `json:"dir,omitempty"`
	// Writer lifetime totals.
	WALBytes  int64  `json:"wal_bytes,omitempty"`
	WALFsyncs int64  `json:"wal_fsyncs,omitempty"`
	Frames    int64  `json:"frames,omitempty"`
	NextLSN   uint64 `json:"next_lsn,omitempty"`
	// Checkpoint cadence.
	Checkpoints               int64 `json:"checkpoints,omitempty"`
	StmtsSinceCheckpoint      int   `json:"stmts_since_checkpoint,omitempty"`
	CheckpointEveryStatements int   `json:"checkpoint_every_statements,omitempty"`
	// Failed reports a latched writer error (mutations fail until restart).
	Failed string `json:"failed,omitempty"`
	// Recovery is the outcome of the open-time recovery pass.
	Recovery *RecoverySummary `json:"recovery,omitempty"`
}

// WALStatusSnapshot reports the database's durability state; for an
// in-memory database it returns the zero value, marshaling to
// {"durable": false}. It reads the log writer and the statement count
// under writeMu, the lock every log writer holds; the shared lock would
// not exclude them.
func (db *Database) WALStatusSnapshot() WALStatus {
	db.lockWrite()
	defer db.writeMu.Unlock()
	d := db.dur
	if d == nil {
		return WALStatus{}
	}
	st := WALStatus{
		Durable:                   true,
		Dir:                       d.dir,
		WALBytes:                  d.w.Bytes(),
		WALFsyncs:                 d.w.Fsyncs(),
		Frames:                    d.cFrames.Value(),
		NextLSN:                   d.w.NextLSN(),
		Checkpoints:               d.cCheckpoints.Value(),
		StmtsSinceCheckpoint:      d.stmts,
		CheckpointEveryStatements: d.checkpointEvery,
	}
	if err := d.w.Err(); err != nil {
		st.Failed = err.Error()
	}
	rec := d.recovery
	st.Recovery = &rec
	return st
}

// syncMetrics exports the writer's byte/fsync deltas since the last call.
func (d *walState) syncMetrics() {
	if b := d.w.Bytes(); b > d.lastBytes {
		d.cBytes.Add(b - d.lastBytes)
		d.lastBytes = b
	}
	if n := d.w.Fsyncs(); n > d.lastFsyncs {
		d.cFsyncs.Add(n - d.lastFsyncs)
		d.lastFsyncs = n
	}
}

// Durable reports whether the database writes a WAL.
func (db *Database) Durable() bool { return db.dur != nil }

// --- record staging (all called with db.mu held exclusively) ---
//
// Row-level DML records no longer pass through here: transactions stage
// them in their Tx and hand them to the writer at commit (see txn.go).
// The pending list carries only the non-transactional record kinds — DDL,
// soft-registry images, truncates — each committed as its own group.

// walDDL stages a DDL/utility statement as text plus its outcome; replay
// re-executes it and must agree with applied.
func (db *Database) walDDL(sqlText string, applied bool) {
	if db.dur == nil {
		return
	}
	db.dur.pending = append(db.dur.pending, &wal.Record{Type: wal.TypeDDL, SQL: sqlText, Applied: applied})
}

// walSoftLocked stages a full image of the soft-constraint registry.
func (db *Database) walSoftLocked() error {
	if db.dur == nil {
		return nil
	}
	blob, err := db.cat.EncodeSoftRegistry(nil)
	if err != nil {
		return err
	}
	db.dur.pending = append(db.dur.pending, &wal.Record{Type: wal.TypeSoft, Blob: blob})
	return nil
}

// commitWALLocked flushes the statement's staged records as one committed
// group. It runs on success and error paths alike: a failed DDL statement
// is still logged (with Applied false) so replay can agree with the
// pre-crash outcome. A write/fsync failure latches the writer and surfaces
// as a KindRecovery QueryError; mutations stay failed until the process
// restarts and recovery truncates back to the valid prefix.
func (db *Database) commitWALLocked() error {
	d := db.dur
	if d == nil || len(d.pending) == 0 {
		return nil
	}
	recs := d.pending
	d.pending = nil
	_, _, err := d.w.Commit(recs)
	d.syncMetrics()
	if err != nil {
		return &exec.QueryError{Op: "wal.commit", Kind: exec.KindRecovery, Err: err}
	}
	// One group commit = the statement's records plus the commit terminator.
	batch := int64(len(recs)) + 1
	d.cFrames.Add(batch)
	d.hBatch.Observe(float64(batch))
	d.stmts++
	if d.checkpointEvery > 0 && d.stmts >= d.checkpointEvery {
		if cerr := db.checkpointLocked(); cerr != nil {
			// The log still holds everything the snapshot would have
			// covered, so a failed checkpoint doesn't fail the statement.
			if l := db.obs.logger.Load(); l != nil {
				l.Error("checkpoint failed", "err", cerr)
			}
		}
	}
	return nil
}

// SyncSoftRegistry logs a fresh image of the soft-constraint registry as
// its own committed group. The softc manager's OnChange hook calls it after
// every registry mutation; it is a no-op on in-memory databases.
func (db *Database) SyncSoftRegistry() {
	if db.dur == nil {
		return
	}
	db.lockWrite()
	defer db.writeMu.Unlock()
	db.lock()
	defer db.mu.Unlock()
	err := db.walSoftLocked()
	if err == nil {
		err = db.commitWALLocked()
	}
	if err != nil {
		if l := db.obs.logger.Load(); l != nil {
			l.Error("soft-registry WAL sync failed", "err", err)
		}
	}
}

// TruncateTable empties a table's heap and indexes, and resynchronizes the
// summary tables materialized over it. Durable databases log it as a single
// redo record rather than per-row tombstones.
func (db *Database) TruncateTable(table string) error {
	db.lockWrite()
	defer db.writeMu.Unlock()
	db.lock()
	defer db.mu.Unlock()
	te, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	db.truncateLocked(te)
	if db.dur != nil {
		db.dur.pending = append(db.dur.pending, &wal.Record{Type: wal.TypeTruncate, Table: te.Def.Name})
		return db.commitWALLocked()
	}
	return nil
}

func (db *Database) truncateLocked(te *catalog.TableEntry) {
	te.Heap.Truncate()
	for _, ix := range te.Indexes {
		ix.Tree = catalog.NewIndexTree(te.Def, ix.Ordinal)
	}
	for _, st := range db.cat.SummariesOn(te.Def.Name) {
		if st.Informational {
			st.RowCountEstimate = 0
		} else if st.Heap != nil {
			st.Heap.Truncate()
		}
	}
	bumpCurrency(te, db.cat.Correlations(te.Def.Name), db.cat.JoinHolesOn(te.Def.Name), 1, nil)
	db.cat.Touch()
}

// --- checkpoints ---

// Checkpoint snapshots the full engine state and truncates the log. Safe
// no-op on in-memory databases.
func (db *Database) Checkpoint() error {
	db.lockWrite()
	defer db.writeMu.Unlock()
	db.lock()
	defer db.mu.Unlock()
	return db.checkpointLocked()
}

func (db *Database) checkpointLocked() error {
	d := db.dur
	if d == nil {
		return nil
	}
	if err := d.w.Err(); err != nil {
		return err
	}
	// An open write transaction (a session between BEGIN and COMMIT holds
	// no lock) would be snapshotted as dead versions while its streamed
	// log records get truncated — so the checkpoint defers until the
	// writes drain. The log keeps everything; nothing is lost by waiting.
	if db.txnMgr.ActiveWrites() > 0 {
		return nil
	}
	ckptStart := time.Now()
	// Make the log durable first so the snapshot never claims coverage of
	// bytes an fsync hadn't confirmed.
	if err := d.w.Sync(); err != nil {
		d.syncMetrics()
		return err
	}
	d.syncMetrics()
	payload, err := db.encodeStateLocked()
	if err != nil {
		return fmt.Errorf("engine: checkpoint encode: %w", err)
	}
	lastLSN := d.w.NextLSN() - 1
	if err := wal.WriteSnapshot(d.dir, lastLSN, payload, d.fault); err != nil {
		return err
	}
	if err := d.w.Truncate(); err != nil {
		d.syncMetrics()
		return err
	}
	d.syncMetrics()
	d.stmts = 0
	d.cCheckpoints.Inc()
	d.hCkptDur.Observe(time.Since(ckptStart).Seconds())
	return nil
}

// encodeStateLocked serializes the whole engine: the view definitions (as
// re-parseable SQL) followed by the catalog's length-prefixed EncodeState
// blob (tables, heaps, indexes, constraints, stats, summaries, and the soft
// registry).
func (db *Database) encodeStateLocked() ([]byte, error) {
	names := make([]string, 0, len(db.views))
	for n := range db.views {
		names = append(names, n)
	}
	sort.Strings(names)
	b := codec.AppendUvarint(nil, uint64(len(names)))
	for _, n := range names {
		b = codec.AppendString(b, n)
		b = codec.AppendString(b, sql.Print(db.views[n]))
	}
	cat, err := db.cat.EncodeState(nil)
	if err != nil {
		return nil, err
	}
	return codec.AppendBytes(b, cat), nil
}

// restoreState rebuilds the engine from a checkpoint snapshot payload.
func (db *Database) restoreState(payload []byte) error {
	d := codec.NewDecoder(payload)
	n := d.Uvarint("view count")
	views := map[string]*sql.Select{}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		name := d.String("view name")
		text := d.String("view sql")
		if d.Err() != nil {
			break
		}
		stmt, perr := sql.Parse(text)
		if perr != nil {
			return snapshotError(fmt.Errorf("view %s: %w", name, perr))
		}
		sel, ok := stmt.(*sql.Select)
		if !ok {
			return snapshotError(fmt.Errorf("view %s: not a SELECT", name))
		}
		views[name] = sel
	}
	blob := d.Bytes("catalog state")
	if err := d.Err(); err != nil {
		return snapshotError(err)
	}
	if d.Len() != 0 {
		return snapshotError(fmt.Errorf("%d trailing bytes", d.Len()))
	}
	cat, err := catalog.DecodeState(blob, db.exprBinder())
	if err != nil {
		return snapshotError(err)
	}
	db.cat = cat
	db.views = views
	return nil
}

func snapshotError(cause error) error {
	return &exec.QueryError{Op: "engine.recover", Kind: exec.KindRecovery,
		Err: fmt.Errorf("corrupt snapshot state: %w", cause)}
}

// exprBinder adapts the engine's expression parser/binder to the catalog
// codec's rebind hook.
func (db *Database) exprBinder() catalog.ExprBinder {
	return func(exprSQL string, def *schema.Table) (expr.Expr, error) {
		parsed, err := parseExpression(exprSQL)
		if err != nil {
			return nil, err
		}
		return bindToTable(parsed, def)
	}
}

// --- recovery ---

// OpenDurable opens (or creates) a durable database rooted at dir: it loads
// the checkpoint snapshot if one exists, replays the committed suffix of
// the write-ahead log, truncates any torn or uncommitted tail, re-validates
// the recovered absolute soft characterizations against the replayed data
// (invalidating, never re-mining), and reopens the log for appending.
//
// A torn tail is not an error — the valid committed prefix is a consistent
// state and the loss is bounded by the in-flight statement — and is
// reported in RecoveryStats. A corrupt snapshot, a replay divergence (a DDL
// statement whose outcome differs from what was logged, a row record
// addressing a missing row), or an unreadable log is fatal: the returned
// error is a KindRecovery QueryError and no database is opened.
func OpenDurable(dir string, opts DurableOptions) (*Database, *RecoveryStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("engine: create data dir: %w", err)
	}
	db := Open()
	rs := &RecoveryStats{}

	payload, snapLSN, found, err := wal.ReadSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	if found {
		if err := db.restoreState(payload); err != nil {
			return nil, nil, err
		}
		rs.SnapshotLSN = snapLSN
	}

	// Replay: buffer records per transaction and apply a group only when
	// its commit record closes it, skipping groups the snapshot already
	// covers. An aborted transaction's inserts become permanent aborted
	// placeholder slots — later commits' RIDs (and the index entries
	// pointing at them) depend on the physical layout those slots pad out.
	// Groups left unterminated when the scan ends (the transactions open
	// at the crash) are discarded.
	groups := map[int64][]*wal.Record{}
	logPath := wal.LogPath(dir)
	res, err := wal.ScanLog(logPath, opts.Fault, func(r *wal.Record) error {
		switch r.Type {
		case wal.TypeBegin:
			// Group-opening marker only; records carry their TxnID.
		case wal.TypeCommit:
			if r.LSN > snapLSN {
				applied := false
				for _, g := range groups[r.TxnID] {
					if g.LSN <= snapLSN {
						continue
					}
					if aerr := db.redo(g); aerr != nil {
						return aerr
					}
					rs.RecordsReplayed++
					applied = true
				}
				if applied {
					rs.StatementsReplayed++
				}
			}
			delete(groups, r.TxnID)
		case wal.TypeAbort:
			if r.LSN > snapLSN {
				for _, g := range groups[r.TxnID] {
					if g.LSN <= snapLSN || g.Type != wal.TypeInsert {
						continue
					}
					if te, terr := db.cat.Table(g.Table); terr == nil {
						te.Heap.InsertAtRID(nil, g.RID, storage.Aborted)
					}
				}
			}
			delete(groups, r.TxnID)
		default:
			groups[r.TxnID] = append(groups[r.TxnID], r)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rs.TailErr = res.Tail
	// Seed the ID allocator past every transaction the log named, so a
	// fresh transaction can never collide with an orphaned group.
	db.txnMgr.SeedIDs(res.MaxTxnID)

	// Cut the log back to the last committed boundary: past it lie torn
	// frames and/or an unterminated record group, which the next writer
	// must not extend into a decodable-but-wrong group.
	if fi, serr := os.Stat(logPath); serr == nil && fi.Size() > res.CommittedBytes {
		if terr := wal.TruncateLog(logPath, res.CommittedBytes); terr != nil {
			return nil, nil, &exec.QueryError{Op: "engine.recover", Kind: exec.KindRecovery, Err: terr}
		}
		rs.TailTruncated = true
	}
	rs.WALBytes = res.CommittedBytes

	// Re-validate (not re-mine) the recovered absolute characterizations:
	// anything the replayed data violates flips to inactive, exactly as a
	// violating write would have done pre-crash.
	db.revalidateSoft(rs)

	nextLSN := res.LastLSN
	if snapLSN > nextLSN {
		nextLSN = snapLSN
	}
	w, err := wal.OpenWriter(logPath, nextLSN+1, wal.WriterOptions{
		Policy: opts.SyncPolicy, Interval: opts.SyncInterval, Fault: opts.Fault,
	})
	if err != nil {
		return nil, nil, err
	}
	ce := opts.CheckpointEvery
	if ce == 0 {
		ce = DefaultCheckpointEvery
	}
	db.dur = &walState{
		dir:             dir,
		w:               w,
		fault:           opts.Fault,
		checkpointEvery: ce,
		cBytes:          db.obs.metrics.Counter(mWALBytes),
		cFsyncs:         db.obs.metrics.Counter(mWALFsyncs),
		cCheckpoints:    db.obs.metrics.Counter(mCheckpoints),
		cFrames:         db.obs.metrics.Counter(mWALFrames),
		hBatch:          db.obs.metrics.Histogram(mWALBatchSize, walBatchBuckets),
		hCkptDur:        db.obs.metrics.Histogram(mCheckpointSeconds, obs.DefLatencyBuckets),
		recovery:        rs.summary(),
	}
	m := db.obs.metrics
	m.Counter(mRecoveryReplayed).Add(rs.RecordsReplayed)
	m.Counter(mRecoveryStmts).Add(rs.StatementsReplayed)
	m.Gauge(mRecoveryWALBytes).Set(rs.WALBytes)
	m.Gauge(mRecoverySnapLSN).Set(int64(rs.SnapshotLSN))
	m.Counter(mRecoveryRevalid).Add(int64(rs.Revalidated))
	m.Counter(mRecoveryInvalid).Add(int64(rs.Invalidated))
	if rs.TailTruncated {
		m.Counter(mRecoveryTailTrunc).Inc()
	}
	return db, rs, nil
}

// Close checkpoints a durable database (clean shutdown: recovery then
// starts from the snapshot alone) and closes the log. In-memory databases
// close trivially.
func (db *Database) Close() error {
	db.lockWrite()
	defer db.writeMu.Unlock()
	db.lock()
	defer db.mu.Unlock()
	d := db.dur
	if d == nil {
		return nil
	}
	var cerr error
	if d.w.Err() == nil {
		cerr = db.checkpointLocked()
	}
	werr := d.w.Close()
	db.dur = nil
	if cerr != nil {
		return cerr
	}
	return werr
}

// redo applies one replayed record. It mirrors the live DML paths minus
// enforced-constraint checking (the pre-crash engine already admitted these
// rows) and runs the same soft write hook commit does, so the recovered
// catalog evolves exactly as the original did.
func (db *Database) redo(r *wal.Record) error {
	fail := func(cause error) error {
		return &exec.QueryError{Op: "engine.recover", Kind: exec.KindRecovery,
			Err: fmt.Errorf("replay %s record lsn=%d: %w", r.Type, r.LSN, cause)}
	}
	switch r.Type {
	case wal.TypeInsert:
		te, err := db.cat.Table(r.Table)
		if err != nil {
			return fail(err)
		}
		// Replay at the logged RID: commit order is not slot order (an
		// earlier-slotted transaction may have committed later), so the
		// row must land exactly where the live run put it or every later
		// index entry would dangle.
		if !te.Heap.InsertAtRID(r.Row, r.RID, storage.CommittedMin) {
			return fail(fmt.Errorf("slot %v already occupied", r.RID))
		}
		for _, ix := range te.Indexes {
			ix.Tree.Insert(ix.KeyFor(r.Row), r.RID)
		}
		db.softWrite(te, []writeOp{{te: te, rid: r.RID, row: r.Row}}, storage.CommittedMin)
	case wal.TypeDelete:
		te, err := db.cat.Table(r.Table)
		if err != nil {
			return fail(err)
		}
		old, ok := te.Heap.Get(r.RID)
		if !ok {
			return fail(fmt.Errorf("no live row at %v", r.RID))
		}
		// End-stamp the version rather than reclaiming the slot — the
		// live commit path leaves dead versions (and their index
		// entries) in place for Vacuum, and recovery must converge on
		// the same physical state.
		te.Heap.SetEnd(r.RID, storage.CommittedMin)
		db.softWrite(te, []writeOp{{te: te, del: true, rid: r.RID, row: old}}, storage.CommittedMin)
	case wal.TypeDDL:
		stmt, perr := sql.Parse(r.SQL)
		if perr != nil {
			return fail(fmt.Errorf("logged statement no longer parses: %w", perr))
		}
		eerr := db.redoStmt(stmt)
		if (eerr == nil) != r.Applied {
			if r.Applied {
				return fail(fmt.Errorf("statement %q succeeded pre-crash but failed on replay: %v", r.SQL, eerr))
			}
			return fail(fmt.Errorf("statement %q failed pre-crash but succeeded on replay", r.SQL))
		}
	case wal.TypeSoft:
		if err := db.cat.DecodeSoftRegistry(r.Blob, db.exprBinder()); err != nil {
			return fail(err)
		}
	case wal.TypeTruncate:
		te, err := db.cat.Table(r.Table)
		if err != nil {
			return fail(err)
		}
		db.truncateLocked(te)
	default:
		return fail(fmt.Errorf("unexpected record type"))
	}
	return nil
}

// redoStmt re-executes a logged DDL/utility statement through the same
// handlers the live path uses, without locks (recovery is single-threaded)
// and without re-logging (db.dur is still nil during replay).
func (db *Database) redoStmt(stmt sql.Statement) error {
	var err error
	switch s := stmt.(type) {
	case *sql.CreateTable:
		_, err = db.createTable(s)
	case *sql.CreateIndex:
		_, err = db.createIndex(s)
	case *sql.CreateView:
		_, err = db.createView(s)
	case *sql.CreateSummary:
		_, err = db.createSummary(s)
	case *sql.AlterTableAdd:
		_, err = db.alterAdd(s)
	case *sql.DropTable:
		_, err = db.dropTable(s)
	case *sql.Analyze:
		_, err = db.analyze(s)
	default:
		err = fmt.Errorf("engine: unexpected logged statement %T", stmt)
	}
	return err
}

// revalidateSoft re-checks every active absolute characterization — ASC
// check constraints and absolute linear correlations — against the
// recovered heaps, deactivating violated ones: one pass per table over its
// page batches through the table's soft write guard. VerifiedVersion and
// ModsSince are left alone: this is §4.1 maintenance of last resort, not a
// re-mine.
func (db *Database) revalidateSoft(rs *RecoveryStats) {
	for _, name := range db.cat.TableNames() {
		te, err := db.cat.Table(name)
		if err != nil {
			continue
		}
		g := newSoftGuard(te, db.cat.Correlations(name))
		if len(g.checks) == 0 {
			continue
		}
		rs.Revalidated += len(g.checks)
		open := len(g.checks)
		te.Heap.VisiblePages(func(_ int, b *vec.Batch) bool {
			for _, c := range g.checks {
				if c.bad < 0 && g.first(c, b) >= 0 {
					c.bad = 0
					open--
				}
			}
			return open > 0
		})
		for _, c := range g.checks {
			if c.bad < 0 {
				continue
			}
			if c.con != nil {
				_ = db.cat.DeactivateConstraint(te.Def.Name, c.con.Name)
			} else {
				_ = db.cat.DeactivateCorrelation(c.lc.Name)
			}
			rs.Invalidated++
		}
	}
}
