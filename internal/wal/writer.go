package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"softdb/internal/fault"
)

// LogPath returns the WAL file path inside a data directory.
func LogPath(dir string) string { return filepath.Join(dir, "wal.log") }

// SyncPolicy selects when the writer fsyncs the log.
type SyncPolicy int

const (
	// SyncAlways fsyncs every commit — full durability, one fsync per
	// statement.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs a commit only when at least Interval has elapsed
	// since the last fsync, amortizing fsync cost across the serialized
	// write stream (group commit). A crash can lose up to Interval of
	// committed-in-memory statements; recovery still lands on a consistent
	// prefix.
	SyncInterval
	// SyncNone never fsyncs outside checkpoints and Close — fastest, for
	// tests and benchmarks that measure everything but the disk.
	SyncNone
)

// ParseSyncPolicy maps the -wal-sync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval, or none)", s)
	}
}

// WriterOptions configures a Writer.
type WriterOptions struct {
	Policy SyncPolicy
	// Interval is the minimum gap between fsyncs under SyncInterval.
	Interval time.Duration
	// Fault, when set, gates every append and fsync through the injector's
	// deterministic WAL sites.
	Fault *fault.Injector
	// Now is swappable for tests; defaults to time.Now.
	Now func() time.Time
}

// Writer appends record groups to the log. It is not safe for concurrent
// use: the engine makes every call, and every read of its counters, under
// its writer lock (writeMu). The first
// write or fsync failure latches: the file tail past the last good commit
// must be considered garbage, so every later Commit fails fast with the
// same error and the engine degrades to read-only until restart (when
// recovery truncates back to the valid prefix).
type Writer struct {
	f        *os.File
	opts     WriterOptions
	nextLSN  uint64
	err      error
	lastSync time.Time

	bytes  int64 // total bytes appended
	fsyncs int64 // fsyncs performed
}

// OpenWriter opens (creating if needed) the log for appending. nextLSN is
// where LSN assignment resumes — one past the highest LSN recovery saw.
func OpenWriter(path string, nextLSN uint64, o WriterOptions) (*Writer, error) {
	if o.Now == nil {
		o.Now = time.Now
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	return &Writer{f: f, opts: o, nextLSN: nextLSN, lastSync: o.Now()}, nil
}

// NextLSN returns the LSN the next appended record will get.
func (w *Writer) NextLSN() uint64 { return w.nextLSN }

// Err returns the latched write failure, if any.
func (w *Writer) Err() error { return w.err }

// Bytes returns the total bytes appended over the writer's lifetime.
func (w *Writer) Bytes() int64 { return w.bytes }

// Fsyncs returns how many fsyncs the writer has performed.
func (w *Writer) Fsyncs() int64 { return w.fsyncs }

// encodeGroup assigns LSNs to recs and encodes them into one buffer. On
// encode failure the writer latches.
func (w *Writer) encodeGroup(recs []*Record) ([]byte, error) {
	var buf []byte
	var err error
	for _, r := range recs {
		r.LSN = w.nextLSN
		w.nextLSN++
		if buf, err = AppendRecord(buf, r); err != nil {
			w.err = err
			return nil, err
		}
	}
	return buf, nil
}

// write pushes an encoded buffer through the fault injector to the file.
func (w *Writer) write(buf []byte) (int64, error) {
	allowed, ferr := w.opts.Fault.WALWriteAllow(len(buf))
	if allowed > 0 {
		if _, werr := w.f.Write(buf[:allowed]); werr != nil && ferr == nil {
			ferr = werr
		}
	}
	w.bytes += int64(allowed)
	if ferr != nil {
		w.err = fmt.Errorf("wal: append: %w", ferr)
		return int64(allowed), w.err
	}
	return int64(allowed), nil
}

// policySync applies the sync policy after a terminator record landed.
func (w *Writer) policySync() (bool, error) {
	synced := false
	switch w.opts.Policy {
	case SyncAlways:
		synced = true
	case SyncInterval:
		synced = w.opts.Now().Sub(w.lastSync) >= w.opts.Interval
	}
	if synced {
		if err := w.Sync(); err != nil {
			return false, err
		}
	}
	return synced, nil
}

// Append assigns LSNs to recs and appends them as one buffered write with
// no terminator and no fsync — the streaming path for an open transaction's
// statements. The records stay invisible to recovery until a later
// CommitTxn closes the group.
func (w *Writer) Append(recs []*Record) (int64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if len(recs) == 0 {
		return 0, nil
	}
	buf, err := w.encodeGroup(recs)
	if err != nil {
		return 0, err
	}
	return w.write(buf)
}

// Commit assigns LSNs to recs, appends them plus a TypeCommit terminator
// as one buffered write, and applies the sync policy. It returns the bytes
// appended and whether an fsync ran. On failure the writer latches and the
// log tail is garbage until the next recovery.
func (w *Writer) Commit(recs []*Record) (int64, bool, error) {
	return w.CommitTxn(0, recs)
}

// CommitTxn is Commit with the terminator tagged by an explicit
// transaction's ID; recovery applies that transaction's streamed records
// when it sees the tagged commit. txnID 0 is the autocommit group path.
func (w *Writer) CommitTxn(txnID int64, recs []*Record) (int64, bool, error) {
	return w.terminate(&Record{Type: TypeCommit, TxnID: txnID}, recs)
}

// Abort appends a TypeAbort terminator for txnID and applies the sync
// policy. Recovery discards the transaction's streamed records; the abort
// record only re-establishes a consistent truncation boundary.
func (w *Writer) Abort(txnID int64) (int64, bool, error) {
	return w.terminate(&Record{Type: TypeAbort, TxnID: txnID}, nil)
}

func (w *Writer) terminate(term *Record, recs []*Record) (int64, bool, error) {
	if w.err != nil {
		return 0, false, w.err
	}
	buf, err := w.encodeGroup(recs)
	if err != nil {
		return 0, false, err
	}
	term.LSN = w.nextLSN
	w.nextLSN++
	if buf, err = AppendRecord(buf, term); err != nil {
		w.err = err
		return 0, false, err
	}
	pre := int64(-1)
	if st, serr := w.f.Stat(); serr == nil {
		pre = st.Size()
	}
	n, err := w.write(buf)
	if err != nil {
		return n, false, err
	}
	synced, err := w.policySync()
	if err != nil {
		// The terminator reached the OS but not the platter; the caller
		// will report the commit failed and roll back in memory, so a
		// later recovery must not replay it. Best effort, claw this
		// call's bytes back out of the file — the group reverts to an
		// unterminated stream, which recovery discards either way.
		if pre >= 0 {
			_ = w.f.Truncate(pre)
		}
		return n, false, err
	}
	return n, synced, nil
}

// Sync forces an fsync regardless of policy (checkpoints, clean shutdown).
func (w *Writer) Sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.opts.Fault.WALSync(); err != nil {
		w.err = fmt.Errorf("wal: fsync: %w", err)
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("wal: fsync: %w", err)
		return w.err
	}
	w.fsyncs++
	w.lastSync = w.opts.Now()
	return nil
}

// Truncate discards the log's contents after a successful checkpoint (the
// snapshot now covers everything). LSN assignment keeps counting.
func (w *Writer) Truncate() error {
	if w.err != nil {
		return w.err
	}
	if err := w.f.Truncate(0); err != nil {
		w.err = fmt.Errorf("wal: truncate: %w", err)
		return w.err
	}
	// O_APPEND writes land at the (now zero) end of file; no seek needed.
	return w.Sync()
}

// Close fsyncs (best-effort when already failed) and closes the log.
func (w *Writer) Close() error {
	if w.err == nil {
		if err := w.Sync(); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.f.Close()
}
