package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"softdb/internal/exec"
	"softdb/internal/fault"
	"softdb/internal/storage"
	"softdb/internal/types"
)

// sampleRecords returns one record of every loggable type (TypeCommit is
// appended by the writer itself).
func sampleRecords() []*Record {
	return []*Record{
		{Type: TypeInsert, Table: "orders", Row: types.Row{
			types.NewInt(42), types.NewString("späté"), types.NewFloat(3.25),
			types.NewBool(true), types.Null, types.NewDate(12345),
		}},
		{Type: TypeDelete, Table: "orders", RID: storage.RowID{Page: 0, Slot: 0}},
		{Type: TypeDDL, SQL: "CREATE TABLE t (a INT)", Applied: true},
		{Type: TypeDDL, SQL: "CREATE TABLE t (a INT)", Applied: false},
		{Type: TypeSoft, Blob: []byte{0xde, 0xad, 0xbe, 0xef, 0x00}},
		{Type: TypeTruncate, Table: "orders"},
	}
}

func recordsEqual(a, b *Record) bool {
	if a.Type != b.Type || a.LSN != b.LSN || a.Table != b.Table ||
		a.RID != b.RID || a.SQL != b.SQL || a.Applied != b.Applied {
		return false
	}
	if (a.Row == nil) != (b.Row == nil) || (a.Row != nil && !a.Row.Equal(b.Row)) {
		return false
	}
	return bytes.Equal(a.Blob, b.Blob)
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range sampleRecords() {
		r.LSN = 991
		buf, err := appendPayload(nil, r)
		if err != nil {
			t.Fatalf("%s: encode: %v", r.Type, err)
		}
		got, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", r.Type, err)
		}
		if !recordsEqual(r, got) {
			t.Fatalf("%s: round trip: %+v != %+v", r.Type, got, r)
		}
	}
}

func TestWriterScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWriter(path, 1, WriterOptions{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	// Two groups: the first four records, then the rest.
	if _, synced, err := w.Commit(want[:4]); err != nil || !synced {
		t.Fatalf("commit 1: synced=%v err=%v", synced, err)
	}
	if _, _, err := w.Commit(want[4:]); err != nil {
		t.Fatalf("commit 2: %v", err)
	}
	if w.Fsyncs() != 2 {
		t.Fatalf("fsyncs = %d, want 2", w.Fsyncs())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []*Record
	res, err := ScanLog(path, nil, func(r *Record) error {
		if r.Type != TypeCommit {
			got = append(got, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tail != nil {
		t.Fatalf("unexpected tail error: %v", res.Tail)
	}
	// 6 payload records + 2 commit terminators.
	if res.Records != 8 {
		t.Fatalf("records = %d, want 8", res.Records)
	}
	if res.CommittedBytes != res.ValidBytes {
		t.Fatalf("committed %d != valid %d on a clean log", res.CommittedBytes, res.ValidBytes)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !recordsEqual(want[i], got[i]) {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
	// LSNs strictly increase and include the commits: 1..8.
	if res.LastLSN != 8 {
		t.Fatalf("last LSN = %d, want 8", res.LastLSN)
	}
}

// TestTruncationAtEveryByte is the torn-write matrix: a log ending in each
// record type, cut at every byte boundary of the final frame. Every prefix
// must scan without panicking, keep the committed prefix intact, and report
// a typed KindRecovery tail error (or a clean uncommitted group when the
// cut lands exactly on a frame boundary).
func TestTruncationAtEveryByte(t *testing.T) {
	for _, last := range sampleRecords() {
		t.Run(last.Type.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "wal.log")
			w, err := OpenWriter(path, 1, WriterOptions{Policy: SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			// One committed group first, so truncation must never eat it.
			if _, _, err := w.Commit(sampleRecords()[:2]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := w.Commit([]*Record{last}); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The first group ends at the first commit record's boundary.
			base, err := ScanLog(path, nil, func(*Record) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			firstCommit := int64(0)
			{
				// Re-scan to find the byte offset after the first commit.
				n := 0
				ScanLog(path, nil, func(r *Record) error {
					n++
					return nil
				})
				_ = n
			}
			// Locate the first group's end: scan a copy truncated to every
			// prefix; the committed boundary of the full log minus the last
			// group's bytes. Simpler: the last group is everything after
			// the first commit; find it by scanning offsets.
			offsets := frameOffsets(t, full)
			// offsets[i] = start of frame i; frame 2 is the first of the
			// final group (frames: 0,1 payload, 2 commit, 3 payload, 4 commit).
			if len(offsets) != 5 {
				t.Fatalf("frame count = %d, want 5", len(offsets))
			}
			firstCommit = offsets[3] // byte length of the committed first group

			for cut := firstCommit; cut < int64(len(full)); cut++ {
				if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				var replayed int64
				res, err := ScanLog(path, nil, func(r *Record) error {
					replayed++
					return nil
				})
				if err != nil {
					t.Fatalf("cut %d: fatal scan error: %v", cut, err)
				}
				// The committed first group always survives whole.
				if res.CommittedBytes != firstCommit {
					t.Fatalf("cut %d: committed bytes %d, want %d", cut, res.CommittedBytes, firstCommit)
				}
				if replayed < 3 {
					t.Fatalf("cut %d: lost committed records (saw %d)", cut, replayed)
				}
				if cut == firstCommit {
					// Exactly at the boundary: clean log, no tail error.
					if res.Tail != nil {
						t.Fatalf("cut %d: unexpected tail error %v", cut, res.Tail)
					}
					continue
				}
				if onBoundary(offsets, cut) {
					// Cut between frames: well-formed but uncommitted tail.
					if res.Tail != nil {
						t.Fatalf("cut %d: tail error on frame boundary: %v", cut, res.Tail)
					}
					continue
				}
				if res.Tail == nil {
					t.Fatalf("cut %d: torn frame not reported", cut)
				}
				if res.Tail.Kind != exec.KindRecovery {
					t.Fatalf("cut %d: tail kind %q, want recovery", cut, res.Tail.Kind)
				}
			}
			_ = base
		})
	}
}

// frameOffsets returns the byte offset where each frame starts.
func frameOffsets(t *testing.T, full []byte) []int64 {
	t.Helper()
	var offs []int64
	off := int64(0)
	for off < int64(len(full)) {
		offs = append(offs, off)
		rest := full[off:]
		n, vn := uvarint(rest)
		if vn <= 0 || int64(len(rest)) < int64(vn)+4+int64(n) {
			t.Fatalf("bad frame at %d", off)
		}
		off += int64(vn) + 4 + int64(n)
	}
	return offs
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b); i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

func onBoundary(offs []int64, cut int64) bool {
	for _, o := range offs {
		if o == cut {
			return true
		}
	}
	return false
}

// TestCorruptPayloadCRC flips a byte inside a committed record: the CRC
// must catch it and classify the log as torn at that frame.
func TestCorruptPayloadCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := OpenWriter(path, 1, WriterOptions{Policy: SyncNone})
	if _, _, err := w.Commit(sampleRecords()[:1]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	buf, _ := os.ReadFile(path)
	buf[len(buf)-1] ^= 0xff
	os.WriteFile(path, buf, 0o644)
	res, err := ScanLog(path, nil, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Tail == nil || res.Tail.Kind != exec.KindRecovery {
		t.Fatalf("corrupt payload not classified as torn tail: %+v", res)
	}
}

func TestWriterTornWriteLatches(t *testing.T) {
	inj := fault.New(fault.Config{WALTornAfter: 10})
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWriter(path, 1, WriterOptions{Policy: SyncNone, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = w.Commit(sampleRecords()[:2])
	if err == nil {
		t.Fatal("torn write should fail the commit")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	// The writer is latched: later commits fail fast without writing.
	if _, _, err2 := w.Commit(sampleRecords()[:1]); err2 == nil {
		t.Fatal("latched writer accepted a commit")
	}
	w.Close()
	if inj.Stats().WALTornWrites != 1 {
		t.Fatalf("stats: %+v", inj.Stats())
	}
	// The torn 10-byte prefix is an invalid frame; recovery finds nothing.
	res, err := ScanLog(path, nil, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedBytes != 0 || res.Tail == nil {
		t.Fatalf("torn prefix should scan as empty+torn: %+v", res)
	}
}

func TestWriterFsyncFailureLatches(t *testing.T) {
	inj := fault.New(fault.Config{WALSyncFailAt: 1})
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWriter(path, 1, WriterOptions{Policy: SyncAlways, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Commit(sampleRecords()[:1]); err == nil {
		t.Fatal("fsync failure should fail the commit")
	}
	if w.Err() == nil {
		t.Fatal("writer should latch the fsync failure")
	}
	if _, _, err := w.Commit(sampleRecords()[:1]); err == nil {
		t.Fatal("latched writer accepted a commit")
	}
	if got := inj.Stats().WALSyncFailures; got != 1 {
		t.Fatalf("sync failures = %d, want 1", got)
	}
}

func TestSyncIntervalAmortizes(t *testing.T) {
	now := time.Unix(0, 0)
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWriter(path, 1, WriterOptions{
		Policy: SyncInterval, Interval: time.Second,
		Now: func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, synced, err := w.Commit(sampleRecords()[:1]); err != nil || synced {
			t.Fatalf("commit %d before interval: synced=%v err=%v", i, synced, err)
		}
	}
	now = now.Add(2 * time.Second)
	if _, synced, err := w.Commit(sampleRecords()[:1]); err != nil || !synced {
		t.Fatalf("commit after interval: synced=%v err=%v", synced, err)
	}
	if w.Fsyncs() != 1 {
		t.Fatalf("fsyncs = %d, want 1", w.Fsyncs())
	}
	w.Close()
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("the catalog image")
	if err := WriteSnapshot(dir, 77, payload, nil); err != nil {
		t.Fatal(err)
	}
	got, lsn, found, err := ReadSnapshot(dir)
	if err != nil || !found {
		t.Fatalf("read: found=%v err=%v", found, err)
	}
	if lsn != 77 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: lsn=%d payload=%q", lsn, got)
	}
	// Overwrite is atomic: the new image fully replaces the old.
	if err := WriteSnapshot(dir, 78, []byte("newer"), nil); err != nil {
		t.Fatal(err)
	}
	got, lsn, _, _ = ReadSnapshot(dir)
	if lsn != 78 || string(got) != "newer" {
		t.Fatalf("second snapshot: lsn=%d payload=%q", lsn, got)
	}
}

func TestSnapshotMissing(t *testing.T) {
	_, _, found, err := ReadSnapshot(t.TempDir())
	if err != nil || found {
		t.Fatalf("missing snapshot: found=%v err=%v", found, err)
	}
}

// TestSnapshotTornTempWrite tears the checkpoint's temp-file write: the
// live snapshot must survive untouched and no temp file may linger.
func TestSnapshotTornTempWrite(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 5, []byte("good"), nil); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Config{WALSnapTornAfter: 4})
	if err := WriteSnapshot(dir, 6, []byte("torn-away"), inj); err == nil {
		t.Fatal("torn snapshot write should error")
	}
	if inj.Stats().WALSnapTorn != 1 {
		t.Fatalf("stats: %+v", inj.Stats())
	}
	got, lsn, found, err := ReadSnapshot(dir)
	if err != nil || !found || lsn != 5 || string(got) != "good" {
		t.Fatalf("old snapshot should survive: %q lsn=%d found=%v err=%v", got, lsn, found, err)
	}
	if _, serr := os.Stat(SnapshotPath(dir) + ".tmp"); !os.IsNotExist(serr) {
		t.Fatal("torn temp file left behind")
	}
}

// TestSnapshotCorruptionDetected covers every structural corruption of the
// snapshot file: all must return a typed KindRecovery error, never a panic.
func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 9, []byte("payload-bytes"), nil); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(SnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, mutate func([]byte) []byte) {
		buf := mutate(append([]byte(nil), full...))
		if err := os.WriteFile(SnapshotPath(dir), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, rerr := ReadSnapshot(dir)
		qe, ok := exec.AsQueryError(rerr)
		if !ok || qe.Kind != exec.KindRecovery {
			t.Fatalf("%s: want KindRecovery error, got %v", name, rerr)
		}
	}
	check("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	check("flipped payload byte", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })
	check("truncated payload", func(b []byte) []byte { return b[:len(b)-3] })
	check("truncated header", func(b []byte) []byte { return b[:6] })
}

func TestShortReadCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := OpenWriter(path, 1, WriterOptions{Policy: SyncNone})
	if _, _, err := w.Commit(sampleRecords()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	inj := fault.New(fault.Config{WALReadLimit: 11})
	res, err := ScanLog(path, inj, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Tail == nil {
		t.Fatal("short read should surface as a torn tail")
	}
	if inj.Stats().WALShortReads != 1 {
		t.Fatalf("stats: %+v", inj.Stats())
	}
}

func TestTruncateLogDropsTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := OpenWriter(path, 1, WriterOptions{Policy: SyncNone})
	w.Commit(sampleRecords()[:2])
	w.Close()
	res, _ := ScanLog(path, nil, func(*Record) error { return nil })
	keep := res.CommittedBytes
	// Append garbage, truncate back, rescan: clean again.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{0xff, 0x01, 0x02})
	f.Close()
	if err := TruncateLog(path, keep); err != nil {
		t.Fatal(err)
	}
	res2, err := ScanLog(path, nil, func(*Record) error { return nil })
	if err != nil || res2.Tail != nil || res2.CommittedBytes != keep {
		t.Fatalf("after truncate: %+v err=%v", res2, err)
	}
}

// Type 2 was an in-place update record that nothing wrote; a log holding
// one is corrupt, not replayable.
func TestDecodeRejectsRetiredUpdateType(t *testing.T) {
	r := &Record{Type: TypeInsert, LSN: 5, Table: "orders", RID: storage.RowID{Page: 3, Slot: 17},
		Row: types.Row{types.NewInt(-7), types.NewString("")}}
	payload, err := appendPayload(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	payload[0] = 2
	if _, err := DecodeRecord(payload); err == nil || !strings.Contains(err.Error(), "unknown record type 2") {
		t.Fatalf("type 2 payload decoded: err=%v", err)
	}
}

// FuzzWALDecode asserts DecodeRecord never panics and, when it succeeds,
// the record re-encodes to the identical payload (a decode/encode fixpoint).
func FuzzWALDecode(f *testing.F) {
	for _, r := range sampleRecords() {
		r.LSN = 3
		if p, err := appendPayload(nil, r); err == nil {
			f.Add(p)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// An insert payload retagged as the retired type 2: rejected as unknown.
	f.Add([]byte("\x02\x03\x00\x06orders\x06\"\x02\x01\r\x03\x00"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		re, err := appendPayload(nil, r)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("decode/encode not a fixpoint:\n in %x\nout %x", payload, re)
		}
	})
}
