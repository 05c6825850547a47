package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"softdb/internal/engine"
	"softdb/internal/wal"
)

// D1Recovery measures the durability subsystem (experiment D1):
//
//   - commit overhead by fsync policy: the same insert stream runs against
//     an in-memory engine and against durable engines under -wal-sync
//     none/interval/always, isolating what the redo log and each fsync
//     policy cost per acknowledged statement;
//   - recovery time vs log length: crash images (data-directory copies
//     taken before the shutdown checkpoint) holding progressively longer
//     uncheckpointed logs are recovered, showing replay cost scaling
//     linearly with the committed suffix;
//   - checkpoint effect: the same workload with an automatic checkpoint
//     cadence recovers by replaying only the short tail past the last
//     snapshot.
//
// Every recovery run re-validates recovered soft constraints, so the
// reported times include the paper-specific cost of re-admitting
// constraint-like characterizations after a crash, not just heap replay.
func D1Recovery(inserts int, logSweep []int) (*Report, error) {
	rep := &Report{
		ID:     "D1",
		Title:  "durability: fsync policy overhead and recovery-time scaling",
		Claim:  "group-commit WAL makes durable acknowledgement affordable, recovery replays the committed suffix in time linear in log length, and checkpoints bound that suffix",
		Header: []string{"measure", "config", "ms", "detail"},
	}

	// (a) Commit overhead by fsync policy.
	memMs, err := timeInsertStream(nil, inserts)
	if err != nil {
		return nil, err
	}
	rep.AddRow("commit", "in-memory", fmt.Sprintf("%.2f", memMs), "no WAL baseline")
	policies := []struct {
		name string
		opts engine.DurableOptions
	}{
		{"wal-sync=none", engine.DurableOptions{SyncPolicy: wal.SyncNone}},
		{"wal-sync=interval", engine.DurableOptions{SyncPolicy: wal.SyncInterval, SyncInterval: 5 * time.Millisecond}},
		{"wal-sync=always", engine.DurableOptions{SyncPolicy: wal.SyncAlways}},
	}
	for _, p := range policies {
		ms, err := timeInsertStream(&p.opts, inserts)
		if err != nil {
			return nil, err
		}
		rep.AddRow("commit", p.name, fmt.Sprintf("%.2f", ms),
			fmt.Sprintf("%+.1f%% vs in-memory, %.1fus/stmt", (ms/memMs-1)*100, ms/float64(inserts)*1000))
	}

	// (b) Recovery time vs uncheckpointed log length.
	for _, n := range logSweep {
		ms, rs, err := RecoverCrashImage(n, -1)
		if err != nil {
			return nil, err
		}
		rep.AddRow("recovery", fmt.Sprintf("log=%d stmts", n), fmt.Sprintf("%.2f", ms),
			fmt.Sprintf("replayed %d records, revalidated %d constraints", rs.RecordsReplayed, rs.Revalidated))
	}

	// (c) Checkpoint cadence bounds the replayed suffix.
	n := logSweep[len(logSweep)-1]
	every := 256
	ms, rs, err := RecoverCrashImage(n, every)
	if err != nil {
		return nil, err
	}
	rep.AddRow("recovery", fmt.Sprintf("log=%d, ckpt=%d", n, every), fmt.Sprintf("%.2f", ms),
		fmt.Sprintf("replayed %d records from snapshot lsn=%d", rs.RecordsReplayed, rs.SnapshotLSN))

	rep.Notef("commit stream: %d single-row insert statements; recovery images are pre-checkpoint data-directory copies (equivalent to kill -9)", inserts)
	return rep, nil
}

// recoverySchema is the durable workload's table: a primary key, an indexed
// value column, and an absolute soft CHECK that recovery must re-validate.
const recoverySchema = `CREATE TABLE d1 (
	k INT PRIMARY KEY,
	v INT NOT NULL,
	CONSTRAINT d1_v_pos CHECK (v >= 0) SOFT
);
CREATE INDEX idx_d1_v ON d1 (v);`

// timeInsertStream runs the insert workload against a fresh engine —
// in-memory when opts is nil, durable otherwise — and returns wall-clock
// milliseconds for the acknowledged statements (setup excluded).
func timeInsertStream(opts *engine.DurableOptions, inserts int) (float64, error) {
	var db *engine.Database
	if opts == nil {
		db = engine.Open()
	} else {
		dir, err := os.MkdirTemp("", "softdb-d1-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		db, _, err = engine.OpenDurable(dir, *opts)
		if err != nil {
			return 0, err
		}
		defer db.Close()
	}
	if _, err := db.ExecScript(recoverySchema); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < inserts; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO d1 VALUES (%d, %d)", i, i%1000)); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Microseconds()) / 1000, nil
}

// RecoverCrashImage builds a durable database with n logged insert statements
// under the given checkpoint cadence (negative disables checkpoints),
// copies the data directory before the shutdown checkpoint — a crash image
// — and returns the wall-clock milliseconds OpenDurable takes to recover
// it plus the recovery stats.
func RecoverCrashImage(n, checkpointEvery int) (float64, *engine.RecoveryStats, error) {
	dir, err := os.MkdirTemp("", "softdb-d1-*")
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	db, _, err := engine.OpenDurable(dir, engine.DurableOptions{
		SyncPolicy: wal.SyncNone, CheckpointEvery: checkpointEvery,
	})
	if err != nil {
		return 0, nil, err
	}
	if _, err := db.ExecScript(recoverySchema); err != nil {
		return 0, nil, err
	}
	for i := 0; i < n; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO d1 VALUES (%d, %d)", i, i%1000)); err != nil {
			return 0, nil, err
		}
	}
	crash, err := copyDataDir(dir)
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(crash)
	if err := db.Close(); err != nil {
		return 0, nil, err
	}

	start := time.Now()
	rdb, rs, err := engine.OpenDurable(crash, engine.DurableOptions{SyncPolicy: wal.SyncNone})
	took := float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		return 0, nil, err
	}
	defer rdb.Close()
	res, err := rdb.Exec("SELECT COUNT(*) AS n FROM d1")
	if err != nil {
		return 0, nil, err
	}
	if got := res.Rows[0][0].String(); got != fmt.Sprint(n) {
		return 0, nil, fmt.Errorf("D1: recovered %s rows, want %d", got, n)
	}
	return took, rs, nil
}

// copyDataDir copies every file in dir into a fresh temp directory —
// byte-for-byte, the moral equivalent of kill -9 since the WAL is
// append-only and snapshots are installed by atomic rename.
func copyDataDir(dir string) (string, error) {
	dst, err := os.MkdirTemp("", "softdb-d1-crash-*")
	if err != nil {
		return "", err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		in, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return "", err
		}
		if _, err := io.Copy(out, in); err != nil {
			in.Close()
			out.Close()
			return "", err
		}
		in.Close()
		if err := out.Close(); err != nil {
			return "", err
		}
	}
	return dst, nil
}

// DefaultD1Sweep is the uncheckpointed-log-length sweep for D1.
var DefaultD1Sweep = []int{1000, 4000, 16000}
