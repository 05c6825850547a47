package engine

import (
	"fmt"
	"testing"
	"time"

	"softdb/internal/storage"
	"softdb/internal/types"
)

// TestBackgroundVacuumBoundsDeadVersions drives a sustained update load
// with StartVacuum ticking underneath and checks that dead versions do
// not accumulate without bound: the high-water mark stays far below the
// total number of versions the workload sheds, and a final settle drains
// the backlog to (near) zero.
func TestBackgroundVacuumBoundsDeadVersions(t *testing.T) {
	db := Open()
	db.MustExec("CREATE TABLE hot (id INT PRIMARY KEY, v INT)")
	const rows = 50
	for i := 0; i < rows; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO hot VALUES (%d, 0)", i))
	}
	stop := db.StartVacuum(5 * time.Millisecond)
	defer stop()

	const rounds = 60
	var maxDead int64
	for r := 1; r <= rounds; r++ {
		db.MustExec(fmt.Sprintf("UPDATE hot SET v = %d", r))
		// Pace the load so ticks interleave with it: the bound under test
		// is steady-state behavior, not a race against a burst.
		time.Sleep(2 * time.Millisecond)
		if d := countDead(t, db, "hot"); d > maxDead {
			maxDead = d
		}
	}
	// The workload shed rows*rounds versions in total. Without the
	// background vacuum they would all still be resident; with it the
	// high-water mark must stay well below that (a few intervals' worth).
	shed := int64(rows * rounds)
	if maxDead >= shed/2 {
		t.Fatalf("dead versions not bounded: high-water %d of %d shed", maxDead, shed)
	}
	// After the load stops, a couple of ticks drain the backlog entirely.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d := countDead(t, db, "hot"); d == 0 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("backlog did not drain: %d dead versions remain", d)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := db.Metrics().Counter(mVacuumReclaimed).Value(); got < shed {
		t.Fatalf("vacuum reclaimed %d versions, want >= %d", got, shed)
	}
	if db.Metrics().Counter(mVacuumRuns).Value() == 0 {
		t.Fatal("vacuum runs counter never moved")
	}
}

// TestStartVacuumZeroIntervalIsOff documents the flag default: interval 0
// installs nothing and the stop function is a no-op.
func TestStartVacuumZeroIntervalIsOff(t *testing.T) {
	db := Open()
	stop := db.StartVacuum(0)
	stop()
	stop() // double-stop is safe
}

func countDead(t *testing.T, db *Database, table string) int64 {
	t.Helper()
	// Held across the scan: the background vacuum rewrites the heap under
	// the exclusive lock.
	db.mu.RLock()
	defer db.mu.RUnlock()
	te, err := db.cat.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	te.Heap.ScanVersions(func(storage.RowID, types.Row) bool {
		total++
		return true
	})
	return total - te.Heap.RowCount()
}
