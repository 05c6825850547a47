package engine

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"sync"
	"testing"

	"softdb/internal/btree"
	"softdb/internal/storage"
)

// TestConcurrentSessions hammers one Database from many goroutines mixing
// DDL, DML, and SELECT — the workload the RWMutex-guarded engine claims to
// survive. Run under -race this is the engine's concurrency proof: no torn
// catalog state, every statement either succeeds or returns a real error,
// and cache statistics only grow. Each writer owns a private id range so
// primary-key conflicts cannot mask synchronization bugs.
func TestConcurrentSessions(t *testing.T) {
	db := Open()
	runConcurrentSessions(t, db)
}

// TestConcurrentSessionsTraced re-runs the same stress mix with
// per-operator tracing on, a structured logger attached, and a 1ns
// slow-query threshold (so every query takes the slow path) — under -race
// this is the observability layer's concurrency proof.
func TestConcurrentSessionsTraced(t *testing.T) {
	db := Open()
	db.SetTracing(true)
	db.SetSlowQueryThreshold(1)
	db.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	runConcurrentSessions(t, db)
	if got := db.Metrics().Counter(mQueries).Value(); got == 0 {
		t.Error("queries counter stayed zero under stress")
	}
	if got := db.Metrics().Counter(mSlowQueries).Value(); got == 0 {
		t.Error("slow-queries counter stayed zero with a 1ns threshold")
	}
	if len(db.QueryLog().Recent(0)) == 0 {
		t.Error("query log empty after stress")
	}
}

func runConcurrentSessions(t *testing.T, db *Database) {
	t.Helper()
	db.MustExec("CREATE TABLE s (id INT PRIMARY KEY, v INT, w INT)")
	db.MustExec("CREATE INDEX sv ON s (v)")
	// Seed rows so readers have something to chew on from the start.
	for i := 0; i < 200; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO s VALUES (%d, %d, %d)", i, i%37, i%11))
	}
	db.MustExec("ANALYZE s")

	const (
		writers   = 4
		readers   = 4
		ddlers    = 2
		iters     = 120
		idsPerGor = 100000 // private id space per writer
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers+ddlers)

	// Writers: inserts, updates, deletes within a private key range.
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(1000 + g)))
			base := (g + 1) * idsPerGor
			next := base
			for i := 0; i < iters; i++ {
				switch r.Intn(4) {
				case 0, 1:
					if _, err := db.Exec(fmt.Sprintf("INSERT INTO s VALUES (%d, %d, %d)",
						next, r.Intn(37), r.Intn(11))); err != nil {
						errCh <- fmt.Errorf("writer %d insert: %w", g, err)
						return
					}
					next++
				case 2:
					if next == base {
						continue
					}
					id := base + r.Intn(next-base)
					if _, err := db.Exec(fmt.Sprintf("UPDATE s SET v = %d WHERE id = %d",
						r.Intn(37), id)); err != nil {
						errCh <- fmt.Errorf("writer %d update: %w", g, err)
						return
					}
				default:
					if next == base {
						continue
					}
					id := base + r.Intn(next-base)
					if _, err := db.Exec(fmt.Sprintf("DELETE FROM s WHERE id = %d", id)); err != nil {
						errCh <- fmt.Errorf("writer %d delete: %w", g, err)
						return
					}
				}
			}
		}(g)
	}

	// Readers: selects, EXPLAIN, stats reads.
	// Cache hit+miss totals must be monotone across observations.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(2000 + g)))
			var lastTotal int64
			for i := 0; i < iters; i++ {
				switch r.Intn(4) {
				case 0:
					if _, err := db.Query(fmt.Sprintf("SELECT id, v FROM s WHERE v >= %d", r.Intn(37))); err != nil {
						errCh <- fmt.Errorf("reader %d select: %w", g, err)
						return
					}
				case 1:
					if _, err := db.Query("SELECT v, COUNT(*) AS n FROM s GROUP BY v"); err != nil {
						errCh <- fmt.Errorf("reader %d agg: %w", g, err)
						return
					}
				case 2:
					if _, err := db.Exec(fmt.Sprintf("EXPLAIN SELECT * FROM s WHERE w = %d", r.Intn(11))); err != nil {
						errCh <- fmt.Errorf("reader %d explain: %w", g, err)
						return
					}
				default:
					st := db.CacheStats()
					total := st.Hits + st.Misses
					if total < lastTotal {
						errCh <- fmt.Errorf("reader %d: cache hit+miss went backwards: %d -> %d", g, lastTotal, total)
						return
					}
					lastTotal = total
					db.WorkloadColumnCounts()
					db.CachedPlanCount()
				}
			}
		}(g)
	}

	// DDLers: create private tables/indexes, insert, analyze, query, drop.
	for g := 0; g < ddlers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters/4; i++ {
				tbl := fmt.Sprintf("tmp_%d_%d", g, i)
				stmts := []string{
					fmt.Sprintf("CREATE TABLE %s (a INT NOT NULL, b INT)", tbl),
					fmt.Sprintf("INSERT INTO %s VALUES (1, 2)", tbl),
					fmt.Sprintf("INSERT INTO %s VALUES (3, 4)", tbl),
					fmt.Sprintf("CREATE INDEX ix_%s ON %s (a)", tbl, tbl),
					fmt.Sprintf("ANALYZE %s", tbl),
					fmt.Sprintf("SELECT a, b FROM %s WHERE a > 0", tbl),
					fmt.Sprintf("DROP TABLE %s", tbl),
				}
				for _, q := range stmts {
					if _, err := db.Exec(q); err != nil {
						errCh <- fmt.Errorf("ddler %d: %s: %w", g, q, err)
						return
					}
				}
			}
		}(g)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The catalog must not be torn: s is intact, every tmp table is gone,
	// the heap row count matches a full scan, and the v-index agrees.
	te, err := db.Catalog().Table("s")
	if err != nil {
		t.Fatalf("table s lost: %v", err)
	}
	for _, name := range db.Catalog().TableNames() {
		if len(name) >= 4 && name[:4] == "tmp_" {
			t.Errorf("leftover table %s", name)
		}
	}
	rows, err := db.Query("SELECT id FROM s")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows)) != te.Heap.RowCount() {
		t.Fatalf("scan sees %d rows, heap reports %d", len(rows), te.Heap.RowCount())
	}
	seen := map[int64]bool{}
	for _, row := range rows {
		if seen[row[0].Int()] {
			t.Fatalf("duplicate primary key %d after stress", row[0].Int())
		}
		seen[row[0].Int()] = true
	}
	// Index consistency: after vacuum reclaims dead versions and sweeps
	// their entries, the v-index holds exactly one entry per live row.
	db.Vacuum()
	count := 0
	te.Indexes[0].Tree.Ascend(nil, func(_ btree.Key, _ storage.RowID) bool {
		count++
		return true
	})
	if count != len(rows) {
		t.Fatalf("v-index has %d entries, heap has %d rows", count, len(rows))
	}
}
