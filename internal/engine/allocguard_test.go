package engine

import (
	"testing"

	"softdb/internal/sql"
	"softdb/internal/storage"
	"softdb/internal/txn"
	"softdb/internal/types"
)

// TestMatchRowsAllocatesPerMatch: the heap walk behind every UPDATE and
// DELETE allocates per matched row, not per row visited. A scan that built
// each visited row afresh would put a 50k-row heap's worth of garbage under
// the write lock on every UPDATE … WHERE id = k.
func TestMatchRowsAllocatesPerMatch(t *testing.T) {
	db := Open()
	db.MustExec("CREATE TABLE t (id INT NOT NULL, k INT, s VARCHAR(8))")
	te, err := db.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	const n = 50000
	for i := 0; i < n; i++ {
		if err := db.InsertRows(te, []types.Row{{types.NewInt(int64(i)), types.NewInt(int64(i % 10)), types.NewString("x")}}); err != nil {
			t.Fatal(err)
		}
	}
	tx := &Tx{t: &txn.Txn{Snap: storage.SnapLatest}}
	for _, c := range []struct {
		where   string
		matched int
	}{{"id = 7", 1}, {"k = 3", n / 10}} {
		stmt, err := sql.Parse("SELECT id FROM t WHERE " + c.where)
		if err != nil {
			t.Fatal(err)
		}
		where, err := bindToTable(stmt.(*sql.Select).Where, te.Def)
		if err != nil {
			t.Fatal(err)
		}
		var got []match
		allocs := testing.AllocsPerRun(3, func() {
			if got, err = matchRows(tx, te, where); err != nil {
				t.Fatal(err)
			}
		})
		if len(got) != c.matched {
			t.Fatalf("WHERE %s matched %d rows, want %d", c.where, len(got), c.matched)
		}
		if limit := float64(2*c.matched + 64); allocs > limit {
			t.Errorf("WHERE %s over %d rows: %.0f allocations, want at most %.0f (per match, not per row visited)", c.where, n, allocs, limit)
		}
	}
}
