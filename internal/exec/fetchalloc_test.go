package exec

import (
	"fmt"
	"testing"

	"softdb/internal/btree"
	"softdb/internal/catalog"
	"softdb/internal/schema"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestPointProbeAllocatesNoWindow: an IndexScan point probe, the plan of
// SELECT * FROM purchase WHERE id = k, takes its fetch window from winPool
// instead of allocating typed arrays on every execution, and the window it
// returns holds no fetched string.
func TestPointProbeAllocatesNoWindow(t *testing.T) {
	def := mustTable("purchase",
		schema.Column{Name: "id", Type: types.KindInt},
		schema.Column{Name: "order_date", Type: types.KindDate},
		schema.Column{Name: "ship_date", Type: types.KindDate, Nullable: true},
		schema.Column{Name: "amount", Type: types.KindFloat, Nullable: true},
		schema.Column{Name: "note", Type: types.KindString, Nullable: true},
	)
	h := storage.NewHeap(def)
	ix := &catalog.Index{Name: "pk", Table: "purchase", Columns: []string{"id"}, Ordinal: []int{0}, Tree: btree.New(types.KindInt)}
	for i := 0; i < 2000; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewDate(int64(10592 + i/4)), types.NewDate(int64(10600 + i/4)),
			types.NewFloat(float64(i%100) / 4), types.NewString(fmt.Sprint("n", i))}
		ix.Tree.Insert(ix.KeyFor(row), h.Insert(row))
	}
	probe := func(k int64) *IndexScan {
		key := types.Row{types.NewInt(k)}
		return &IndexScan{Table: "purchase", Heap: h, Index: ix,
			Lo: btree.Bound{Key: key, Inclusive: true}, Hi: btree.Bound{Key: key, Inclusive: true}}
	}
	s := probe(1234)
	ctx := &Ctx{}
	rows := 0
	emit := func(b *vec.Batch) bool { rows += b.Len(); return true }
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Run(ctx, emit); err != nil {
			t.Fatal(err)
		}
	})
	if rows != 201 {
		t.Fatalf("point probe returned %d rows over 201 runs", rows)
	}
	// The batch over the window, its column headers and the run's closures
	// remain (4); a window of its own adds its typed arrays, null mask and
	// column headers (9 in all).
	// The race detector drops a random quarter of sync.Pool puts, so only
	// a build without it can count on getting the window back.
	if allocs > 5 && !raceEnabled {
		t.Errorf("point probe: %.0f allocations per execution, want at most 5", allocs)
	}
	w := winPool.Get().(*fetchWindow)
	for _, str := range w.strs {
		if str != "" {
			t.Fatalf("a pooled fetch window holds string %q", str)
		}
	}
	winPool.Put(w)
}
