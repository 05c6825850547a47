package catalog

import (
	"testing"

	"softdb/internal/storage"
	"softdb/internal/types"
)

// TestCheckpointHeapAllocatesPerPage: a checkpoint encodes a heap's slots
// straight from its pages, allocating per page at most, never per slot.
func TestCheckpointHeapAllocatesPerPage(t *testing.T) {
	h := storage.NewHeap(tableDef("t"))
	const n = 50000
	var ids []storage.RowID
	for i := 0; i < n; i++ {
		ids = append(ids, h.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 13))}))
	}
	for i := 0; i < n; i += 7 {
		h.SetEnd(ids[i], 2) // dead slots are encoded too
	}
	buf, err := appendHeap(nil, h)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if buf, err = appendHeap(buf[:0], h); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(h.PageCount()) + 16; allocs > limit {
		t.Errorf("encoding %d slots on %d pages: %.0f allocations, want at most %.0f", n, h.PageCount(), allocs, limit)
	}
}
