package catalog

import (
	"slices"
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

// TestSoftWriteReadsAllocateOnlyForMatches: the reads the soft write hook
// makes for every committed row — Correlations, JoinHolesOn, SummariesOn —
// allocate nothing for a table that has no match, and list matches in name
// order whatever order they were registered in.
func TestSoftWriteReadsAllocateOnlyForMatches(t *testing.T) {
	c := New()
	for _, name := range []string{"t", "u", "quiet"} {
		if _, err := c.CreateTable(tableDef(name)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"c_z", "c_a", "c_m", "c_b"} {
		if err := c.AddCorrelation(&LinearCorrelation{Name: name, Table: "t", ColA: "id", ColB: "v"}); err != nil {
			t.Fatal(err)
		}
		if err := c.AddJoinHoles(&JoinHoles{Name: "h" + name, LeftTable: "t", RightTable: "u", AttrLeft: "id", AttrRight: "id"}); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateSummaryTable(&SummaryTable{Name: "s" + name, Base: "t", Informational: true}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if len(c.Correlations("quiet")) != 0 || len(c.JoinHolesOn("quiet")) != 0 || len(c.SummariesOn("quiet")) != 0 {
			t.Fatal("a table with no soft objects has matches")
		}
	})
	if allocs != 0 {
		t.Errorf("reads for a table with no matches: %.0f allocations, want 0", allocs)
	}
	var corrs, holes, sums []string
	for _, lc := range c.Correlations("T") {
		corrs = append(corrs, lc.Name)
	}
	for _, jh := range c.JoinHolesOn("u") {
		holes = append(holes, jh.Name)
	}
	for _, st := range c.SummariesOn("t") {
		sums = append(sums, st.Name)
	}
	if want := []string{"c_a", "c_b", "c_m", "c_z"}; !slices.Equal(corrs, want) {
		t.Errorf("Correlations: %v, want %v", corrs, want)
	}
	if want := []string{"hc_a", "hc_b", "hc_m", "hc_z"}; !slices.Equal(holes, want) {
		t.Errorf("JoinHolesOn: %v, want %v", holes, want)
	}
	if want := []string{"sc_a", "sc_b", "sc_m", "sc_z"}; !slices.Equal(sums, want) {
		t.Errorf("SummariesOn: %v, want %v", sums, want)
	}
}
