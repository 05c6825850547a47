package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"softdb/internal/expr"
	"softdb/internal/refexec"
	"softdb/internal/schema"
	"softdb/internal/storage"
	"softdb/internal/types"
)

// TestTypedBuildOracle: the hash join's typed int table against the
// string-keyed table the same join builds when its key column's kind is
// hidden, on random INT keys with NULLs, duplicates and values around
// ±2^53, where distinct integers share a float image and still must not
// join. A FLOAT datum in the key column — in a build-side window, or in a
// probe-side one — degrades the table to string keys mid-stream; a heap
// page stores its column's kind only, so such a side is a row source
// (Values). The two must give the same rows in the same order and the same
// charges.
func TestTypedBuildOracle(t *testing.T) {
	def := mustTable("k",
		schema.Column{Name: "k", Type: types.KindInt, Nullable: true},
		schema.Column{Name: "p", Type: types.KindInt})
	r := rand.New(rand.NewSource(24))
	const edge = 1 << 53
	key := func() types.Datum {
		switch r.Intn(10) {
		case 0:
			return types.Null
		case 1:
			return types.NewInt(edge + int64(r.Intn(5)) - 2)
		case 2:
			return types.NewInt(-edge - int64(r.Intn(5)) + 2)
		default:
			return types.NewInt(int64(r.Intn(40)))
		}
	}
	side := func(name string, n int, float bool) Operator {
		h := storage.NewHeap(def)
		var rows []types.Row
		for i := 0; i < n; i++ {
			k := key()
			if float && i == n/2 {
				k = types.NewFloat(3)
			}
			rows = append(rows, types.Row{k, types.NewInt(int64(i))})
			if !float {
				h.Insert(rows[i])
			}
		}
		if float {
			return &Values{Rows: rows}
		}
		return &SeqScan{Table: name, Heap: h}
	}
	kcol := expr.NewColumn("k", "k", 0, types.KindInt)
	hidden := expr.NewColumn("k", "k", 0, types.KindNull)
	for trial := 0; trial < 24; trial++ {
		buildFloat, probeFloat := trial%6 == 4, trial%6 == 5
		build, probe := side("b", 50+r.Intn(3000), buildFloat), side("p", 50+r.Intn(3000), probeFloat)
		join := &HashJoin{Left: build, Right: probe, LeftKeys: []expr.Expr{kcol}, RightKey: []expr.Expr{kcol}}
		tbl, err := join.buildTable(NewCtx(context.Background(), CtxOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		if typed := tbl.ints != nil; typed == buildFloat {
			t.Fatalf("trial %d: typed table %v with a FLOAT build key %v", trial, typed, buildFloat)
		}
		generic := *join
		generic.LeftKeys = []expr.Expr{hidden}
		sameCharges(t, fmt.Sprintf("trial %d (float build %v, probe %v)", trial, buildFloat, probeFloat), join, &generic)
	}
	// Distinct integers that share a float image do not join, typed or
	// generic; equal ones do.
	for _, k := range []expr.Expr{kcol, hidden} {
		for _, d := range []int64{0, 1, -1} {
			build, probe := storage.NewHeap(def), storage.NewHeap(def)
			build.Insert(types.Row{types.NewInt(edge), types.NewInt(0)})
			build.Insert(types.Row{types.NewInt(-edge), types.NewInt(0)})
			probe.Insert(types.Row{types.NewInt(edge + d), types.NewInt(1)})
			probe.Insert(types.Row{types.NewInt(-edge - d), types.NewInt(1)})
			rows := collect(t, &HashJoin{Left: &SeqScan{Table: "b", Heap: build}, Right: &SeqScan{Table: "p", Heap: probe},
				LeftKeys: []expr.Expr{k}, RightKey: []expr.Expr{k}})
			if want := map[bool]int{true: 2, false: 0}[d == 0]; len(rows) != want {
				t.Fatalf("key %s, ±2^53 joined with ±(2^53%+d): %d rows, want %d", k.Type(), d, len(rows), want)
			}
		}
	}
}

// sameCharges runs op and ref under a memory budget (so reservations are
// counted) and requires identical rows, in order, and identical charges.
func sameCharges(t *testing.T, name string, op, ref Operator) {
	t.Helper()
	newCtx := func() *Ctx { return NewCtx(context.Background(), CtxOptions{MemBudget: 1 << 40}) }
	octx, rctx := newCtx(), newCtx()
	got, err := Collect(op, octx, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := Collect(ref, rctx, 0)
	if err != nil {
		t.Fatalf("%s reference: %v", name, err)
	}
	if d := refexec.Diff(got, want, true); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
	if octx.IO != rctx.IO || octx.Comparisons != rctx.Comparisons || octx.HashProbes != rctx.HashProbes ||
		octx.MemReserved() != rctx.MemReserved() {
		t.Fatalf("%s charges: io=%+v cmp=%d probes=%d mem=%d, reference io=%+v cmp=%d probes=%d mem=%d", name,
			octx.IO, octx.Comparisons, octx.HashProbes, octx.MemReserved(),
			rctx.IO, rctx.Comparisons, rctx.HashProbes, rctx.MemReserved())
	}
}
