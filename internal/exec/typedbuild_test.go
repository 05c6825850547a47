package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"softdb/internal/expr"
	"softdb/internal/schema"
	"softdb/internal/storage"
	"softdb/internal/types"
)

// TestTypedBuildOracle: the batched hash join's typed int table against the
// row path's string-keyed table, on random INT keys with NULLs, duplicates
// and values around ±2^53, where distinct integers share a float image and
// so must join. A FLOAT datum in the key column — in a build-side window,
// or in a probe-side one — degrades the table to string keys mid-stream.
// runBoth requires the same rows in the same order and the same charges.
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
	heap := func(n int, float bool) *storage.Heap {
		h := storage.NewHeap(def)
		for i := 0; i < n; i++ {
			k := key()
			if float && i == n/2 {
				k = types.NewFloat(3)
			}
			h.Insert(types.Row{k, types.NewInt(int64(i))})
		}
		return h
	}
	kcol := expr.NewColumn("k", "k", 0, types.KindInt)
	for trial := 0; trial < 24; trial++ {
		buildFloat, probeFloat := trial%6 == 4, trial%6 == 5
		build, probe := heap(50+r.Intn(3000), buildFloat), heap(50+r.Intn(3000), probeFloat)
		join := &HashJoin{Left: &SeqScan{Table: "b", Heap: build}, Right: &SeqScan{Table: "p", Heap: probe},
			LeftKeys: []expr.Expr{kcol}, RightKey: []expr.Expr{kcol}}
		tbl, err := join.buildTable(NewCtx(context.Background(), CtxOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		if typed := tbl.ints != nil; typed == buildFloat {
			t.Fatalf("trial %d: typed table %v with a FLOAT build key %v", trial, typed, buildFloat)
		}
		runBoth(t, fmt.Sprintf("trial %d (float build %v, probe %v)", trial, buildFloat, probeFloat), join)
	}
	// The float-image collisions the oracle relies on really occur.
	if intKey(edge+1) != intKey(edge) || intKey(-edge-1) != intKey(-edge) || intKey(edge+2) == intKey(edge) {
		t.Fatalf("intKey does not follow float64 equality around 2^53")
	}
}
