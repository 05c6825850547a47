package engine

import (
	"bytes"
	"testing"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/types"
)

// snapshotSeeds returns checkpoint catalog payloads taken along the
// durability workload, the last with a join-hole set added, so every part
// of the layout — heaps, indexes, stats, summaries and the soft registry
// image — appears in some seed.
func snapshotSeeds(tb testing.TB) [][]byte {
	db := Open()
	var seeds [][]byte
	take := func() {
		p, err := db.cat.EncodeState(nil)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, p)
	}
	take()
	for i, op := range durabilityWorkload() {
		if err := op.run(db); err != nil && !op.mayFail {
			tb.Fatalf("op %d (%s): %v", i, op.desc, err)
		}
		if i%20 == 19 {
			take()
		}
	}
	if err := db.Catalog().AddJoinHoles(&catalog.JoinHoles{
		Name: "oh", LeftTable: "orders", RightTable: "items",
		JoinLeft: "id", JoinRight: "id", AttrLeft: "qty", AttrRight: "weight",
		Holes: []catalog.Rect{{
			A: expr.Between(types.NewInt(40), types.NewInt(60), true, true),
			B: expr.Between(types.NewInt(100), types.NewInt(104), true, false),
		}},
	}); err != nil {
		tb.Fatal(err)
	}
	take()
	return seeds
}

// TestSnapshotSeedsRoundTrip: every seed decodes and re-encodes to the
// identical bytes.
func TestSnapshotSeedsRoundTrip(t *testing.T) {
	bind := Open().exprBinder()
	for i, p := range snapshotSeeds(t) {
		cat, err := catalog.DecodeState(p, bind)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		re, err := cat.EncodeState(nil)
		if err != nil {
			t.Fatalf("seed %d re-encode: %v", i, err)
		}
		if !bytes.Equal(re, p) {
			t.Fatalf("seed %d: decode/encode is not the identity (%d bytes in, %d out)", i, len(p), len(re))
		}
	}
}

// FuzzSnapshotDecode asserts that DecodeState of any bytes returns an
// error rather than panicking, and that once a payload decodes, what it
// encodes to is a fixpoint: encode → decode → encode is byte-identical.
// (The first encode may normalize the input: expressions are stored as
// text and re-rendered, names in sorted order.)
func FuzzSnapshotDecode(f *testing.F) {
	for _, p := range snapshotSeeds(f) {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{0x02})
	f.Add([]byte{0x02, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	bind := Open().exprBinder()
	f.Fuzz(func(t *testing.T, payload []byte) {
		cat, err := catalog.DecodeState(payload, bind)
		if err != nil {
			return
		}
		first, err := cat.EncodeState(nil)
		if err != nil {
			t.Fatalf("decoded catalog does not encode: %v", err)
		}
		again, err := catalog.DecodeState(first, bind)
		if err != nil {
			t.Fatalf("encoded catalog does not decode: %v", err)
		}
		second, err := again.EncodeState(nil)
		if err != nil {
			t.Fatalf("re-decoded catalog does not encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encode/decode not a fixpoint:\n in %x\nout %x", first, second)
		}
	})
}
