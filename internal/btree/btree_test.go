package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"softdb/internal/storage"
	"softdb/internal/types"
)

func intKey(v int64) types.Row { return types.Row{types.NewInt(v)} }

func rid(n int) storage.RowID { return storage.RowID{Page: int32(n / 100), Slot: int32(n % 100)} }

func TestInsertLookup(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
	}
	if tr.Len() != 1000 || tr.KeyCount() != 1000 {
		t.Fatalf("len=%d keys=%d", tr.Len(), tr.KeyCount())
	}
	found := false
	tr.Lookup(intKey(537), nil, func(r storage.RowID) bool {
		found = r == rid(537)
		return true
	})
	if !found {
		t.Error("lookup 537")
	}
	count := 0
	tr.Lookup(intKey(100000), nil, func(storage.RowID) bool { count++; return true })
	if count != 0 {
		t.Error("lookup of absent key should visit nothing")
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		tr.Insert(intKey(7), rid(i))
	}
	if tr.Len() != 10 || tr.KeyCount() != 1 {
		t.Fatalf("len=%d keys=%d", tr.Len(), tr.KeyCount())
	}
	var got []int
	tr.Lookup(intKey(7), nil, func(r storage.RowID) bool {
		got = append(got, int(r.Page)*100+int(r.Slot))
		return true
	})
	if len(got) != 10 {
		t.Fatalf("got %d rids", len(got))
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	for i := 0; i < 500; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
	}
	for i := 0; i < 500; i += 2 {
		if !tr.Delete(intKey(int64(i)), rid(i)) {
			t.Fatalf("delete %d", i)
		}
	}
	if tr.Delete(intKey(0), rid(0)) {
		t.Error("double delete should report false")
	}
	if tr.Delete(intKey(10000), rid(0)) {
		t.Error("delete of absent key should report false")
	}
	if tr.Len() != 250 {
		t.Fatalf("len=%d", tr.Len())
	}
	for i := 1; i < 500; i += 2 {
		n := 0
		tr.Lookup(intKey(int64(i)), nil, func(storage.RowID) bool { n++; return true })
		if n != 1 {
			t.Fatalf("key %d: %d hits", i, n)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAscendRangeBounds(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
	}
	collect := func(lo, hi Bound) []int64 {
		var out []int64
		tr.AscendRange(lo, hi, nil, func(k types.Row, _ storage.RowID) bool {
			out = append(out, k[0].Int())
			return true
		})
		return out
	}
	got := collect(Bound{Key: intKey(10), Inclusive: true}, Bound{Key: intKey(13), Inclusive: true})
	want := []int64{10, 11, 12, 13}
	if len(got) != len(want) {
		t.Fatalf("inclusive range: %v", got)
	}
	got = collect(Bound{Key: intKey(10), Inclusive: false}, Bound{Key: intKey(13), Inclusive: false})
	if len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Fatalf("exclusive range: %v", got)
	}
	got = collect(Bound{}, Bound{Key: intKey(2), Inclusive: true})
	if len(got) != 3 {
		t.Fatalf("unbounded low: %v", got)
	}
	got = collect(Bound{Key: intKey(97), Inclusive: true}, Bound{})
	if len(got) != 3 {
		t.Fatalf("unbounded high: %v", got)
	}
}

func TestAscendOrder(t *testing.T) {
	tr := New()
	r := rand.New(rand.NewSource(3))
	perm := r.Perm(5000)
	for _, v := range perm {
		tr.Insert(intKey(int64(v)), rid(v))
	}
	prev := int64(-1)
	n := 0
	tr.Ascend(nil, func(k types.Row, _ storage.RowID) bool {
		v := k[0].Int()
		if v <= prev {
			t.Fatalf("out of order: %d after %d", v, prev)
		}
		prev = v
		n++
		return true
	})
	if n != 5000 {
		t.Fatalf("visited %d", n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	tr := New()
	if tr.Min() != nil || tr.Max() != nil {
		t.Error("empty tree min/max should be nil")
	}
	for _, v := range []int64{42, 7, 99, 13} {
		tr.Insert(intKey(v), rid(int(v)))
	}
	if tr.Min()[0].Int() != 7 || tr.Max()[0].Int() != 99 {
		t.Errorf("min=%v max=%v", tr.Min(), tr.Max())
	}
}

func TestCompositeKeys(t *testing.T) {
	tr := New()
	tr.Insert(types.Row{types.NewString("a"), types.NewInt(2)}, rid(1))
	tr.Insert(types.Row{types.NewString("a"), types.NewInt(1)}, rid(2))
	tr.Insert(types.Row{types.NewString("b"), types.NewInt(0)}, rid(3))
	var keys []string
	tr.Ascend(nil, func(k types.Row, _ storage.RowID) bool {
		keys = append(keys, k.String())
		return true
	})
	if len(keys) != 3 || keys[0] != "('a', 1)" || keys[2] != "('b', 0)" {
		t.Fatalf("composite order: %v", keys)
	}
}

func TestCountersCharged(t *testing.T) {
	tr := New()
	for i := 0; i < 10000; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
	}
	var c storage.Counters
	n := 0
	tr.AscendRange(Bound{Key: intKey(5000), Inclusive: true}, Bound{Key: intKey(5009), Inclusive: true}, &c,
		func(types.Row, storage.RowID) bool { n++; return true })
	if n != 10 {
		t.Fatalf("visited %d", n)
	}
	if c.PagesRead < int64(tr.Height()) {
		t.Errorf("descent should charge at least height pages: %d < %d", c.PagesRead, tr.Height())
	}
	if c.PagesRead > int64(tr.Height())+3 {
		t.Errorf("narrow range should touch few leaves: %d pages", c.PagesRead)
	}
	if c.RowsRead != 10 {
		t.Errorf("rows read: %d", c.RowsRead)
	}
}

func TestEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
	}
	n := 0
	tr.Ascend(nil, func(types.Row, storage.RowID) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop: %d", n)
	}
}

// Property: tree contents match a reference map under random mixed workload.
func TestRandomizedAgainstReference(t *testing.T) {
	tr := New()
	r := rand.New(rand.NewSource(99))
	type pair struct {
		k int64
		r storage.RowID
	}
	var ref []pair
	for op := 0; op < 20000; op++ {
		if r.Intn(4) > 0 || len(ref) == 0 {
			k := int64(r.Intn(2000))
			id := rid(op)
			tr.Insert(intKey(k), id)
			ref = append(ref, pair{k, id})
		} else {
			i := r.Intn(len(ref))
			p := ref[i]
			if !tr.Delete(intKey(p.k), p.r) {
				t.Fatalf("delete of present pair failed: %d %v", p.k, p.r)
			}
			ref[i] = ref[len(ref)-1]
			ref = ref[:len(ref)-1]
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("len=%d want %d", tr.Len(), len(ref))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Full-order check.
	sort.Slice(ref, func(i, j int) bool { return ref[i].k < ref[j].k })
	i := 0
	tr.Ascend(nil, func(k types.Row, _ storage.RowID) bool {
		if k[0].Int() != ref[i].k {
			t.Fatalf("position %d: got %d want %d", i, k[0].Int(), ref[i].k)
		}
		i++
		return true
	})
	if i != len(ref) {
		t.Fatalf("visited %d of %d", i, len(ref))
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	for i := 0; i < b.N; i++ {
		tr.Insert(intKey(int64(i%100000)), rid(i))
	}
}

func BenchmarkLookup(b *testing.B) {
	tr := New()
	for i := 0; i < 100000; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(intKey(int64(i%100000)), nil, func(storage.RowID) bool { return true })
	}
}

// Property (testing/quick): a tree built from any batch of (key, rid)
// pairs contains exactly those pairs, in order, and validates.
func TestQuickBuildMatchesReference(t *testing.T) {
	f := func(keys []int16) bool {
		tr := New()
		counts := map[int64]int{}
		for i, k := range keys {
			tr.Insert(intKey(int64(k)), rid(i))
			counts[int64(k)]++
		}
		if tr.Len() != len(keys) {
			return false
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		seen := map[int64]int{}
		prev := int64(-1 << 62)
		ok := true
		tr.Ascend(nil, func(k types.Row, _ storage.RowID) bool {
			v := k[0].Int()
			if v < prev {
				ok = false
				return false
			}
			prev = v
			seen[v]++
			return true
		})
		if !ok || len(seen) != len(counts) {
			return false
		}
		for k, n := range counts {
			if seen[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Duplicate-key rids enumerate in RowID order regardless of insertion
// order, so an index rebuilt from a heap scan (crash recovery) visits rows
// exactly as the live tree did.
func TestDuplicateKeyRIDOrderCanonical(t *testing.T) {
	shuffled, sorted := New(), New()
	r := rand.New(rand.NewSource(5))
	perm := r.Perm(40)
	for _, p := range perm {
		shuffled.Insert(intKey(7), rid(p))
	}
	for i := 0; i < 40; i++ {
		sorted.Insert(intKey(7), rid(i))
	}
	var a, b []storage.RowID
	shuffled.Ascend(nil, func(_ types.Row, id storage.RowID) bool { a = append(a, id); return true })
	sorted.Ascend(nil, func(_ types.Row, id storage.RowID) bool { b = append(b, id); return true })
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("lengths: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d: %v vs %v — duplicate order must not depend on insertion history", i, a[i], b[i])
		}
		if i > 0 && !ridLess(a[i-1], a[i]) {
			t.Fatalf("entry %d out of rid order: %v then %v", i, a[i-1], a[i])
		}
	}
}

// ascendRangePerEntry is AscendRange as it was written before the per-leaf
// boundary search: the upper bound is compared against every entry. It is
// the oracle for visit order and for page/row charges.
func ascendRangePerEntry(t *Tree, lo, hi Bound, c *storage.Counters, fn func(key types.Row, rid storage.RowID) bool) {
	n := t.descendToLeaf(lo.Key, c)
	start := 0
	if lo.Key != nil {
		i, exact := search(n, lo.Key)
		start = i
		if exact && !lo.Inclusive {
			start = i + 1
		}
	}
	for n != nil {
		for i := start; i < len(n.entries); i++ {
			e := &n.entries[i]
			if hi.Key != nil {
				ccmp := e.key.Compare(hi.Key)
				if ccmp > 0 || (ccmp == 0 && !hi.Inclusive) {
					return
				}
			}
			for _, rid := range e.rids {
				c.AddRows(1)
				if !fn(e.key, rid) {
					return
				}
			}
		}
		n = n.next
		start = 0
		if n != nil {
			c.AddPages(1)
		}
	}
}

// TestAscendRangeMatchesPerEntryWalk: random ranges (every bound shape,
// bounds on and between keys, on leaf edges, inverted, beyond both ends;
// NULL, duplicate and mixed INT/FLOAT keys; early stops) visit the same
// pairs in the same order and charge the same pages and rows as the
// per-entry walk.
func TestAscendRangeMatchesPerEntryWalk(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	tr := New()
	tr.Insert(types.Row{types.Null}, rid(100000))
	for i := 0; i < 4000; i++ {
		k := int64(r.Intn(1500)) * 2 // even keys, many duplicates
		if i%50 == 0 {
			tr.Insert(types.Row{types.NewFloat(float64(k) + 0.5)}, rid(i))
			continue
		}
		tr.Insert(intKey(k), rid(i))
	}
	bound := func() Bound {
		switch r.Intn(6) {
		case 0:
			return Bound{}
		case 1:
			return Bound{Key: types.Row{types.NewFloat(float64(r.Intn(3100)-50) / 2)}, Inclusive: r.Intn(2) == 0}
		default:
			return Bound{Key: intKey(int64(r.Intn(3100) - 50)), Inclusive: r.Intn(2) == 0}
		}
	}
	type visit struct {
		key string
		rid storage.RowID
	}
	for trial := 0; trial < 4000; trial++ {
		lo, hi := bound(), bound()
		limit := -1
		if r.Intn(3) == 0 {
			limit = r.Intn(200)
		}
		walk := func(scan func(lo, hi Bound, c *storage.Counters, fn func(types.Row, storage.RowID) bool)) ([]visit, storage.Counters) {
			var out []visit
			var c storage.Counters
			scan(lo, hi, &c, func(k types.Row, id storage.RowID) bool {
				out = append(out, visit{k.String(), id})
				return len(out) != limit
			})
			return out, c
		}
		got, gotC := walk(tr.AscendRange)
		want, wantC := walk(func(lo, hi Bound, c *storage.Counters, fn func(types.Row, storage.RowID) bool) {
			ascendRangePerEntry(tr, lo, hi, c, fn)
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d [%v, %v] limit %d: visited %d pairs, per-entry walk %d", trial, lo, hi, limit, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d [%v, %v]: visit %d is %v, per-entry walk %v", trial, lo, hi, i, got[i], want[i])
			}
		}
		if gotC != wantC {
			t.Fatalf("trial %d [%v, %v] limit %d: charged %+v, per-entry walk %+v", trial, lo, hi, limit, gotC, wantC)
		}
	}
}
