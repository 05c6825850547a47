package btree

import (
	"fmt"
	"math"
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
	tr := New(types.KindInt)
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
	tr := New(types.KindInt)
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
	tr := New(types.KindInt)
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
	tr := New(types.KindInt)
	for i := 0; i < 100; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
	}
	collect := func(lo, hi Bound) []int64 {
		var out []int64
		tr.AscendRange(lo, hi, nil, func(k Key, _ storage.RowID) bool {
			out = append(out, k.Datum(0).Int())
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
	tr := New(types.KindInt)
	r := rand.New(rand.NewSource(3))
	perm := r.Perm(5000)
	for _, v := range perm {
		tr.Insert(intKey(int64(v)), rid(v))
	}
	prev := int64(-1)
	n := 0
	tr.Ascend(nil, func(k Key, _ storage.RowID) bool {
		v := k.Datum(0).Int()
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
	tr := New(types.KindInt)
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

// TestInsertRejectsKeyOfAnotherKind: a stored key column holds NULL or its
// static kind, so Insert panics on any other kind, as on a key of the wrong
// length, and leaves the tree as it was. Probes of any kind stay legal.
func TestInsertRejectsKeyOfAnotherKind(t *testing.T) {
	tr := New(types.KindInt, types.KindString)
	tr.Insert(types.Row{types.NewInt(1), types.Null}, rid(1))
	for _, key := range []types.Row{
		{types.NewFloat(1), types.NewString("a")},
		{types.NewInt(1), types.NewInt(2)},
		{types.NewInt(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%v) did not panic", key)
				}
			}()
			tr.Insert(key, rid(2))
		}()
	}
	if tr.Len() != 1 || tr.Validate() != nil {
		t.Fatalf("after rejected inserts: %d pairs, %v", tr.Len(), tr.Validate())
	}
	var n int
	tr.Lookup(types.Row{types.NewFloat(1), types.Null}, nil, func(storage.RowID) bool { n++; return true })
	if n != 1 {
		t.Fatalf("FLOAT probe of the INT key found %d rids", n)
	}
}

func TestCompositeKeys(t *testing.T) {
	tr := New(types.KindString, types.KindInt)
	tr.Insert(types.Row{types.NewString("a"), types.NewInt(2)}, rid(1))
	tr.Insert(types.Row{types.NewString("a"), types.NewInt(1)}, rid(2))
	tr.Insert(types.Row{types.NewString("b"), types.NewInt(0)}, rid(3))
	var keys []string
	tr.Ascend(nil, func(k Key, _ storage.RowID) bool {
		keys = append(keys, k.String())
		return true
	})
	if len(keys) != 3 || keys[0] != "('a', 1)" || keys[2] != "('b', 0)" {
		t.Fatalf("composite order: %v", keys)
	}
}

func TestCountersCharged(t *testing.T) {
	tr := New(types.KindInt)
	for i := 0; i < 10000; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
	}
	var c storage.Counters
	n := 0
	tr.AscendRange(Bound{Key: intKey(5000), Inclusive: true}, Bound{Key: intKey(5009), Inclusive: true}, &c,
		func(Key, storage.RowID) bool { n++; return true })
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
	tr := New(types.KindInt)
	for i := 0; i < 100; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
	}
	n := 0
	tr.Ascend(nil, func(Key, storage.RowID) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop: %d", n)
	}
}

// Property: tree contents match a reference map under random mixed workload.
func TestRandomizedAgainstReference(t *testing.T) {
	tr := New(types.KindInt)
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
	tr.Ascend(nil, func(k Key, _ storage.RowID) bool {
		if k.Datum(0).Int() != ref[i].k {
			t.Fatalf("position %d: got %d want %d", i, k.Datum(0).Int(), ref[i].k)
		}
		i++
		return true
	})
	if i != len(ref) {
		t.Fatalf("visited %d of %d", i, len(ref))
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New(types.KindInt)
	for i := 0; i < b.N; i++ {
		tr.Insert(intKey(int64(i%100000)), rid(i))
	}
}

func BenchmarkLookup(b *testing.B) {
	tr := New(types.KindInt)
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
		tr := New(types.KindInt)
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
		tr.Ascend(nil, func(k Key, _ storage.RowID) bool {
			v := k.Datum(0).Int()
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
	shuffled, sorted := New(types.KindInt), New(types.KindInt)
	r := rand.New(rand.NewSource(5))
	perm := r.Perm(40)
	for _, p := range perm {
		shuffled.Insert(intKey(7), rid(p))
	}
	for i := 0; i < 40; i++ {
		sorted.Insert(intKey(7), rid(i))
	}
	var a, b []storage.RowID
	shuffled.Ascend(nil, func(_ Key, id storage.RowID) bool { a = append(a, id); return true })
	sorted.Ascend(nil, func(_ Key, id storage.RowID) bool { b = append(b, id); return true })
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
func ascendRangePerEntry(t *Tree, lo, hi Bound, c *storage.Counters, fn func(key Key, rid storage.RowID) bool) {
	n := t.descendToLeaf(lo.Key, c)
	start := 0
	if lo.Key != nil {
		i, exact := t.search(n, lo.Key)
		start = i
		if exact && !lo.Inclusive {
			start = i + 1
		}
	}
	for n != nil {
		for i := start; i < n.len(); i++ {
			k := Key{t, n, i}
			if hi.Key != nil {
				ccmp := k.Row().Compare(hi.Key)
				if ccmp > 0 || (ccmp == 0 && !hi.Inclusive) {
					return
				}
			}
			for _, rid := range n.runOf(i) {
				c.AddRows(1)
				if !fn(k, rid) {
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
// NULL, duplicate and off-grid keys; INT bounds against the FLOAT column and
// FLOAT ones; early stops) visit the same pairs in the same order and charge
// the same pages and rows as the per-entry walk.
func TestAscendRangeMatchesPerEntryWalk(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	tr := New(types.KindFloat)
	tr.Insert(types.Row{types.Null}, rid(100000))
	for i := 0; i < 4000; i++ {
		k := float64(r.Intn(1500)) * 2 // even keys, many duplicates
		if i%50 == 0 {
			k += 0.5
		}
		tr.Insert(types.Row{types.NewFloat(k)}, rid(i))
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
		walk := func(scan func(lo, hi Bound, c *storage.Counters, fn func(Key, storage.RowID) bool)) ([]visit, storage.Counters) {
			var out []visit
			var c storage.Counters
			scan(lo, hi, &c, func(k Key, id storage.RowID) bool {
				out = append(out, visit{k.String(), id})
				return len(out) != limit
			})
			return out, c
		}
		got, gotC := walk(tr.AscendRange)
		want, wantC := walk(func(lo, hi Bound, c *storage.Counters, fn func(Key, storage.RowID) bool) {
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

// Min and Max skip the leaves Delete empties: deleting from the top empties
// the rightmost leaf first, deleting from the bottom the leftmost.
func TestMinMaxSkipEmptiedLeaves(t *testing.T) {
	for _, fromTop := range []bool{true, false} {
		tr := New(types.KindInt)
		for i := 0; i < 100; i++ {
			tr.Insert(intKey(int64(i)), rid(i))
		}
		lo, hi := int64(0), int64(99)
		for lo <= hi {
			if mn, mx := tr.Min(), tr.Max(); mn == nil || mx == nil || mn[0].Int() != lo || mx[0].Int() != hi {
				t.Fatalf("fromTop=%v with keys [%d, %d] left: Min=%v Max=%v", fromTop, lo, hi, mn, mx)
			}
			if fromTop {
				tr.Delete(intKey(hi), rid(int(hi)))
				hi--
			} else {
				tr.Delete(intKey(lo), rid(int(lo)))
				lo++
			}
		}
		if tr.Min() != nil || tr.Max() != nil {
			t.Fatalf("fromTop=%v: emptied tree has Min=%v Max=%v", fromTop, tr.Min(), tr.Max())
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// leavesOf returns the tree's leaves in key order, by descent.
func leavesOf(n *node) []*node {
	if n.leaf() {
		return []*node{n}
	}
	var out []*node
	for _, ch := range n.children {
		out = append(out, leavesOf(ch)...)
	}
	return out
}

// Validate checks the leaf chain: a chain that skips a leaf, visits one out
// of key order, or runs past the last leaf is reported.
func TestValidateChecksLeafChain(t *testing.T) {
	build := func() (*Tree, []*node) {
		tr := New(types.KindInt)
		for i := 0; i < 1000; i++ {
			tr.Insert(intKey(int64(i)), rid(i))
		}
		return tr, leavesOf(tr.root)
	}
	if tr, leaves := build(); len(leaves) < 4 || tr.Validate() != nil {
		t.Fatalf("intact tree: %d leaves, %v", len(leaves), tr.Validate())
	}
	breaks := map[string]func(l []*node){
		"skip":     func(l []*node) { l[1].next = l[3] },
		"swap":     func(l []*node) { l[0].next, l[2].next, l[1].next = l[2], l[1], l[3] },
		"run past": func(l []*node) { l[len(l)-1].next = l[0] },
		"cut":      func(l []*node) { l[2].next = nil },
	}
	for name, brk := range breaks {
		tr, leaves := build()
		brk(leaves)
		if tr.Validate() == nil {
			t.Errorf("%s: broken leaf chain validates", name)
		}
	}
}

// walkNodes calls fn on n and every node below it, parents first.
func walkNodes(n *node, fn func(*node)) {
	fn(n)
	for _, ch := range n.children {
		walkNodes(ch, fn)
	}
}

// arrays lists len and cap of every array a node holds.
func arrays(n *node) [][2]int {
	var out [][2]int
	for _, c := range n.cols {
		for _, lc := range [][2]int{{len(c.ints), cap(c.ints)}, {len(c.floats), cap(c.floats)},
			{len(c.strs), cap(c.strs)}, {len(c.nulls), cap(c.nulls)}} {
			out = append(out, lc)
		}
	}
	for _, sp := range n.spill {
		out = append(out, [2]int{len(sp.rids), cap(sp.rids)})
	}
	return append(out, [2]int{len(n.ends), cap(n.ends)}, [2]int{len(n.rids), cap(n.rids)},
		[2]int{len(n.spill), cap(n.spill)}, [2]int{len(n.children), cap(n.children)})
}

// TestNodeArraysRightSized: after sequential, reverse and random loads no
// node array has more than about twice the capacity it uses (append doubles
// a full array, and the allocator rounds it up to a size class), and after a
// sequential or reverse load — whose split-off halves are never written
// again — the tree as a whole holds at most a quarter more than it uses. A
// split that re-sliced the full array would leave each left half at half
// use.
func TestNodeArraysRightSized(t *testing.T) {
	const n = 20000
	orders := map[string][]int{"sequential": make([]int, n), "reverse": make([]int, n), "random": rand.New(rand.NewSource(8)).Perm(n)}
	for i := 0; i < n; i++ {
		orders["sequential"][i] = i
		orders["reverse"][i] = n - 1 - i
	}
	for name, order := range orders {
		for _, dups := range []int{1, 4, 500} {
			tr := New(types.KindInt)
			for _, v := range order {
				tr.Insert(intKey(int64(v/dups)), rid(v))
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			used, held := 0, 0
			walkNodes(tr.root, func(nd *node) {
				for _, lc := range arrays(nd) {
					if lc[1] > 2*lc[0]+lc[0]/4+8 {
						t.Errorf("%s, %d per key: array of %d holds %d", name, dups, lc[0], lc[1])
					}
					used += lc[0]
					held += lc[1]
				}
			})
			if name != "random" && 4*held > 5*used {
				t.Errorf("%s, %d per key: node arrays hold %d for %d used", name, dups, held, used)
			}
		}
	}
}

// twoPassSweep is Vacuum's index sweep as it was before Tree.Sweep: collect
// every dead pair under Ascend, then delete each with its own descent.
func twoPassSweep(tr *Tree, dead func(storage.RowID) bool) int {
	type pair struct {
		key types.Row
		rid storage.RowID
	}
	var gone []pair
	tr.Ascend(nil, func(k Key, id storage.RowID) bool {
		if dead(id) {
			gone = append(gone, pair{k.Row(), id})
		}
		return true
	})
	for _, p := range gone {
		tr.Delete(p.key, p.rid)
	}
	return len(gone)
}

// leafContents renders each leaf's pairs, one string per leaf.
func leafContents(tr *Tree) []string {
	var out []string
	for _, l := range leavesOf(tr.root) {
		var sb []byte
		for i := 0; i < l.len(); i++ {
			sb = fmt.Appendf(sb, "%v%v ", Key{tr, l, i}, l.runOf(i))
		}
		out = append(out, string(sb))
	}
	return out
}

// TestSweepMatchesTwoPassDelete: the one-pass sweep removes the same pairs
// as the two-pass collect-then-delete it replaces and leaves every leaf, the
// node count and the height exactly as it does.
func TestSweepMatchesTwoPassDelete(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		a, b := New(types.KindString, types.KindInt), New(types.KindString, types.KindInt)
		// Odd trials draw from few keys, so runs spill.
		span := 40
		if trial%2 == 1 {
			span = 3
		}
		for i := 0; i < 3000; i++ {
			k := types.Row{types.NewString(fmt.Sprint(r.Intn(span))), types.NewInt(int64(r.Intn(span)))}
			if r.Intn(20) == 0 {
				k[1] = types.Null
			}
			id := rid(r.Intn(100000))
			a.Insert(k, id)
			b.Insert(k, id)
		}
		frac := r.Intn(11) // 0..100% dead
		dead := func(id storage.RowID) bool { return (int(id.Page)*7+int(id.Slot))%10 < frac }
		want := twoPassSweep(a, dead)
		if got := b.Sweep(dead); got != want {
			t.Fatalf("trial %d: Sweep removed %d, two-pass %d", trial, got, want)
		}
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		if a.Len() != b.Len() || a.KeyCount() != b.KeyCount() || a.Height() != b.Height() {
			t.Fatalf("trial %d: len/keys/height %d/%d/%d vs two-pass %d/%d/%d", trial,
				b.Len(), b.KeyCount(), b.Height(), a.Len(), a.KeyCount(), a.Height())
		}
		la, lb := leafContents(a), leafContents(b)
		if len(la) != len(lb) {
			t.Fatalf("trial %d: %d leaves vs two-pass %d", trial, len(lb), len(la))
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("trial %d leaf %d:\n sweep    %s\n two-pass %s", trial, i, lb[i], la[i])
			}
		}
	}
}

// searchByCompare is the node search as types.Row.Compare defines it: a
// binary search over the materialized keys.
func searchByCompare(tr *Tree, n *node, key types.Row) (int, bool) {
	i := sort.Search(n.len(), func(i int) bool { return Key{tr, n, i}.Row().Compare(key) >= 0 })
	return i, i < n.len() && Key{tr, n, i}.Row().Compare(key) == 0
}

// TestSearchMatchesCompare: the typed node search returns what a binary
// search with types.Row.Compare over the materialized keys returns, in every
// node of trees over each key kind with NULL runs, -0 and +0, ±Inf and
// duplicate-heavy composite keys, for probes of the stored kinds, of every
// other kind (FLOAT into INT, INT into FLOAT, STRING into DATE), NULL,
// one-column prefixes and over-long keys.
func TestSearchMatchesCompare(t *testing.T) {
	negZero := math.Copysign(0, -1)
	floats := []float64{math.Inf(-1), -3.5, -1, negZero, 0, 0.5, 2, 2.5, 7, math.Inf(1)}
	schemas := [][]types.Kind{
		{types.KindInt}, {types.KindDate}, {types.KindBool}, {types.KindFloat}, {types.KindString},
		{types.KindInt, types.KindFloat}, {types.KindString, types.KindInt}, {types.KindBool, types.KindDate, types.KindString},
	}
	r := rand.New(rand.NewSource(38))
	value := func(k types.Kind, span int) types.Datum {
		v := int64(r.Intn(span) - span/3)
		switch k {
		case types.KindInt:
			return types.NewInt(v)
		case types.KindDate:
			return types.NewDate(v)
		case types.KindBool:
			return types.NewBool(v%2 == 0)
		case types.KindFloat:
			if r.Intn(2) == 0 {
				return types.NewFloat(floats[r.Intn(len(floats))])
			}
			return types.NewFloat(float64(v) / 2)
		default:
			return types.NewString(fmt.Sprintf("k%03d", v))
		}
	}
	probeKinds := []types.Kind{types.KindNull, types.KindInt, types.KindDate, types.KindBool, types.KindFloat, types.KindString}
	for _, kinds := range schemas {
		for _, span := range []int{5, 60, 4000} {
			tr := New(kinds...)
			for i := 0; i < 3000; i++ {
				key := make(types.Row, len(kinds))
				for c, k := range kinds {
					if r.Intn(8) == 0 {
						key[c] = types.Null
					} else {
						key[c] = value(k, span)
					}
				}
				tr.Insert(key, rid(i))
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			var nodes []*node
			walkNodes(tr.root, func(n *node) { nodes = append(nodes, n) })
			for p := 0; p < 4000; p++ {
				n := nodes[r.Intn(len(nodes))]
				var probe types.Row
				switch r.Intn(4) {
				case 0: // a stored key, or a prefix of one
					if n.len() == 0 {
						continue
					}
					probe = Key{tr, n, r.Intn(n.len())}.Row()
					if len(probe) > 1 && r.Intn(2) == 0 {
						probe = probe[:1]
					}
				default: // of any length and any kinds
					probe = make(types.Row, r.Intn(len(kinds)+2))
					for c := range probe {
						switch {
						case c < len(kinds) && r.Intn(2) == 0:
							probe[c] = value(kinds[c], span)
						case r.Intn(6) == 0:
							probe[c] = types.Null
						default:
							probe[c] = value(probeKinds[1+r.Intn(len(probeKinds)-1)], span)
						}
					}
				}
				gi, gx := tr.search(n, probe)
				wi, wx := searchByCompare(tr, n, probe)
				if gi != wi || gx != wx {
					t.Fatalf("%v span %d: search(%v) = %d, %v; Row.Compare search %d, %v", kinds, span, probe, gi, gx, wi, wx)
				}
			}
		}
	}
}

// TestTreeShapeByLoadOrder: an ascending load fills every node it passes
// (the right-edge split), so 200k ascending INT keys make a tree of height
// 3 with at least 60 keys per leaf, where mid-point splits left 6,451 leaves
// of 31 keys at height 4; a shuffled load still splits at mid-points and
// keeps its 4,520 leaves. A key past the rightmost leaf's last key is the
// only one that splits there.
func TestTreeShapeByLoadOrder(t *testing.T) {
	const n = 200000
	shuffled := rand.New(rand.NewSource(1)).Perm(n)
	for _, tc := range []struct {
		name       string
		key        func(i int) int64
		height     int
		minPerLeaf float64
		leaves     int // 0: not pinned
	}{
		{"ascending", func(i int) int64 { return int64(i) }, 3, 60, 0},
		{"shuffled", func(i int) int64 { return int64(shuffled[i]) }, 4, 0, 4520},
	} {
		tr := New(types.KindInt)
		for i := 0; i < n; i++ {
			tr.Insert(intKey(tc.key(i)), rid(i))
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		leaves := len(leavesOf(tr.root))
		perLeaf := float64(n) / float64(leaves)
		t.Logf("%s: height %d, %d leaves, %.1f keys per leaf", tc.name, tr.Height(), leaves, perLeaf)
		if tr.Height() != tc.height {
			t.Errorf("%s: height %d, want %d", tc.name, tr.Height(), tc.height)
		}
		if perLeaf < tc.minPerLeaf {
			t.Errorf("%s: %.1f keys per leaf, want at least %.0f", tc.name, perLeaf, tc.minPerLeaf)
		}
		if tc.leaves != 0 && leaves != tc.leaves {
			t.Errorf("%s: %d leaves, want %d", tc.name, leaves, tc.leaves)
		}
	}
}
