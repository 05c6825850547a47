package btree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"softdb/internal/storage"
	"softdb/internal/types"
)

// modelEntry is one distinct key of the sorted-slice model and its rids in
// RowID order. key is the first spelling inserted among the datums that
// compare equal to it, which is the one the tree keeps.
type modelEntry struct {
	key  types.Row
	rids []storage.RowID
}

// model is the reference the tree is fuzzed against: its distinct keys in
// types.Row.Compare order.
type model []modelEntry

func (m model) find(key types.Row) (int, bool) {
	i := sort.Search(len(m), func(i int) bool { return m[i].key.Compare(key) >= 0 })
	return i, i < len(m) && m[i].key.Compare(key) == 0
}

func (m *model) insert(key types.Row, id storage.RowID) {
	i, ok := m.find(key)
	if !ok {
		*m = slices.Insert(*m, i, modelEntry{key: key.Clone()})
	}
	e := &(*m)[i]
	j := sort.Search(len(e.rids), func(j int) bool { return !ridLess(e.rids[j], id) })
	e.rids = slices.Insert(e.rids, j, id)
}

func (m *model) delete(key types.Row, id storage.RowID) bool {
	i, ok := m.find(key)
	if !ok {
		return false
	}
	e := &(*m)[i]
	j := slices.Index(e.rids, id)
	if j < 0 {
		return false
	}
	e.rids = slices.Delete(e.rids, j, j+1)
	if len(e.rids) == 0 {
		*m = slices.Delete(*m, i, i+1)
	}
	return true
}

func (m *model) sweep(dead func(storage.RowID) bool) int {
	n := 0
	kept := (*m)[:0]
	for _, e := range *m {
		live := e.rids[:0]
		for _, id := range e.rids {
			if dead(id) {
				n++
			} else {
				live = append(live, id)
			}
		}
		if len(live) > 0 {
			e.rids = live
			kept = append(kept, e)
		}
	}
	*m = kept
	return n
}

// visit is one enumerated pair, its key rendered.
type visit struct {
	key string
	rid storage.RowID
}

// pairs lists the model's pairs with lo <= key <= hi in ascending order.
func (m model) pairs(lo, hi Bound) []visit {
	var out []visit
	for _, e := range m {
		if lo.Key != nil {
			if c := e.key.Compare(lo.Key); c < 0 || (c == 0 && !lo.Inclusive) {
				continue
			}
		}
		if hi.Key != nil {
			if c := e.key.Compare(hi.Key); c > 0 || (c == 0 && !hi.Inclusive) {
				continue
			}
		}
		for _, id := range e.rids {
			out = append(out, visit{e.key.String(), id})
		}
	}
	return out
}

// fuzzSchemas are the key shapes the fuzz target builds trees of.
var fuzzSchemas = [][]types.Kind{
	{types.KindInt}, {types.KindDate}, {types.KindFloat}, {types.KindString}, {types.KindBool},
	{types.KindString, types.KindInt}, {types.KindInt, types.KindFloat},
}

var fuzzStrs = []string{"", "a", "ab", "b", "ba", "c", "zz"}

var fuzzFloats = []float64{math.Inf(-1), -2.5, -1, math.Copysign(0, -1), 0, 0.5, 1, 3, 7.25, math.Inf(1)}

// gen draws key values from a domain of about span values per column:
// a small span makes long duplicate runs, a large one a tree several levels
// deep.
type gen struct {
	r    *rand.Rand
	span int
}

// stored draws a stored value for a column of kind k: of the column's
// kind, sometimes NULL.
func (g gen) stored(k types.Kind) types.Datum {
	if g.r.Intn(12) == 0 {
		return types.Null
	}
	return g.datum(k)
}

func (g gen) datum(k types.Kind) types.Datum {
	v := int64(g.r.Intn(g.span) - g.span/5)
	switch k {
	case types.KindInt:
		return types.NewInt(v)
	case types.KindDate:
		return types.NewDate(v)
	case types.KindFloat:
		if g.r.Intn(2) == 0 {
			return types.NewFloat(fuzzFloats[g.r.Intn(len(fuzzFloats))])
		}
		return types.NewFloat(float64(v) / 4)
	case types.KindString:
		if g.r.Intn(2) == 0 {
			return types.NewString(fuzzStrs[g.r.Intn(len(fuzzStrs))])
		}
		return types.NewString(fmt.Sprintf("s%05d", v))
	case types.KindBool:
		return types.NewBool(v%2 == 0)
	default:
		return types.Null
	}
}

// after returns a stored key that sorts after key: its last column that
// can grow grows (an INT or DATE by 1–3, a FLOAT by a quarter or more, a
// STRING by a letter, a BOOL from false to true, a NULL to a value) and the
// columns after it are drawn afresh. A key no column of which can grow
// (all +Inf or TRUE) comes back as itself.
func (g gen) after(kinds []types.Kind, key types.Row) types.Row {
	out := key.Clone()
	for c := len(kinds) - 1; c >= 0; c-- {
		d := out[c]
		switch {
		case d.IsNull():
			d = g.datum(kinds[c])
		case kinds[c] == types.KindInt:
			d = types.NewInt(d.Int() + 1 + int64(g.r.Intn(3)))
		case kinds[c] == types.KindDate:
			d = types.NewDate(d.IntImage() + 1 + int64(g.r.Intn(3)))
		case kinds[c] == types.KindFloat:
			d = types.NewFloat(d.Float() + 0.25*float64(1+g.r.Intn(4)))
		case kinds[c] == types.KindString:
			d = types.NewString(d.Str() + fuzzStrs[1+g.r.Intn(len(fuzzStrs)-1)][:1])
		case kinds[c] == types.KindBool:
			d = types.NewBool(true)
		}
		if d.Compare(out[c]) > 0 {
			out[c] = d
			for cc := c + 1; cc < len(kinds); cc++ {
				out[cc] = g.stored(kinds[cc])
			}
			return out
		}
	}
	return out
}

// key draws a stored key of the given kinds.
func (g gen) key(kinds []types.Kind) types.Row {
	k := make(types.Row, len(kinds))
	for c := range k {
		k[c] = g.stored(kinds[c])
	}
	return k
}

// bound draws a range bound: open, or usually of the stored kinds, often
// of any kind at all (NULL, a FLOAT against an INT column, a STRING against
// a DATE one), and for a composite sometimes a one-column prefix.
func (g gen) bound(kinds []types.Kind) Bound {
	if g.r.Intn(5) == 0 {
		return Bound{}
	}
	n := len(kinds)
	if n > 1 && g.r.Intn(4) == 0 {
		n = 1
	}
	key := make(types.Row, n)
	for c := range key {
		if g.r.Intn(3) == 0 {
			key[c] = g.datum(types.Kind(g.r.Intn(int(types.KindDate) + 1)))
		} else {
			key[c] = g.stored(kinds[c])
		}
	}
	return Bound{Key: key, Inclusive: g.r.Intn(2) == 0}
}

// walkRange enumerates AscendRange, stopping after limit pairs (never when
// limit < 0), with its charges.
func walkRange(scan func(lo, hi Bound, c *storage.Counters, fn func(Key, storage.RowID) bool), lo, hi Bound, limit int) ([]visit, storage.Counters) {
	var out []visit
	var c storage.Counters
	scan(lo, hi, &c, func(k Key, id storage.RowID) bool {
		out = append(out, visit{k.String(), id})
		return len(out) != limit
	})
	return out, c
}

// checkTree compares every read of the tree with the model.
func checkTree(t *testing.T, tr *Tree, m model, g gen) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	all := m.pairs(Bound{}, Bound{})
	if tr.Len() != len(all) || tr.KeyCount() != len(m) {
		t.Fatalf("len/keys %d/%d, model %d/%d", tr.Len(), tr.KeyCount(), len(all), len(m))
	}
	asc, ascC := walkRange(tr.AscendRange, Bound{}, Bound{}, -1)
	if !slices.Equal(asc, all) {
		t.Fatalf("ascending enumeration differs from the model:\n tree  %v\n model %v", asc, all)
	}
	if ascC.RowsRead != int64(len(all)) || ascC.PagesRead != int64(tr.Height()+len(leavesOf(tr.root))-1) {
		t.Fatalf("full scan charged %+v for %d pairs, height %d, %d leaves", ascC, len(all), tr.Height(), len(leavesOf(tr.root)))
	}
	var desc []visit
	var descC storage.Counters
	tr.Descend(&descC, func(k Key, id storage.RowID) bool {
		desc = append(desc, visit{k.String(), id})
		return true
	})
	slices.Reverse(desc)
	if !slices.Equal(desc, all) {
		t.Fatalf("descending enumeration differs from the model")
	}
	if descC.RowsRead != int64(len(all)) {
		t.Fatalf("descending walk charged %d rows for %d pairs", descC.RowsRead, len(all))
	}
	var wantMin, wantMax string
	if len(m) > 0 {
		wantMin, wantMax = m[0].key.String(), m[len(m)-1].key.String()
	}
	if mn, mx := tr.Min(), tr.Max(); (mn == nil) != (len(m) == 0) || (mx == nil) != (len(m) == 0) ||
		(mn != nil && (mn.String() != wantMin || mx.String() != wantMax)) {
		t.Fatalf("Min/Max %v/%v, model %s/%s", mn, mx, wantMin, wantMax)
	}
	for probe := 0; probe < 24; probe++ {
		lo, hi := g.bound(tr.kinds), g.bound(tr.kinds)
		limit := -1
		if g.r.Intn(3) == 0 {
			limit = 1 + g.r.Intn(20)
		}
		got, gotC := walkRange(tr.AscendRange, lo, hi, limit)
		want := m.pairs(lo, hi)
		if limit >= 0 && len(want) > limit {
			want = want[:limit]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("[%v, %v] limit %d:\n tree  %v\n model %v", lo, hi, limit, got, want)
		}
		_, oracleC := walkRange(func(lo, hi Bound, c *storage.Counters, fn func(Key, storage.RowID) bool) {
			ascendRangePerEntry(tr, lo, hi, c, fn)
		}, lo, hi, limit)
		if gotC.RowsRead != int64(len(got)) || gotC != oracleC || gotC.PagesRead < int64(tr.Height()) {
			t.Fatalf("[%v, %v] limit %d: charged %+v for %d pairs, per-entry walk %+v", lo, hi, limit, gotC, len(got), oracleC)
		}
		key := lo.Key
		if key == nil {
			continue
		}
		var ids []storage.RowID
		tr.Lookup(key, nil, func(id storage.RowID) bool { ids = append(ids, id); return true })
		var wantIDs []storage.RowID
		for _, v := range m.pairs(Bound{Key: key, Inclusive: true}, Bound{Key: key, Inclusive: true}) {
			wantIDs = append(wantIDs, v.rid)
		}
		if !slices.Equal(ids, wantIDs) {
			t.Fatalf("Lookup %v: %v, model %v", key, ids, wantIDs)
		}
	}
}

// FuzzTreeMatchesModel drives a tree of one key shape (INT, DATE, FLOAT
// with ±Inf, STRING, BOOL, or a two-column composite; NULLs and duplicates
// throughout) with inserts, deletes of present and absent pairs, bulk loads
// ascending appends (keys past the current maximum and duplicates of it,
// which split the rightmost nodes at their insertion points) and sweeps,
// and compares every read — both enumeration orders, Lookup,
// AscendRange over same-kind, cross-kind and NULL bounds with early stops,
// Min and Max, and the page and row charges — with a sorted-slice model.
func FuzzTreeMatchesModel(f *testing.F) {
	for s := range fuzzSchemas {
		// Seeds pick the domain span (seed mod 3): 6, 40 or 5000 values.
		f.Add(uint8(s), int64(3*s), []byte{0, 1, 2, 3, 9, 9, 4, 5, 6, 7, 8, 9, 0, 5, 5, 10})
		f.Add(uint8(s), int64(3*s+1), []byte{9, 9, 9, 9, 9, 9, 6, 6, 6, 10, 9, 9, 7, 7, 10})
		f.Add(uint8(s), int64(3*s+2), []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 10, 11, 11, 10, 8, 10})
		f.Add(uint8(s), int64(3*s+2), []byte{12, 12, 12, 10, 9, 12, 12, 10, 11, 12, 12, 5, 7, 10, 8, 12, 10})
		f.Add(uint8(s), int64(3*s+2), []byte{15, 10, 13, 14, 10, 16, 16, 10, 0, 14, 16, 5, 13, 10})
		f.Add(uint8(s), int64(3*s), []byte{14, 14, 16, 10, 13, 16, 10, 15, 16, 16, 10})
	}
	f.Fuzz(func(t *testing.T, schema uint8, seed int64, ops []byte) {
		kinds := fuzzSchemas[int(schema)%len(fuzzSchemas)]
		g := gen{rand.New(rand.NewSource(seed)), []int{6, 40, 5000}[uint64(seed)%3]}
		r := g.r
		tr := New(kinds...)
		var m model
		next := 0
		key := func() types.Row { return g.key(kinds) }
		insertKey := func(k types.Row) {
			id := rid(next * 37 % 100003)
			next++
			tr.Insert(k, id)
			m.insert(k, id)
		}
		insert := func() { insertKey(key()) }
		// sortedRun draws n entries and sorts them with SortRun, which must
		// agree with a sort by compareEntries: drawn keys, or with past set
		// keys at and after the tree's maximum.
		sortedRun := func(n int, past bool) []Entry {
			var last types.Row
			if len(m) > 0 {
				last = m[len(m)-1].key
			}
			run := make([]Entry, n)
			for i := range run {
				k := key()
				if past && last != nil {
					if r.Intn(4) == 0 {
						k = last.Clone()
					} else {
						k = g.after(kinds, last)
					}
				}
				if past {
					last = k
				}
				run[i] = Entry{Key: k, RID: rid(next * 37 % 100003)}
				next++
			}
			want := slices.Clone(run)
			slices.SortFunc(want, compareEntries)
			SortRun(run)
			for i := range run {
				if run[i].RID != want[i].RID || run[i].Key.String() != want[i].Key.String() {
					t.Fatalf("SortRun at %d: %v %v, want %v %v", i, run[i].Key, run[i].RID, want[i].Key, want[i].RID)
				}
			}
			return run
		}
		// insertRun adds run through InsertRun and to the model. With live
		// set, an entry whose key the tree holds under a rid live reports
		// is rejected, and the entries the tree rejected must be the ones
		// the model rejects.
		insertRun := func(run []Entry, live func(storage.RowID) bool) {
			var rejected, want []int
			var clash func(int, storage.RowID) bool
			if live != nil {
				clash = func(i int, id storage.RowID) bool {
					if live(id) {
						rejected = append(rejected, i)
						return true
					}
					return false
				}
			}
			tr.InsertRun(run, clash)
			for i, e := range run {
				if j, ok := m.find(e.Key); ok && live != nil && slices.ContainsFunc(m[j].rids, live) {
					want = append(want, i)
					continue
				}
				m.insert(e.Key, e.RID)
			}
			if !slices.Equal(rejected, want) {
				t.Fatalf("InsertRun rejected entries %v, model %v", rejected, want)
			}
		}
		if len(ops) > 48 {
			ops = ops[:48]
		}
		for _, op := range ops {
			switch op % 17 {
			case 0, 1, 2, 3, 4:
				insert()
			case 5, 6: // delete a present pair
				if len(m) == 0 {
					continue
				}
				e := m[r.Intn(len(m))]
				id := e.rids[r.Intn(len(e.rids))]
				k := e.key
				if !tr.Delete(k, id) || !m.delete(k, id) {
					t.Fatalf("delete of present pair %v %v failed", k, id)
				}
			case 7: // delete a pair that may be absent
				k, id := key(), rid(r.Intn(next+1)*37%100003)
				if got, want := tr.Delete(k, id), m.delete(k, id); got != want {
					t.Fatalf("Delete(%v, %v) = %v, model %v", k, id, got, want)
				}
			case 8: // sweep a pseudo-random share of the rids
				mod := 2 + r.Intn(5)
				dead := func(id storage.RowID) bool { return (int(id.Page)+int(id.Slot))%mod == 0 }
				if got, want := tr.Sweep(dead), m.sweep(dead); got != want {
					t.Fatalf("Sweep removed %d, model %d", got, want)
				}
			case 9: // bulk load: enough to split leaves and grow the tree
				for i := 0; i < 100+r.Intn(200); i++ {
					insert()
				}
			case 10:
				checkTree(t, tr, m, g)
			case 11: // delete a run of present pairs, emptying leaves
				for i := 0; i < 60 && len(m) > 0; i++ {
					e := m[len(m)-1]
					if r.Intn(2) == 0 {
						e = m[0]
					}
					tr.Delete(e.key, e.rids[0])
					m.delete(e.key, e.rids[0])
				}
			case 12: // ascending append past the maximum, with duplicates of it
				for i := 0; i < 100+r.Intn(200); i++ {
					switch {
					case len(m) == 0:
						insert()
					case r.Intn(4) == 0:
						insertKey(m[len(m)-1].key)
					default:
						insertKey(g.after(kinds, m[len(m)-1].key))
					}
				}
			case 13: // a sorted run over the whole key range
				insertRun(sortedRun(1+r.Intn(300), false), nil)
			case 14: // a sorted run appended at and past the maximum
				insertRun(sortedRun(1+r.Intn(300), true), nil)
			case 15: // a sorted run into an empty tree fills it as Inserts in run order do
				run := sortedRun(1+r.Intn(600), r.Intn(2) == 0)
				tr, m = New(kinds...), nil
				insertRun(run, nil)
				shadow := New(kinds...)
				for _, e := range run {
					shadow.Insert(e.Key, e.RID)
				}
				if tr.Height() != shadow.Height() || len(leavesOf(tr.root)) != len(leavesOf(shadow.root)) {
					t.Fatalf("run of %d into an empty tree: height %d, %d leaves; Inserts in run order: height %d, %d leaves",
						len(run), tr.Height(), len(leavesOf(tr.root)), shadow.Height(), len(leavesOf(shadow.root)))
				}
			case 16: // a sorted run that rejects keys the tree holds under a live rid
				run := sortedRun(1+r.Intn(200), r.Intn(3) == 0)
				for i := range run {
					if len(m) > 0 && r.Intn(2) == 0 {
						run[i].Key = m[r.Intn(len(m))].key.Clone()
					}
				}
				slices.SortFunc(run, compareEntries)
				mod := 2 + r.Intn(3)
				insertRun(run, func(id storage.RowID) bool { return (int(id.Page)+int(id.Slot))%mod != 0 })
			}
		}
		checkTree(t, tr, m, g)
	})
}

// compareEntries orders run entries by (key, rid), the order InsertRun
// takes.
func compareEntries(a, b Entry) int {
	if c := a.Key.Compare(b.Key); c != 0 {
		return c
	}
	switch {
	case ridLess(a.RID, b.RID):
		return -1
	case ridLess(b.RID, a.RID):
		return 1
	}
	return 0
}
