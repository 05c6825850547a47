// Package btree implements the in-memory B+tree used for softdb secondary
// indexes. Keys are composite rows ordered lexicographically by
// types.Datum.Compare; each key maps to the set of row IDs carrying that key.
// Node visits are charged to a storage.Counters as page reads so index access
// paths have a cost signal comparable to heap scans.
//
// A node holds only what it stores (DESIGN.md §24): its keys column-wise,
// each column in the storage class of its static kind (see keyCol), and, in
// a leaf, every key's rids in one packed slice delimited by run ends (a key
// with very many rids spills them to a run of its own). A split copies both
// halves into arrays sized for them.
package btree

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// ridLess orders row IDs by (page, slot) — the physical heap order.
func ridLess(a, b storage.RowID) bool {
	if a.Page != b.Page {
		return a.Page < b.Page
	}
	return a.Slot < b.Slot
}

// degree is the maximum number of children of an interior node. Leaves hold
// up to degree-1 keys. Sized so a node is roughly one simulated page of
// (key, rid) pairs.
const degree = 64

// keyCol is one key column of a node, one element per key, kept in the
// column's storage class (vec.Class): an INT, DATE or BOOL column keeps the
// int64 image in ints, a FLOAT column floats, a STRING column strs. Exactly
// one of the three is in use. nulls marks the NULL keys; it stays nil until
// the node holds one.
type keyCol struct {
	ints   []int64
	floats []float64
	strs   []string
	nulls  []bool
}

func (c *keyCol) null(i int) bool { return c.nulls != nil && c.nulls[i] }

// datum rebuilds the value at i of a column of class cls and static kind.
func (c *keyCol) datum(cls vec.Class, kind types.Kind, i int) types.Datum {
	if c.null(i) {
		return types.Null
	}
	switch cls {
	case vec.ClassInt:
		switch kind {
		case types.KindDate:
			return types.NewDate(c.ints[i])
		case types.KindBool:
			return types.NewBool(c.ints[i] != 0)
		}
		return types.NewInt(c.ints[i])
	case vec.ClassFloat:
		return types.NewFloat(c.floats[i])
	default:
		return types.NewString(c.strs[i])
	}
}

// insert stores d at i; d is NULL or of the column's static kind.
func (c *keyCol) insert(cls vec.Class, i int, d types.Datum) {
	null := d.IsNull()
	if null && c.nulls == nil {
		c.nulls = make([]bool, c.len(cls))
	}
	if c.nulls != nil {
		c.nulls = slices.Insert(c.nulls, i, null)
	}
	switch cls {
	case vec.ClassInt:
		var v int64
		if !null {
			v = d.IntImage()
		}
		c.ints = slices.Insert(c.ints, i, v)
	case vec.ClassFloat:
		var v float64
		if !null {
			v = d.Float()
		}
		c.floats = slices.Insert(c.floats, i, v)
	default:
		var v string
		if !null {
			v = d.Str()
		}
		c.strs = slices.Insert(c.strs, i, v)
	}
}

func (c *keyCol) len(cls vec.Class) int {
	switch cls {
	case vec.ClassInt:
		return len(c.ints)
	case vec.ClassFloat:
		return len(c.floats)
	default:
		return len(c.strs)
	}
}

// remove deletes the value at i.
func (c *keyCol) remove(cls vec.Class, i int) {
	c.move(cls, i, i+1, c.len(cls))
	c.truncate(cls, c.len(cls)-1)
}

// move copies the values at [from, to) down to dst (dst <= from).
func (c *keyCol) move(cls vec.Class, dst, from, to int) {
	switch cls {
	case vec.ClassInt:
		copy(c.ints[dst:], c.ints[from:to])
	case vec.ClassFloat:
		copy(c.floats[dst:], c.floats[from:to])
	default:
		copy(c.strs[dst:], c.strs[from:to])
	}
	if c.nulls != nil {
		copy(c.nulls[dst:], c.nulls[from:to])
	}
}

// truncate keeps the first n values, clearing the dropped strings so the
// backing array does not pin them.
func (c *keyCol) truncate(cls vec.Class, n int) {
	switch cls {
	case vec.ClassInt:
		c.ints = c.ints[:n]
	case vec.ClassFloat:
		c.floats = c.floats[:n]
	default:
		clear(c.strs[n:])
		c.strs = c.strs[:n]
	}
	if c.nulls != nil {
		c.nulls = c.nulls[:n]
	}
}

// cut copies the values at [lo, hi) into arrays sized for them.
func (c *keyCol) cut(cls vec.Class, lo, hi int) keyCol {
	var out keyCol
	switch cls {
	case vec.ClassInt:
		out.ints = slices.Clone(c.ints[lo:hi])
	case vec.ClassFloat:
		out.floats = slices.Clone(c.floats[lo:hi])
	default:
		out.strs = slices.Clone(c.strs[lo:hi])
	}
	if c.nulls != nil && slices.Contains(c.nulls[lo:hi], true) {
		out.nulls = slices.Clone(c.nulls[lo:hi])
	}
	return out
}

// spillAt is the longest run a leaf keeps packed. A key with more rids
// moves them to a spilled run of its own, so adding or removing a rid
// shifts at most (degree-1)·spillAt packed rids however many rows share a
// key, and a long run grows by appending as a per-key list does.
const spillAt = 64

// spilled is a run moved out of its leaf's packed rids: key is the key's
// index in the leaf.
type spilled struct {
	key  int
	rids []storage.RowID
}

// node is one tree page. A leaf keeps the rids of its keys packed in rids,
// run after run in key order and each run in RowID order; ends[i] is where
// key i's run ends, so the run is rids[ends[i-1]:ends[i]] (from 0 for the
// first key). A key whose packed run is empty has spilled: its run is in
// spill, which is ordered by key index and nil in almost every leaf. An
// interior node keeps separator keys and children and no rids.
type node struct {
	cols     []keyCol // one per key column
	ends     []int32
	rids     []storage.RowID
	spill    []spilled
	children []*node // nil for leaves; else len = keys + 1
	next     *node   // leaf chain for range scans
}

func (n *node) leaf() bool { return n.children == nil }

// len returns the number of keys in n.
func (n *node) len() int {
	if n.leaf() {
		return len(n.ends)
	}
	return len(n.children) - 1
}

// run returns the bounds of key i's packed run in a leaf's rids; they are
// equal when the run has spilled.
func (n *node) run(i int) (int, int) {
	s := 0
	if i > 0 {
		s = int(n.ends[i-1])
	}
	return s, int(n.ends[i])
}

// spillIndex returns the position in n.spill of key i's run, or where it
// would go, and whether it is there.
func (n *node) spillIndex(i int) (int, bool) {
	j := sort.Search(len(n.spill), func(j int) bool { return n.spill[j].key >= i })
	return j, j < len(n.spill) && n.spill[j].key == i
}

// runOf returns key i's rids, packed or spilled.
func (n *node) runOf(i int) []storage.RowID {
	s, e := n.run(i)
	if s == e {
		j, _ := n.spillIndex(i)
		return n.spill[j].rids
	}
	return n.rids[s:e]
}

// renumberSpill adds d to the key index of every spilled run of a key at
// or after i.
func (n *node) renumberSpill(i, d int) {
	for j := range n.spill {
		if n.spill[j].key >= i {
			n.spill[j].key += d
		}
	}
}

// ridIndex returns the position of the first rid in run that is not
// before rid.
func ridIndex(run []storage.RowID, rid storage.RowID) int {
	return sort.Search(len(run), func(j int) bool { return !ridLess(run[j], rid) })
}

// Tree is a B+tree multimap from composite keys to row IDs. It latches
// itself: mutators take the internal write latch, traversals the read
// latch, so lock-free MVCC scans can walk an index while a serialized
// writer inserts entries. Traversal callbacks run under the read latch and
// must not re-enter the tree (Go's RWMutex blocks re-entrant readers once
// a writer queues) — collect entries first, then act.
type Tree struct {
	mu sync.RWMutex
	// kinds are the key columns' static kinds and classes their storage
	// classes.
	kinds   []types.Kind
	classes []vec.Class
	root    *node
	keys    int   // distinct keys
	size    int   // total (key,rid) pairs
	height  int   // number of levels
	vers    int64 // mutation counter
}

// New returns an empty tree whose keys have one column per kind, each of
// that static kind (or NULL). Every kind must have a storage class.
func New(kinds ...types.Kind) *Tree {
	if len(kinds) == 0 {
		panic("btree: a key needs at least one column")
	}
	t := &Tree{kinds: slices.Clone(kinds), classes: make([]vec.Class, len(kinds)), height: 1}
	for c, k := range kinds {
		if t.classes[c] = vec.ClassOf(k); t.classes[c] == vec.ClassNone {
			panic(fmt.Sprintf("btree: key column of kind %v has no storage class", k))
		}
	}
	t.root = t.newNode()
	return t
}

func (t *Tree) newNode() *node { return &node{cols: make([]keyCol, len(t.kinds))} }

// Len returns the number of (key, rid) pairs stored.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// KeyCount returns the number of distinct keys stored.
func (t *Tree) KeyCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.keys
}

// Height returns the tree height in levels.
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// Version returns a counter that increases on every mutation.
func (t *Tree) Version() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.vers
}

// cmpCol orders column c of key i in n against the probe datum d. A probe of
// the column's static kind compares on the typed value; any other probe
// (NULL, a FLOAT against an INT column, a mismatched kind) and a stored NULL
// fall back to types.Datum.Compare on the rebuilt datum, so the order is
// Datum.Compare's either way.
func (t *Tree) cmpCol(n *node, c, i int, d types.Datum) int {
	col := &n.cols[c]
	cls := t.classes[c]
	if d.Kind() == t.kinds[c] && !col.null(i) {
		switch cls {
		case vec.ClassInt:
			return cmp.Compare(col.ints[i], d.IntImage())
		case vec.ClassFloat:
			return types.CompareFloat(col.floats[i], d.Float())
		default:
			return strings.Compare(col.strs[i], d.Str())
		}
	}
	return col.datum(cls, t.kinds[c], i).Compare(d)
}

// cmpKey orders key i of n against key as types.Row.Compare does.
func (t *Tree) cmpKey(n *node, i int, key types.Row) int {
	m := min(len(t.kinds), len(key))
	for c := 0; c < m; c++ {
		if r := t.cmpCol(n, c, i, key[c]); r != 0 {
			return r
		}
	}
	return cmp.Compare(len(t.kinds), len(key))
}

// search returns the index of the first key in n that is >= key, and
// whether it is an exact match, in types.Row.Compare's order. It narrows
// one key column at a time: [lo, hi) holds the keys whose columns before c
// equal the probe's, and column c ascends within it. On the last probe
// column only the lower end is needed.
func (t *Tree) search(n *node, key types.Row) (int, bool) {
	lo, hi := 0, n.len()
	m := min(len(t.kinds), len(key))
	for c := 0; c < m; c++ {
		if c == m-1 && len(key) <= len(t.kinds) {
			i := t.colBound(n, c, lo, hi, key[c], false)
			exact := len(key) == len(t.kinds) && i < hi && t.cmpCol(n, c, i, key[c]) == 0
			return i, exact
		}
		lo, hi = t.colBound(n, c, lo, hi, key[c], false), t.colBound(n, c, lo, hi, key[c], true)
		if lo == hi {
			return lo, false
		}
	}
	if len(key) < len(t.kinds) {
		// Only an empty probe gets here: every stored key is longer.
		return lo, false
	}
	// The probe is longer than the stored keys, so it follows every key
	// whose columns it shares.
	return hi, false
}

// colBound returns the first index in [lo, hi) whose column c is not below
// d (after, when upper is set: not below or equal to it); column c ascends
// over [lo, hi). A probe of the column's static kind binary-searches the
// typed values past the leading NULLs (which sort first); any other probe
// compares rebuilt datums with types.Datum.Compare.
func (t *Tree) colBound(n *node, c, lo, hi int, d types.Datum, upper bool) int {
	col := &n.cols[c]
	if d.Kind() != t.kinds[c] {
		return lo + sort.Search(hi-lo, func(j int) bool {
			r := col.datum(t.classes[c], t.kinds[c], lo+j).Compare(d)
			return r > 0 || (r == 0 && !upper)
		})
	}
	if col.nulls != nil {
		lo += sort.Search(hi-lo, func(j int) bool { return !col.nulls[lo+j] })
	}
	switch t.classes[c] {
	case vec.ClassInt:
		return lo + typedBound(col.ints[lo:hi], d.IntImage(), upper)
	case vec.ClassFloat:
		return lo + typedBound(col.floats[lo:hi], d.Float(), upper)
	default:
		return lo + typedBound(col.strs[lo:hi], d.Str(), upper)
	}
}

// typedBound returns the first index of the ascending a whose value is not
// below v (after v, when upper is set), in cmp.Compare's order — the one
// types.CompareFloat gives floats, NaN first and -0 equal to +0.
func typedBound[T cmp.Ordered](a []T, v T, upper bool) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		r := cmp.Compare(a[mid], v)
		if r < 0 || (r == 0 && upper) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertKey stores key at i in n's key columns.
func (t *Tree) insertKey(n *node, i int, key types.Row) {
	for c := range n.cols {
		n.cols[c].insert(t.classes[c], i, key[c])
	}
}

// copyKey stores key si of src at di in dst's key columns.
func (t *Tree) copyKey(dst *node, di int, src *node, si int) {
	for c := range dst.cols {
		dst.cols[c].insert(t.classes[c], di, src.cols[c].datum(t.classes[c], t.kinds[c], si))
	}
}

// Insert adds (key, rid). Duplicate keys accumulate rids. Each key column
// must be NULL or of the column's static kind, as a row that passed its
// table's schema checks is. The tree copies key into its key columns; it
// keeps no reference to it.
func (t *Tree) Insert(key types.Row, rid storage.RowID) {
	t.checkKey(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.insert(key, rid, nil)
}

// checkKey panics unless key fits the tree's key columns.
func (t *Tree) checkKey(key types.Row) {
	if len(key) != len(t.kinds) {
		panic(fmt.Sprintf("btree: %d-column key in a %d-column tree", len(key), len(t.kinds)))
	}
	for c, d := range key {
		if !d.IsNull() && d.Kind() != t.kinds[c] {
			panic(fmt.Sprintf("btree: %v value in key column %d of kind %v", d.Kind(), c, t.kinds[c]))
		}
	}
}

// insert adds (key, rid) in one descent from the root, splitting each full
// node on the way down before it descends into it. When the leaf already
// holds key and clash reports one of its rids, nothing is added: the
// uniqueness check is made on the leaf the insert lands on, as PostgreSQL's
// _bt_doinsert makes it. Called with the write latch.
func (t *Tree) insert(key types.Row, rid storage.RowID, clash func(storage.RowID) bool) {
	t.vers++
	if t.root.len() >= degree-1 {
		t.growRoot(key)
	}
	n := t.root
	edge := true // n is the rightmost node of its level
	for {
		i, exact := t.search(n, key)
		if n.leaf() {
			if exact && clash != nil && slices.ContainsFunc(n.runOf(i), clash) {
				return
			}
			t.place(n, i, exact, key, rid)
			return
		}
		// Interior: route right on exact match so duplicates land on the
		// leaf that owns the key.
		if exact {
			i++
		}
		edge = edge && i == len(n.children)-1
		n = t.descend(n, i, key, edge)
	}
}

// growRoot puts a new root above a full one and splits the old root on the
// way to key.
func (t *Tree) growRoot(key types.Row) {
	old := t.root
	t.root = t.newNode()
	t.root.children = []*node{old}
	t.splitChild(t.root, 0, key, true)
	t.height++
}

// descend returns the child of interior node n at i that key descends into,
// splitting it first when it is full.
func (t *Tree) descend(n *node, i int, key types.Row, edge bool) *node {
	if n.children[i].len() >= degree-1 {
		t.splitChild(n, i, key, edge)
		// Route right on key >= separator, matching descendToLeaf.
		if t.cmpKey(n, i, key) <= 0 {
			i++
		}
	}
	return n.children[i]
}

// place stores (key, rid) at position i of leaf n: a new key there, or one
// more rid of the key at i when exact.
func (t *Tree) place(n *node, i int, exact bool, key types.Row, rid storage.RowID) {
	t.size++
	if !exact {
		s := 0
		if i > 0 {
			s = int(n.ends[i-1])
		}
		n.rids = slices.Insert(n.rids, s, rid)
		for k := i; k < len(n.ends); k++ {
			n.ends[k]++
		}
		n.ends = slices.Insert(n.ends, i, int32(s+1))
		n.renumberSpill(i, 1)
		t.insertKey(n, i, key)
		t.keys++
		return
	}
	// Duplicate-key rids stay in RowID order: enumeration order is then a
	// function of the tree's logical contents rather than its insertion
	// history, so an index rebuilt from a heap scan (crash recovery,
	// snapshot load) visits rows in exactly the order the live tree did.
	s, e := n.run(i)
	switch {
	case s == e:
		j, _ := n.spillIndex(i)
		run := n.spill[j].rids
		n.spill[j].rids = slices.Insert(run, ridIndex(run, rid), rid)
	case e-s < spillAt:
		n.rids = slices.Insert(n.rids, s+ridIndex(n.rids[s:e], rid), rid)
		for k := i; k < len(n.ends); k++ {
			n.ends[k]++
		}
	default:
		// The run outgrows the leaf. The packed rids are copied without
		// it, so a leaf whose runs all spill keeps no array sized for them.
		run := slices.Clone(n.rids[s:e])
		run = slices.Insert(run, ridIndex(run, rid), rid)
		n.rids = slices.Concat(n.rids[:s], n.rids[e:])
		for k := i; k < len(n.ends); k++ {
			n.ends[k] -= int32(e - s)
		}
		j, _ := n.spillIndex(i)
		n.spill = slices.Insert(n.spill, j, spilled{key: i, rids: run})
	}
}

// Entry is one (key, rid) pair of a run InsertRun adds.
type Entry struct {
	Key types.Row
	RID storage.RowID
}

// InsertRun adds the entries of run, which ascend in (key, rid) order, under
// one write latch, and leaves the tree holding what inserting them one by
// one would. An entry at or past the right edge — every key of an empty
// tree, and every key of a load that extends the key order — is appended
// where the right-edge descent would put it without a search: the leaves
// and the interior nodes above them fill as an ascending sequence of
// Inserts fills them (the rightmost split of splitChild). Every other entry
// takes one descent. With clash non-nil, an entry whose key the tree
// already holds is checked on its leaf: if clash reports one of the key's
// rids for the entry's index in run, the entry is not added. Keys are
// checked and copied as Insert does.
func (t *Tree) InsertRun(run []Entry, clash func(i int, rid storage.RowID) bool) {
	for _, e := range run {
		t.checkKey(e.Key)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i := 0
	for ; i < len(run) && !t.atEdge(run[i].Key); i++ {
		var own func(storage.RowID) bool
		if clash != nil {
			at := i
			own = func(rid storage.RowID) bool { return clash(at, rid) }
		}
		t.insert(run[i].Key, run[i].RID, own)
	}
	// leaf is the rightmost leaf while the next edge descent would split
	// nothing on its way down — no node above the leaf is full and the
	// leaf is not — so the entry goes straight into it.
	var leaf *node
	for ; i < len(run); i++ {
		t.vers++
		if leaf == nil || leaf.len() >= degree-1 {
			leaf = t.edgeLeaf(run[i].Key)
			t.appendLeaf(leaf, i, run[i], clash)
			if t.edgeFull() {
				leaf = nil
			}
			continue
		}
		t.appendLeaf(leaf, i, run[i], clash)
	}
}

// SortRun sorts entries by (key, rid), the order InsertRun takes,
// comparing typed values when the keys are single non-NULL values of one
// kind, and by insertion while the entries arrive nearly sorted (a heap or
// a batch loaded in rough key order).
func SortRun(run []Entry) {
	if len(run) == 0 {
		return
	}
	if len(run[0].Key) == 1 {
		k := run[0].Key[0].Kind()
		if !slices.ContainsFunc(run, func(e Entry) bool { return e.Key[0].Kind() != k }) {
			switch k {
			case types.KindInt, types.KindDate, types.KindBool:
				sortNearlySorted(run, byTyped(types.Datum.IntImage, cmp.Compare[int64]))
				return
			case types.KindFloat:
				sortNearlySorted(run, byTyped(types.Datum.Float, types.CompareFloat))
				return
			case types.KindString:
				sortNearlySorted(run, byTyped(types.Datum.Str, strings.Compare))
				return
			}
		}
	}
	sortNearlySorted(run, func(a, b Entry) int {
		if c := a.Key.Compare(b.Key); c != 0 {
			return c
		}
		return a.RID.Compare(b.RID)
	})
}

// byTyped orders entries with one-value keys by the keys' values read by
// val and ordered by cmpT, which agrees with types.Datum.Compare on them,
// then by rid.
func byTyped[T any](val func(types.Datum) T, cmpT func(a, b T) int) func(a, b Entry) int {
	return func(a, b Entry) int {
		if c := cmpT(val(a.Key[0]), val(b.Key[0])); c != 0 {
			return c
		}
		return a.RID.Compare(b.RID)
	}
}

// sortNearlySorted sorts s, whose elements are distinct under cmpE: by
// insertion while that takes fewer moves than a few per element — a load in
// rough key order, which leaves each key a few places from home, sorts in
// time linear in its length — and by pdqsort from there.
func sortNearlySorted[E any](s []E, cmpE func(a, b E) int) {
	budget := 4 * len(s)
	for i := 1; i < len(s); i++ {
		j := i
		for ; j > 0 && cmpE(s[j-1], s[i]) > 0; j-- {
		}
		if j == i {
			continue
		}
		if budget -= i - j; budget < 0 {
			slices.SortFunc(s, cmpE)
			return
		}
		v := s[i]
		copy(s[j+1:i+1], s[j:i])
		s[j] = v
	}
}

// atEdge reports whether key descends along the right edge to the end of
// the rightmost leaf: it is not below the last separator of any node on the
// way, nor below the leaf's last key. Every key of a run after one at the
// edge is at the edge too, because splits only raise separators to keys
// already stored.
func (t *Tree) atEdge(key types.Row) bool {
	n := t.root
	for !n.leaf() {
		if k := n.len(); k > 0 && t.cmpKey(n, k-1, key) > 0 {
			return false
		}
		n = n.children[len(n.children)-1]
	}
	return n.len() == 0 || t.cmpKey(n, n.len()-1, key) <= 0
}

// edgeLeaf makes the descent insert makes for key, which is at the edge,
// down the right edge, with every search replaced by the last position,
// and returns the rightmost leaf it reaches.
func (t *Tree) edgeLeaf(key types.Row) *node {
	if t.root.len() >= degree-1 {
		t.growRoot(key)
	}
	n := t.root
	for !n.leaf() {
		n = t.descend(n, len(n.children)-1, key, true)
	}
	return n
}

// edgeFull reports whether a node above the rightmost leaf is full, so
// that the next descent along the right edge splits it.
func (t *Tree) edgeFull() bool {
	for n := t.root; !n.leaf(); n = n.children[len(n.children)-1] {
		if n.len() >= degree-1 {
			return true
		}
	}
	return false
}

// appendLeaf adds entry i of a run, e, at the end of the rightmost leaf n:
// a new last key, or one more rid of the last key unless clash reports one
// of its rids. clash is InsertRun's.
func (t *Tree) appendLeaf(n *node, i int, e Entry, clash func(int, storage.RowID) bool) {
	k := n.len()
	exact := k > 0 && t.cmpKey(n, k-1, e.Key) == 0
	if !exact {
		t.place(n, k, false, e.Key, e.RID)
		return
	}
	if clash != nil && slices.ContainsFunc(n.runOf(k-1), func(rid storage.RowID) bool { return clash(i, rid) }) {
		return
	}
	t.place(n, k-1, true, e.Key, e.RID)
}

// cut copies keys [lo, hi) of n — with their runs, or the children around
// them — into a node sized for them.
func (t *Tree) cut(n *node, lo, hi int) node {
	out := node{cols: make([]keyCol, len(n.cols))}
	for c := range n.cols {
		out.cols[c] = n.cols[c].cut(t.classes[c], lo, hi)
	}
	if !n.leaf() {
		out.children = slices.Clone(n.children[lo : hi+1])
		return out
	}
	s, _ := n.run(lo)
	out.rids = slices.Clone(n.rids[s:n.ends[hi-1]])
	out.ends = make([]int32, hi-lo)
	for j := range out.ends {
		out.ends[j] = n.ends[lo+j] - int32(s)
	}
	a, _ := n.spillIndex(lo)
	b, _ := n.spillIndex(hi)
	if a < b {
		out.spill = slices.Clone(n.spill[a:b])
		out.renumberSpill(0, -lo)
	}
	return out
}

// sizedLike returns an empty leaf whose arrays have room for as many keys
// and packed rids as leaf n holds.
func (t *Tree) sizedLike(n *node) node {
	k := n.len()
	out := node{cols: make([]keyCol, len(n.cols)), ends: make([]int32, 0, k), rids: make([]storage.RowID, 0, len(n.rids))}
	for c := range out.cols {
		switch t.classes[c] {
		case vec.ClassInt:
			out.cols[c].ints = make([]int64, 0, k)
		case vec.ClassFloat:
			out.cols[c].floats = make([]float64, 0, k)
		default:
			out.cols[c].strs = make([]string, 0, k)
		}
	}
	return out
}

// trim gives each array of leaf n that has room to spare a copy sized for
// what it holds — what cut(n, 0, n.len()) makes of n, without copying the
// arrays that are full already.
func (t *Tree) trim(n *node) {
	for c := range n.cols {
		kc := &n.cols[c]
		kc.ints, kc.floats, kc.strs = clip(kc.ints), clip(kc.floats), clip(kc.strs)
		if kc.nulls != nil && !slices.Contains(kc.nulls, true) {
			kc.nulls = nil
		}
		kc.nulls = clip(kc.nulls)
	}
	n.ends, n.rids, n.spill = clip(n.ends), clip(n.rids), clip(n.spill)
}

// clip returns s in an array of its own length: s itself when it has no
// room to spare, else a copy.
func clip[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	return slices.Clone(s)
}

// splitChild splits the full child at index i of parent p on the way down
// to key. A child that is the rightmost node of its level (edge) and that
// key descends past — a key above its last key, in a leaf, or one that
// routes to its last child, in an interior node — splits at the insertion
// point: the left half keeps every key (an interior node all but the one
// that moves up) and the right half starts empty, or with the last child.
// An ascending load therefore leaves every node it passes full, which is
// PostgreSQL nbtree's rightmost-page split and SQLite's balance_quick. Any
// other child splits at the mid-point. Both halves get arrays sized for
// what they hold: a sequential load never touches the left half again, so
// a re-slice of the full array would pin its slack. The child keeps its
// identity — its left neighbour's next points at it — and becomes the left
// half.
func (t *Tree) splitChild(p *node, i int, key types.Row, edge bool) {
	child := p.children[i]
	k := child.len()
	mid := k / 2
	right := new(node)
	if child.leaf() {
		if edge && t.cmpKey(child, k-1, key) < 0 {
			// The separator is key itself, which the caller inserts into
			// the empty right leaf next. The right leaf gets arrays with
			// room for what the left one holds, so the next leaf of an
			// ascending load fills without growing them.
			*right = t.sizedLike(child)
			t.insertKey(p, i, key)
			mid = k
		} else {
			// B+tree leaf split: right keeps keys[mid:], separator is the
			// first key on the right; all data stays in leaves.
			*right = t.cut(child, mid, k)
			t.copyKey(p, i, right, 0)
		}
		right.next = child.next
		if mid == k {
			t.trim(child)
		} else {
			*child = t.cut(child, 0, mid)
		}
		child.next = right
	} else {
		if edge && t.cmpKey(child, k-1, key) <= 0 {
			mid = k - 1
		}
		// Interior split: the key at mid moves up.
		t.copyKey(p, i, child, mid)
		*right = t.cut(child, mid+1, k)
		*child = t.cut(child, 0, mid)
	}
	p.children = slices.Insert(p.children, i+1, right)
}

// removeKey deletes key i from n's key columns.
func (t *Tree) removeKey(n *node, i int) {
	for c := range n.cols {
		n.cols[c].remove(t.classes[c], i)
	}
}

// Delete removes one occurrence of (key, rid). It reports whether the pair
// was found. Structural underflow is tolerated (nodes may go below half
// full, leaves may empty); the tree remains correct, which is the contract
// the engine needs.
func (t *Tree) Delete(key types.Row, rid storage.RowID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.root
	for !n.leaf() {
		i, exact := t.search(n, key)
		if exact {
			i++
		}
		n = n.children[i]
	}
	i, exact := t.search(n, key)
	if !exact {
		return false
	}
	run := n.runOf(i)
	j := ridIndex(run, rid)
	if j == len(run) || run[j] != rid {
		return false
	}
	t.size--
	t.vers++
	if s, e := n.run(i); s < e {
		n.rids = slices.Delete(n.rids, s+j, s+j+1)
		for k := i; k < len(n.ends); k++ {
			n.ends[k]--
		}
		if e-s > 1 {
			return true
		}
	} else {
		sj, _ := n.spillIndex(i)
		if n.spill[sj].rids = slices.Delete(run, j, j+1); len(n.spill[sj].rids) > 0 {
			return true
		}
		n.spill = slices.Delete(n.spill, sj, sj+1)
	}
	// The key's last rid went: the key goes too.
	n.ends = slices.Delete(n.ends, i, i+1)
	n.renumberSpill(i, -1)
	t.removeKey(n, i)
	t.keys--
	return true
}

// Sweep removes every pair whose rid dead reports, compacting each leaf in
// place in one pass along the leaf chain, and returns how many pairs it
// removed. Like Delete it never merges or frees nodes, so it leaves the tree
// exactly as deleting each pair would. dead runs under the write latch and
// must not re-enter the tree.
func (t *Tree) Sweep(dead func(storage.RowID) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	removed := 0
	for n := t.leftmost(); n != nil; n = n.next {
		removed += t.sweepLeaf(n, dead)
	}
	if removed > 0 {
		t.vers++
	}
	return removed
}

// sweepRun moves the rids of run that dead does not report to its front
// and returns how many there are.
func sweepRun(run []storage.RowID, dead func(storage.RowID) bool) int {
	w := 0
	for _, r := range run {
		if !dead(r) {
			run[w] = r
			w++
		}
	}
	return w
}

func (t *Tree) sweepLeaf(n *node, dead func(storage.RowID) bool) int {
	removed := 0
	w, kept := 0, 0             // packed rids and keys kept so far
	spill, sr := n.spill[:0], 0 // spilled runs kept, and the next one to read
	s := 0
	for i, e := range n.ends {
		if s == int(e) {
			sp := n.spill[sr]
			sr++
			live := sweepRun(sp.rids, dead)
			removed += len(sp.rids) - live
			if live == 0 {
				continue // every rid of key i went: the key goes too
			}
			sp.key, sp.rids = kept, sp.rids[:live]
			spill = append(spill, sp)
		} else {
			live := sweepRun(n.rids[s:e], dead)
			removed += int(e) - s - live
			copy(n.rids[w:], n.rids[s:s+live])
			s = int(e)
			if live == 0 {
				continue
			}
			w += live
		}
		if kept != i {
			for c := range n.cols {
				n.cols[c].move(t.classes[c], kept, i, i+1)
			}
		}
		n.ends[kept] = int32(w)
		kept++
	}
	t.size -= removed
	t.keys -= len(n.ends) - kept
	n.rids = n.rids[:w]
	n.ends = n.ends[:kept]
	clear(n.spill[len(spill):])
	if n.spill = spill; len(spill) == 0 {
		n.spill = nil
	}
	for c := range n.cols {
		n.cols[c].truncate(t.classes[c], kept)
	}
	return removed
}

// leftmost returns the first leaf of the chain.
func (t *Tree) leftmost() *node {
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	return n
}

// Key is a borrowed view of one stored key, handed to traversal callbacks.
// It is valid only until the traversal that produced it returns (the tree's
// read latch is held until then); a caller that keeps a key materializes it
// with Row.
type Key struct {
	t *Tree
	n *node
	i int
}

// Datum returns column c of the key.
func (k Key) Datum(c int) types.Datum {
	return k.n.cols[c].datum(k.t.classes[c], k.t.kinds[c], k.i)
}

// Row materializes the key as a fresh row the caller owns.
func (k Key) Row() types.Row {
	r := make(types.Row, len(k.n.cols))
	for c := range r {
		r[c] = k.Datum(c)
	}
	return r
}

// Compare orders the key against key as types.Row.Compare does.
func (k Key) Compare(key types.Row) int { return k.t.cmpKey(k.n, k.i, key) }

// String renders the key as its row would be.
func (k Key) String() string { return k.Row().String() }

// Bound describes one end of a range scan.
type Bound struct {
	Key       types.Row // nil means unbounded
	Inclusive bool
}

// descendToLeaf walks from the root to the leaf that would contain key,
// charging one page read per level. A nil key descends to the leftmost leaf.
func (t *Tree) descendToLeaf(key types.Row, c *storage.Counters) *node {
	n := t.root
	for {
		c.AddPages(1)
		if n.leaf() {
			return n
		}
		if key == nil {
			n = n.children[0]
			continue
		}
		i, exact := t.search(n, key)
		if exact {
			i++
		}
		n = n.children[i]
	}
}

// leafEnd returns the index just past the last key of leaf n, at or after
// start, that lies within hi. Interior leaves of a range answer with one
// comparison (their last key is within the bound). On the leaf holding the
// boundary the next few keys are tried in turn — a point lookup or a short
// range ends there — before a binary search over the rest, so a range scan
// never compares per key.
func (t *Tree) leafEnd(n *node, start int, hi Bound) int {
	end := n.len()
	if hi.Key == nil || start >= end {
		return end
	}
	beyond := func(i int) bool {
		c := t.cmpKey(n, i, hi.Key)
		return c > 0 || (c == 0 && !hi.Inclusive)
	}
	last := end - 1
	if !beyond(last) {
		return end
	}
	i := start
	for ; i < start+4 && i < last; i++ {
		if beyond(i) {
			return i
		}
	}
	return i + sort.Search(last-i, func(j int) bool { return beyond(i + j) })
}

// AscendRange visits (key, rid) pairs with lo <= key <= hi (subject to the
// bounds' inclusivity) in ascending key order. fn returning false stops the
// scan. Page reads are charged for the root-to-leaf descent and for each
// leaf visited, one row read per pair visited.
func (t *Tree) AscendRange(lo, hi Bound, c *storage.Counters, fn func(key Key, rid storage.RowID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.descendToLeaf(lo.Key, c)
	start := 0
	if lo.Key != nil {
		i, exact := t.search(n, lo.Key)
		start = i
		if exact && !lo.Inclusive {
			start = i + 1
		}
	}
	var visited int64
	defer func() { c.AddRows(visited) }()
	for n != nil {
		end := t.leafEnd(n, start, hi)
		for i := start; i < end; i++ {
			k := Key{t, n, i}
			for _, rid := range n.runOf(i) {
				visited++
				if !fn(k, rid) {
					return
				}
			}
		}
		if end < n.len() {
			return
		}
		n = n.next
		start = 0
		if n != nil {
			c.AddPages(1)
		}
	}
}

// Ascend visits every pair in ascending order.
func (t *Tree) Ascend(c *storage.Counters, fn func(key Key, rid storage.RowID) bool) {
	t.AscendRange(Bound{}, Bound{}, c, fn)
}

// Descend visits every pair in descending key order (rids of a duplicate
// key in descending RowID order). fn returning false stops the walk. Page
// reads are charged per node visited.
func (t *Tree) Descend(c *storage.Counters, fn func(key Key, rid storage.RowID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.descendNode(t.root, c, fn)
}

func (t *Tree) descendNode(n *node, c *storage.Counters, fn func(key Key, rid storage.RowID) bool) bool {
	c.AddPages(1)
	if n.leaf() {
		for i := n.len() - 1; i >= 0; i-- {
			k := Key{t, n, i}
			run := n.runOf(i)
			for j := len(run) - 1; j >= 0; j-- {
				c.AddRows(1)
				if !fn(k, run[j]) {
					return false
				}
			}
		}
		return true
	}
	for i := len(n.children) - 1; i >= 0; i-- {
		if !t.descendNode(n.children[i], c, fn) {
			return false
		}
	}
	return true
}

// Lookup visits the rids stored under exactly key.
func (t *Tree) Lookup(key types.Row, c *storage.Counters, fn func(rid storage.RowID) bool) {
	t.AscendRange(Bound{Key: key, Inclusive: true}, Bound{Key: key, Inclusive: true}, c,
		func(_ Key, rid storage.RowID) bool { return fn(rid) })
}

// Min returns a copy of the smallest key, or nil if the tree is empty.
// Leaves emptied by Delete are skipped.
func (t *Tree) Min() types.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for n := t.leftmost(); n != nil; n = n.next {
		if n.len() > 0 {
			return Key{t, n, 0}.Row()
		}
	}
	return nil
}

// Max returns a copy of the largest key, or nil if the tree is empty.
// Leaves emptied by Delete are skipped.
func (t *Tree) Max() types.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if n := lastLeaf(t.root); n != nil {
		return Key{t, n, n.len() - 1}.Row()
	}
	return nil
}

// lastLeaf returns the rightmost leaf under n that holds a key, or nil.
func lastLeaf(n *node) *node {
	if n.leaf() {
		if n.len() > 0 {
			return n
		}
		return nil
	}
	for i := len(n.children) - 1; i >= 0; i-- {
		if l := lastLeaf(n.children[i]); l != nil {
			return l
		}
	}
	return nil
}

// Validate checks the tree's invariants: every node's key columns, runs and
// children agree in length; keys ascend within and across nodes and lie
// within their separators; runs are non-empty and in RowID order, packed
// ones at most spillAt long and spilled ones exactly where the packed run
// is empty; every
// leaf sits at the recorded height; the leaf chain visits every leaf exactly
// once, in key order; and the size bookkeeping matches. It is used by
// property tests.
func (t *Tree) Validate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var leaves []*node
	if err := t.validateNode(t.root, nil, nil, 1, &leaves); err != nil {
		return err
	}
	chain := t.leftmost()
	for i, l := range leaves {
		if chain != l {
			return fmt.Errorf("btree: leaf chain diverges from key order at leaf %d of %d", i, len(leaves))
		}
		chain = chain.next
	}
	if chain != nil {
		return fmt.Errorf("btree: leaf chain runs past the last leaf")
	}
	var prev types.Row
	count, keys := 0, 0
	for _, l := range leaves {
		for i := 0; i < l.len(); i++ {
			k := Key{t, l, i}.Row()
			if prev != nil && prev.Compare(k) >= 0 {
				return fmt.Errorf("btree: keys out of order: %v after %v", k, prev)
			}
			prev = k
			keys++
		}
		for i := 0; i < l.len(); i++ {
			count += len(l.runOf(i))
		}
	}
	if count != t.size {
		return fmt.Errorf("btree: size mismatch: counted %d, recorded %d", count, t.size)
	}
	if keys != t.keys {
		return fmt.Errorf("btree: key count mismatch: counted %d, recorded %d", keys, t.keys)
	}
	return nil
}

func (t *Tree) validateNode(n *node, lo, hi types.Row, depth int, leaves *[]*node) error {
	k := n.len()
	if len(n.cols) != len(t.kinds) {
		return fmt.Errorf("btree: node has %d key columns, tree %d", len(n.cols), len(t.kinds))
	}
	for c := range n.cols {
		col := &n.cols[c]
		if col.len(t.classes[c]) != k || (col.nulls != nil && len(col.nulls) != k) {
			return fmt.Errorf("btree: key column %d holds %d values for %d keys", c, col.len(t.classes[c]), k)
		}
	}
	for i := 0; i < k; i++ {
		key := Key{t, n, i}.Row()
		if i > 0 && t.cmpKey(n, i-1, key) >= 0 {
			return fmt.Errorf("btree: node keys out of order at %d", i)
		}
		if lo != nil && key.Compare(lo) < 0 {
			return fmt.Errorf("btree: key %v below lower bound %v", key, lo)
		}
		if hi != nil && key.Compare(hi) > 0 {
			return fmt.Errorf("btree: key %v above upper bound %v", key, hi)
		}
	}
	if n.leaf() {
		if depth != t.height {
			return fmt.Errorf("btree: leaf at depth %d in a tree of height %d", depth, t.height)
		}
		for j := 1; j < len(n.spill); j++ {
			if n.spill[j-1].key >= n.spill[j].key {
				return fmt.Errorf("btree: spilled runs out of key order")
			}
		}
		spills := 0
		for i := 0; i < k; i++ {
			s, e := n.run(i)
			if e < s || e > len(n.rids) || e-s > spillAt {
				return fmt.Errorf("btree: key %d has packed run [%d, %d) over %d rids", i, s, e, len(n.rids))
			}
			_, spilt := n.spillIndex(i)
			if spilt != (s == e) {
				return fmt.Errorf("btree: key %d has a packed run of %d and spilled=%v", i, e-s, spilt)
			}
			if spilt {
				spills++
			}
			run := n.runOf(i)
			if len(run) == 0 {
				return fmt.Errorf("btree: key %d has no rids", i)
			}
			for j := 1; j < len(run); j++ {
				if ridLess(run[j], run[j-1]) {
					return fmt.Errorf("btree: run of key %d out of RowID order", i)
				}
			}
		}
		if spills != len(n.spill) {
			return fmt.Errorf("btree: %d spilled runs for %d spilled keys", len(n.spill), spills)
		}
		if k > 0 && int(n.ends[k-1]) != len(n.rids) {
			return fmt.Errorf("btree: runs end at %d, leaf holds %d rids", n.ends[k-1], len(n.rids))
		}
		if k == 0 && len(n.rids) != 0 {
			return fmt.Errorf("btree: empty leaf holds %d rids", len(n.rids))
		}
		*leaves = append(*leaves, n)
		return nil
	}
	if n.ends != nil || n.rids != nil || n.spill != nil {
		return fmt.Errorf("btree: interior node holds rids")
	}
	for i, ch := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = Key{t, n, i - 1}.Row()
		}
		if i < k {
			chi = Key{t, n, i}.Row()
		}
		if err := t.validateNode(ch, clo, chi, depth+1, leaves); err != nil {
			return err
		}
	}
	return nil
}
