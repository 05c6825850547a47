// Package btree implements the in-memory B+tree used for softdb secondary
// indexes. Keys are composite rows (types.Row) ordered lexicographically;
// each key maps to the set of row IDs carrying that key. Node visits are
// charged to a storage.Counters as page reads so index access paths have a
// cost signal comparable to heap scans.
package btree

import (
	"fmt"
	"sort"
	"sync"

	"softdb/internal/storage"
	"softdb/internal/types"
)

// ridLess orders row IDs by (page, slot) — the physical heap order.
func ridLess(a, b storage.RowID) bool {
	if a.Page != b.Page {
		return a.Page < b.Page
	}
	return a.Slot < b.Slot
}

// degree is the maximum number of children of an interior node. Leaves hold
// up to degree-1 entries. Sized so a node is roughly one simulated page of
// (key, rid) pairs.
const degree = 64

type entry struct {
	key  types.Row
	rids []storage.RowID
}

type node struct {
	entries  []entry // len = number of keys
	children []*node // nil for leaves; else len = len(entries)+1
	next     *node   // leaf chain for range scans
}

func (n *node) leaf() bool { return n.children == nil }

// Tree is a B+tree multimap from composite keys to row IDs. It latches
// itself: mutators take the internal write latch, traversals the read
// latch, so lock-free MVCC scans can walk an index while a serialized
// writer inserts entries. Traversal callbacks run under the read latch and
// must not re-enter the tree (Go's RWMutex blocks re-entrant readers once
// a writer queues) — collect entries first, then act.
type Tree struct {
	mu     sync.RWMutex
	root   *node
	keys   int   // distinct keys
	size   int   // total (key,rid) pairs
	height int   // number of levels
	vers   int64 // mutation counter
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{}, height: 1}
}

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

// search returns the index of the first entry in n with key >= k, and
// whether it is an exact match.
func search(n *node, k types.Row) (int, bool) {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.entries[mid].key.Compare(k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.entries) && n.entries[lo].key.Compare(k) == 0 {
		return lo, true
	}
	return lo, false
}

// Insert adds (key, rid). Duplicate keys accumulate rids. The tree keeps key
// when it starts a new entry: the caller must not modify it afterwards.
func (t *Tree) Insert(key types.Row, rid storage.RowID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.vers++
	if len(t.root.entries) >= degree-1 {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.splitChild(t.root, 0)
		t.height++
	}
	t.insertNonFull(t.root, key, rid)
}

func (t *Tree) insertNonFull(n *node, key types.Row, rid storage.RowID) {
	for {
		i, exact := search(n, key)
		if n.leaf() {
			if exact {
				// Duplicate-key rids stay in RowID order: enumeration order
				// is then a function of the tree's logical contents rather
				// than its insertion history, so an index rebuilt from a
				// heap scan (crash recovery, snapshot load) visits rows in
				// exactly the order the live tree did.
				e := &n.entries[i]
				j := sort.Search(len(e.rids), func(j int) bool { return !ridLess(e.rids[j], rid) })
				e.rids = append(e.rids, storage.RowID{})
				copy(e.rids[j+1:], e.rids[j:])
				e.rids[j] = rid
				t.size++
				return
			}
			n.entries = append(n.entries, entry{})
			copy(n.entries[i+1:], n.entries[i:])
			n.entries[i] = entry{key: key, rids: []storage.RowID{rid}}
			t.size++
			t.keys++
			return
		}
		// Interior: route right on exact match so duplicates land on the
		// leaf that owns the key.
		if exact {
			i++
		}
		if len(n.children[i].entries) >= degree-1 {
			t.splitChild(n, i)
			// Route right on key >= separator, matching descendToLeaf.
			if n.entries[i].key.Compare(key) <= 0 {
				i++
			}
		}
		n = n.children[i]
	}
}

// splitChild splits the full child at index i of parent p.
func (t *Tree) splitChild(p *node, i int) {
	child := p.children[i]
	mid := len(child.entries) / 2
	right := &node{}
	var sep types.Row
	if child.leaf() {
		// B+tree leaf split: right keeps entries[mid:], separator is the
		// first key on the right; all data stays in leaves.
		right.entries = append(right.entries, child.entries[mid:]...)
		child.entries = child.entries[:mid:mid]
		right.next = child.next
		child.next = right
		sep = right.entries[0].key
	} else {
		// Interior split: middle key moves up.
		sep = child.entries[mid].key
		right.entries = append(right.entries, child.entries[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.entries = child.entries[:mid:mid]
		child.children = child.children[: mid+1 : mid+1]
	}
	p.children = append(p.children, nil)
	copy(p.children[i+2:], p.children[i+1:])
	p.children[i+1] = right
	p.entries = append(p.entries, entry{})
	copy(p.entries[i+1:], p.entries[i:])
	p.entries[i] = entry{key: sep}
}

// Delete removes one occurrence of (key, rid). It reports whether the pair
// was found. Structural underflow is tolerated (nodes may go below half
// full); the tree remains correct, which is the contract the engine needs.
func (t *Tree) Delete(key types.Row, rid storage.RowID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.root
	for !n.leaf() {
		i, exact := search(n, key)
		if exact {
			i++
		}
		n = n.children[i]
	}
	i, exact := search(n, key)
	if !exact {
		return false
	}
	e := &n.entries[i]
	for j, r := range e.rids {
		if r == rid {
			e.rids = append(e.rids[:j], e.rids[j+1:]...)
			t.size--
			t.vers++
			if len(e.rids) == 0 {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				t.keys--
			}
			return true
		}
	}
	return false
}

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
		i, exact := search(n, key)
		if exact {
			i++
		}
		n = n.children[i]
	}
}

// leafEnd returns the index just past the last entry of leaf n, at or after
// start, that lies within hi. Interior leaves of a range answer with one
// comparison (their last key is within the bound). On the leaf holding the
// boundary the next few entries are tried in turn — a point lookup or a
// short range ends there — before a binary search over the rest, so a range
// scan never compares per entry.
func leafEnd(n *node, start int, hi Bound) int {
	end := len(n.entries)
	if hi.Key == nil || start >= end {
		return end
	}
	beyond := func(i int) bool {
		c := n.entries[i].key.Compare(hi.Key)
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
func (t *Tree) AscendRange(lo, hi Bound, c *storage.Counters, fn func(key types.Row, rid storage.RowID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.descendToLeaf(lo.Key, c)
	start := 0
	if lo.Key != nil {
		i, exact := search(n, lo.Key)
		start = i
		if exact && !lo.Inclusive {
			start = i + 1
		}
	}
	var visited int64
	defer func() { c.AddRows(visited) }()
	for n != nil {
		end := leafEnd(n, start, hi)
		for i := start; i < end; i++ {
			e := &n.entries[i]
			for _, rid := range e.rids {
				visited++
				if !fn(e.key, rid) {
					return
				}
			}
		}
		if end < len(n.entries) {
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
func (t *Tree) Ascend(c *storage.Counters, fn func(key types.Row, rid storage.RowID) bool) {
	t.AscendRange(Bound{}, Bound{}, c, fn)
}

// Descend visits every pair in descending key order (rids of a duplicate
// key in descending RowID order). fn returning false stops the walk. Page
// reads are charged per node visited.
func (t *Tree) Descend(c *storage.Counters, fn func(key types.Row, rid storage.RowID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	descendNode(t.root, c, fn)
}

func descendNode(n *node, c *storage.Counters, fn func(key types.Row, rid storage.RowID) bool) bool {
	c.AddPages(1)
	if n.leaf() {
		for i := len(n.entries) - 1; i >= 0; i-- {
			e := &n.entries[i]
			for j := len(e.rids) - 1; j >= 0; j-- {
				c.AddRows(1)
				if !fn(e.key, e.rids[j]) {
					return false
				}
			}
		}
		return true
	}
	for i := len(n.children) - 1; i >= 0; i-- {
		if !descendNode(n.children[i], c, fn) {
			return false
		}
	}
	return true
}

// Lookup visits the rids stored under exactly key.
func (t *Tree) Lookup(key types.Row, c *storage.Counters, fn func(rid storage.RowID) bool) {
	t.AscendRange(Bound{Key: key, Inclusive: true}, Bound{Key: key, Inclusive: true}, c,
		func(_ types.Row, rid storage.RowID) bool { return fn(rid) })
}

// Min returns the smallest key, or nil if the tree is empty.
func (t *Tree) Min() types.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	if len(n.entries) == 0 {
		return nil
	}
	return n.entries[0].key
}

// Max returns the largest key, or nil if the tree is empty.
func (t *Tree) Max() types.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	if len(n.entries) == 0 {
		return nil
	}
	return n.entries[len(n.entries)-1].key
}

// Validate checks B+tree invariants (key ordering within and across nodes,
// leaf chain consistency, size bookkeeping). It is used by property tests.
func (t *Tree) Validate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var prev types.Row
	count := 0
	keys := 0
	err := validateNode(t.root, nil, nil)
	if err != nil {
		return err
	}
	t.Ascend(nil, func(k types.Row, _ storage.RowID) bool {
		if prev != nil && prev.Compare(k) > 0 {
			err = fmt.Errorf("btree: keys out of order: %v after %v", k, prev)
			return false
		}
		if prev == nil || prev.Compare(k) != 0 {
			keys++
		}
		prev = k.Clone()
		count++
		return true
	})
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size mismatch: counted %d, recorded %d", count, t.size)
	}
	if keys != t.keys {
		return fmt.Errorf("btree: key count mismatch: counted %d, recorded %d", keys, t.keys)
	}
	return nil
}

func validateNode(n *node, lo, hi types.Row) error {
	for i := range n.entries {
		k := n.entries[i].key
		if i > 0 && n.entries[i-1].key.Compare(k) >= 0 {
			return fmt.Errorf("btree: node keys out of order at %d", i)
		}
		if lo != nil && k.Compare(lo) < 0 {
			return fmt.Errorf("btree: key %v below lower bound %v", k, lo)
		}
		if hi != nil && k.Compare(hi) > 0 {
			return fmt.Errorf("btree: key %v above upper bound %v", k, hi)
		}
	}
	if n.leaf() {
		return nil
	}
	if len(n.children) != len(n.entries)+1 {
		return fmt.Errorf("btree: interior node with %d keys has %d children", len(n.entries), len(n.children))
	}
	for i, ch := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = n.entries[i-1].key
		}
		if i < len(n.entries) {
			chi = n.entries[i].key
		}
		if err := validateNode(ch, clo, chi); err != nil {
			return err
		}
	}
	return nil
}
