package mining

import (
	"sort"

	"softdb/internal/catalog"
	"softdb/internal/schema"
	"softdb/internal/storage"
	"softdb/internal/vec"
)

// FDMinerConfig controls functional-dependency discovery.
type FDMinerConfig struct {
	// MaxLHS bounds determinant size. Default 2.
	MaxLHS int
	// MinConfidence is the weakest approximate FD worth reporting, using
	// the g3 measure (1 - rows-to-remove / rows). 1 reports exact FDs
	// only. Default 1.
	MinConfidence float64
	// MinRows skips tables with too little data. Default 16.
	MinRows int
}

func (c *FDMinerConfig) defaults() {
	if c.MaxLHS <= 0 {
		c.MaxLHS = 2
	}
	if c.MinConfidence <= 0 {
		c.MinConfidence = 1
	}
	if c.MinRows <= 0 {
		c.MinRows = 16
	}
}

// FD is one discovered dependency.
type FD struct {
	Det        []string // determinant column names
	Dep        string   // dependent column name
	Confidence float64  // g3 measure; 1 means exact
}

// MineFDs discovers (approximate) functional dependencies with determinants
// up to cfg.MaxLHS columns, via partition refinement over dictionary-coded
// columns. Non-minimal FDs (a superset determinant for a dependency already
// found) are suppressed.
func MineFDs(def *schema.Table, heap *storage.Heap, cfg FDMinerConfig) []FD {
	cfg.defaults()
	if int(heap.RowCount()) < cfg.MinRows {
		return nil
	}
	arity := def.Arity()
	cols := make([]codes, arity)
	for i, c := range heap.Columns(nil) {
		cols[i] = encode(&c)
	}
	var cnt []uint32 // g3's scratch, shared by every test

	var out []FD
	found := map[int][][]int{} // dep ordinal -> determinant ordinal sets found
	isSubsumed := func(dep int, det []int) bool {
		for _, prev := range found[dep] {
			if subset(prev, det) {
				return true
			}
		}
		return false
	}

	// consider tests det → dep for every dep, partitioning the rows by det
	// the first time a dep needs it.
	consider := func(det []int, detCodes func() codes) {
		var p *partition
		for dep := 0; dep < arity; dep++ {
			if contains(det, dep) || isSubsumed(dep, det) {
				continue
			}
			if p == nil {
				p = partitionBy(detCodes())
			}
			conf := p.g3(cols[dep], &cnt)
			if conf < cfg.MinConfidence {
				continue
			}
			names := make([]string, len(det))
			for i, d := range det {
				names[i] = def.Columns[d].Name
			}
			out = append(out, FD{Det: names, Dep: def.Columns[dep].Name, Confidence: conf})
			found[dep] = append(found[dep], append([]int(nil), det...))
		}
	}

	// Level 1: single-column determinants.
	for a := 0; a < arity; a++ {
		consider([]int{a}, func() codes { return cols[a] })
	}
	// Level 2: pairs (only when MaxLHS allows).
	if cfg.MaxLHS >= 2 {
		for a := 0; a < arity; a++ {
			for b := a + 1; b < arity; b++ {
				consider([]int{a, b}, func() codes { return pairCodes(cols[a], cols[b]) })
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Det) != len(out[j].Det) {
			return len(out[i].Det) < len(out[j].Det)
		}
		if out[i].Dep != out[j].Dep {
			return out[i].Dep < out[j].Dep
		}
		return out[i].Det[0] < out[j].Det[0]
	})
	return out
}

// codes is a column's dense dictionary coding: code[r] numbers row r's
// value in [0, ndv). Two rows share a code exactly when their values key
// equal under types.AppendKey — within one column that is ==, so −0 and +0
// share one — and code 0 is NULL's.
type codes struct {
	code []uint32
	ndv  int
}

func encode(col *vec.Col) codes {
	switch col.Class {
	case vec.ClassInt:
		return dictionary(col.Ints, col.Nulls)
	case vec.ClassFloat:
		return dictionary(col.Floats, col.Nulls)
	default:
		return dictionary(col.Strs, col.Nulls)
	}
}

// dictionary codes vals from 1 in order of first appearance, leaving the
// rows nulls marks (if nulls is not nil) at 0.
func dictionary[T comparable](vals []T, nulls []bool) codes {
	ids := make(map[T]uint32)
	out := codes{code: make([]uint32, len(vals)), ndv: 1}
	for r, v := range vals {
		if nulls != nil && nulls[r] {
			continue
		}
		id, ok := ids[v]
		if !ok {
			id = uint32(out.ndv)
			ids[v] = id
			out.ndv++
		}
		out.code[r] = id
	}
	return out
}

// pairCodes codes the value pairs of two coded columns.
func pairCodes(a, b codes) codes {
	pairs := make([]uint64, len(a.code))
	for r := range pairs {
		pairs[r] = uint64(a.code[r])<<32 | uint64(b.code[r])
	}
	return dictionary(pairs, nil)
}

// partition groups the rows by a determinant's code: group g's rows are
// rows[start[g]:start[g+1]].
type partition struct {
	rows  []int32
	start []int32
}

// partitionBy counting-sorts the rows by det's codes.
func partitionBy(det codes) *partition {
	p := &partition{rows: make([]int32, len(det.code)), start: make([]int32, det.ndv+1)}
	for _, c := range det.code {
		p.start[c+1]++
	}
	for g := 1; g <= det.ndv; g++ {
		p.start[g] += p.start[g-1]
	}
	next := append([]int32(nil), p.start[:det.ndv]...)
	for r, c := range det.code {
		p.rows[next[c]] = int32(r)
		next[c]++
	}
	return p
}

// g3 is the g3 measure of det → dep for the determinant p partitions by:
// the fraction of rows kept after removing the fewest rows that break the
// dependency (within each determinant group, keep the plurality dependent
// value). cnt is per-dependent-code scratch, all zero between calls.
func (p *partition) g3(dep codes, cnt *[]uint32) float64 {
	n := len(p.rows)
	if n == 0 {
		return 0
	}
	if len(*cnt) < dep.ndv {
		*cnt = make([]uint32, dep.ndv)
	}
	c := *cnt
	kept := 0
	for g := 0; g+1 < len(p.start); g++ {
		rows := p.rows[p.start[g]:p.start[g+1]]
		if len(rows) == 1 {
			kept++
			continue
		}
		var best uint32
		for _, r := range rows {
			v := dep.code[r]
			c[v]++
			best = max(best, c[v])
		}
		for _, r := range rows {
			c[dep.code[r]] = 0
		}
		kept += int(best)
	}
	return float64(kept) / float64(n)
}

// ToConstraint converts a discovered FD into a catalog constraint: exact
// FDs become absolute soft constraints, approximate ones statistical.
func (fd FD) ToConstraint(table string) *catalog.Constraint {
	mode := catalog.ModeSoftAbsolute
	if fd.Confidence < 1 {
		mode = catalog.ModeSoftStatistical
	}
	return &catalog.Constraint{
		Kind:       catalog.FuncDep,
		Mode:       mode,
		Table:      table,
		Columns:    fd.Det,
		DepColumns: []string{fd.Dep},
		Confidence: fd.Confidence,
	}
}

// VerifyFD recomputes the FD's confidence against the current table state,
// the asynchronous maintenance pass for soft FDs.
func VerifyFD(def *schema.Table, heap *storage.Heap, det []string, dep string) float64 {
	if heap.RowCount() == 0 {
		return 1
	}
	ords := make([]int, len(det)+1) // the determinant's, then the dependent's
	for i := range ords {
		name := dep
		if i < len(det) {
			name = det[i]
		}
		if ords[i] = def.ColumnIndex(name); ords[i] < 0 {
			return 0
		}
	}
	cols := heap.Columns(ords)
	// Start from the empty determinant, one group, and refine by each column.
	detCodes := codes{code: make([]uint32, len(cols[0].Nulls)), ndv: 1}
	for i := range det {
		detCodes = pairCodes(detCodes, encode(&cols[i]))
	}
	var cnt []uint32
	return partitionBy(detCodes).g3(encode(&cols[len(det)]), &cnt)
}

func subset(small, big []int) bool {
	for _, s := range small {
		if !contains(big, s) {
			return false
		}
	}
	return true
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
