package mining

import (
	"sort"

	"softdb/internal/catalog"
	"softdb/internal/schema"
	"softdb/internal/storage"
	"softdb/internal/types"
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
// up to cfg.MaxLHS columns, via partition refinement over in-memory value
// vectors. Non-minimal FDs (a superset determinant for a dependency already
// found) are suppressed.
func MineFDs(def *schema.Table, heap *storage.Heap, cfg FDMinerConfig) []FD {
	cfg.defaults()
	n := int(heap.RowCount())
	if n < cfg.MinRows {
		return nil
	}
	arity := def.Arity()
	// Materialize column value key images once.
	colKeys := make([][]string, arity)
	for i := range colKeys {
		colKeys[i] = make([]string, 0, n)
	}
	heap.Scan(nil, func(_ storage.RowID, row types.Row) bool {
		for i, d := range row {
			colKeys[i] = append(colKeys[i], string(types.AppendKey(nil, d)))
		}
		return true
	})

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

	consider := func(det []int, dep int) {
		if contains(det, dep) || isSubsumed(dep, det) {
			return
		}
		conf := fdConfidence(colKeys, det, dep, n)
		if conf < cfg.MinConfidence {
			return
		}
		names := make([]string, len(det))
		for i, d := range det {
			names[i] = def.Columns[d].Name
		}
		out = append(out, FD{Det: names, Dep: def.Columns[dep].Name, Confidence: conf})
		found[dep] = append(found[dep], append([]int(nil), det...))
	}

	// Level 1: single-column determinants.
	for a := 0; a < arity; a++ {
		for dep := 0; dep < arity; dep++ {
			consider([]int{a}, dep)
		}
	}
	// Level 2: pairs (only when MaxLHS allows).
	if cfg.MaxLHS >= 2 {
		for a := 0; a < arity; a++ {
			for b := a + 1; b < arity; b++ {
				for dep := 0; dep < arity; dep++ {
					consider([]int{a, b}, dep)
				}
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

// fdConfidence computes the g3 measure of det → dep: the fraction of rows
// kept after removing the fewest rows that break the dependency (within
// each determinant group, keep the plurality dependent value).
func fdConfidence(colKeys [][]string, det []int, dep int, n int) float64 {
	if n == 0 {
		return 0
	}
	groups := map[string]map[string]int{}
	for r := 0; r < n; r++ {
		var key string
		for _, d := range det {
			key += colKeys[d][r]
		}
		m := groups[key]
		if m == nil {
			m = map[string]int{}
			groups[key] = m
		}
		m[colKeys[dep][r]]++
	}
	kept := 0
	for _, m := range groups {
		best := 0
		for _, c := range m {
			if c > best {
				best = c
			}
		}
		kept += best
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
	n := int(heap.RowCount())
	if n == 0 {
		return 1
	}
	detOrds := make([]int, len(det))
	for i, d := range det {
		detOrds[i] = def.ColumnIndex(d)
		if detOrds[i] < 0 {
			return 0
		}
	}
	depOrd := def.ColumnIndex(dep)
	if depOrd < 0 {
		return 0
	}
	groups := map[string]map[string]int{}
	heap.Scan(nil, func(_ storage.RowID, row types.Row) bool {
		key := string(types.AppendKey(nil, row.Project(detOrds)...))
		m := groups[key]
		if m == nil {
			m = map[string]int{}
			groups[key] = m
		}
		m[string(types.AppendKey(nil, row[depOrd]))]++
		return true
	})
	kept := 0
	for _, m := range groups {
		best := 0
		for _, c := range m {
			if c > best {
				best = c
			}
		}
		kept += best
	}
	return float64(kept) / float64(n)
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
