package catalog

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"softdb/internal/btree"
	"softdb/internal/expr"
	"softdb/internal/schema"
	"softdb/internal/stats"
	"softdb/internal/storage"
	"softdb/internal/types"
)

// Index is a secondary index over one table.
type Index struct {
	Name    string
	Table   string
	Columns []string
	Ordinal []int // column ordinals in the base table, parallel to Columns
	Unique  bool
	Tree    *btree.Tree
}

// KeyFor extracts the index key from a base-table row. A single-column key
// is a window onto the row itself, not a copy: the tree copies a key into its
// typed key columns and keeps no reference to it (see btree.Tree.Insert), so
// the key only has to outlive the call it is handed to.
func (ix *Index) KeyFor(row types.Row) types.Row {
	if len(ix.Ordinal) == 1 {
		o := ix.Ordinal[0]
		return row[o : o+1 : o+1]
	}
	return row.Project(ix.Ordinal)
}

// NewIndexTree returns an empty tree for an index over the given column
// ordinals of def: one key column per ordinal, of that column's kind.
func NewIndexTree(def *schema.Table, ords []int) *btree.Tree {
	kinds := make([]types.Kind, len(ords))
	for i, o := range ords {
		kinds[i] = def.Columns[o].Type
	}
	return btree.New(kinds...)
}

// SummaryTable is a DB2-style AST: a materialized single-table selection
// (§4.4). When Informational is true the rows are not materialized — only
// statistics are kept — matching the paper's "information AST".
type SummaryTable struct {
	Name          string
	Base          string    // base table name
	Where         expr.Expr // bound to base-table ordinals
	Informational bool
	Heap          *storage.Heap // nil when Informational
	Def           *schema.Table // same columns as the base table
	Stats         *stats.TableStats
	// RowCountEstimate backs an informational AST, which keeps runstats but
	// no rows.
	RowCountEstimate int64
}

// VirtualColumn is §5.1's second mechanism for conveying SSC information:
// a named expression over the table's columns (e.g. `end_date -
// start_date`) whose distribution statistics are collected like a real
// column's, so predicates over the expression get histogram-quality
// estimates instead of defaults.
type VirtualColumn struct {
	Name string
	// Expr is bound to the table's column ordinals.
	Expr expr.Expr
	// Canon is Expr's canonical rendering, matched against query
	// predicates.
	Canon string
	Stats *stats.ColumnStats
}

// TableEntry couples a table's definition, heap, indexes and constraints.
type TableEntry struct {
	Def         *schema.Table
	Heap        *storage.Heap
	Indexes     []*Index
	Constraints []*Constraint
	Stats       *stats.TableStats
	Virtual     []*VirtualColumn
}

// Catalog is the system catalog. It is not safe for concurrent mutation;
// the engine serializes DDL and DML.
type Catalog struct {
	tables     map[string]*TableEntry
	summaries  map[string]*SummaryTable
	correls    map[string]*LinearCorrelation
	holes      map[string]*JoinHoles
	exceptions map[string]string // constraint name -> exception AST name (§4.4)
	// version is atomic so a BEGIN can read it without the engine's lock
	// (see Version).
	version atomic.Int64
	hard    int64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:     map[string]*TableEntry{},
		summaries:  map[string]*SummaryTable{},
		correls:    map[string]*LinearCorrelation{},
		holes:      map[string]*JoinHoles{},
		exceptions: map[string]string{},
	}
}

// LinkException registers summary as the exception AST of the named
// constraint (§4.4: the materialized view holding exactly the rows that
// violate the constraint statement). The engine keeps the AST maintained;
// the rewriter uses the link for the exact exception-union rewrite.
func (c *Catalog) LinkException(constraintName, summaryName string) error {
	if c.ConstraintByName(constraintName) == nil {
		return fmt.Errorf("catalog: no constraint %s", constraintName)
	}
	st, ok := c.SummaryTable(summaryName)
	if !ok {
		return fmt.Errorf("catalog: no summary table %s", summaryName)
	}
	if st.Informational {
		return fmt.Errorf("catalog: exception AST %s must be materialized", summaryName)
	}
	c.exceptions[key(constraintName)] = st.Name
	c.version.Add(1)
	return nil
}

// ExceptionFor returns the exception AST linked to the constraint, if any.
func (c *Catalog) ExceptionFor(constraintName string) (*SummaryTable, bool) {
	name, ok := c.exceptions[key(constraintName)]
	if !ok {
		return nil, false
	}
	return c.SummaryTable(name)
}

// Version is bumped on every catalog mutation; the engine's plan cache
// keys on it. It may be read without the engine's lock.
func (c *Catalog) Version() int64 { return c.version.Load() }

// HardVersion is bumped only by structural DDL (tables, indexes, summary
// tables). A plan compiled with all soft rules disabled stays executable as
// long as HardVersion is unchanged, even when soft characterizations come
// and go — the validity condition behind §4.1's backup plans.
func (c *Catalog) HardVersion() int64 { return c.hard }

// touchHard records a structural change.
func (c *Catalog) touchHard() {
	c.version.Add(1)
	c.hard++
}

func key(name string) string { return strings.ToLower(name) }

// CreateTable registers a new table and its heap.
func (c *Catalog) CreateTable(def *schema.Table) (*TableEntry, error) {
	k := key(def.Name)
	if _, ok := c.tables[k]; ok {
		return nil, fmt.Errorf("catalog: table %s already exists", def.Name)
	}
	te := &TableEntry{Def: def, Heap: storage.NewHeap(def)}
	c.tables[k] = te
	c.touchHard()
	return te, nil
}

// DropTable removes a table, its indexes and constraints, and any summary
// tables or soft information defined over it.
func (c *Catalog) DropTable(name string) error {
	k := key(name)
	if _, ok := c.tables[k]; !ok {
		return fmt.Errorf("catalog: table %s does not exist", name)
	}
	delete(c.tables, k)
	for n, st := range c.summaries {
		if key(st.Base) == k {
			delete(c.summaries, n)
		}
	}
	for n, lc := range c.correls {
		if key(lc.Table) == k {
			delete(c.correls, n)
		}
	}
	for n, jh := range c.holes {
		if key(jh.LeftTable) == k || key(jh.RightTable) == k {
			delete(c.holes, n)
		}
	}
	c.touchHard()
	return nil
}

// Table returns the entry for the named table.
func (c *Catalog) Table(name string) (*TableEntry, error) {
	te, ok := c.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %s does not exist", name)
	}
	return te, nil
}

// TableNames lists tables in sorted order.
func (c *Catalog) TableNames() []string {
	out := make([]string, 0, len(c.tables))
	for _, te := range c.tables {
		out = append(out, te.Def.Name)
	}
	sort.Strings(out)
	return out
}

// CreateIndex builds a secondary index over existing rows.
func (c *Catalog) CreateIndex(name, table string, columns []string, unique bool) (*Index, error) {
	te, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	for _, ix := range te.Indexes {
		if strings.EqualFold(ix.Name, name) {
			return nil, fmt.Errorf("catalog: index %s already exists", name)
		}
	}
	ords := make([]int, len(columns))
	for i, col := range columns {
		o := te.Def.ColumnIndex(col)
		if o < 0 {
			return nil, fmt.Errorf("catalog: index %s: no column %s in %s", name, col, table)
		}
		ords[i] = o
	}
	ix := &Index{Name: name, Table: te.Def.Name, Columns: columns, Ordinal: ords, Unique: unique, Tree: NewIndexTree(te.Def, ords)}
	if err := loadIndex(te, ix, unique); err != nil {
		return nil, err
	}
	te.Indexes = append(te.Indexes, ix)
	c.touchHard()
	return ix, nil
}

// loadIndex fills ix's empty tree from every physical version of te's heap
// — the engine leaves a dead version's entries in place until Vacuum, so an
// index built or restored now must carry them too — as one run of (key, rid)
// pairs sorted once (btree.SortRun): the tree fills along its right edge
// with full nodes (btree.Tree.InsertRun). With unique set, which CREATE INDEX passes
// for a unique index, uniqueness is judged on live rows only: the error
// names the key of the first live row, in heap order, whose key a live row
// before it holds. CREATE INDEX and snapshot restore both build through it.
func loadIndex(te *TableEntry, ix *Index, unique bool) error {
	w, n := len(ix.Ordinal), int(te.Heap.PageCount())*te.Heap.RowsPerPage()
	slab := make([]types.Datum, 0, n*w)
	run := make([]btree.Entry, 0, n)
	te.Heap.ScanVersions(func(id storage.RowID, row types.Row) bool {
		for _, o := range ix.Ordinal {
			slab = append(slab, row[o])
		}
		run = append(run, btree.Entry{RID: id})
		return true
	})
	for j := range run {
		run[j].Key = slab[j*w : (j+1)*w : (j+1)*w]
	}
	btree.SortRun(run)
	if unique {
		var dup *btree.Entry
		for j := 0; j < len(run); {
			k, live := j, 0
			for ; k < len(run) && run[k].Key.Equal(run[j].Key); k++ {
				if !te.Heap.Sees(run[k].RID, storage.SnapLatest, 0) {
					continue
				}
				if live++; live == 2 && (dup == nil || run[k].RID.Compare(dup.RID) < 0) {
					dup = &run[k]
				}
			}
			j = k
		}
		if dup != nil {
			return fmt.Errorf("catalog: cannot build unique index %s: duplicate key %s", ix.Name, dup.Key)
		}
	}
	ix.Tree.InsertRun(run, nil)
	return nil
}

// IndexOn returns an index whose leading columns cover the given column
// ordinal, preferring single-column exact matches.
func (te *TableEntry) IndexOn(ordinal int) *Index {
	var best *Index
	for _, ix := range te.Indexes {
		if ix.Ordinal[0] == ordinal {
			if len(ix.Ordinal) == 1 {
				return ix
			}
			if best == nil {
				best = ix
			}
		}
	}
	return best
}

// AddConstraint validates and registers a constraint. For ModeEnforced and
// ModeSoftAbsolute the current rows must satisfy it; the caller (engine)
// performs that scan and passes verified=true, or uses CheckConstraintRows
// itself first.
func (c *Catalog) AddConstraint(con *Constraint) error {
	te, err := c.Table(con.Table)
	if err != nil {
		return err
	}
	if con.Name == "" {
		con.Name = fmt.Sprintf("%s_%s_%d", strings.ToLower(con.Table), strings.ToLower(kindSlug(con.Kind)), len(te.Constraints)+1)
	}
	for _, existing := range te.Constraints {
		if strings.EqualFold(existing.Name, con.Name) {
			return fmt.Errorf("catalog: constraint %s already exists on %s", con.Name, con.Table)
		}
	}
	for _, col := range con.Columns {
		if te.Def.ColumnIndex(col) < 0 {
			return fmt.Errorf("catalog: constraint %s: no column %s in %s", con.Name, col, con.Table)
		}
	}
	if con.Kind == ForeignKey {
		ref, err := c.Table(con.RefTable)
		if err != nil {
			return fmt.Errorf("catalog: constraint %s: %w", con.Name, err)
		}
		if len(con.RefColumns) != len(con.Columns) {
			return fmt.Errorf("catalog: constraint %s: column count mismatch", con.Name)
		}
		for _, col := range con.RefColumns {
			if ref.Def.ColumnIndex(col) < 0 {
				return fmt.Errorf("catalog: constraint %s: no column %s in %s", con.Name, col, con.RefTable)
			}
		}
	}
	if con.Kind == FuncDep {
		for _, col := range con.DepColumns {
			if te.Def.ColumnIndex(col) < 0 {
				return fmt.Errorf("catalog: constraint %s: no column %s in %s", con.Name, col, con.Table)
			}
		}
	}
	if con.Confidence == 0 && con.Mode != ModeSoftStatistical {
		con.Confidence = 1
	}
	con.Active = true
	con.VerifiedVersion = te.Heap.Version()
	te.Constraints = append(te.Constraints, con)
	c.version.Add(1)
	return nil
}

func kindSlug(k Kind) string {
	switch k {
	case PrimaryKey:
		return "pk"
	case Unique:
		return "uq"
	case ForeignKey:
		return "fk"
	case Check:
		return "ck"
	case FuncDep:
		return "fd"
	default:
		return "con"
	}
}

// DropConstraint removes the named constraint from the table.
func (c *Catalog) DropConstraint(table, name string) error {
	te, err := c.Table(table)
	if err != nil {
		return err
	}
	for i, con := range te.Constraints {
		if strings.EqualFold(con.Name, name) {
			te.Constraints = append(te.Constraints[:i], te.Constraints[i+1:]...)
			c.version.Add(1)
			return nil
		}
	}
	return fmt.Errorf("catalog: no constraint %s on %s", name, table)
}

// DeactivateConstraint marks a constraint inactive (the ASC
// drop-on-violation path, §4.1) without removing its catalog entry.
func (c *Catalog) DeactivateConstraint(table, name string) error {
	te, err := c.Table(table)
	if err != nil {
		return err
	}
	for _, con := range te.Constraints {
		if strings.EqualFold(con.Name, name) {
			con.Active = false
			c.version.Add(1)
			return nil
		}
	}
	return fmt.Errorf("catalog: no constraint %s on %s", name, table)
}

// Constraints returns the constraints on a table (nil if none).
func (c *Catalog) Constraints(table string) []*Constraint {
	te, err := c.Table(table)
	if err != nil {
		return nil
	}
	return te.Constraints
}

// ConstraintByName finds a constraint anywhere in the catalog.
func (c *Catalog) ConstraintByName(name string) *Constraint {
	for _, te := range c.tables {
		for _, con := range te.Constraints {
			if strings.EqualFold(con.Name, name) {
				return con
			}
		}
	}
	return nil
}

// --- Summary tables (ASTs) ---

// CreateSummaryTable registers an AST over a base table. Materialization of
// existing rows is performed by the engine, which owns row visibility.
func (c *Catalog) CreateSummaryTable(st *SummaryTable) error {
	if _, ok := c.summaries[key(st.Name)]; ok {
		return fmt.Errorf("catalog: summary table %s already exists", st.Name)
	}
	if _, ok := c.tables[key(st.Name)]; ok {
		return fmt.Errorf("catalog: %s already names a table", st.Name)
	}
	base, err := c.Table(st.Base)
	if err != nil {
		return err
	}
	st.Def = base.Def
	if !st.Informational {
		st.Heap = storage.NewHeap(base.Def)
	}
	c.summaries[key(st.Name)] = st
	c.touchHard()
	return nil
}

// SummaryTable returns the named AST.
func (c *Catalog) SummaryTable(name string) (*SummaryTable, bool) {
	st, ok := c.summaries[key(name)]
	return st, ok
}

// SummariesOn returns the ASTs defined over the given base table.
func (c *Catalog) SummariesOn(base string) []*SummaryTable {
	var out []*SummaryTable
	for _, st := range c.summaries {
		if strings.EqualFold(st.Base, base) {
			out = append(out, st)
		}
	}
	slices.SortFunc(out, func(a, b *SummaryTable) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// DropSummaryTable removes an AST.
func (c *Catalog) DropSummaryTable(name string) error {
	if _, ok := c.summaries[key(name)]; !ok {
		return fmt.Errorf("catalog: summary table %s does not exist", name)
	}
	delete(c.summaries, key(name))
	c.touchHard()
	return nil
}

// --- Linear correlations ---

// AddCorrelation registers a mined linear correlation.
func (c *Catalog) AddCorrelation(lc *LinearCorrelation) error {
	if _, err := c.Table(lc.Table); err != nil {
		return err
	}
	if lc.Name == "" {
		lc.Name = fmt.Sprintf("corr_%s_%s_%s", strings.ToLower(lc.Table), strings.ToLower(lc.ColA), strings.ToLower(lc.ColB))
	}
	if _, ok := c.correls[key(lc.Name)]; ok {
		return fmt.Errorf("catalog: correlation %s already exists", lc.Name)
	}
	lc.Active = true
	c.correls[key(lc.Name)] = lc
	c.version.Add(1)
	return nil
}

// Correlations returns active correlations over the given table.
func (c *Catalog) Correlations(table string) []*LinearCorrelation {
	var out []*LinearCorrelation
	for _, lc := range c.correls {
		if strings.EqualFold(lc.Table, table) && lc.Active {
			out = append(out, lc)
		}
	}
	slices.SortFunc(out, func(a, b *LinearCorrelation) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// CorrelationByName returns a correlation regardless of its active flag.
func (c *Catalog) CorrelationByName(name string) (*LinearCorrelation, bool) {
	lc, ok := c.correls[key(name)]
	return lc, ok
}

// DeactivateCorrelation marks a correlation unusable (violation handling).
func (c *Catalog) DeactivateCorrelation(name string) error {
	lc, ok := c.correls[key(name)]
	if !ok {
		return fmt.Errorf("catalog: no correlation %s", name)
	}
	lc.Active = false
	c.version.Add(1)
	return nil
}

// DropCorrelation removes a correlation entirely.
func (c *Catalog) DropCorrelation(name string) error {
	if _, ok := c.correls[key(name)]; !ok {
		return fmt.Errorf("catalog: no correlation %s", name)
	}
	delete(c.correls, key(name))
	c.version.Add(1)
	return nil
}

// --- Join holes ---

// AddJoinHoles registers a mined hole set.
func (c *Catalog) AddJoinHoles(jh *JoinHoles) error {
	if _, err := c.Table(jh.LeftTable); err != nil {
		return err
	}
	if _, err := c.Table(jh.RightTable); err != nil {
		return err
	}
	if jh.Name == "" {
		jh.Name = fmt.Sprintf("holes_%s_%s", strings.ToLower(jh.LeftTable), strings.ToLower(jh.RightTable))
	}
	if _, ok := c.holes[key(jh.Name)]; ok {
		return fmt.Errorf("catalog: join holes %s already exist", jh.Name)
	}
	jh.Active = true
	c.holes[key(jh.Name)] = jh
	c.version.Add(1)
	return nil
}

// JoinHolesFor returns active hole sets matching the given join, in either
// orientation; swapped reports that left/right in the result are reversed
// relative to the caller's orientation.
func (c *Catalog) JoinHolesFor(leftTable, leftCol, rightTable, rightCol string) (jh *JoinHoles, swapped bool) {
	for _, h := range c.holes {
		if !h.Active {
			continue
		}
		if strings.EqualFold(h.LeftTable, leftTable) && strings.EqualFold(h.JoinLeft, leftCol) &&
			strings.EqualFold(h.RightTable, rightTable) && strings.EqualFold(h.JoinRight, rightCol) {
			return h, false
		}
		if strings.EqualFold(h.LeftTable, rightTable) && strings.EqualFold(h.JoinLeft, rightCol) &&
			strings.EqualFold(h.RightTable, leftTable) && strings.EqualFold(h.JoinRight, leftCol) {
			return h, true
		}
	}
	return nil, false
}

// JoinHolesByName returns a hole set by name.
func (c *Catalog) JoinHolesByName(name string) (*JoinHoles, bool) {
	jh, ok := c.holes[key(name)]
	return jh, ok
}

// AllJoinHoles lists every hole set.
func (c *Catalog) AllJoinHoles() []*JoinHoles {
	var out []*JoinHoles
	for _, jh := range c.holes {
		out = append(out, jh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// JoinHolesOn lists, in name order, the join-hole sets with table on
// either side.
func (c *Catalog) JoinHolesOn(table string) []*JoinHoles {
	var out []*JoinHoles
	for _, jh := range c.holes {
		if strings.EqualFold(jh.LeftTable, table) || strings.EqualFold(jh.RightTable, table) {
			out = append(out, jh)
		}
	}
	slices.SortFunc(out, func(a, b *JoinHoles) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// Touch bumps the catalog version; used by soft-constraint maintenance when
// it mutates registered objects in place.
func (c *Catalog) Touch() { c.version.Add(1) }

// AddVirtualColumn registers a virtual column over the table. Statistics
// are collected by the engine's ANALYZE.
func (c *Catalog) AddVirtualColumn(table, name string, bound expr.Expr) (*VirtualColumn, error) {
	te, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	for _, v := range te.Virtual {
		if strings.EqualFold(v.Name, name) {
			return nil, fmt.Errorf("catalog: virtual column %s already exists on %s", name, table)
		}
	}
	vc := &VirtualColumn{Name: name, Expr: bound, Canon: expr.Canonical(bound)}
	te.Virtual = append(te.Virtual, vc)
	c.version.Add(1)
	return vc, nil
}

// SetStats installs collected statistics for a table.
func (c *Catalog) SetStats(table string, ts *stats.TableStats) error {
	te, err := c.Table(table)
	if err != nil {
		return err
	}
	te.Stats = ts
	c.version.Add(1)
	return nil
}
