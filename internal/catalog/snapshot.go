package catalog

// Checkpoint serialization: EncodeState/DecodeState capture the whole
// catalog — table definitions, heap page images (dead slots included, so
// RowIDs survive), indexes, constraints, statistics, summary tables,
// virtual columns, correlations, join holes, and exception links — while
// EncodeSoftRegistry/DecodeSoftRegistry capture just the mutable
// soft-characterization state, the image a TypeSoft WAL record carries.
//
// Everything is built from the internal/wire/codec primitives, so row
// images in a snapshot are byte-identical to the same rows in WAL records
// and on the client wire.
//
// Expressions (CHECK predicates, summary WHERE clauses, virtual columns)
// are persisted as their String() rendering and re-bound at decode through
// an ExprBinder the engine supplies — the catalog cannot parse SQL itself
// without an import cycle. Index trees are rebuilt from the restored
// heaps; they are derived state, not logged state.

import (
	"fmt"
	"sort"

	"softdb/internal/expr"
	"softdb/internal/schema"
	"softdb/internal/stats"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/wire/codec"
)

// ExprBinder parses an expression rendered by expr.Expr.String() and binds
// it to the table's column ordinals. The engine supplies its parser.
type ExprBinder func(exprSQL string, def *schema.Table) (expr.Expr, error)

// snapVersion guards the checkpoint payload layout, registryVersion the
// soft registry image a TypeSoft WAL record carries and a checkpoint ends
// with.
const (
	snapVersion     = 2
	registryVersion = 1
)

// Exceptions returns a copy of the constraint→exception-AST links.
func (c *Catalog) Exceptions() map[string]string {
	out := make(map[string]string, len(c.exceptions))
	for k, v := range c.exceptions {
		out[k] = v
	}
	return out
}

// AllCorrelations lists every correlation — inactive and probationary ones
// included — in name order. Correlations() filters to active; snapshots
// and the crash-differential tests need the full registry.
func (c *Catalog) AllCorrelations() []*LinearCorrelation {
	out := make([]*LinearCorrelation, 0, len(c.correls))
	for _, lc := range c.correls {
		out = append(out, lc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AllSummaries lists every summary table in name order.
func (c *Catalog) AllSummaries() []*SummaryTable {
	out := make([]*SummaryTable, 0, len(c.summaries))
	for _, st := range c.summaries {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- primitive helpers ---

func appendOptDatum(b []byte, d types.Datum) ([]byte, error) {
	return codec.AppendDatum(b, d) // NULL encodes as its own kind; no flag needed
}

func appendInterval(b []byte, iv expr.Interval) ([]byte, error) {
	var flags byte
	if iv.HasLo {
		flags |= 1
	}
	if iv.HasHi {
		flags |= 2
	}
	if iv.LoIncl {
		flags |= 4
	}
	if iv.HiIncl {
		flags |= 8
	}
	if iv.ExactEmpty {
		flags |= 16
	}
	if iv.EqualityConstant != nil {
		flags |= 32
	}
	b = append(b, flags)
	var err error
	if b, err = appendOptDatum(b, iv.Lo); err != nil {
		return nil, err
	}
	if b, err = appendOptDatum(b, iv.Hi); err != nil {
		return nil, err
	}
	if iv.EqualityConstant != nil {
		if b, err = appendOptDatum(b, *iv.EqualityConstant); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeInterval(d *codec.Decoder) expr.Interval {
	flags := d.Byte("interval flags")
	iv := expr.Interval{
		HasLo:      flags&1 != 0,
		HasHi:      flags&2 != 0,
		LoIncl:     flags&4 != 0,
		HiIncl:     flags&8 != 0,
		ExactEmpty: flags&16 != 0,
	}
	iv.Lo = d.Datum()
	iv.Hi = d.Datum()
	if flags&32 != 0 {
		eq := d.Datum()
		iv.EqualityConstant = &eq
	}
	return iv
}

func appendColumnStats(b []byte, cs *stats.ColumnStats) ([]byte, error) {
	if cs == nil {
		return codec.AppendBool(b, false), nil
	}
	b = codec.AppendBool(b, true)
	b = codec.AppendString(b, cs.Column)
	b = append(b, byte(cs.Kind))
	b = codec.AppendVarint(b, cs.RowCount)
	b = codec.AppendVarint(b, cs.NullCount)
	b = codec.AppendVarint(b, cs.NDV)
	var err error
	if b, err = appendOptDatum(b, cs.Min); err != nil {
		return nil, err
	}
	if b, err = appendOptDatum(b, cs.Max); err != nil {
		return nil, err
	}
	b = codec.AppendFloat(b, cs.ClusterRatio)
	if cs.Hist == nil {
		b = codec.AppendBool(b, false)
	} else {
		b = codec.AppendBool(b, true)
		b = codec.AppendUvarint(b, uint64(len(cs.Hist.UpperBounds)))
		for i := range cs.Hist.UpperBounds {
			if b, err = appendOptDatum(b, cs.Hist.UpperBounds[i]); err != nil {
				return nil, err
			}
			b = codec.AppendVarint(b, cs.Hist.Counts[i])
			b = codec.AppendVarint(b, cs.Hist.Distinct[i])
		}
		b = codec.AppendVarint(b, cs.Hist.Total)
	}
	b = codec.AppendUvarint(b, uint64(len(cs.MCVs)))
	for _, vf := range cs.MCVs {
		if b, err = appendOptDatum(b, vf.Value); err != nil {
			return nil, err
		}
		b = codec.AppendVarint(b, vf.Count)
	}
	return b, nil
}

func decodeColumnStats(d *codec.Decoder) *stats.ColumnStats {
	if !d.Bool("column stats present") {
		return nil
	}
	cs := &stats.ColumnStats{
		Column:    d.String("stats column"),
		Kind:      types.Kind(d.Byte("stats kind")),
		RowCount:  d.Varint("stats rows"),
		NullCount: d.Varint("stats nulls"),
		NDV:       d.Varint("stats ndv"),
	}
	cs.Min = d.Datum()
	cs.Max = d.Datum()
	cs.ClusterRatio = d.Float("stats cluster ratio")
	if d.Bool("histogram present") {
		n := d.Uvarint("histogram buckets")
		if n > uint64(d.Len()) {
			d.Fail("histogram buckets")
			return nil
		}
		h := &stats.Histogram{}
		for i := uint64(0); i < n; i++ {
			h.UpperBounds = append(h.UpperBounds, d.Datum())
			h.Counts = append(h.Counts, d.Varint("histogram count"))
			h.Distinct = append(h.Distinct, d.Varint("histogram distinct"))
		}
		h.Total = d.Varint("histogram total")
		cs.Hist = h
	}
	n := d.Uvarint("mcv count")
	if n > uint64(d.Len()) {
		d.Fail("mcv count")
		return nil
	}
	for i := uint64(0); i < n; i++ {
		v := d.Datum()
		cs.MCVs = append(cs.MCVs, stats.ValueFreq{Value: v, Count: d.Varint("mcv freq")})
	}
	return cs
}

func appendTableStats(b []byte, ts *stats.TableStats) ([]byte, error) {
	if ts == nil {
		return codec.AppendBool(b, false), nil
	}
	b = codec.AppendBool(b, true)
	b = codec.AppendString(b, ts.Table)
	b = codec.AppendVarint(b, ts.RowCount)
	b = codec.AppendVarint(b, ts.Pages)
	b = codec.AppendVarint(b, ts.Version)
	keys := sortedKeys(ts.Columns)
	b = codec.AppendUvarint(b, uint64(len(keys)))
	var err error
	for _, k := range keys {
		b = codec.AppendString(b, k)
		if b, err = appendColumnStats(b, ts.Columns[k]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeTableStats(d *codec.Decoder) *stats.TableStats {
	if !d.Bool("table stats present") {
		return nil
	}
	ts := &stats.TableStats{
		Table:    d.String("table stats name"),
		RowCount: d.Varint("table stats rows"),
		Pages:    d.Varint("table stats pages"),
		Version:  d.Varint("table stats version"),
		Columns:  map[string]*stats.ColumnStats{},
	}
	n := d.Uvarint("table stats columns")
	if n > uint64(d.Len()) {
		d.Fail("table stats columns")
		return nil
	}
	for i := uint64(0); i < n; i++ {
		k := d.String("table stats column key")
		ts.Columns[k] = decodeColumnStats(d)
	}
	return ts
}

// appendHeap encodes h's physical layout slot by slot straight from its
// pages (storage.Heap.Dump): no row is built, so a checkpoint allocates
// nothing per slot.
func appendHeap(b []byte, h *storage.Heap) ([]byte, error) {
	b = codec.AppendVarint(b, h.Version())
	b = codec.AppendUvarint(b, uint64(h.PageCount()))
	var err error
	h.Dump(func(slots int) {
		b = codec.AppendUvarint(b, uint64(slots))
	}, func(row types.Row) {
		b = codec.AppendBool(b, row == nil)
		if err == nil {
			b, err = codec.AppendRow(b, row)
		}
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

func decodeHeap(d *codec.Decoder, def *schema.Table) *storage.Heap {
	version := d.Varint("heap version")
	np := d.Uvarint("heap pages")
	if np > uint64(d.Len()) {
		d.Fail("heap pages")
		return nil
	}
	pages := make([][]storage.SlotData, 0, np)
	for p := uint64(0); p < np; p++ {
		ns := d.Uvarint("heap slots")
		if ns > uint64(d.Len()) {
			d.Fail("heap slots")
			return nil
		}
		slots := make([]storage.SlotData, 0, ns)
		for s := uint64(0); s < ns; s++ {
			dead := d.Bool("slot dead")
			row := d.Row("slot row")
			if !dead && !rowFits(def, row) {
				d.Fail("slot row")
			}
			slots = append(slots, storage.SlotData{Dead: dead, Row: row})
		}
		pages = append(pages, slots)
	}
	if d.Err() != nil {
		return nil
	}
	return storage.RebuildHeap(def, pages, version)
}

// rowFits reports whether row can be stored under def: one value per
// column, each NULL or of its column's kind.
func rowFits(def *schema.Table, row types.Row) bool {
	if len(row) != len(def.Columns) {
		return false
	}
	for i, v := range row {
		if !v.IsNull() && v.Kind() != def.Columns[i].Type {
			return false
		}
	}
	return true
}

func appendExpr(b []byte, e expr.Expr) []byte {
	if e == nil {
		return codec.AppendBool(b, false)
	}
	b = codec.AppendBool(b, true)
	return codec.AppendString(b, e.String())
}

func decodeExpr(d *codec.Decoder, what string, def *schema.Table, bind ExprBinder) (expr.Expr, error) {
	if !d.Bool(what + " present") {
		return nil, nil
	}
	text := d.String(what + " text")
	if d.Err() != nil {
		return nil, d.Err()
	}
	e, err := bind(text, def)
	if err != nil {
		return nil, fmt.Errorf("catalog: rebind %s %q: %w", what, text, err)
	}
	return e, nil
}

func appendStrings(b []byte, ss []string) []byte {
	b = codec.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = codec.AppendString(b, s)
	}
	return b
}

func decodeStrings(d *codec.Decoder, what string) []string {
	n := d.Uvarint(what)
	if n > uint64(d.Len()) {
		d.Fail(what)
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.String(what))
	}
	return out
}

// --- constraints, correlations, holes ---

func appendConstraint(b []byte, con *Constraint) ([]byte, error) {
	b = codec.AppendString(b, con.Name)
	b = append(b, byte(con.Kind), byte(con.Mode))
	b = codec.AppendString(b, con.Table)
	b = appendStrings(b, con.Columns)
	b = codec.AppendString(b, con.RefTable)
	b = appendStrings(b, con.RefColumns)
	b = appendExpr(b, con.CheckExpr)
	b = appendStrings(b, con.DepColumns)
	b = codec.AppendFloat(b, con.Confidence)
	b = codec.AppendBool(b, con.Active)
	b = codec.AppendVarint(b, con.VerifiedVersion)
	b = codec.AppendVarint(b, con.ModsSince)
	return b, nil
}

func decodeConstraint(d *codec.Decoder, def *schema.Table, bind ExprBinder) (*Constraint, error) {
	con := &Constraint{Name: d.String("constraint name")}
	con.Kind = Kind(d.Byte("constraint kind"))
	con.Mode = Mode(d.Byte("constraint mode"))
	con.Table = d.String("constraint table")
	con.Columns = decodeStrings(d, "constraint columns")
	con.RefTable = d.String("constraint ref table")
	con.RefColumns = decodeStrings(d, "constraint ref columns")
	var err error
	if con.CheckExpr, err = decodeExpr(d, "check expr", def, bind); err != nil {
		return nil, err
	}
	con.DepColumns = decodeStrings(d, "constraint dep columns")
	con.Confidence = d.Float("constraint confidence")
	con.Active = d.Bool("constraint active")
	con.VerifiedVersion = d.Varint("constraint verified version")
	con.ModsSince = d.Varint("constraint mods since")
	return con, d.Err()
}

func appendCorrelation(b []byte, lc *LinearCorrelation) []byte {
	b = codec.AppendString(b, lc.Name)
	b = codec.AppendString(b, lc.Table)
	b = codec.AppendString(b, lc.ColA)
	b = codec.AppendString(b, lc.ColB)
	b = codec.AppendFloat(b, lc.K)
	b = codec.AppendFloat(b, lc.B0)
	b = codec.AppendFloat(b, lc.Eps)
	b = codec.AppendFloat(b, lc.Confidence)
	b = codec.AppendBool(b, lc.Active)
	b = codec.AppendBool(b, lc.Probation)
	b = codec.AppendVarint(b, lc.VerifiedVersion)
	b = codec.AppendVarint(b, lc.ModsSince)
	return b
}

func decodeCorrelation(d *codec.Decoder) *LinearCorrelation {
	lc := &LinearCorrelation{Name: d.String("correlation name")}
	lc.Table = d.String("correlation table")
	lc.ColA = d.String("correlation colA")
	lc.ColB = d.String("correlation colB")
	lc.K = d.Float("correlation k")
	lc.B0 = d.Float("correlation b0")
	lc.Eps = d.Float("correlation eps")
	lc.Confidence = d.Float("correlation confidence")
	lc.Active = d.Bool("correlation active")
	lc.Probation = d.Bool("correlation probation")
	lc.VerifiedVersion = d.Varint("correlation verified version")
	lc.ModsSince = d.Varint("correlation mods since")
	return lc
}

func appendJoinHoles(b []byte, jh *JoinHoles) ([]byte, error) {
	b = codec.AppendString(b, jh.Name)
	b = codec.AppendString(b, jh.LeftTable)
	b = codec.AppendString(b, jh.RightTable)
	b = codec.AppendString(b, jh.JoinLeft)
	b = codec.AppendString(b, jh.JoinRight)
	b = codec.AppendString(b, jh.AttrLeft)
	b = codec.AppendString(b, jh.AttrRight)
	b = codec.AppendUvarint(b, uint64(len(jh.Holes)))
	var err error
	for _, h := range jh.Holes {
		if b, err = appendInterval(b, h.A); err != nil {
			return nil, err
		}
		if b, err = appendInterval(b, h.B); err != nil {
			return nil, err
		}
	}
	b = codec.AppendBool(b, jh.Active)
	b = codec.AppendVarint(b, jh.VerifiedVersion)
	b = codec.AppendVarint(b, jh.ModsSince)
	return b, nil
}

func decodeJoinHoles(d *codec.Decoder) *JoinHoles {
	jh := &JoinHoles{Name: d.String("holes name")}
	jh.LeftTable = d.String("holes left table")
	jh.RightTable = d.String("holes right table")
	jh.JoinLeft = d.String("holes join left")
	jh.JoinRight = d.String("holes join right")
	jh.AttrLeft = d.String("holes attr left")
	jh.AttrRight = d.String("holes attr right")
	n := d.Uvarint("holes count")
	if n > uint64(d.Len()) {
		d.Fail("holes count")
		return nil
	}
	for i := uint64(0); i < n; i++ {
		a := decodeInterval(d)
		jh.Holes = append(jh.Holes, Rect{A: a, B: decodeInterval(d)})
	}
	jh.Active = d.Bool("holes active")
	jh.VerifiedVersion = d.Varint("holes verified version")
	jh.ModsSince = d.Varint("holes mods since")
	return jh
}

func appendVirtual(b []byte, vc *VirtualColumn) ([]byte, error) {
	b = codec.AppendString(b, vc.Name)
	b = appendExpr(b, vc.Expr)
	return appendColumnStats(b, vc.Stats)
}

func decodeVirtual(d *codec.Decoder, def *schema.Table, bind ExprBinder) (*VirtualColumn, error) {
	vc := &VirtualColumn{Name: d.String("virtual column name")}
	var err error
	if vc.Expr, err = decodeExpr(d, "virtual column expr", def, bind); err != nil {
		return nil, err
	}
	if vc.Expr != nil {
		vc.Canon = expr.Canonical(vc.Expr)
	}
	vc.Stats = decodeColumnStats(d)
	return vc, d.Err()
}

// --- full catalog state ---

// EncodeState serializes the entire catalog onto b: table definitions,
// heaps, index definitions and stats, the summaries, then the soft
// registry image (EncodeSoftRegistry). Iteration orders are sorted, so
// identical catalogs encode to identical bytes — the property the
// crash-differential suite compares on.
func (c *Catalog) EncodeState(b []byte) ([]byte, error) {
	b = append(b, snapVersion)
	b = codec.AppendVarint(b, c.version.Load())
	b = codec.AppendVarint(b, c.hard)
	var err error

	b = codec.AppendUvarint(b, uint64(len(c.tables)))
	for _, k := range sortedKeys(c.tables) {
		te := c.tables[k]
		// Definition.
		b = codec.AppendString(b, te.Def.Name)
		b = codec.AppendUvarint(b, uint64(len(te.Def.Columns)))
		for _, col := range te.Def.Columns {
			b = codec.AppendString(b, col.Name)
			b = append(b, byte(col.Type))
			b = codec.AppendBool(b, col.Nullable)
		}
		// Heap.
		if b, err = appendHeap(b, te.Heap); err != nil {
			return nil, err
		}
		// Indexes: definition only; trees are rebuilt at decode.
		b = codec.AppendUvarint(b, uint64(len(te.Indexes)))
		for _, ix := range te.Indexes {
			b = codec.AppendString(b, ix.Name)
			b = appendStrings(b, ix.Columns)
			b = codec.AppendBool(b, ix.Unique)
		}
		if b, err = appendTableStats(b, te.Stats); err != nil {
			return nil, err
		}
	}

	b = codec.AppendUvarint(b, uint64(len(c.summaries)))
	for _, k := range sortedKeys(c.summaries) {
		st := c.summaries[k]
		b = codec.AppendString(b, st.Name)
		b = codec.AppendString(b, st.Base)
		b = appendExpr(b, st.Where)
		b = codec.AppendBool(b, st.Informational)
		b = codec.AppendVarint(b, st.RowCountEstimate)
		if b, err = appendTableStats(b, st.Stats); err != nil {
			return nil, err
		}
		if st.Heap == nil {
			b = codec.AppendBool(b, false)
		} else {
			b = codec.AppendBool(b, true)
			if b, err = appendHeap(b, st.Heap); err != nil {
				return nil, err
			}
		}
	}
	// Constraints, virtual columns, correlations, holes and exception
	// links: the soft registry image.
	return c.EncodeSoftRegistry(b)
}

// DecodeState reconstructs a catalog from an EncodeState payload. Index
// trees and page synopses are rebuilt from the restored heaps; version
// counters are restored exactly (none of the rebuild steps bump them).
func DecodeState(payload []byte, bind ExprBinder) (*Catalog, error) {
	d := codec.NewDecoder(payload)
	if v := d.Byte("snapshot version"); v != snapVersion && d.Err() == nil {
		return nil, fmt.Errorf("catalog: unsupported snapshot version %d", v)
	}
	c := New()
	c.version.Store(d.Varint("catalog version"))
	c.hard = d.Varint("catalog hard version")

	nt := d.Uvarint("table count")
	if nt > uint64(d.Len()) {
		d.Fail("table count")
		return nil, d.Err()
	}
	for i := uint64(0); i < nt; i++ {
		name := d.String("table name")
		nc := d.Uvarint("column count")
		if nc > uint64(d.Len()) {
			d.Fail("column count")
			return nil, d.Err()
		}
		cols := make([]schema.Column, 0, nc)
		for j := uint64(0); j < nc; j++ {
			col := schema.Column{Name: d.String("column name")}
			col.Type = types.Kind(d.Byte("column type"))
			col.Nullable = d.Bool("column nullable")
			if col.Type == types.KindNull || col.Type > types.KindDate {
				d.Fail("column type")
			}
			cols = append(cols, col)
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		def, err := schema.NewTable(name, cols...)
		if err != nil {
			return nil, fmt.Errorf("catalog: snapshot table %s: %w", name, err)
		}
		te := &TableEntry{Def: def}
		te.Heap = decodeHeap(d, def)
		ni := d.Uvarint("index count")
		if ni > uint64(d.Len()) {
			d.Fail("index count")
			return nil, d.Err()
		}
		for j := uint64(0); j < ni; j++ {
			ixName := d.String("index name")
			ixCols := decodeStrings(d, "index columns")
			unique := d.Bool("index unique")
			if len(ixCols) == 0 {
				d.Fail("index columns")
			}
			if d.Err() != nil {
				return nil, d.Err()
			}
			ords := make([]int, len(ixCols))
			for oi, col := range ixCols {
				if ords[oi] = def.ColumnIndex(col); ords[oi] < 0 {
					return nil, fmt.Errorf("catalog: snapshot index %s: no column %s", ixName, col)
				}
			}
			ix := &Index{Name: ixName, Table: def.Name, Columns: ixCols, Ordinal: ords, Unique: unique, Tree: NewIndexTree(def, ords)}
			// Rebuild over every physical version, not just live rows:
			// the engine leaves dead versions' index entries in place
			// until Vacuum, and restore must reproduce that state.
			te.Heap.ScanVersions(func(id storage.RowID, row types.Row) bool {
				ix.Tree.Insert(ix.KeyFor(row), id)
				return true
			})
			te.Indexes = append(te.Indexes, ix)
		}
		te.Stats = decodeTableStats(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		c.tables[key(def.Name)] = te
	}

	ns := d.Uvarint("summary count")
	if ns > uint64(d.Len()) {
		d.Fail("summary count")
		return nil, d.Err()
	}
	for i := uint64(0); i < ns; i++ {
		st := &SummaryTable{Name: d.String("summary name")}
		st.Base = d.String("summary base")
		base, ok := c.tables[key(st.Base)]
		if !ok {
			return nil, fmt.Errorf("catalog: snapshot summary %s: no base table %s", st.Name, st.Base)
		}
		st.Def = base.Def
		var err error
		if st.Where, err = decodeExpr(d, "summary where", base.Def, bind); err != nil {
			return nil, err
		}
		st.Informational = d.Bool("summary informational")
		st.RowCountEstimate = d.Varint("summary rowcount estimate")
		st.Stats = decodeTableStats(d)
		if d.Bool("summary heap present") {
			st.Heap = decodeHeap(d, base.Def)
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		c.summaries[key(st.Name)] = st
	}

	// The registry image is applied as a TypeSoft record's is, without
	// its version bump: restore keeps the versions exactly.
	if err := c.applySoftRegistry(d, bind); err != nil {
		return nil, err
	}
	return c, nil
}

// --- soft registry image (TypeSoft WAL records) ---

// EncodeSoftRegistry serializes the mutable soft-characterization state:
// every table's constraint list (soft fields like Active, Confidence, and
// currency included), virtual columns, correlations, join holes, and
// exception links. This is the image logged whenever the softc manager
// mutates the registry outside a logged statement; replay applies it as a
// full replacement.
func (c *Catalog) EncodeSoftRegistry(b []byte) ([]byte, error) {
	b = append(b, registryVersion)
	var err error
	b = codec.AppendUvarint(b, uint64(len(c.tables)))
	for _, k := range sortedKeys(c.tables) {
		te := c.tables[k]
		b = codec.AppendString(b, te.Def.Name)
		b = codec.AppendUvarint(b, uint64(len(te.Constraints)))
		for _, con := range te.Constraints {
			if b, err = appendConstraint(b, con); err != nil {
				return nil, err
			}
		}
		b = codec.AppendUvarint(b, uint64(len(te.Virtual)))
		for _, vc := range te.Virtual {
			if b, err = appendVirtual(b, vc); err != nil {
				return nil, err
			}
		}
	}
	b = codec.AppendUvarint(b, uint64(len(c.correls)))
	for _, k := range sortedKeys(c.correls) {
		b = appendCorrelation(b, c.correls[k])
	}
	b = codec.AppendUvarint(b, uint64(len(c.holes)))
	for _, k := range sortedKeys(c.holes) {
		if b, err = appendJoinHoles(b, c.holes[k]); err != nil {
			return nil, err
		}
	}
	b = codec.AppendUvarint(b, uint64(len(c.exceptions)))
	for _, k := range sortedKeys(c.exceptions) {
		b = codec.AppendString(b, k)
		b = codec.AppendString(b, c.exceptions[k])
	}
	return b, nil
}

// DecodeSoftRegistry applies an EncodeSoftRegistry image onto the catalog,
// replacing the soft registry wholesale. Tables named in the image must
// already exist (the image was taken after any DDL it depends on, and DDL
// records replay first). The catalog version is bumped once, mirroring the
// maintenance mutation that produced the image.
func (c *Catalog) DecodeSoftRegistry(payload []byte, bind ExprBinder) error {
	if err := c.applySoftRegistry(codec.NewDecoder(payload), bind); err != nil {
		return err
	}
	c.version.Add(1)
	return nil
}

// applySoftRegistry reads a registry image that runs to the end of d and,
// once all of it decoded, replaces the catalog's soft registry with it.
func (c *Catalog) applySoftRegistry(d *codec.Decoder, bind ExprBinder) error {
	if v := d.Byte("soft registry version"); v != registryVersion && d.Err() == nil {
		return fmt.Errorf("catalog: unsupported soft registry version %d", v)
	}
	nt := d.Uvarint("soft table count")
	if nt > uint64(d.Len()) {
		d.Fail("soft table count")
		return d.Err()
	}
	type tableSoft struct {
		te          *TableEntry
		constraints []*Constraint
		virtual     []*VirtualColumn
	}
	var staged []tableSoft
	for i := uint64(0); i < nt; i++ {
		name := d.String("soft table name")
		if d.Err() != nil {
			return d.Err()
		}
		te, ok := c.tables[key(name)]
		if !ok {
			return fmt.Errorf("catalog: soft registry references unknown table %s", name)
		}
		ts := tableSoft{te: te}
		ncon := d.Uvarint("soft constraint count")
		if ncon > uint64(d.Len()) {
			d.Fail("soft constraint count")
			return d.Err()
		}
		for j := uint64(0); j < ncon; j++ {
			con, err := decodeConstraint(d, te.Def, bind)
			if err != nil {
				return err
			}
			ts.constraints = append(ts.constraints, con)
		}
		nv := d.Uvarint("soft virtual count")
		if nv > uint64(d.Len()) {
			d.Fail("soft virtual count")
			return d.Err()
		}
		for j := uint64(0); j < nv; j++ {
			vc, err := decodeVirtual(d, te.Def, bind)
			if err != nil {
				return err
			}
			ts.virtual = append(ts.virtual, vc)
		}
		staged = append(staged, ts)
	}
	ncor := d.Uvarint("soft correlation count")
	if ncor > uint64(d.Len()) {
		d.Fail("soft correlation count")
		return d.Err()
	}
	correls := map[string]*LinearCorrelation{}
	for i := uint64(0); i < ncor; i++ {
		lc := decodeCorrelation(d)
		if d.Err() != nil {
			return d.Err()
		}
		correls[key(lc.Name)] = lc
	}
	nh := d.Uvarint("soft holes count")
	if nh > uint64(d.Len()) {
		d.Fail("soft holes count")
		return d.Err()
	}
	holes := map[string]*JoinHoles{}
	for i := uint64(0); i < nh; i++ {
		jh := decodeJoinHoles(d)
		if d.Err() != nil {
			return d.Err()
		}
		holes[key(jh.Name)] = jh
	}
	ne := d.Uvarint("soft exception count")
	if ne > uint64(d.Len()) {
		d.Fail("soft exception count")
		return d.Err()
	}
	exceptions := map[string]string{}
	for i := uint64(0); i < ne; i++ {
		k := d.String("soft exception constraint")
		exceptions[k] = d.String("soft exception summary")
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Len() != 0 {
		return fmt.Errorf("catalog: %d trailing bytes in soft registry image", d.Len())
	}
	// All decoded; apply.
	for _, ts := range staged {
		ts.te.Constraints = ts.constraints
		ts.te.Virtual = ts.virtual
	}
	c.correls = correls
	c.holes = holes
	c.exceptions = exceptions
	return nil
}
