package engine

import (
	"slices"
	"strings"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// softWrite is the one soft write hook: commit and WAL replay call it for
// every committed batch of row effects — a run of ops on one table that are
// all inserts or all deletes — in op order, so a recovered catalog evolves
// exactly as the live one did. An inserted batch runs the table's soft
// write guard: a row that violates an absolute characterization still
// commits, but the ASC or correlation is deactivated (§4.1's maintenance of
// last resort), and the join holes its values fall in are retired without
// running the join (§4.3's cheap repair). Then the ASTs take the rows'
// effects stamped ts (the commit timestamp live, storage.CommittedMin on
// replay), and §3.3's currency counters advance. Deactivations, retirements,
// their notices and the counters come out exactly as a row at a time would
// raise them; each characterization's time is charged to the economy ledger
// as one segment per call.
func (db *Database) softWrite(te *catalog.TableEntry, ops []writeOp, ts int64) {
	name := te.Def.Name
	corrs := db.cat.Correlations(name)
	holes := db.cat.JoinHolesOn(name)
	insert := !ops[0].del
	var events []softEvent
	var stopped map[*catalog.LinearCorrelation]int
	if insert {
		g := db.guardFor(te, corrs)
		runs := pageRuns(ops)
		for _, c := range g.checks {
			start := db.maintTimer()
			base := 0
			for _, r := range runs {
				g.sel = te.Heap.ViewRun(&g.b, int(r.page), int(r.lo), int(r.hi), g.sel)
				if at := g.first(c, &g.b); at >= 0 {
					c.bad = base + at
					break
				}
				base += int(r.hi - r.lo)
			}
			db.chargeMaint(c.name(), start)
			if c.bad >= 0 {
				events = append(events, softEvent{row: c.bad, rank: c.rank, check: c})
				if c.lc != nil {
					if stopped == nil {
						stopped = map[*catalog.LinearCorrelation]int{}
					}
					stopped[c.lc] = c.bad
				}
			}
		}
		for hi, jh := range holes {
			if !jh.Active {
				continue
			}
			start := db.maintTimer()
			for j, op := range ops {
				if dropped := dropHoles(jh, name, te, op.row); dropped > 0 {
					events = append(events, softEvent{row: j, rank: len(g.checks) + hi, jh: jh, dropped: dropped})
				}
			}
			db.chargeMaint(jh.Name, start)
		}
	}
	slices.SortStableFunc(events, func(a, b softEvent) int {
		if a.row != b.row {
			return a.row - b.row
		}
		return a.rank - b.rank
	})
	for _, e := range events {
		db.raise(name, e)
	}
	for _, st := range db.cat.SummariesOn(name) {
		start := db.maintTimer()
		for _, op := range ops {
			maintainSummary(st, op.row, insert, ts)
		}
		db.chargeMaint(st.Name, start)
	}
	bumpCurrency(te, corrs, holes, int64(len(ops)), stopped)
}

// bumpCurrency advances §3.3's staleness counters by n modifications on the
// table's statistical soft constraints, its active correlations corrs and
// its join-hole sets — less, for a correlation in stopped, the
// modifications from the one that deactivated it on (stopped maps it to
// that modification's index).
func bumpCurrency(te *catalog.TableEntry, corrs []*catalog.LinearCorrelation, holes []*catalog.JoinHoles, n int64, stopped map[*catalog.LinearCorrelation]int) {
	for _, con := range te.Constraints {
		if con.Mode == catalog.ModeSoftStatistical {
			con.ModsSince += n
		}
	}
	for _, lc := range corrs {
		if at, ok := stopped[lc]; ok {
			lc.ModsSince += int64(at)
		} else if lc.Active {
			lc.ModsSince += n
		}
	}
	for _, jh := range holes {
		jh.ModsSince += n
	}
}

// softEvent is one effect the soft write hook raises: an absolute
// characterization a row violated, or holes a row retired. row and rank
// order the events as a row at a time raises them: by row, then ASCs in
// constraint order, correlations by name, hole sets by name.
type softEvent struct {
	row, rank int
	check     *softCheck
	jh        *catalog.JoinHoles
	dropped   int
}

// raise applies e to the catalog and reports it.
func (db *Database) raise(table string, e softEvent) {
	switch c := e.check; {
	case c != nil && c.con != nil:
		_ = db.cat.DeactivateConstraint(table, c.con.Name)
		db.obs.metrics.Counter(mASCViolations).Inc()
		db.notify("ASC %s on %s deactivated by violating write", c.con.Name, table)
	case c != nil:
		_ = db.cat.DeactivateCorrelation(c.lc.Name)
		db.obs.metrics.Counter(mCorrDrops).Inc()
		db.notify("linear correlation %s deactivated by violating write", c.lc.Name)
	default:
		db.cat.Touch()
		db.obs.metrics.Counter(mHolesRetired).Add(int64(e.dropped))
		db.notify("join holes %s: %d holes retired by write to %s", e.jh.Name, e.dropped, table)
	}
}

// dropHoles retires the holes of jh that row's values on table fall in and
// returns how many went.
func dropHoles(jh *catalog.JoinHoles, table string, te *catalog.TableEntry, row types.Row) int {
	var dropped int
	if strings.EqualFold(jh.LeftTable, table) {
		if ord := te.Def.ColumnIndex(jh.AttrLeft); ord >= 0 && !row[ord].IsNull() {
			dropped += jh.DropHolesIntersecting(expr.Point(row[ord]), expr.Unbounded())
		}
	}
	if strings.EqualFold(jh.RightTable, table) {
		if ord := te.Def.ColumnIndex(jh.AttrRight); ord >= 0 && !row[ord].IsNull() {
			dropped += jh.DropHolesIntersecting(expr.Unbounded(), expr.Point(row[ord]))
		}
	}
	return dropped
}

// batchEnd returns the end of the batch of ops that starts at i: the run of
// ops on one table that all insert or all delete.
func batchEnd(ops []writeOp, i int) int {
	j := i + 1
	for j < len(ops) && ops[j].te == ops[i].te && ops[j].del == ops[i].del {
		j++
	}
	return j
}

// slotRun is slots [lo, hi) of one heap page.
type slotRun struct{ page, lo, hi int32 }

// pageRuns groups the ids of an insert batch, which a batch append gave
// consecutive slots, into runs of slots per page.
func pageRuns(ops []writeOp) []slotRun {
	var runs []slotRun
	for _, op := range ops {
		if k := len(runs) - 1; k >= 0 && runs[k].page == op.rid.Page && runs[k].hi == op.rid.Slot {
			runs[k].hi++
			continue
		}
		runs = append(runs, slotRun{page: op.rid.Page, lo: op.rid.Slot, hi: op.rid.Slot + 1})
	}
	return runs
}

// softGuard is a table's soft write guard: the characterizations every
// inserted row must satisfy, tested over column batches. Its checks are the
// active soft absolute CHECKs, compiled into predicate programs, and the
// active absolute linear correlations, run as an envelope test over their
// two columns. Commit runs it over an inserted batch's page runs, recovery
// over every page of a table.
type softGuard struct {
	kinds  []types.Kind // the table's column kinds
	checks []*softCheck
	// Scratch the commit hook reuses from one batch to the next: the page
	// run's column batch, its selection and the stages' outputs.
	b    vec.Batch
	sel  []int32
	bufs [2][]int32
}

// softCheck is one characterization of a guard; bad is the first violating
// row it found (-1: none yet), rank its place in the per-row order.
type softCheck struct {
	con  *catalog.Constraint
	prog *expr.PredProgram
	lc   *catalog.LinearCorrelation
	a, b int
	rank int
	bad  int
}

func (c *softCheck) name() string {
	if c.con != nil {
		return c.con.Name
	}
	return c.lc.Name
}

// guardFor returns te's soft write guard, compiled once per catalog
// version — a characterization that is added, dropped or deactivated bumps
// it — with no violation found yet. corrs are the table's correlations.
// Called with db.mu held exclusively.
func (db *Database) guardFor(te *catalog.TableEntry, corrs []*catalog.LinearCorrelation) *softGuard {
	if v := db.cat.Version(); db.guards == nil || db.guardsAt != v {
		db.guards, db.guardsAt = map[*catalog.TableEntry]*softGuard{}, v
	}
	g := db.guards[te]
	if g == nil {
		g = newSoftGuard(te, corrs)
		db.guards[te] = g
	}
	for _, c := range g.checks {
		c.bad = -1
	}
	return g
}

// newSoftGuard builds te's guard; corrs are the table's correlations.
func newSoftGuard(te *catalog.TableEntry, corrs []*catalog.LinearCorrelation) *softGuard {
	g := &softGuard{kinds: te.Heap.Kinds()}
	for _, con := range te.Constraints {
		if !con.Active || con.Mode != catalog.ModeSoftAbsolute || con.Kind != catalog.Check || con.CheckExpr == nil {
			continue
		}
		g.checks = append(g.checks, &softCheck{con: con, prog: expr.CompilePredicate(expr.SplitConjuncts(con.CheckExpr)), bad: -1})
	}
	for _, lc := range corrs {
		if !lc.IsAbsolute() {
			continue
		}
		a, b := te.Def.ColumnIndex(lc.ColA), te.Def.ColumnIndex(lc.ColB)
		if a < 0 || b < 0 {
			continue
		}
		g.checks = append(g.checks, &softCheck{lc: lc, a: a, b: b, bad: -1})
	}
	for i, c := range g.checks {
		c.rank = i
	}
	return g
}

// first returns the position in b's selection of the first selected row
// that c rejects, or -1.
func (g *softGuard) first(c *softCheck, b *vec.Batch) int {
	if c.lc != nil {
		return firstOutside(c.lc, b, g.kinds, c.a, c.b)
	}
	// The program keeps the rows the CHECK holds TRUE for. A row it drops
	// is NULL or FALSE, or raised an error: Admits, the CHECK's one row
	// test, decides those.
	kept := b.Sel
	for i := range c.prog.Stages {
		if len(kept) == 0 {
			break
		}
		buf := g.bufs[i%2]
		if cap(buf) < len(kept) {
			buf = make([]int32, 0, b.Size())
			g.bufs[i%2] = buf
		}
		out, err := c.prog.RunStage(i, b, kept, buf)
		if err != nil {
			kept = nil
			break
		}
		kept = out
	}
	if len(kept) == len(b.Sel) {
		return -1
	}
	k := 0
	for pos, idx := range b.Sel {
		if k < len(kept) && kept[k] == idx {
			k++
			continue
		}
		if ok, _ := c.con.Admits(b.View(int(idx))); !ok {
			return pos
		}
	}
	return -1
}

// firstOutside returns the position in b's selection of the first selected
// row whose (a, b) pair lies outside lc's envelope, or -1; NULLs pass, as
// LinearCorrelation.Admits has it. Numeric columns are read as float64s
// straight from the batch's arrays.
func firstOutside(lc *catalog.LinearCorrelation, b *vec.Batch, kinds []types.Kind, ca, cb int) int {
	fa, fb := floatsOf(b, kinds[ca], ca), floatsOf(b, kinds[cb], cb)
	for pos, idx := range b.Sel {
		if fa == nil || fb == nil {
			da, _ := b.Datum(int(idx), ca)
			db, _ := b.Datum(int(idx), cb)
			if !lc.Admits(da, db) {
				return pos
			}
			continue
		}
		x, okX := fa(idx)
		y, okY := fb(idx)
		if okX && okY && !lc.AdmitsFloat(x, y) {
			return pos
		}
	}
	return -1
}

// floatsOf returns a reader of column c of b, of kind k, as float64s (ok
// false for NULL), or nil when the column is not INT, DATE or FLOAT.
func floatsOf(b *vec.Batch, k types.Kind, c int) func(int32) (float64, bool) {
	switch k {
	case types.KindFloat:
		col := b.Col(c, vec.ClassFloat)
		return func(i int32) (float64, bool) { return col.Floats[i], !col.Nulls[i] }
	case types.KindInt, types.KindDate:
		col := b.Col(c, vec.ClassInt)
		return func(i int32) (float64, bool) { return float64(col.Ints[i]), !col.Nulls[i] }
	}
	return nil
}
