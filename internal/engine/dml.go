package engine

import (
	"fmt"
	"strings"
	"time"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/sql"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/wal"
)

// insert evaluates the VALUES rows and applies them through the full
// constraint pipeline as uncommitted versions of tx.
func (db *Database) insert(tx *Tx, ins *sql.Insert) (*Result, error) {
	te, err := db.cat.Table(ins.Table)
	if err != nil {
		return nil, err
	}
	// Column mapping.
	mapping := make([]int, te.Def.Arity())
	if len(ins.Columns) == 0 {
		for i := range mapping {
			mapping[i] = i
		}
	} else {
		for i := range mapping {
			mapping[i] = -1
		}
		for vi, name := range ins.Columns {
			ord := te.Def.ColumnIndex(name)
			if ord < 0 {
				return nil, fmt.Errorf("engine: no column %s in %s", name, ins.Table)
			}
			mapping[ord] = vi
		}
	}
	var n int64
	for _, valueRow := range ins.Rows {
		want := len(ins.Columns)
		if want == 0 {
			want = te.Def.Arity()
		}
		if len(valueRow) != want {
			return nil, fmt.Errorf("engine: INSERT row has %d values, want %d", len(valueRow), want)
		}
		row := make(types.Row, te.Def.Arity())
		for ord := range row {
			vi := mapping[ord]
			if vi < 0 || vi >= len(valueRow) {
				row[ord] = types.Null
				continue
			}
			v, err := valueRow[vi].Eval(nil)
			if err != nil {
				return nil, err
			}
			row[ord] = v
		}
		validated, err := te.Def.ValidateRow(row)
		if err != nil {
			return nil, err
		}
		if err := db.applyInsert(tx, te, validated, storage.RowID{Page: -1}); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{RowsAffected: n}, nil
}

// InsertRow applies one validated row in its own implicit transaction:
// constraint checks per mode, heap and index insertion, and at commit the
// summary-table maintenance and soft-constraint currency bookkeeping.
// Exposed for generators and benchmarks that bypass SQL.
func (db *Database) InsertRow(te *catalog.TableEntry, row types.Row) error {
	tx := &Tx{t: db.txnMgr.Begin()}
	db.mu.RLock()
	db.writeMu.Lock()
	err := db.applyInsert(tx, te, row, storage.RowID{Page: -1})
	db.writeMu.Unlock()
	db.mu.RUnlock()
	if err != nil {
		db.rollbackTx(tx)
		return err
	}
	_, err = db.commitTx(tx)
	return err
}

// applyInsert installs row as an uncommitted version owned by tx, with its
// index entries, after the enforced-constraint checks. selfRid names the
// version an UPDATE is replacing so uniqueness ignores it; plain inserts
// pass an invalid rid. Called with db.mu shared + writeMu held.
func (db *Database) applyInsert(tx *Tx, te *catalog.TableEntry, row types.Row, selfRid storage.RowID) error {
	if err := db.checkConstraints(te, row, selfRid); err != nil {
		return err
	}
	db.touch(tx, te)
	rid := te.Heap.InsertVersion(row, tx.t.ID)
	for _, ix := range te.Indexes {
		ix.Tree.Insert(ix.KeyFor(row), rid)
	}
	tx.ops = append(tx.ops, writeOp{te: te, rid: rid, row: row})
	if db.dur != nil {
		tx.recs = append(tx.recs, &wal.Record{Type: wal.TypeInsert, TxnID: tx.t.ID, Table: te.Def.Name, RID: rid, Row: row})
	}
	return nil
}

// applyDelete ends the version at rid with tx's uncommitted stamp. The
// first-updater-wins check lives here: a version some other transaction
// already ended — committed after tx's snapshot or still in flight — is a
// write-write conflict. Index entries stay (heap visibility filters them);
// only rollback removes entries, and only the ones it added. Called with
// db.mu shared + writeMu held, which makes the check-then-stamp atomic.
func (db *Database) applyDelete(tx *Tx, te *catalog.TableEntry, rid storage.RowID, old types.Row) error {
	if _, end, ok := te.Heap.Meta(rid); !ok || end != 0 {
		return conflictError(te.Def.Name, rid)
	}
	db.touch(tx, te)
	te.Heap.SetEnd(rid, -tx.t.ID)
	tx.ops = append(tx.ops, writeOp{te: te, del: true, rid: rid, row: old})
	if db.dur != nil {
		tx.recs = append(tx.recs, &wal.Record{Type: wal.TypeDelete, TxnID: tx.t.ID, Table: te.Def.Name, RID: rid})
	}
	return nil
}

// checkConstraints enforces ModeEnforced constraints (reject on violation).
// selfRid identifies the row being replaced during UPDATE so uniqueness
// ignores it; inserts pass an invalid rid.
func (db *Database) checkConstraints(te *catalog.TableEntry, row types.Row, selfRid storage.RowID) error {
	for _, con := range te.Constraints {
		if !con.Active || con.Mode != catalog.ModeEnforced {
			continue
		}
		if err := db.checkOne(te, con, row, selfRid); err != nil {
			return err
		}
	}
	return nil
}

func (db *Database) checkOne(te *catalog.TableEntry, con *catalog.Constraint, row types.Row, selfRid storage.RowID) error {
	switch con.Kind {
	case catalog.Check:
		db.obs.checkEvals.Inc()
		ok, err := con.Admits(row)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("engine: row violates check constraint %s", con.Name)
		}
	case catalog.PrimaryKey, catalog.Unique:
		ords := ordinalsOf(te, con.Columns)
		key := row.Project(ords)
		if con.Kind == catalog.PrimaryKey {
			for _, d := range key {
				if d.IsNull() {
					return fmt.Errorf("engine: NULL in primary key %s", con.Name)
				}
			}
		} else {
			for _, d := range key {
				if d.IsNull() {
					return nil // SQL unique ignores NULL keys
				}
			}
		}
		// Uniqueness runs against the "dirty" view — any version a
		// committed-state reader could still come to see, including other
		// transactions' uncommitted inserts — so two in-flight transactions
		// cannot both claim a key. Index entries may point at dead versions
		// (commit never removes them), so each candidate is re-checked
		// against the heap.
		if ix := indexOver(te, con.Columns); ix != nil {
			dup := false
			ix.Tree.Lookup(key, nil, func(rid storage.RowID) bool {
				if rid != selfRid {
					if te.Heap.SeesAny(rid) {
						dup = true
					}
				}
				return !dup
			})
			if dup {
				return fmt.Errorf("engine: duplicate key %s violates %s", key, con.Name)
			}
			return nil
		}
		dup := false
		te.Heap.ScanDirty(func(rid storage.RowID, existing types.Row) bool {
			if rid != selfRid && existing.Project(ords).Equal(key) {
				dup = true
				return false
			}
			return true
		})
		if dup {
			return fmt.Errorf("engine: duplicate key %s violates %s", key, con.Name)
		}
	case catalog.ForeignKey:
		ords := ordinalsOf(te, con.Columns)
		key := row.Project(ords)
		for _, d := range key {
			if d.IsNull() {
				return nil
			}
		}
		ref, err := db.cat.Table(con.RefTable)
		if err != nil {
			return err
		}
		refOrds := ordinalsOf(ref, con.RefColumns)
		// The parent check uses the dirty view too: a parent another
		// transaction is inserting counts (it may commit), one whose delete
		// is uncommitted still counts (the delete may abort).
		if ix := indexOver(ref, con.RefColumns); ix != nil {
			found := false
			ix.Tree.Lookup(key, nil, func(rid storage.RowID) bool {
				if ref.Heap.SeesAny(rid) {
					found = true
				}
				return !found
			})
			if !found {
				return fmt.Errorf("engine: no parent row %s in %s for %s", key, con.RefTable, con.Name)
			}
			return nil
		}
		found := false
		ref.Heap.ScanDirty(func(_ storage.RowID, parent types.Row) bool {
			if parent.Project(refOrds).Equal(key) {
				found = true
				return false
			}
			return true
		})
		if !found {
			return fmt.Errorf("engine: no parent row %s in %s for %s", key, con.RefTable, con.Name)
		}
	case catalog.FuncDep:
		// FD enforcement would require a per-determinant lookup structure;
		// FDs in softdb are informational/soft only.
	}
	return nil
}

// softWrite is the one soft write hook: commit and WAL replay call it for
// every committed row effect, in op order, so a recovered catalog evolves
// exactly as the live one did. It walks the table's characterizations once.
// An inserted row that violates an absolute one still commits: the ASC or
// correlation is deactivated (§4.1's maintenance of last resort) and the
// join holes its values fall in are retired without running the join
// (§4.3's cheap repair). Then the ASTs take the row's effect stamped ts
// (the commit timestamp live, storage.CommittedMin on replay), and §3.3's
// currency counters advance. Each characterization's time is charged to
// the economy ledger.
func (db *Database) softWrite(te *catalog.TableEntry, row types.Row, insert bool, ts int64) {
	name := te.Def.Name
	corrs := db.cat.Correlations(name)
	holes := db.cat.JoinHolesOn(name)
	if insert {
		for _, con := range te.Constraints {
			if !con.Active || con.Mode != catalog.ModeSoftAbsolute || con.Kind != catalog.Check {
				continue
			}
			start := db.maintTimer()
			if ok, _ := con.Admits(row); !ok {
				_ = db.cat.DeactivateConstraint(name, con.Name)
				db.obs.metrics.Counter(mASCViolations).Inc()
				db.notify("ASC %s on %s deactivated by violating write", con.Name, name)
			}
			db.chargeMaint(con.Name, start)
		}
		for _, lc := range corrs {
			if !lc.IsAbsolute() {
				continue
			}
			aOrd, bOrd := te.Def.ColumnIndex(lc.ColA), te.Def.ColumnIndex(lc.ColB)
			if aOrd < 0 || bOrd < 0 {
				continue
			}
			start := db.maintTimer()
			if !lc.Admits(row[aOrd], row[bOrd]) {
				_ = db.cat.DeactivateCorrelation(lc.Name)
				db.obs.metrics.Counter(mCorrDrops).Inc()
				db.notify("linear correlation %s deactivated by violating write", lc.Name)
			}
			db.chargeMaint(lc.Name, start)
		}
		for _, jh := range holes {
			if !jh.Active {
				continue
			}
			start := db.maintTimer()
			var dropped int
			if strings.EqualFold(jh.LeftTable, name) {
				if ord := te.Def.ColumnIndex(jh.AttrLeft); ord >= 0 && !row[ord].IsNull() {
					dropped += jh.DropHolesIntersecting(expr.Point(row[ord]), expr.Unbounded())
				}
			}
			if strings.EqualFold(jh.RightTable, name) {
				if ord := te.Def.ColumnIndex(jh.AttrRight); ord >= 0 && !row[ord].IsNull() {
					dropped += jh.DropHolesIntersecting(expr.Unbounded(), expr.Point(row[ord]))
				}
			}
			if dropped > 0 {
				db.cat.Touch()
				db.obs.metrics.Counter(mHolesRetired).Add(int64(dropped))
				db.notify("join holes %s: %d holes retired by write to %s", jh.Name, dropped, name)
			}
			db.chargeMaint(jh.Name, start)
		}
	}
	for _, st := range db.cat.SummariesOn(name) {
		start := db.maintTimer()
		maintainSummary(st, row, insert, ts)
		db.chargeMaint(st.Name, start)
	}
	bumpCurrency(te, corrs, holes)
}

// maintainSummary applies one row's effect to one AST: a materialized AST
// gains a copy committed at ts or ends one matching copy at ts; an
// informational one moves its row estimate.
func maintainSummary(st *catalog.SummaryTable, row types.Row, insert bool, ts int64) {
	if st.Where != nil {
		ok, err := expr.EvalBool(st.Where, row)
		if err != nil || !ok {
			return
		}
	}
	if st.Informational {
		if insert {
			st.RowCountEstimate++
		} else if st.RowCountEstimate > 0 {
			st.RowCountEstimate--
		}
		return
	}
	if insert {
		st.Heap.InsertCommitted(row.Clone(), ts)
		return
	}
	var target storage.RowID
	found := false
	st.Heap.Scan(nil, func(rid storage.RowID, r types.Row) bool {
		if r.Equal(row) {
			target, found = rid, true
			return false
		}
		return true
	})
	if found {
		st.Heap.SetEnd(target, ts)
	}
}

// maintEpoch anchors the write hooks' timing segments: time.Since on a
// time that carries a monotonic reading reads only the monotonic clock,
// which costs less than time.Now's wall and monotonic pair.
var maintEpoch = time.Now()

// maintTimer starts a DML write-hook timing segment, read on the
// monotonic clock since maintEpoch; a negative start means the economy
// ledger is off and chargeMaint will ignore the segment.
func (db *Database) maintTimer() time.Duration {
	if db.NoEconomy {
		return -1
	}
	return time.Since(maintEpoch)
}

// chargeMaint closes a maintTimer segment, charging the elapsed time to
// the named characterization's maintenance cost.
func (db *Database) chargeMaint(name string, start time.Duration) {
	if start < 0 {
		return
	}
	db.obs.econ.AddMaintenance(name, time.Since(maintEpoch)-start)
}

// bumpCurrency advances §3.3's staleness counters on the table's
// statistical soft constraints, its active correlations (corrs, less any
// the write just deactivated) and its join-hole sets.
func bumpCurrency(te *catalog.TableEntry, corrs []*catalog.LinearCorrelation, holes []*catalog.JoinHoles) {
	for _, con := range te.Constraints {
		if con.Mode == catalog.ModeSoftStatistical {
			con.ModsSince++
		}
	}
	for _, lc := range corrs {
		if lc.Active {
			lc.ModsSince++
		}
	}
	for _, jh := range holes {
		jh.ModsSince++
	}
}

func ordinalsOf(te *catalog.TableEntry, cols []string) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = te.Def.ColumnIndex(c)
	}
	return out
}

// indexOver finds an index whose key is exactly the given column list.
func indexOver(te *catalog.TableEntry, cols []string) *catalog.Index {
	for _, ix := range te.Indexes {
		if len(ix.Columns) != len(cols) {
			continue
		}
		all := true
		for i := range cols {
			if !strings.EqualFold(ix.Columns[i], cols[i]) {
				all = false
				break
			}
		}
		if all {
			return ix
		}
	}
	return nil
}

// update applies SET clauses to rows matching in tx's snapshot view: each
// match becomes a delete of the old version plus an insert of the new one,
// both uncommitted until tx commits. A match another transaction already
// ended fails with a first-updater-wins conflict.
func (db *Database) update(tx *Tx, upd *sql.Update) (*Result, error) {
	te, err := db.cat.Table(upd.Table)
	if err != nil {
		return nil, err
	}
	var where expr.Expr
	if upd.Where != nil {
		where, err = bindToTable(upd.Where, te.Def)
		if err != nil {
			return nil, err
		}
	}
	type setOp struct {
		ord int
		val expr.Expr
	}
	sets := make([]setOp, len(upd.Set))
	for i, sc := range upd.Set {
		ord := te.Def.ColumnIndex(sc.Column)
		if ord < 0 {
			return nil, fmt.Errorf("engine: no column %s in %s", sc.Column, upd.Table)
		}
		bound, err := bindToTable(sc.Value, te.Def)
		if err != nil {
			return nil, err
		}
		sets[i] = setOp{ord: ord, val: bound}
	}
	matches, err := matchRows(tx, te, where)
	if err != nil {
		return nil, err
	}
	var n int64
	for _, m := range matches {
		newRow := m.row.Clone()
		for _, s := range sets {
			v, err := s.val.Eval(m.row)
			if err != nil {
				return nil, err
			}
			newRow[s.ord] = v
		}
		validated, err := te.Def.ValidateRow(newRow)
		if err != nil {
			return nil, err
		}
		if err := db.applyDelete(tx, te, m.rid, m.row); err != nil {
			return nil, err
		}
		if err := db.applyInsert(tx, te, validated, m.rid); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{RowsAffected: n}, nil
}

// delete ends rows matching in tx's snapshot view with tx's uncommitted
// stamp; old snapshots keep seeing them until the commit publishes.
func (db *Database) delete(tx *Tx, del *sql.Delete) (*Result, error) {
	te, err := db.cat.Table(del.Table)
	if err != nil {
		return nil, err
	}
	var where expr.Expr
	if del.Where != nil {
		where, err = bindToTable(del.Where, te.Def)
		if err != nil {
			return nil, err
		}
	}
	matches, err := matchRows(tx, te, where)
	if err != nil {
		return nil, err
	}
	for _, m := range matches {
		if err := db.applyDelete(tx, te, m.rid, m.row); err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: int64(len(matches))}, nil
}

// match is one row an UPDATE or DELETE acts on: its id and a copy of its
// image.
type match struct {
	rid storage.RowID
	row types.Row
}

// matchRows collects the rows of te that where admits (nil admits every
// row). It reads tx's snapshot, so the statement sees a stable view plus
// its own transaction's earlier writes, and it collects every match before
// the caller changes any: mutating while scanning is unsafe.
func matchRows(tx *Tx, te *catalog.TableEntry, where expr.Expr) ([]match, error) {
	var matches []match
	var scanErr error
	var cols []int
	expr.Walk(where, func(e expr.Expr) bool {
		if c, ok := e.(*expr.Column); ok && c.Index >= 0 {
			cols = append(cols, c.Index)
		}
		return true
	})
	te.Heap.ScanColsAt(tx.t.Snap, tx.t.ID, cols, func(rid storage.RowID, row types.Row) bool {
		if where != nil {
			ok, err := expr.EvalBool(where, row)
			if err != nil {
				scanErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		full, _ := te.Heap.GetAt(rid, tx.t.Snap, tx.t.ID)
		matches = append(matches, match{rid: rid, row: full})
		return true
	})
	return matches, scanErr
}
