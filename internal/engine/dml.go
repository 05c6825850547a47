package engine

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"softdb/internal/btree"
	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/sql"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/wal"
)

// insert evaluates the VALUES rows and applies them through applyInserts
// as one batch of uncommitted versions of tx. A row that fails to evaluate
// or validate ends the batch there: the rows before it are applied first, so
// an error one of them raises wins, as it would row by row.
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
	rows := make([]types.Row, 0, len(ins.Rows))
	var rowErr error
	for _, valueRow := range ins.Rows {
		var row types.Row
		if row, rowErr = valuesRow(te, ins, mapping, valueRow); rowErr != nil {
			break
		}
		rows = append(rows, row)
	}
	if err := db.applyInserts(tx, te, rows, nil); err != nil {
		return nil, err
	}
	if rowErr != nil {
		return nil, rowErr
	}
	return &Result{RowsAffected: int64(len(rows))}, nil
}

// valuesRow evaluates one VALUES row through mapping and validates it.
func valuesRow(te *catalog.TableEntry, ins *sql.Insert, mapping []int, valueRow []expr.Expr) (types.Row, error) {
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
	return te.Def.ValidateRow(row)
}

// InsertRows applies validated rows as one batch in their own implicit
// transaction: constraint checks per mode, heap and index insertion, and at
// commit the soft write guard, summary-table maintenance and currency
// bookkeeping. A row that fails an enforced check rolls the whole batch
// back. Exposed for generators and benchmarks that bypass SQL.
func (db *Database) InsertRows(te *catalog.TableEntry, rows []types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	_, err := db.execDML(nil, func(tx *Tx) (*Result, error) {
		if err := db.applyInserts(tx, te, rows, nil); err != nil {
			return nil, err
		}
		return &Result{RowsAffected: int64(len(rows))}, nil
	})
	return err
}

// applyInserts is the one insert path: it installs rows, in order, as
// uncommitted versions owned by tx, with their index entries, and fails
// with the error the first offending row raises had the rows been applied
// one at a time — the same row, the same constraint and the same text.
// selfRids, when non-nil, names per row the version an UPDATE is replacing,
// which uniqueness ignores. The checks a row passes or fails on its own (a
// CHECK, NULL in a primary key, a parent in another table) run first, so the
// first row that fails one and the rows after it are never installed: only
// a uniqueness or self-referencing failure leaves versions of later rows.
// The rest of the work is per batch: the heap takes runs of slots per page
// (storage.Heap.AppendVersions), each index one sorted run
// (btree.Tree.InsertRun) whose leaf-level clash check is the uniqueness
// check; the checks that need the earlier rows run per row, in row order,
// up to the first failing row. A failed batch is left installed for the
// caller to undo, as every failed statement is.
// Called with db.mu shared + writeMu held.
func (db *Database) applyInserts(tx *Tx, te *catalog.TableEntry, rows []types.Row, selfRids []storage.RowID) error {
	if len(rows) == 0 {
		return nil
	}
	db.touch(tx, te)
	b := &insertBatch{te: te, rows: rows, selfRids: selfRids, checks: db.batchChecks(te), bad: len(rows)}
	for j, row := range rows {
		if at, err := db.checkOwn(b, row); err != nil {
			b.bad, b.badAt, b.badErr = j, at, err
			break
		}
	}
	installed := rows[:b.bad]
	b.rids = te.Heap.AppendVersions(installed, tx.t.ID, make([]storage.RowID, 0, len(installed)))
	tx.ops = slices.Grow(tx.ops, len(installed))
	if db.dur != nil {
		tx.recs = slices.Grow(tx.recs, len(installed))
	}
	for j, row := range installed {
		tx.ops = append(tx.ops, writeOp{te: te, rid: b.rids[j], row: row})
		if db.dur != nil {
			tx.recs = append(tx.recs, &wal.Record{Type: wal.TypeInsert, TxnID: tx.t.ID, Table: te.Def.Name, RID: b.rids[j], Row: row})
		}
	}
	if len(installed) > 0 {
		for _, ix := range te.Indexes {
			b.insertIndex(ix)
		}
	}
	for j := 0; j <= b.bad && j < len(rows); j++ {
		if err := db.checkRow(b, j); err != nil {
			return err
		}
	}
	return nil
}

// insertBatch is one applyInserts call: its rows, the ids of those
// installed, the versions they replace, the table's enforced checks, and
// the first row that failed a check of its own (bad; len(rows) when none
// did), with the position of that check in checks and its error.
type insertBatch struct {
	te       *catalog.TableEntry
	rows     []types.Row
	rids     []storage.RowID
	selfRids []storage.RowID
	checks   []batchCheck
	bad      int
	badAt    int
	badErr   error
}

// batchCheck is one active enforced constraint of a batch's table, with
// what its test needs resolved once per batch: the ordinals of its
// columns; for a key constraint the index over exactly its columns (nil:
// none) and, once insertIndex has run over that index, the first row, in
// row order, whose key the index already held live when the row's entry
// went in (len(rows) when none did); for a foreign key the table it
// references (or the error looking it up) and the index over the
// referenced columns (nil: none).
type batchCheck struct {
	con    *catalog.Constraint
	ords   []int
	ix     *catalog.Index
	first  int
	ref    *catalog.TableEntry
	refErr error
	refIx  *catalog.Index
}

// batchChecks lists te's active enforced constraints in constraint order.
// FDs are left out: enforcing one would need a per-determinant lookup
// structure, and FDs in softdb are informational or soft only.
func (db *Database) batchChecks(te *catalog.TableEntry) []batchCheck {
	var out []batchCheck
	for _, con := range te.Constraints {
		if !con.Active || con.Mode != catalog.ModeEnforced || con.Kind == catalog.FuncDep {
			continue
		}
		c := batchCheck{con: con, ords: ordinalsOf(te, con.Columns)}
		switch con.Kind {
		case catalog.PrimaryKey, catalog.Unique:
			c.ix = indexOver(te, con.Columns)
		case catalog.ForeignKey:
			if c.ref, c.refErr = db.cat.Table(con.RefTable); c.refErr == nil {
				c.refIx = indexOver(c.ref, con.RefColumns)
			}
		}
		out = append(out, c)
	}
	return out
}

// key reports whether c is a PRIMARY KEY or UNIQUE constraint.
func (c *batchCheck) key() bool {
	return c.con.Kind == catalog.PrimaryKey || c.con.Kind == catalog.Unique
}

// self returns the version row j replaces (an invalid id for a plain
// insert).
func (b *insertBatch) self(j int) storage.RowID {
	if b.selfRids == nil {
		return storage.RowID{Page: -1}
	}
	return b.selfRids[j]
}

// before reports whether the version at rid was in the table before row j:
// a version of the table's own, or of a batch row before j. Row j itself is
// installed only when it comes before the first row that failed a check of
// its own; otherwise every installed version precedes it.
func (b *insertBatch) before(j int, rid storage.RowID) bool {
	return j >= len(b.rids) || rid.Compare(b.rids[j]) < 0
}

// insertIndex adds the installed rows' entries to ix as one run sorted by
// (key, rid) — row order within a key, since the batch's rids ascend. When
// ix backs enforced key constraints the run is checked on the leaves it
// lands on: an entry whose key the tree already holds under a version some
// committed-state reader could still see (storage.Heap.SeesAny), other than
// the one its row replaces, is not added, and the earliest such row is the
// constraints' first rejected row. Rows earlier in the batch are in the tree
// by then, so a duplicate inside the batch is caught the same way. A key
// with a NULL is never rejected: SQL UNIQUE ignores it, and a primary key
// rejects it on its own.
func (b *insertBatch) insertIndex(ix *catalog.Index) {
	n := len(b.rows)
	run := make([]btree.Entry, len(b.rids))
	for j, rid := range b.rids {
		run[j] = btree.Entry{Key: ix.KeyFor(b.rows[j]), RID: rid}
	}
	btree.SortRun(run)
	var mine []*batchCheck
	for ci := range b.checks {
		if c := &b.checks[ci]; c.key() && c.ix == ix {
			mine = append(mine, c)
			c.first = n
		}
	}
	var clash func(int, storage.RowID) bool
	if len(mine) > 0 {
		heap := b.te.Heap
		clash = func(k int, rid storage.RowID) bool {
			j, _ := slices.BinarySearchFunc(b.rids, run[k].RID, storage.RowID.Compare)
			if slices.ContainsFunc(run[k].Key, types.Datum.IsNull) || rid == b.self(j) || !heap.SeesAny(rid) {
				return false
			}
			for _, c := range mine {
				c.first = min(c.first, j)
			}
			return true
		}
	}
	ix.Tree.InsertRun(run, clash)
}

// checkOwn runs the enforced constraints a row passes or fails on its own,
// in constraint order, without counting them: CHECKs, NULL in a primary
// key, and foreign keys into other tables. It returns the position in
// b.checks of the first that fails, with its error.
// Called with db.mu shared + writeMu held.
func (db *Database) checkOwn(b *insertBatch, row types.Row) (int, error) {
	for ci := range b.checks {
		c := &b.checks[ci]
		switch c.con.Kind {
		case catalog.Check:
			ok, err := c.con.Admits(row)
			if err != nil {
				return ci, err
			}
			if !ok {
				return ci, fmt.Errorf("engine: row violates check constraint %s", c.con.Name)
			}
		case catalog.PrimaryKey:
			for _, o := range c.ords {
				if row[o].IsNull() {
					return ci, fmt.Errorf("engine: NULL in primary key %s", c.con.Name)
				}
			}
		case catalog.ForeignKey:
			if c.refErr != nil || c.ref != b.te {
				if err := checkParent(c, row, nil); err != nil {
					return ci, err
				}
			}
		}
	}
	return 0, nil
}

// checkRow runs the enforced constraints against row j of the batch, in
// constraint order, as applying the rows one at a time would: CHECKs are
// counted (checkOwn evaluated them), a key constraint fails where its index
// rejected the row (or, with no index, where an earlier live row holds the
// key), a foreign key into the row's own table where no parent row was
// there before it, and the first row that failed a check of its own fails
// at that check. Rows after j are not in the table yet for this purpose.
// Called with db.mu shared + writeMu held.
func (db *Database) checkRow(b *insertBatch, j int) error {
	for ci := range b.checks {
		c := &b.checks[ci]
		if c.con.Kind == catalog.Check {
			db.obs.checkEvals.Inc()
		}
		if j == b.bad && ci == b.badAt {
			return b.badErr
		}
		switch {
		case c.key():
			if err := b.checkKey(c, j); err != nil {
				return err
			}
		case c.con.Kind == catalog.ForeignKey && c.ref == b.te:
			if err := checkParent(c, b.rows[j], func(rid storage.RowID) bool { return b.before(j, rid) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkKey tests row j against one key constraint; a NULL in a primary key
// was checkOwn's.
func (b *insertBatch) checkKey(c *batchCheck, j int) error {
	row := b.rows[j]
	for _, o := range c.ords {
		if row[o].IsNull() {
			return nil // SQL unique ignores NULL keys
		}
	}
	if c.ix != nil && j < len(b.rids) {
		if c.first == j {
			return fmt.Errorf("engine: duplicate key %s violates %s", row.Project(c.ords), c.con.Name)
		}
		return nil
	}
	key := row.Project(c.ords)
	self, dup := b.self(j), false
	if c.ix != nil {
		// Row j is not installed: look its key up among the versions that are.
		c.ix.Tree.Lookup(key, nil, func(rid storage.RowID) bool {
			dup = rid != self && b.te.Heap.SeesAny(rid)
			return !dup
		})
	} else {
		// No index: the same dirty view, over the rows before j.
		b.te.Heap.ScanDirty(func(rid storage.RowID, existing types.Row) bool {
			dup = rid != self && b.before(j, rid) && existing.Project(c.ords).Equal(key)
			return !dup
		})
	}
	if dup {
		return fmt.Errorf("engine: duplicate key %s violates %s", key, c.con.Name)
	}
	return nil
}

// checkParent tests row against one foreign key. The parent check uses the
// dirty view: a parent another transaction is inserting counts (it may
// commit), one whose delete is uncommitted still counts (the delete may
// abort). counts, when non-nil, further limits the versions that count: in
// the row's own table, those there before the row.
func checkParent(c *batchCheck, row types.Row, counts func(storage.RowID) bool) error {
	key := row.Project(c.ords)
	for _, d := range key {
		if d.IsNull() {
			return nil
		}
	}
	if c.refErr != nil {
		return c.refErr
	}
	ref, found := c.ref, false
	if c.refIx != nil {
		c.refIx.Tree.Lookup(key, nil, func(rid storage.RowID) bool {
			found = (counts == nil || counts(rid)) && ref.Heap.SeesAny(rid)
			return !found
		})
	} else {
		refOrds := ordinalsOf(ref, c.con.RefColumns)
		ref.Heap.ScanDirty(func(rid storage.RowID, parent types.Row) bool {
			found = (counts == nil || counts(rid)) && parent.Project(refOrds).Equal(key)
			return !found
		})
	}
	if !found {
		return fmt.Errorf("engine: no parent row %s in %s for %s", key, c.con.RefTable, c.con.Name)
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
	// Each match's old version is ended in turn; its new version joins one
	// insert batch. A match that fails to evaluate, validate or end ends
	// the batch there, after the new versions before it were applied, so
	// the error a row at a time would raise first is the one returned.
	news := make([]types.Row, 0, len(matches))
	selfs := make([]storage.RowID, 0, len(matches))
	var rowErr error
	for _, m := range matches {
		var validated types.Row
		if validated, rowErr = newVersion(te, m.row, sets); rowErr == nil {
			rowErr = db.applyDelete(tx, te, m.rid, m.row)
		}
		if rowErr != nil {
			break
		}
		news = append(news, validated)
		selfs = append(selfs, m.rid)
	}
	if err := db.applyInserts(tx, te, news, selfs); err != nil {
		return nil, err
	}
	if rowErr != nil {
		return nil, rowErr
	}
	return &Result{RowsAffected: int64(len(news))}, nil
}

// setOp is one SET clause of an UPDATE: the column and its bound value.
type setOp struct {
	ord int
	val expr.Expr
}

// newVersion applies sets to old and validates the result.
func newVersion(te *catalog.TableEntry, old types.Row, sets []setOp) (types.Row, error) {
	row := old.Clone()
	for _, s := range sets {
		v, err := s.val.Eval(old)
		if err != nil {
			return nil, err
		}
		row[s.ord] = v
	}
	return te.Def.ValidateRow(row)
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
