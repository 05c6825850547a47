package engine

import (
	"fmt"
	"strings"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/plan"
	"softdb/internal/schema"
	"softdb/internal/sql"
	"softdb/internal/storage"
	"softdb/internal/types"
)

func (db *Database) createTable(ct *sql.CreateTable) (*Result, error) {
	cols := make([]schema.Column, len(ct.Cols))
	var pkCols []string
	for i, c := range ct.Cols {
		cols[i] = schema.Column{Name: c.Name, Type: c.Type, Nullable: !c.NotNull}
		if c.PrimaryKey {
			pkCols = append(pkCols, c.Name)
		}
	}
	def, err := schema.NewTable(ct.Name, cols...)
	if err != nil {
		return nil, err
	}
	if _, err := db.cat.CreateTable(def); err != nil {
		return nil, err
	}
	if len(pkCols) > 0 {
		if err := db.addConstraintDef(ct.Name, sql.ConstraintDef{
			Kind: catalog.PrimaryKey, Columns: pkCols, Mode: catalog.ModeEnforced, Confidence: 1,
		}); err != nil {
			return nil, err
		}
	}
	for _, cd := range ct.Constraints {
		if err := db.addConstraintDef(ct.Name, cd); err != nil {
			return nil, err
		}
	}
	return &Result{}, nil
}

// addConstraintDef binds and registers a constraint, verifying existing
// rows for checked modes, and creating the supporting unique index for
// key constraints.
func (db *Database) addConstraintDef(table string, cd sql.ConstraintDef) error {
	te, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	con := &catalog.Constraint{
		Name:       cd.Name,
		Kind:       cd.Kind,
		Mode:       cd.Mode,
		Table:      te.Def.Name,
		Columns:    cd.Columns,
		RefTable:   cd.RefTable,
		RefColumns: cd.RefColumns,
		Confidence: cd.Confidence,
	}
	if cd.Kind == catalog.Check {
		bound, err := bindToTable(cd.Check, te.Def)
		if err != nil {
			return err
		}
		con.CheckExpr = bound
	}
	// Verify existing rows for modes that promise consistency with the
	// current state.
	if con.Mode.CheckedOnUpdate() && te.Heap.RowCount() > 0 {
		if err := db.verifyConstraintRows(te, con); err != nil {
			return err
		}
	}
	if err := db.cat.AddConstraint(con); err != nil {
		return err
	}
	// Key constraints get a backing unique index when enforced (the
	// informational flavor explicitly skips the maintenance cost).
	if (con.Kind == catalog.PrimaryKey || con.Kind == catalog.Unique) && con.Mode == catalog.ModeEnforced {
		idxName := "idx_" + strings.ToLower(con.Name)
		if _, err := db.cat.CreateIndex(idxName, te.Def.Name, con.Columns, true); err != nil {
			return err
		}
	}
	return nil
}

// verifyConstraintRows scans the table checking every row satisfies the
// constraint (used when adding enforced/ASC constraints to populated
// tables).
func (db *Database) verifyConstraintRows(te *catalog.TableEntry, con *catalog.Constraint) error {
	switch con.Kind {
	case catalog.Check:
		var bad int64
		te.Heap.Scan(nil, func(_ storage.RowID, row types.Row) bool {
			if ok, _ := con.Admits(row); !ok {
				bad++
			}
			return true
		})
		if bad > 0 {
			return fmt.Errorf("engine: %d existing rows violate constraint %s", bad, con.Name)
		}
	case catalog.PrimaryKey, catalog.Unique:
		ords := make([]int, len(con.Columns))
		for i, c := range con.Columns {
			ords[i] = te.Def.ColumnIndex(c)
			if ords[i] < 0 {
				return fmt.Errorf("engine: constraint %s: no column %s", con.Name, c)
			}
		}
		seen := map[string]bool{}
		dup := false
		te.Heap.Scan(nil, func(_ storage.RowID, row types.Row) bool {
			k := string(types.AppendKey(nil, row.Project(ords)...))
			if seen[k] {
				dup = true
				return false
			}
			seen[k] = true
			return true
		})
		if dup {
			return fmt.Errorf("engine: existing rows violate uniqueness of %s", con.Name)
		}
	case catalog.ForeignKey:
		ref, err := db.cat.Table(con.RefTable)
		if err != nil {
			return err
		}
		if len(con.RefColumns) != len(con.Columns) {
			return fmt.Errorf("engine: constraint %s: column count mismatch", con.Name)
		}
		// A column pair mixing INT or DATE with FLOAT keys in FLOAT on
		// both sides, as Compare compares it.
		refOrds := make([]int, len(con.RefColumns))
		ords := make([]int, len(con.Columns))
		inFloat := make([]bool, len(con.Columns))
		for i, c := range con.RefColumns {
			if refOrds[i], ords[i] = ref.Def.ColumnIndex(c), te.Def.ColumnIndex(con.Columns[i]); refOrds[i] < 0 || ords[i] < 0 {
				return fmt.Errorf("engine: constraint %s: no column %s or %s", con.Name, con.Columns[i], c)
			}
			inFloat[i] = types.KeyInFloat(ref.Def.Columns[refOrds[i]].Type, te.Def.Columns[ords[i]].Type)
		}
		key := func(row types.Row, ords []int) (k []byte) {
			for i, o := range ords {
				k = types.AppendEqKey(k, row[o], inFloat[i])
			}
			return k
		}
		parentKeys := map[string]bool{}
		ref.Heap.Scan(nil, func(_ storage.RowID, row types.Row) bool {
			parentKeys[string(key(row, refOrds))] = true
			return true
		})
		var orphan int64
		te.Heap.Scan(nil, func(_ storage.RowID, row types.Row) bool {
			for _, o := range ords {
				if row[o].IsNull() {
					return true // NULL FKs are exempt
				}
			}
			if !parentKeys[string(key(row, ords))] {
				orphan++
			}
			return true
		})
		if orphan > 0 {
			return fmt.Errorf("engine: %d existing rows violate foreign key %s", orphan, con.Name)
		}
	case catalog.FuncDep:
		// Verified by the miner or caller; a full check is available via
		// softc.VerifyFD.
	}
	return nil
}

func (db *Database) createIndex(ci *sql.CreateIndex) (*Result, error) {
	if _, err := db.cat.CreateIndex(ci.Name, ci.Table, ci.Columns, ci.Unique); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *Database) createView(cv *sql.CreateView) (*Result, error) {
	name := strings.ToLower(cv.Name)
	if _, err := db.cat.Table(cv.Name); err == nil {
		return nil, fmt.Errorf("engine: %s already names a table", cv.Name)
	}
	if _, ok := db.views[name]; ok {
		return nil, fmt.Errorf("engine: view %s already exists", cv.Name)
	}
	// Validate by building once.
	if _, err := db.builder().BuildSelect(cv.Query); err != nil {
		return nil, fmt.Errorf("engine: invalid view %s: %w", cv.Name, err)
	}
	db.views[name] = cv.Query
	db.cat.Touch()
	return &Result{}, nil
}

func (db *Database) createSummary(cs *sql.CreateSummary) (*Result, error) {
	base, err := db.cat.Table(cs.Base)
	if err != nil {
		return nil, err
	}
	st := &catalog.SummaryTable{Name: cs.Name, Base: base.Def.Name, Informational: cs.Informational}
	if cs.Where != nil {
		bound, err := bindToTable(cs.Where, base.Def)
		if err != nil {
			return nil, err
		}
		st.Where = bound
	}
	if err := db.cat.CreateSummaryTable(st); err != nil {
		return nil, err
	}
	// Materialize existing rows.
	var n int64
	base.Heap.Scan(nil, func(_ storage.RowID, row types.Row) bool {
		match := true
		if st.Where != nil {
			ok, evalErr := expr.EvalBool(st.Where, row)
			if evalErr != nil {
				err = evalErr
				return false
			}
			match = ok
		}
		if match {
			n++
			if st.Heap != nil {
				st.Heap.Insert(row.Clone())
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if st.Informational {
		st.RowCountEstimate = n
	}
	return &Result{RowsAffected: n}, nil
}

// LinkException exposes §4.4 exception-AST linking to callers (there is no
// SQL syntax for it; DB2 would track the relationship internally).
func (db *Database) LinkException(constraintName, summaryName string) error {
	db.lockWrite()
	defer db.writeMu.Unlock()
	db.lock()
	defer db.mu.Unlock()
	if err := db.cat.LinkException(constraintName, summaryName); err != nil {
		return err
	}
	if db.dur != nil {
		if err := db.walSoftLocked(); err != nil {
			return err
		}
		return db.commitWALLocked()
	}
	return nil
}

func (db *Database) alterAdd(at *sql.AlterTableAdd) (*Result, error) {
	if err := db.addConstraintDef(at.Table, at.Constraint); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (db *Database) dropTable(dt *sql.DropTable) (*Result, error) {
	if err := db.cat.DropTable(dt.Name); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// bindToTable binds an expression against a single table's columns.
func bindToTable(e expr.Expr, def *schema.Table) (expr.Expr, error) {
	cols := make([]plan.ColumnInfo, len(def.Columns))
	for i, c := range def.Columns {
		cols[i] = plan.ColumnInfo{
			Qualifier: def.Name, Name: c.Name, Kind: c.Type,
			SourceTable: def.Name, SourceColumn: c.Name, SourceOrdinal: i,
		}
	}
	return plan.BindExpr(e, cols)
}
