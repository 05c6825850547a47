// Package catalog is softdb's system catalog: table definitions and heaps,
// secondary indexes, integrity constraints with the paper's enforcement
// modes (enforced, informational, absolute soft, statistical soft), the
// soft-constraint registry (linear correlations, join holes, functional
// dependencies, value ranges), summary tables (ASTs), and collected
// statistics.
package catalog

import (
	"fmt"
	"strings"

	"softdb/internal/expr"
	"softdb/internal/types"
)

// Mode is a constraint's enforcement mode, the paper's central distinction.
type Mode uint8

const (
	// ModeEnforced is a classic integrity constraint: checked on every
	// update, and a violating transaction is rejected.
	ModeEnforced Mode = iota
	// ModeInformational is §1's informational constraint: an external
	// promise that it holds; never checked, always trusted by the
	// optimizer.
	ModeInformational
	// ModeSoftAbsolute is an ASC: consistent with the current state,
	// checked on update, but a violating update succeeds and the
	// constraint is deactivated (or repaired) instead.
	ModeSoftAbsolute
	// ModeSoftStatistical is an SSC: may be violated by some fraction of
	// rows; usable for cardinality estimation only, never for rewrite.
	ModeSoftStatistical
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeEnforced:
		return "ENFORCED"
	case ModeInformational:
		return "INFORMATIONAL"
	case ModeSoftAbsolute:
		return "SOFT ABSOLUTE"
	case ModeSoftStatistical:
		return "SOFT STATISTICAL"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// UsableInRewrite reports whether constraints of this mode may drive
// semantically-equivalent rewrites. SSCs may not (§3): a rewrite must hold
// for every row.
func (m Mode) UsableInRewrite() bool { return m != ModeSoftStatistical }

// CheckedOnUpdate reports whether the engine validates this mode during
// DML. Informational constraints and SSCs are never checked (§1, §3.3).
func (m Mode) CheckedOnUpdate() bool { return m == ModeEnforced || m == ModeSoftAbsolute }

// Kind enumerates constraint kinds.
type Kind uint8

const (
	// PrimaryKey implies uniqueness and not-null over its columns.
	PrimaryKey Kind = iota
	// Unique is a uniqueness constraint.
	Unique
	// ForeignKey is referential integrity from Columns to RefColumns of
	// RefTable.
	ForeignKey
	// Check is a row-level predicate over the table's columns.
	Check
	// FuncDep is a functional dependency Columns → DepColumns (§2 [29]);
	// not part of SQL DDL, produced by mining or declared via the API.
	FuncDep
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case PrimaryKey:
		return "PRIMARY KEY"
	case Unique:
		return "UNIQUE"
	case ForeignKey:
		return "FOREIGN KEY"
	case Check:
		return "CHECK"
	case FuncDep:
		return "FUNCTIONAL DEPENDENCY"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Constraint is one catalog constraint. Exactly which fields are meaningful
// depends on Kind.
type Constraint struct {
	Name  string
	Kind  Kind
	Mode  Mode
	Table string

	// Columns are the constrained columns: key columns for
	// PrimaryKey/Unique, referencing columns for ForeignKey, the
	// determinant for FuncDep.
	Columns []string
	// RefTable/RefColumns are the referenced side of a ForeignKey.
	RefTable   string
	RefColumns []string
	// CheckExpr is a Check predicate bound to the table's column ordinals.
	CheckExpr expr.Expr
	// DepColumns is the dependent set of a FuncDep.
	DepColumns []string

	// Confidence is the fraction of rows satisfying the constraint
	// statement; 1.0 for everything except SSCs (§3.3). For an SSC it is
	// refreshed by softc maintenance.
	Confidence float64

	// Active reports whether the constraint is currently usable. An ASC
	// that is violated is deactivated rather than blocking the update
	// (§4.1).
	Active bool

	// Currency bookkeeping for soft constraints (§3.3's "measure of
	// currency"): the heap version at last verification and the number of
	// row modifications on the table since.
	VerifiedVersion int64
	ModsSince       int64
}

// Describe renders a one-line catalog description.
func (c *Constraint) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s ON %s", c.Name, c.Kind, c.Table)
	switch c.Kind {
	case PrimaryKey, Unique:
		fmt.Fprintf(&b, " (%s)", strings.Join(c.Columns, ", "))
	case ForeignKey:
		fmt.Fprintf(&b, " (%s) REFERENCES %s (%s)",
			strings.Join(c.Columns, ", "), c.RefTable, strings.Join(c.RefColumns, ", "))
	case Check:
		fmt.Fprintf(&b, " (%s)", c.CheckExpr)
	case FuncDep:
		fmt.Fprintf(&b, " (%s -> %s)", strings.Join(c.Columns, ", "), strings.Join(c.DepColumns, ", "))
	}
	fmt.Fprintf(&b, " [%s", c.Mode)
	if c.Mode == ModeSoftStatistical {
		fmt.Fprintf(&b, " confidence=%.4f", c.Confidence)
	}
	if !c.Active {
		b.WriteString(" INACTIVE")
	}
	b.WriteString("]")
	return b.String()
}

// Admits reports whether row satisfies the constraint's CHECK predicate,
// with SQL CHECK semantics: TRUE and NULL pass, FALSE fails. A predicate
// that fails to evaluate, or yields a value that is not a BOOL, fails the
// row too, and the error says why. Enforcement, the soft write hook,
// declaration over existing rows, recovery and confidence refresh all ask
// this method (DESIGN.md §25). Constraints of other kinds admit every row.
func (c *Constraint) Admits(row types.Row) (bool, error) {
	if c.Kind != Check || c.CheckExpr == nil {
		return true, nil
	}
	v, err := c.CheckExpr.Eval(row)
	switch {
	case err != nil:
		return false, err
	case v.IsNull():
		return true, nil
	case v.Kind() != types.KindBool:
		return false, fmt.Errorf("catalog: check constraint %s evaluated to %s, not BOOL", c.Name, v.Kind())
	}
	return v.Bool(), nil
}

// IsKeyOver reports whether the constraint guarantees uniqueness over
// exactly the given column set (order-insensitive, case-insensitive).
func (c *Constraint) IsKeyOver(cols []string) bool {
	if c.Kind != PrimaryKey && c.Kind != Unique {
		return false
	}
	if !c.Active || len(c.Columns) != len(cols) {
		return false
	}
	have := make(map[string]bool, len(c.Columns))
	for _, col := range c.Columns {
		have[strings.ToLower(col)] = true
	}
	for _, col := range cols {
		if !have[strings.ToLower(col)] {
			return false
		}
	}
	return true
}
