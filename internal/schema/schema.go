// Package schema defines table and column metadata shared by the storage,
// catalog, planning, and execution layers.
package schema

import (
	"fmt"
	"strings"

	"softdb/internal/types"
)

// Column describes one attribute of a table.
type Column struct {
	Name     string
	Type     types.Kind
	Nullable bool
}

// Table describes a base table: its name and ordered columns.
type Table struct {
	Name    string
	Columns []Column
}

// NewTable builds a table definition, validating that column names are
// unique (case-insensitively).
func NewTable(name string, cols ...Column) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: empty table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("schema: table %s has no columns", name)
	}
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		lc := strings.ToLower(c.Name)
		if lc == "" {
			return nil, fmt.Errorf("schema: table %s has an unnamed column", name)
		}
		if seen[lc] {
			return nil, fmt.Errorf("schema: table %s: duplicate column %s", name, c.Name)
		}
		seen[lc] = true
	}
	return &Table{Name: name, Columns: cols}, nil
}

// ColumnIndex returns the ordinal of the named column, or -1. Matching is
// case-insensitive, following SQL identifier rules.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Column returns the definition of the named column.
func (t *Table) Column(name string) (Column, bool) {
	i := t.ColumnIndex(name)
	if i < 0 {
		return Column{}, false
	}
	return t.Columns[i], true
}

// ColumnNames returns the column names in order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// Arity returns the number of columns.
func (t *Table) Arity() int { return len(t.Columns) }

// ValidateRow checks arity, kinds (with numeric coercion), and nullability,
// returning the row ready for storage: row itself when every value already
// has its column's kind, else a copy holding the coerced values. The row
// allocates only when a value is coerced; callers that write into the
// result must not expect row to stay unchanged.
func (t *Table) ValidateRow(row types.Row) (types.Row, error) {
	if len(row) != len(t.Columns) {
		return nil, fmt.Errorf("schema: table %s expects %d values, got %d", t.Name, len(t.Columns), len(row))
	}
	out, copied := row, false
	for i, d := range row {
		col := t.Columns[i]
		if d.IsNull() {
			if !col.Nullable {
				return nil, fmt.Errorf("schema: column %s.%s is NOT NULL", t.Name, col.Name)
			}
			continue
		}
		if d.Kind() == col.Type {
			continue
		}
		c, err := types.Coerce(d, col.Type)
		if err != nil {
			return nil, fmt.Errorf("schema: column %s.%s: %w", t.Name, col.Name, err)
		}
		if !copied {
			out, copied = row.Clone(), true
		}
		out[i] = c
	}
	return out, nil
}

// String renders the table as a CREATE TABLE-like signature.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(t.Name)
	b.WriteByte('(')
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
		if !c.Nullable {
			b.WriteString(" NOT NULL")
		}
	}
	b.WriteByte(')')
	return b.String()
}
