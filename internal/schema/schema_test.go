package schema

import (
	"testing"

	"softdb/internal/types"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewTable("emp",
		Column{Name: "id", Type: types.KindInt},
		Column{Name: "name", Type: types.KindString, Nullable: true},
		Column{Name: "hired", Type: types.KindDate, Nullable: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(""); err == nil {
		t.Error("empty name should error")
	}
	if _, err := NewTable("t"); err == nil {
		t.Error("no columns should error")
	}
	if _, err := NewTable("t",
		Column{Name: "a", Type: types.KindInt},
		Column{Name: "A", Type: types.KindInt},
	); err == nil {
		t.Error("case-insensitive duplicate column should error")
	}
}

func TestColumnLookup(t *testing.T) {
	tab := sampleTable(t)
	if tab.ColumnIndex("NAME") != 1 {
		t.Error("lookup is case-insensitive")
	}
	if tab.ColumnIndex("missing") != -1 {
		t.Error("missing column returns -1")
	}
	c, ok := tab.Column("hired")
	if !ok || c.Type != types.KindDate {
		t.Error("Column accessor")
	}
	names := tab.ColumnNames()
	if len(names) != 3 || names[0] != "id" {
		t.Errorf("ColumnNames: %v", names)
	}
	if tab.Arity() != 3 {
		t.Error("Arity")
	}
}

func TestValidateRowArity(t *testing.T) {
	tab := sampleTable(t)
	if _, err := tab.ValidateRow(types.Row{types.NewInt(1)}); err == nil {
		t.Error("short row should error")
	}
}

func TestValidateRowNullability(t *testing.T) {
	tab := sampleTable(t)
	if _, err := tab.ValidateRow(types.Row{types.Null, types.Null, types.Null}); err == nil {
		t.Error("NULL in NOT NULL column should error")
	}
	row, err := tab.ValidateRow(types.Row{types.NewInt(1), types.Null, types.Null})
	if err != nil {
		t.Fatal(err)
	}
	if !row[1].IsNull() {
		t.Error("nullable columns accept NULL")
	}
}

func TestValidateRowCoercion(t *testing.T) {
	tab := sampleTable(t)
	row, err := tab.ValidateRow(types.Row{
		types.NewFloat(4),
		types.NewString("ann"),
		types.NewString("2001-05-21"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if row[0].Kind() != types.KindInt || row[0].Int() != 4 {
		t.Errorf("float→int coercion: %v", row[0])
	}
	if row[2].Kind() != types.KindDate {
		t.Errorf("string→date coercion: %v", row[2])
	}
	if _, err := tab.ValidateRow(types.Row{
		types.NewString("oops"), types.Null, types.Null,
	}); err == nil {
		t.Error("uncoercible value should error")
	}
}

// TestValidateRowAllocatesOnlyToCoerce: a row whose values all have their
// columns' kinds is returned as it is, with no allocation; a coerced value
// costs the one copy of the row, and the input is left as it was.
func TestValidateRowAllocatesOnlyToCoerce(t *testing.T) {
	tab := sampleTable(t)
	typed := types.Row{types.NewInt(4), types.NewString("ann"), types.Null}
	var out types.Row
	if allocs := testing.AllocsPerRun(50, func() { out, _ = tab.ValidateRow(typed) }); allocs != 0 {
		t.Errorf("well-typed row: %v allocations, want 0", allocs)
	}
	if &out[0] != &typed[0] {
		t.Error("a well-typed row should be returned as it is")
	}
	coerced := types.Row{types.NewFloat(4), types.NewString("ann"), types.Null}
	if allocs := testing.AllocsPerRun(50, func() { out, _ = tab.ValidateRow(coerced) }); allocs != 1 {
		t.Errorf("row with a coerced value: %v allocations, want 1", allocs)
	}
	if out[0].Kind() != types.KindInt || coerced[0].Kind() != types.KindFloat {
		t.Errorf("coercion must write a copy: got %v from input %v", out, coerced)
	}
}

func TestTableString(t *testing.T) {
	tab := sampleTable(t)
	s := tab.String()
	if s != "emp(id INT NOT NULL, name STRING, hired DATE)" {
		t.Errorf("String: %s", s)
	}
}
