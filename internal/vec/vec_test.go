package vec

import (
	"testing"

	"softdb/internal/types"
)

// columnRows fills b as a column batch over three columns (INT, FLOAT,
// STRING) of n rows, row i holding (i, i/2 or NULL every fifth, "s<i>").
func columnRows(b *Batch, n int) {
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString}
	cols := b.ResetColumns(n, kinds)
	cols[0].Ints, cols[0].Nulls = make([]int64, n), make([]bool, n)
	cols[1].Floats, cols[1].Nulls = make([]float64, n), make([]bool, n)
	cols[2].Strs, cols[2].Nulls = make([]string, n), make([]bool, n)
	for i := 0; i < n; i++ {
		cols[0].Ints[i] = int64(i)
		cols[1].Floats[i] = float64(i) / 2
		if i%5 == 0 {
			cols[1].Nulls[i], cols[1].HasNulls = true, true
		}
		cols[2].Strs[i] = "s" + string(rune('a'+i%26))
	}
}

func wantRow(i int) types.Row {
	f := types.Datum(types.NewFloat(float64(i) / 2))
	if i%5 == 0 {
		f = types.Null
	}
	return types.Row{types.NewInt(int64(i)), f, types.NewString("s" + string(rune('a'+i%26)))}
}

// TestColumnBatchRows: a column batch hands out its own columns for their
// class only, reads single datums and borrowed views without building rows,
// and builds the selected rows once, owned, when a consumer asks for rows.
func TestColumnBatchRows(t *testing.T) {
	var b Batch
	columnRows(&b, 40)
	if c := b.Col(0, ClassInt); c == nil || c.Ints[7] != 7 {
		t.Fatalf("INT column: %+v", c)
	}
	if b.Col(0, ClassFloat) != nil || b.Col(2, ClassInt) != nil || b.Col(3, ClassInt) != nil {
		t.Fatal("a column batch must refuse a class its column does not have")
	}
	if d, ok := b.Datum(10, 1); !ok || !d.IsNull() {
		t.Fatalf("Datum(10, 1) = %v, %v; want NULL", d, ok)
	}
	if _, ok := b.Datum(10, 3); ok {
		t.Fatal("Datum past the last column must report no column")
	}
	if v := b.View(3); !v.Equal(wantRow(3)) || b.Owned {
		t.Fatalf("View(3) = %v (owned %v)", v, b.Owned)
	}
	b.Sel = []int32{2, 9, 31}
	if r := b.Row(1); !r.Equal(wantRow(9)) || !b.Owned {
		t.Fatalf("Row(1) = %v (owned %v)", r, b.Owned)
	}
	first := b.At(31)
	if again := b.At(31); &again[0] != &first[0] {
		t.Fatal("rows are built once per window")
	}
	if r := b.At(4); !r.Equal(wantRow(4)) {
		t.Fatalf("At outside the selection = %v", r)
	}
	b.Truncate(2)
	if b.Len() != 2 || b.Index(1) != 9 {
		t.Fatalf("truncated selection: %v", b.Sel)
	}

	// Back to rows: the page's columns must not be written by extraction.
	cols := b.cols
	rows := []types.Row{{types.NewInt(-1), types.NewFloat(0), types.NewString("x")}}
	b.Reset(rows)
	if c := b.Col(0, ClassInt); c == nil || c.Ints[0] != -1 || cols[0].Ints == nil {
		t.Fatalf("row batch after a column batch: %+v", c)
	}
	var page Batch
	columnRows(&page, 40)
	b.Reset(rows)
	b.Col(0, ClassInt)
	if page.cols[0].Ints[0] != 0 {
		t.Fatal("a row batch extracted into a page's column")
	}
}
