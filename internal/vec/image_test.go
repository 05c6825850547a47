package vec

import (
	"sync"
	"testing"

	"softdb/internal/types"
)

func imageRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		f := types.Datum(types.NewFloat(float64(i) / 2))
		if i%5 == 0 {
			f = types.Null
		}
		rows[i] = types.Row{types.NewInt(int64(i)), f, types.NewString("s")}
	}
	return rows
}

// TestPageImageSharedVectors: every batch over the page gets the one
// published vector per column, built by whichever batch asked first, equal
// to what a plain batch extracts privately.
func TestPageImageSharedVectors(t *testing.T) {
	rows := imageRows(40)
	img := NewPageImage(3)
	var plain Batch
	plain.Reset(rows)

	var wg sync.WaitGroup
	got := make([][2]*Col, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var b Batch
			b.ResetImage(rows, img)
			got[g] = [2]*Col{b.Col(0, ClassInt), b.Col(1, ClassFloat)}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] || got[g][0] == nil || got[g][1] == nil {
			t.Fatalf("batch %d got its own vectors: %v vs %v", g, got[g], got[0])
		}
	}
	ints, floats := got[0][0], got[0][1]
	wantI, wantF := plain.Col(0, ClassInt), plain.Col(1, ClassFloat)
	if ints.HasNulls || !floats.HasNulls {
		t.Fatalf("HasNulls: ints %v floats %v", ints.HasNulls, floats.HasNulls)
	}
	for i := range rows {
		if ints.Ints[i] != wantI.Ints[i] || ints.Nulls[i] ||
			floats.Floats[i] != wantF.Floats[i] || floats.Nulls[i] != wantF.Nulls[i] {
			t.Fatalf("row %d: image vectors differ from private extraction", i)
		}
	}
	// 8 B per value; the null-free column shares one mask, the other owns its.
	if want := int64(40*8 + 40*8 + 40); img.Bytes() != want {
		t.Fatalf("image bytes %d, want %d", img.Bytes(), want)
	}
}

// TestPageImageFallbacks: what the image cannot serve falls back to the
// batch's private columns, or to nil when the class cannot carry the data.
func TestPageImageFallbacks(t *testing.T) {
	rows := imageRows(10)
	img := NewPageImage(3)
	var b Batch
	b.ResetImage(rows, img)
	if c := b.Col(2, ClassInt); c != nil {
		t.Fatal("string column extracted as ints")
	}
	if c := b.Col(2, ClassInt); c != nil || img.Bytes() != 0 {
		t.Fatal("failed extraction was retried into retained buffers")
	}
	// Another class than the one the image keeps: served privately.
	if c := b.Col(2, ClassStr); c == nil || c.Strs[3] != "s" {
		t.Fatalf("private extraction of the other class: %+v", c)
	}
	if img.Bytes() != 0 {
		t.Fatal("private extraction leaked into the image")
	}
	// A column the table did not have when the page froze.
	if c := b.Col(3, ClassInt); c != nil {
		t.Fatal("out-of-range ordinal extracted")
	}
	// A truncated window no longer matches the image's full-page vectors.
	b.ResetImage(rows, img)
	b.Truncate(4)
	if c := b.Col(0, ClassInt); c == nil || len(c.Ints) != 4 {
		t.Fatalf("truncated batch column covers %d rows, want 4", len(c.Ints))
	}
}
