package types

import (
	"math/rand"
	"testing"
)

func TestRowCloneIndependence(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].Int() != 1 {
		t.Error("clone should not alias")
	}
}

func TestRowEqualAndCompare(t *testing.T) {
	a := Row{NewInt(1), NewString("x")}
	b := Row{NewInt(1), NewString("x")}
	if !a.Equal(b) || a.Compare(b) != 0 {
		t.Error("equal rows")
	}
	c := Row{NewInt(1), NewString("y")}
	if a.Compare(c) != -1 || c.Compare(a) != 1 {
		t.Error("lexicographic order")
	}
	short := Row{NewInt(1)}
	if short.Compare(a) != -1 {
		t.Error("prefix sorts first")
	}
	if a.Equal(short) {
		t.Error("different lengths are unequal")
	}
}

func TestRowProjectConcat(t *testing.T) {
	r := Row{NewInt(0), NewInt(1), NewInt(2)}
	p := r.Project([]int{2, 0})
	if p[0].Int() != 2 || p[1].Int() != 0 {
		t.Errorf("project: %v", p)
	}
	cat := p.Concat(Row{NewInt(9)})
	if len(cat) != 3 || cat[2].Int() != 9 {
		t.Errorf("concat: %v", cat)
	}
}

func TestRowHashAndKeyNormalization(t *testing.T) {
	a := Row{NewInt(5), NewString("q")}
	b := Row{NewFloat(5), NewString("q")}
	if ak, bk := AppendKey(nil, a...), AppendKey(nil, b...); string(ak) != string(bk) {
		t.Errorf("numerically equal rows must key equal: %q vs %q", ak, bk)
	}
}

func TestRowKeyDistinguishes(t *testing.T) {
	a := Row{NewString("a"), NewString("b")}
	b := Row{NewString("ab"), NewString("")}
	if string(AppendKey(nil, a...)) == string(AppendKey(nil, b...)) {
		t.Error("keys must not collide across column boundaries")
	}
}

// Property: row compare consistent with element-wise compare.
func TestRowCompareConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a := Row{NewInt(int64(r.Intn(3))), NewInt(int64(r.Intn(3)))}
		b := Row{NewInt(int64(r.Intn(3))), NewInt(int64(r.Intn(3)))}
		want := 0
		if c := a[0].Compare(b[0]); c != 0 {
			want = c
		} else {
			want = a[1].Compare(b[1])
		}
		if got := a.Compare(b); got != want {
			t.Fatalf("compare(%v,%v) = %d, want %d", a, b, got, want)
		}
	}
}
