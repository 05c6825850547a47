package types

import (
	"math"
	"testing"
)

// keyEdge is the fuzz's datum: kind picks INT, FLOAT, STRING, BOOL, DATE,
// NULL, or a FLOAT made from i, so the int/float boundary is reachable from
// integer seeds.
func keyEdge(kind byte, i int64, f float64, s string) (Datum, bool) {
	switch kind % 7 {
	case 0:
		return NewInt(i), true
	case 1:
		return NewFloat(f), !math.IsNaN(f)
	case 2:
		return NewString(s), true
	case 3:
		return NewBool(i&1 == 1), true
	case 4:
		return NewDate(i), true
	case 5:
		return Null, true
	default:
		return NewFloat(float64(i)), true
	}
}

// FuzzKeyMatchesCompare checks the one value equality: two datums of the
// same kind have equal key images exactly when Compare calls them equal,
// and so do an INT or DATE and a FLOAT once both are keyed in FLOAT.
func FuzzKeyMatchesCompare(f *testing.F) {
	const p53 = int64(1) << 53
	ints := []int64{0, 1, -1, p53, p53 + 1, p53 - 1, p53 + 2, -p53, -p53 - 1, -p53 + 1,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	floats := []float64{0, math.Copysign(0, -1), 1, 0.5, -0.5, 0x1p53, 0x1p53 + 2, -0x1p53,
		0x1p63, -0x1p63, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	strs := []string{"", "a", "\x00", "1"}
	for k := byte(0); k < 7; k++ {
		for i, v := range ints {
			fl, s := floats[i%len(floats)], strs[i%len(strs)]
			f.Add(k, byte(0), v, ints[(i+1)%len(ints)], fl, fl, s, s)
			f.Add(k, byte(6), v, v, fl, floats[(i+3)%len(floats)], s, "")
			f.Add(k, k, v, v+1, fl, -fl, s, s+"\x00")
			f.Add(k, byte(1), v, v, float64(v), fl, "", s)
		}
	}
	f.Fuzz(func(t *testing.T, ka, kb byte, ia, ib int64, fa, fb float64, sa, sb string) {
		a, okA := keyEdge(ka, ia, fa, sa)
		b, okB := keyEdge(kb, ib, fb, sb)
		if !okA || !okB {
			return // no datum holds a NaN
		}
		var ak, bk []byte
		switch {
		case KeyInFloat(a.Kind(), b.Kind()):
			ak, bk = AppendEqKey(nil, a, true), AppendEqKey(nil, b, true)
		case a.Kind() == b.Kind(), a.IsNumeric() && b.IsNumeric(): // INT against DATE is exact
			ak, bk = AppendKey(nil, a), AppendKey(nil, b)
		default:
			return // Compare orders other mixed kinds by kind; nothing keys across them
		}
		if eq, cmp := string(ak) == string(bk), a.Compare(b); eq != (cmp == 0) {
			t.Fatalf("%s vs %s: keys equal %v, Compare %d", a, b, eq, cmp)
		}
		if two := AppendKey(AppendKey(nil, a), b); string(two) != string(AppendKey(nil, a, b)) {
			t.Fatalf("a row's image is not its datums' images in order")
		}
	})
}
