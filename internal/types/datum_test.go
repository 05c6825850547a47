package types

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDatumKinds(t *testing.T) {
	cases := []struct {
		d    Datum
		kind Kind
	}{
		{Null, KindNull},
		{NewInt(42), KindInt},
		{NewFloat(3.5), KindFloat},
		{NewString("hi"), KindString},
		{NewBool(true), KindBool},
		{DateFromYMD(1999, time.December, 15), KindDate},
	}
	for _, c := range cases {
		if c.d.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.d, c.d.Kind(), c.kind)
		}
	}
}

func TestDatumAccessors(t *testing.T) {
	if NewInt(7).Int() != 7 {
		t.Error("Int accessor")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("Float accessor")
	}
	if NewString("x").Str() != "x" {
		t.Error("Str accessor")
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool accessor")
	}
	if NewInt(3).Float() != 3.0 {
		t.Error("Int widens to Float")
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull")
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if NewInt(2).Compare(NewFloat(2.0)) != 0 {
		t.Error("INT 2 should equal FLOAT 2.0")
	}
	if NewInt(2).Compare(NewFloat(2.5)) != -1 {
		t.Error("2 < 2.5")
	}
	if NewFloat(3.1).Compare(NewInt(3)) != 1 {
		t.Error("3.1 > 3")
	}
	d := DateFromYMD(2000, time.January, 2)
	if d.Compare(NewInt(d.Date())) != 0 {
		t.Error("date equals its day number")
	}
}

func TestCompareNullsFirst(t *testing.T) {
	if Null.Compare(NewInt(-1<<62)) != -1 {
		t.Error("NULL sorts before everything")
	}
	if NewString("").Compare(Null) != 1 {
		t.Error("non-null sorts after NULL")
	}
	if Null.Compare(Null) != 0 {
		t.Error("NULL == NULL under total order")
	}
}

func TestCompareStrings(t *testing.T) {
	if NewString("abc").Compare(NewString("abd")) != -1 {
		t.Error("string order")
	}
	if NewString("b").Compare(NewString("b")) != 0 {
		t.Error("string equality")
	}
}

func TestHashEqualValuesCollide(t *testing.T) {
	key := func(d Datum) string { return string(AppendKey(nil, d)) }
	if key(NewInt(5)) != key(NewFloat(5)) {
		t.Error("INT 5 and FLOAT 5.0 must key equal")
	}
	if key(NewString("a")) == key(NewString("b")) {
		t.Error("different strings must key differently")
	}
}

func TestArithmetic(t *testing.T) {
	got, err := NewInt(4).Add(NewInt(5))
	if err != nil || got.Int() != 9 {
		t.Errorf("4+5 = %v, %v", got, err)
	}
	got, err = NewInt(4).Mul(NewFloat(2.5))
	if err != nil || got.Float() != 10 {
		t.Errorf("4*2.5 = %v, %v", got, err)
	}
	if _, err = NewInt(1).Div(NewInt(0)); err == nil {
		t.Error("integer division by zero should error")
	}
	if _, err = NewFloat(1).Div(NewFloat(0)); err == nil {
		t.Error("float division by zero should error")
	}
	got, err = NewInt(7).Div(NewInt(2))
	if err != nil || got.Int() != 3 {
		t.Errorf("7/2 = %v, want 3", got)
	}
}

func TestDateArithmetic(t *testing.T) {
	d := DateFromYMD(1999, time.December, 15)
	later, err := d.Add(NewInt(21))
	if err != nil {
		t.Fatal(err)
	}
	if later.String() != "2000-01-05" {
		t.Errorf("date+21 = %s, want 2000-01-05", later)
	}
	diff, err := later.Sub(d)
	if err != nil || diff.Kind() != KindInt || diff.Int() != 21 {
		t.Errorf("date-date = %v, want INT 21", diff)
	}
	if _, err := d.Add(d); err == nil {
		t.Error("date+date should error")
	}
	if _, err := d.Mul(NewInt(2)); err == nil {
		t.Error("date*int should error")
	}
}

func TestNullPropagation(t *testing.T) {
	got, err := Null.Add(NewInt(1))
	if err != nil || !got.IsNull() {
		t.Error("NULL + 1 should be NULL")
	}
	got, err = NewInt(1).Div(Null)
	if err != nil || !got.IsNull() {
		t.Error("1 / NULL should be NULL")
	}
}

func TestParseDate(t *testing.T) {
	d, err := ParseDate("1999-12-15")
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != "1999-12-15" {
		t.Errorf("round trip: %s", d)
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("bad date should error")
	}
}

func TestCoerce(t *testing.T) {
	d, err := Coerce(NewString("1999-12-15"), KindDate)
	if err != nil || d.Kind() != KindDate {
		t.Errorf("string→date: %v %v", d, err)
	}
	d, err = Coerce(NewInt(3), KindFloat)
	if err != nil || d.Float() != 3 {
		t.Errorf("int→float: %v %v", d, err)
	}
	d, err = Coerce(NewFloat(3.9), KindInt)
	if err != nil || d.Int() != 3 {
		t.Errorf("float→int truncates: %v %v", d, err)
	}
	if _, err := Coerce(NewString("abc"), KindInt); err == nil {
		t.Error("bad int coercion should error")
	}
	d, err = Coerce(Null, KindInt)
	if err != nil || !d.IsNull() {
		t.Error("NULL coerces to NULL")
	}
}

func TestStringRendering(t *testing.T) {
	if NewString("it's").String() != "'it''s'" {
		t.Errorf("quote escaping: %s", NewString("it's"))
	}
	if NewBool(true).String() != "TRUE" || NewBool(false).String() != "FALSE" {
		t.Error("bool rendering")
	}
}

func TestMinMaxDatum(t *testing.T) {
	a, b := NewInt(1), NewInt(2)
	if MinDatum(a, b) != a || MaxDatum(a, b) != b {
		t.Error("min/max")
	}
}

// Property: Compare is antisymmetric and consistent with Equal.
func TestCompareAntisymmetric(t *testing.T) {
	gen := func(r *rand.Rand) Datum {
		switch r.Intn(5) {
		case 0:
			return Null
		case 1:
			return NewInt(int64(r.Intn(20) - 10))
		case 2:
			return NewFloat(float64(r.Intn(20)-10) / 2)
		case 3:
			return NewString(string(rune('a' + r.Intn(4))))
		default:
			return NewDate(int64(r.Intn(10)))
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := gen(r), gen(r)
		if a.Compare(b) != -b.Compare(a) {
			t.Fatalf("antisymmetry violated: %v vs %v", a, b)
		}
		if (a.Compare(b) == 0) != a.Equal(b) {
			t.Fatalf("Equal inconsistent with Compare: %v vs %v", a, b)
		}
	}
}

// Property: Compare is transitive over random triples.
func TestCompareTransitive(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	gen := func() Datum {
		switch r.Intn(4) {
		case 0:
			return Null
		case 1:
			return NewInt(int64(r.Intn(10)))
		case 2:
			return NewFloat(float64(r.Intn(10)))
		default:
			return NewString(string(rune('a' + r.Intn(3))))
		}
	}
	for i := 0; i < 3000; i++ {
		a, b, c := gen(), gen(), gen()
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			t.Fatalf("transitivity violated: %v %v %v", a, b, c)
		}
	}
}

// Property (testing/quick): int arithmetic matches Go semantics.
func TestQuickIntAdd(t *testing.T) {
	f := func(a, b int32) bool {
		got, err := NewInt(int64(a)).Add(NewInt(int64(b)))
		return err == nil && got.Int() == int64(a)+int64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareIntsMatchesGo(t *testing.T) {
	f := func(a, b int64) bool {
		c := NewInt(a).Compare(NewInt(b))
		switch {
		case a < b:
			return c == -1
		case a > b:
			return c == 1
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The integer date conversions must agree with the time package on every
// day they claim to handle, and defer to it on everything else.
func TestDateFastPathsMatchTimePackage(t *testing.T) {
	for days := int64(-800000); days <= 3000000; days += 97 {
		want := time.Unix(days*86400, 0).UTC().Format("2006-01-02")
		if got := NewDate(days).String(); got != want {
			t.Fatalf("day %d: formatted %s, want %s", days, got, want)
		}
		if len(want) != 10 {
			continue // years beyond 9999: only the formatter's fallback applies
		}
		d, err := ParseDate(want)
		if err != nil || d.IntImage() != days {
			t.Fatalf("%s: parsed to day %d (err %v), want %d", want, d.IntImage(), err, days)
		}
	}
	for _, bad := range []string{"1999-02-29", "2000-13-01", "2000-00-10", "2000-01-00", "2000-01-32", "1900-02-29", "99-01-01", "2000/01/01", "2000-1-01", "２000-01-01", ""} {
		_, tErr := time.Parse("2006-01-02", bad)
		if _, err := ParseDate(bad); (err == nil) != (tErr == nil) {
			t.Errorf("%q: ParseDate err=%v, time.Parse err=%v", bad, err, tErr)
		}
	}
	if d, err := ParseDate("2000-02-29"); err != nil || d.String() != "2000-02-29" {
		t.Errorf("leap day: %v %v", d, err)
	}
}
