// Package types defines the scalar value system used throughout softdb:
// the Datum type, its kinds, ordering, key images, arithmetic, and parsing.
//
// A Datum is a small immutable value. NULL is represented by KindNull and
// compares per SQL three-valued logic in expression evaluation; for index
// and sort purposes Compare places NULL before all non-NULL values so that
// total ordering is available where the engine needs one.
package types

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime types a Datum may hold.
type Kind uint8

const (
	// KindNull is the SQL NULL marker.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is a UTF-8 string.
	KindString
	// KindBool is a boolean.
	KindBool
	// KindDate is a calendar date stored as days since 1970-01-01.
	KindDate
)

// String implements fmt.Stringer for Kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Datum is a single scalar value. The zero value is NULL.
type Datum struct {
	kind Kind
	i    int64 // int, bool (0/1), date (days since epoch)
	f    float64
	s    string
}

// Null is the NULL datum.
var Null = Datum{}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return Datum{kind: KindInt, i: v} }

// NewFloat returns a float datum.
func NewFloat(v float64) Datum { return Datum{kind: KindFloat, f: v} }

// ErrNaN is the cause of the error a float operation fails with when its
// result is not a number. No datum holds a NaN, so FLOAT order is total.
var ErrNaN = errors.New("float result is not a number")

// NewFloatChecked returns the float datum for v, or ErrNaN when v is NaN:
// every float a query computes comes into being through it.
func NewFloatChecked(v float64) (Datum, error) {
	if math.IsNaN(v) {
		return Null, ErrNaN
	}
	return NewFloat(v), nil
}

// NewString returns a string datum.
func NewString(v string) Datum { return Datum{kind: KindString, s: v} }

// NewBool returns a boolean datum.
func NewBool(v bool) Datum {
	if v {
		return Datum{kind: KindBool, i: 1}
	}
	return Datum{kind: KindBool}
}

// NewDate returns a date datum from days since the Unix epoch.
func NewDate(daysSinceEpoch int64) Datum { return Datum{kind: KindDate, i: daysSinceEpoch} }

// DateFromYMD returns a date datum for the given calendar day.
func DateFromYMD(year int, month time.Month, day int) Datum {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return NewDate(t.Unix() / 86400)
}

// Kind reports the datum's kind.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether the datum is NULL.
func (d Datum) IsNull() bool { return d.kind == KindNull }

// Int returns the integer value. It panics on a non-integer datum.
func (d Datum) Int() int64 {
	if d.kind != KindInt {
		panic(fmt.Sprintf("types: Int() on %s datum", d.kind))
	}
	return d.i
}

// Float returns the float value. Integer and date datums are widened.
func (d Datum) Float() float64 {
	switch d.kind {
	case KindFloat:
		return d.f
	case KindInt, KindDate:
		return float64(d.i)
	case KindBool:
		return float64(d.i)
	default:
		panic(fmt.Sprintf("types: Float() on %s datum", d.kind))
	}
}

// IntImage returns the raw int64 payload shared by integer, date, and
// boolean datums — the image vectorized kernels compare and hash on. It
// panics on kinds that do not carry an integer image.
func (d Datum) IntImage() int64 {
	switch d.kind {
	case KindInt, KindDate, KindBool:
		return d.i
	default:
		panic(fmt.Sprintf("types: IntImage() on %s datum", d.kind))
	}
}

// Str returns the string value. It panics on a non-string datum.
func (d Datum) Str() string {
	if d.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s datum", d.kind))
	}
	return d.s
}

// Bool returns the boolean value. It panics on a non-boolean datum.
func (d Datum) Bool() bool {
	if d.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s datum", d.kind))
	}
	return d.i != 0
}

// Date returns the date as days since the Unix epoch.
func (d Datum) Date() int64 {
	if d.kind != KindDate {
		panic(fmt.Sprintf("types: Date() on %s datum", d.kind))
	}
	return d.i
}

// IsNumeric reports whether the datum participates in arithmetic
// (ints, floats, and dates, which are day counts).
func (d Datum) IsNumeric() bool {
	return d.kind == KindInt || d.kind == KindFloat || d.kind == KindDate
}

// String renders the datum in SQL-literal-like form.
func (d Datum) String() string {
	switch d.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(d.i, 10)
	case KindFloat:
		return strconv.FormatFloat(d.f, 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(d.s, "'", "''") + "'"
	case KindBool:
		if d.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindDate:
		return formatDate(d.i)
	default:
		return fmt.Sprintf("Datum(kind=%d)", d.kind)
	}
}

// Compare returns -1, 0, or +1 ordering d against other. NULL sorts first.
// Numeric kinds (INT, FLOAT, DATE) compare by numeric value; other kinds
// must match, and mismatches order by kind (NULL's is the least) so the
// relation stays total.
func (d Datum) Compare(other Datum) int {
	if d.IsNumeric() && other.IsNumeric() {
		if d.kind == KindFloat || other.kind == KindFloat {
			return CompareFloat(d.Float(), other.Float())
		}
		return cmp.Compare(d.i, other.i)
	}
	if d.kind != other.kind {
		return cmp.Compare(d.kind, other.kind)
	}
	switch d.kind {
	case KindString:
		return strings.Compare(d.s, other.s)
	case KindBool:
		return cmp.Compare(d.i, other.i)
	default:
		return 0
	}
}

// Equal reports value equality under Compare semantics (NULL equals NULL
// here; expression evaluation layers SQL three-valued logic on top).
func (d Datum) Equal(other Datum) bool { return d.Compare(other) == 0 }

// Add returns d + other for numeric datums. DATE + INT yields DATE
// (day arithmetic). NULL propagates.
func (d Datum) Add(other Datum) (Datum, error) { return arith(d, other, '+') }

// Sub returns d - other. DATE - DATE yields INT days; DATE - INT yields DATE.
func (d Datum) Sub(other Datum) (Datum, error) { return arith(d, other, '-') }

// Mul returns d * other for numeric datums.
func (d Datum) Mul(other Datum) (Datum, error) { return arith(d, other, '*') }

// Div returns d / other for numeric datums. Integer division truncates.
func (d Datum) Div(other Datum) (Datum, error) { return arith(d, other, '/') }

func arith(a, b Datum, op byte) (Datum, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null, fmt.Errorf("types: cannot apply %c to %s and %s", op, a.kind, b.kind)
	}
	// Date arithmetic stays in the integer domain.
	if a.kind == KindDate || b.kind == KindDate {
		if a.kind == KindFloat || b.kind == KindFloat {
			return Null, fmt.Errorf("types: cannot apply %c to %s and %s", op, a.kind, b.kind)
		}
		switch op {
		case '+':
			if a.kind == KindDate && b.kind == KindDate {
				return Null, fmt.Errorf("types: cannot add two dates")
			}
			return NewDate(a.i + b.i), nil
		case '-':
			if a.kind == KindDate && b.kind == KindDate {
				return NewInt(a.i - b.i), nil
			}
			if a.kind == KindDate {
				return NewDate(a.i - b.i), nil
			}
			return Null, fmt.Errorf("types: cannot subtract a date from an integer")
		default:
			return Null, fmt.Errorf("types: cannot apply %c to dates", op)
		}
	}
	if a.kind == KindFloat || b.kind == KindFloat {
		x, y := a.Float(), b.Float()
		switch op {
		case '+':
			return NewFloatChecked(x + y)
		case '-':
			return NewFloatChecked(x - y)
		case '*':
			return NewFloatChecked(x * y)
		case '/':
			if y == 0 {
				return Null, fmt.Errorf("types: division by zero")
			}
			return NewFloatChecked(x / y)
		}
	}
	x, y := a.i, b.i
	switch op {
	case '+':
		return NewInt(x + y), nil
	case '-':
		return NewInt(x - y), nil
	case '*':
		return NewInt(x * y), nil
	case '/':
		if y == 0 {
			return Null, fmt.Errorf("types: division by zero")
		}
		return NewInt(x / y), nil
	}
	return Null, fmt.Errorf("types: unknown operator %c", op)
}

// ParseDate parses a YYYY-MM-DD literal into a date datum.
func ParseDate(s string) (Datum, error) {
	if days, ok := parseISODate(s); ok {
		return NewDate(days), nil
	}
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("types: bad date literal %q: %w", s, err)
	}
	return NewDate(t.Unix() / 86400), nil
}

// Coerce converts d to the requested kind where a lossless or conventional
// conversion exists (int↔float, string date literals to DATE, etc.).
func Coerce(d Datum, to Kind) (Datum, error) {
	if d.IsNull() || d.kind == to {
		return d, nil
	}
	switch to {
	case KindInt:
		switch d.kind {
		case KindFloat:
			return NewInt(int64(d.f)), nil
		case KindDate:
			return NewInt(d.i), nil
		case KindString:
			v, err := strconv.ParseInt(strings.TrimSpace(d.s), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("types: cannot coerce %s to INT", d)
			}
			return NewInt(v), nil
		}
	case KindFloat:
		if d.IsNumeric() {
			return NewFloat(d.Float()), nil
		}
		if d.kind == KindString {
			v, err := strconv.ParseFloat(strings.TrimSpace(d.s), 64)
			if err != nil || math.IsNaN(v) {
				return Null, fmt.Errorf("types: cannot coerce %s to FLOAT", d)
			}
			return NewFloat(v), nil
		}
	case KindDate:
		switch d.kind {
		case KindInt:
			return NewDate(d.i), nil
		case KindString:
			return ParseDate(d.s)
		}
	case KindString:
		return NewString(d.String()), nil
	case KindBool:
		if d.kind == KindInt {
			return NewBool(d.i != 0), nil
		}
	}
	return Null, fmt.Errorf("types: cannot coerce %s datum to %s", d.kind, to)
}

// MinDatum returns the smaller of a and b under Compare.
func MinDatum(a, b Datum) Datum {
	if a.Compare(b) <= 0 {
		return a
	}
	return b
}

// MaxDatum returns the larger of a and b under Compare.
func MaxDatum(a, b Datum) Datum {
	if a.Compare(b) >= 0 {
		return a
	}
	return b
}

// Dates sit in most predicates and every plan line of this engine's
// workloads, so the exact "YYYY-MM-DD" shape is converted with integer
// arithmetic (the proleptic Gregorian day-count algorithms of Howard
// Hinnant's date library); anything else goes through the time package.

// parseISODate converts exactly "YYYY-MM-DD" (a valid calendar day) to days
// since the Unix epoch.
func parseISODate(s string) (int64, bool) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, false
	}
	num := func(t string) (int64, bool) {
		var n int64
		for i := 0; i < len(t); i++ {
			if t[i] < '0' || t[i] > '9' {
				return 0, false
			}
			n = n*10 + int64(t[i]-'0')
		}
		return n, true
	}
	y, okY := num(s[:4])
	m, okM := num(s[5:7])
	d, okD := num(s[8:])
	if !okY || !okM || !okD || m < 1 || m > 12 || d < 1 {
		return 0, false
	}
	monthDays := [...]int64{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}
	last := monthDays[m-1]
	if m == 2 && y%4 == 0 && (y%100 != 0 || y%400 == 0) {
		last = 29
	}
	if d > last {
		return 0, false
	}
	if m <= 2 {
		y--
	}
	era := y / 400
	if y < 0 {
		era = (y - 399) / 400
	}
	yoe := y - era*400
	mp := m + 9
	if m > 2 {
		mp = m - 3
	}
	doy := (153*mp+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return era*146097 + doe - 719468, true
}

// formatDate renders days since the Unix epoch as "YYYY-MM-DD".
func formatDate(days int64) string {
	z := days + 719468
	era := z / 146097
	if z < 0 {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d := doy - (153*mp+2)/5 + 1
	m := mp + 3
	if mp >= 10 {
		m = mp - 9
	}
	if m <= 2 {
		y++
	}
	if y < 0 || y > 9999 {
		return time.Unix(days*86400, 0).UTC().Format("2006-01-02")
	}
	var b [10]byte
	b[0], b[1], b[2], b[3] = byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10)
	b[4], b[5], b[6] = '-', byte('0'+m/10), byte('0'+m%10)
	b[7], b[8], b[9] = '-', byte('0'+d/10), byte('0'+d%10)
	return string(b[:])
}
