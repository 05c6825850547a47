package types

import (
	"cmp"
	"encoding/binary"
	"math"
)

// Key image tags. Every image starts with one, so images of consecutive
// datums concatenate without a separator and never run into each other.
const (
	keyNull byte = iota
	keyInt
	keyFloat
	keyString
	keyFalse
	keyTrue
)

// AppendKey appends the key image of each datum to buf: the one value
// equality every hashed grouping, DISTINCT, join and key check uses. A
// number keys by its exact value: an integer-valued number in int64 range
// as that int64 whatever its kind (so -0 keys as 0), any other FLOAT as its
// bits. A string keys as a tag, its length and its bytes; a BOOL or a NULL
// is a single tag. So two datums of the same kind key equal exactly when Compare
// reports them equal. INT or DATE against FLOAT is not exact under Compare,
// which compares in FLOAT: an equality across those kinds (see KeyInFloat)
// keys both sides through AppendEqKey.
func AppendKey(buf []byte, ds ...Datum) []byte {
	for _, d := range ds {
		switch d.kind {
		case KindNull:
			buf = append(buf, keyNull)
		case KindInt, KindDate:
			buf = binary.LittleEndian.AppendUint64(append(buf, keyInt), uint64(d.i))
		case KindFloat:
			buf = appendFloat(buf, d.f)
		case KindString:
			buf = binary.AppendUvarint(append(buf, keyString), uint64(len(d.s)))
			buf = append(buf, d.s...)
		case KindBool:
			buf = append(buf, keyFalse+byte(d.i))
		}
	}
	return buf
}

// KeyInFloat reports whether an equality between values of static kinds a
// and b keys both sides in FLOAT: one is FLOAT and the other INT or DATE.
func KeyInFloat(a, b Kind) bool {
	intLike := func(k Kind) bool { return k == KindInt || k == KindDate }
	return a == KindFloat && intLike(b) || b == KindFloat && intLike(a)
}

// AppendEqKey appends d's key image as one side of an equality for whose
// two static kinds KeyInFloat gave inFloat: a number's image in FLOAT
// (that of NewFloat(d.Float())) when inFloat, else d's own.
func AppendEqKey(buf []byte, d Datum, inFloat bool) []byte {
	if inFloat && d.IsNumeric() {
		return appendFloat(buf, d.Float())
	}
	return AppendKey(buf, d)
}

func appendFloat(buf []byte, f float64) []byte {
	if f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63 {
		return binary.LittleEndian.AppendUint64(append(buf, keyInt), uint64(int64(f)))
	}
	return binary.LittleEndian.AppendUint64(append(buf, keyFloat), math.Float64bits(f))
}

// CompareFloat orders two floats the way Compare orders FLOAT datums. No
// datum holds a NaN (a NaN result is ErrNaN at its source), so this is a
// total order with -0 equal to 0.
func CompareFloat(a, b float64) int { return cmp.Compare(a, b) }
