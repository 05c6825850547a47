package expr

import (
	"math"
	"math/rand"
	"testing"

	"softdb/internal/types"
)

// TestNumIntervalMatchesIntervalAlgebra pins the typed page tests to the
// Interval algebra they replace on the scan path: for random numeric
// intervals (every bound shape, INT/DATE/FLOAT mixes, inverted and
// flagged-empty ones) and random page ranges (including min > max and
// non-numeric ones), Covers and Disjoint return exactly what
// Between(min, max).CoveredBy / .Disjoint return, or decline. INT bounds
// include the int64 extremes.
func TestNumIntervalMatchesIntervalAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	numeric := func() types.Datum {
		switch v := int64(rng.Intn(13) - 6); rng.Intn(9) {
		case 0, 1, 2:
			return types.NewInt(v)
		case 8:
			return types.NewInt([]int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64}[rng.Intn(4)])
		case 3, 4:
			return types.NewDate(v)
		case 5, 6:
			return types.NewFloat(float64(v) / 2)
		default:
			return types.NewFloat(math.NaN())
		}
	}
	for trial := 0; trial < 200000; trial++ {
		var iv Interval
		switch rng.Intn(6) {
		case 0:
			iv = AtLeast(numeric(), rng.Intn(2) == 0)
		case 1:
			iv = AtMost(numeric(), rng.Intn(2) == 0)
		case 2:
			iv = Point(numeric())
		case 3: // raw, possibly inverted and not normalized
			iv = Interval{HasLo: true, HasHi: true, Lo: numeric(), Hi: numeric(),
				LoIncl: rng.Intn(2) == 0, HiIncl: rng.Intn(2) == 0}
		case 4:
			iv = Interval{ExactEmpty: true}
		default:
			iv = Between(numeric(), numeric(), rng.Intn(2) == 0, rng.Intn(2) == 0)
		}
		n, ok := iv.Numeric()
		if !ok {
			t.Fatalf("numeric interval %s did not resolve", iv)
		}
		min, max := numeric(), numeric()
		if rng.Intn(20) == 0 {
			max = types.NewString("x")
		}
		page := Between(min, max, true, true)
		covered, okC := n.Covers(min, max)
		disjoint, okD := n.Disjoint(min, max)
		if nonNumeric := !min.IsNumeric() || !max.IsNumeric(); okC == nonNumeric || okD == nonNumeric {
			t.Fatalf("page [%s, %s]: ok=%v/%v", min, max, okC, okD)
		}
		if !okC {
			continue
		}
		if want := page.CoveredBy(iv); covered != want {
			t.Fatalf("page [%s, %s] covered by %s: typed %v, algebra %v", min, max, iv, covered, want)
		}
		if want := page.Disjoint(iv); disjoint != want {
			t.Fatalf("page [%s, %s] disjoint from %s: typed %v, algebra %v", min, max, iv, disjoint, want)
		}
	}
	if _, ok := AtLeast(types.NewString("a"), true).Numeric(); ok {
		t.Fatal("string bound resolved as numeric")
	}
	if _, ok := Point(types.NewBool(true)).Numeric(); ok {
		t.Fatal("bool bound resolved as numeric")
	}
}
