package rewrite

import (
	"math"
	"testing"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/types"
)

var envelopeKinds = [3]types.Kind{types.KindInt, types.KindFloat, types.KindDate}

// envelopeDatum converts f to a datum of kind, rounding to the nearest
// integer for INT and DATE; ok is false past the int64 range.
func envelopeDatum(kind types.Kind, f float64) (types.Datum, bool) {
	if kind == types.KindFloat {
		return types.NewFloat(f), true
	}
	f = math.Round(f)
	if !(f > -0x1p63 && f < 0x1p63) {
		return types.Null, false
	}
	return expr.NumericFromFloat(kind, f), true
}

// envelopeStep moves d by n representable steps: integers for INT and
// DATE, floats for FLOAT. ok is false past the int64 range.
func envelopeStep(d types.Datum, n int8) (types.Datum, bool) {
	if d.Kind() == types.KindFloat {
		f := d.Float()
		for ; n > 0; n-- {
			f = math.Nextafter(f, math.Inf(1))
		}
		for ; n < 0; n++ {
			f = math.Nextafter(f, math.Inf(-1))
		}
		return types.NewFloat(f), true
	}
	i := d.IntImage()
	if (n > 0 && i > math.MaxInt64-int64(n)) || (n < 0 && i < math.MinInt64-int64(n)) {
		return types.Null, false
	}
	if d.Kind() == types.KindDate {
		return types.NewDate(i + int64(n)), true
	}
	return types.NewInt(i + int64(n)), true
}

// FuzzEnvelopeSoundness checks the contract between a correlation's row
// test and the bounds the rewriter derives from it (DESIGN.md §25). For a
// pair (a, b) that lc.Admits, over INT, FLOAT and DATE columns at any
// magnitude and a few representable steps either side of the envelope's
// edges, a filter interval holding one column's value — the point
// itself, or a window around it — derives through deriveOther and
// floatToInterval an interval on the other column that holds the other
// value, in both directions. For a unit slope the derived bounds carry
// origins, and rebinding them for another literal must give what a fresh
// derivation from that literal gives.
func FuzzEnvelopeSoundness(f *testing.F) {
	f.Add(2.0, 5.0, 1.5, 3.0, 1.0, uint8(0), 1.0, 2.0, 7.0, int8(0))
	f.Add(1.0, 21.0, 10.5, 100.0, -1.0, uint8(10), 0.0, 5.0, 250.0, int8(0))
	f.Add(0.57, -4.009, 1.165, 13.93, 1.0, uint8(5), 0.25, 0.5, 12.5, int8(0))
	f.Add(1.0, 1e20, 0.0, -100.0, 0.0, uint8(4), 1.0, 1.0, 3.0, int8(0))
	f.Add(-3.0, 1e16, 2.0, 3.3e15, 1.0, uint8(0), 8.0, 8.0, -1e15, int8(0))
	f.Add(1e-9, 123456789.0, 0.5, 9e18, -1.0, uint8(1), 1e3, 1e3, 1.0, int8(0))
	f.Add(1.0, 0.1, 0.2, 0x1p53+2, 1.0, uint8(8), 3.0, 1.0, 0x1p60, int8(0))
	f.Add(1.0, 0x1p53+4, 0.0, 0.0, 0.0, uint8(0), 0.0, 0.0, 9.0, int8(-1))
	f.Fuzz(func(t *testing.T, k, b0, eps, b, frac float64, kinds uint8, wlo, whi, other float64, nudge int8) {
		for _, v := range []float64{k, b0, eps, b, frac, wlo, whi, other} {
			if math.IsNaN(v) || math.Abs(v) > 1e300 {
				return
			}
		}
		if eps < 0 || math.Abs(frac) > 2 {
			return
		}
		var kind [2]types.Kind // a, b
		kind[0], kind[1] = envelopeKinds[kinds%3], envelopeKinds[kinds/3%3]
		var val [2]types.Datum
		var ok bool
		if val[1], ok = envelopeDatum(kind[1], b); !ok {
			return
		}
		if val[1], ok = envelopeStep(val[1], nudge/16); !ok {
			return
		}
		if val[0], ok = envelopeDatum(kind[0], k*val[1].Float()+b0+frac*eps); !ok {
			return
		}
		if val[0], ok = envelopeStep(val[0], nudge%8); !ok {
			return
		}
		lc := &catalog.LinearCorrelation{Name: "lc", K: k, B0: b0, Eps: eps, Confidence: 1, Active: true}
		if !lc.Admits(val[0], val[1]) {
			return
		}
		lb := boundFromCorrelation(lc, 0, 1)
		derive := func(known int, iv expr.Interval) (expr.Interval, bool) {
			fl, ok := toFloatInterval(iv)
			if !ok {
				return expr.Interval{}, false
			}
			d, ok := lb.deriveOther(known, fl)
			if !ok {
				return expr.Interval{}, false
			}
			return floatToInterval(d, kind[1-known]), true
		}
		for known := 0; known < 2; known++ {
			x, target := val[known], 1-known
			filters := []expr.Interval{expr.Point(x)}
			lo, okLo := envelopeDatum(kind[known], x.Float()-math.Abs(wlo))
			hi, okHi := envelopeDatum(kind[known], x.Float()+math.Abs(whi))
			if okLo && okHi && lo.Compare(x) <= 0 && x.Compare(hi) <= 0 {
				filters = append(filters, expr.Between(lo, hi, true, true))
			}
			for _, iv := range filters {
				div, ok := derive(known, iv)
				if ok && !div.Contains(val[target]) {
					t.Fatalf("K=%v B0=%v eps=%v admits (a=%v, b=%v), but filter %v on col%d derives %v on col%d",
						k, b0, eps, val[0], val[1], iv, known, div, target)
				}
			}
			if k != 1 {
				continue
			}
			// The template path: origins of the bounds derived from literal
			// x, rebound for literal y, against a fresh derivation from y.
			y, ok := envelopeDatum(kind[known], other)
			if !ok {
				continue
			}
			fromX, okX := derive(known, expr.Point(x))
			fromY, okY := derive(known, expr.Point(y))
			slot := expr.Origin{Slot: 1}
			oLo, oHi, affine := lb.deriveOrigins(known, expr.Point(x).WithOrigins(slot, slot), kind[target])
			if !okX || !okY || !affine {
				continue
			}
			lits := []types.Datum{y}
			if oLo.Slot > 0 && fromX.HasLo && fromY.HasLo {
				if got := oLo.Apply(lits, fromX.Lo); got.Kind() != fromY.Lo.Kind() || got.Compare(fromY.Lo) != 0 {
					t.Fatalf("K=1 B0=%v eps=%v: lower bound from %v rebinds to %v for %v, a fresh derivation gives %v",
						b0, eps, x, got, y, fromY.Lo)
				}
			}
			if oHi.Slot > 0 && fromX.HasHi && fromY.HasHi {
				if got := oHi.Apply(lits, fromX.Hi); got.Kind() != fromY.Hi.Kind() || got.Compare(fromY.Hi) != 0 {
					t.Fatalf("K=1 B0=%v eps=%v: upper bound from %v rebinds to %v for %v, a fresh derivation gives %v",
						b0, eps, x, got, y, fromY.Hi)
				}
			}
		}
	})
}
