// Package mining implements the discovery algorithms the paper's soft
// constraints come from: linear correlations between numeric attribute
// pairs ([10]), join holes — maximal empty rectangles over a join's
// attribute plane ([8]), functional dependencies via partition refinement
// ([29] and the FD-mining literature), and simple min/max value ranges
// (Sybase-style soft range constraints).
package mining

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"softdb/internal/catalog"
	"softdb/internal/schema"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// LinearFit is a least-squares fit A ≈ K*B + B0 with its residual
// distribution, from which ε envelopes at any confidence are read off.
type LinearFit struct {
	K, B0 float64
	// AbsResiduals are |A - (K*B + B0)| sorted ascending.
	AbsResiduals []float64
	N            int
	// RangeA is the spread of A values, for judging ε's selectivity.
	RangeA float64

	// xs, ys are the fitted (B, A) points, kept so an envelope can be
	// checked against every row the fit saw.
	xs, ys []float64
}

// FitLinear computes the least-squares line over the non-null numeric
// pairs of columns aOrd and bOrd. It returns an error with fewer than two
// points or a degenerate B column.
func FitLinear(heap *storage.Heap, aOrd, bOrd int) (*LinearFit, error) {
	return fitLinearPoints(Points(heap, aOrd, bOrd))
}

// Points reads the points FitLinear fits: the (B, A) values of the
// latest-visible rows where both columns are non-NULL, for numeric columns.
func Points(heap *storage.Heap, aOrd, bOrd int) (xs, ys []float64) {
	cols := heap.Columns([]int{aOrd, bOrd})
	kinds := heap.Kinds()
	return points(numericOf(&cols[0], kinds[aOrd]), numericOf(&cols[1], kinds[bOrd]))
}

// numeric is a column read as float64s: vals[r] is row r's value unless
// nulls[r]. A column whose kind is not numeric has no vals.
type numeric struct {
	vals     []float64
	nulls    []bool
	hasNulls bool
}

func numericOf(col *vec.Col, kind types.Kind) numeric {
	switch kind {
	case types.KindFloat:
		return numeric{col.Floats, col.Nulls, col.HasNulls}
	case types.KindInt, types.KindDate:
		vals := make([]float64, len(col.Ints))
		for i, v := range col.Ints {
			vals[i] = float64(v)
		}
		return numeric{vals, col.Nulls, col.HasNulls}
	}
	return numeric{}
}

// points pairs the values of b (x) and a (y) in the rows where both are
// non-NULL; with no NULL in either column they are the columns themselves.
func points(a, b numeric) (xs, ys []float64) {
	if a.vals == nil || b.vals == nil {
		return nil, nil
	}
	if !a.hasNulls && !b.hasNulls {
		return b.vals, a.vals
	}
	for r := range a.vals {
		if !a.nulls[r] && !b.nulls[r] {
			xs = append(xs, b.vals[r])
			ys = append(ys, a.vals[r])
		}
	}
	return xs, ys
}

func fitLinearPoints(xs, ys []float64) (*LinearFit, error) {
	n := len(xs)
	if n < 2 {
		return nil, fmt.Errorf("mining: need at least 2 points, have %d", n)
	}
	var sumX, sumY, sumXX, sumXY float64
	for i := range xs {
		sumX += xs[i]
		sumY += ys[i]
		sumXX += xs[i] * xs[i]
		sumXY += xs[i] * ys[i]
	}
	fn := float64(n)
	den := fn*sumXX - sumX*sumX
	if den == 0 {
		return nil, fmt.Errorf("mining: B column is constant; no linear fit")
	}
	k := (fn*sumXY - sumX*sumY) / den
	b0 := (sumY - k*sumX) / fn
	fit := &LinearFit{K: k, B0: b0, N: n, xs: xs, ys: ys}
	minA, maxA := math.Inf(1), math.Inf(-1)
	for i := range xs {
		r := math.Abs(ys[i] - (k*xs[i] + b0))
		fit.AbsResiduals = append(fit.AbsResiduals, r)
		minA = math.Min(minA, ys[i])
		maxA = math.Max(maxA, ys[i])
	}
	sort.Float64s(fit.AbsResiduals)
	fit.RangeA = maxA - minA
	return fit, nil
}

// EpsForConfidence returns an ε at which the envelope K*B + B0 ± ε admits
// (catalog.LinearCorrelation.Admits) at least the given fraction of the
// fitted rows; confidence 1 asks for an absolute envelope. It starts from
// the residual |A - (K*B+B0)| at that quantile. The residual rounds
// differently from Admits, so the row defining the envelope can land a
// rounding step outside it: ε then widens by one unit in the last place of
// the largest term, doubling each step. Overflowing arithmetic never gets
// there and returns an infinite or NaN ε.
func (f *LinearFit) EpsForConfidence(confidence float64) float64 {
	n := len(f.AbsResiduals)
	if n == 0 {
		return 0
	}
	idx := n - 1
	if confidence < 1 {
		idx = max(int(math.Ceil(confidence*float64(n)))-1, 0)
	}
	lc := &catalog.LinearCorrelation{K: f.K, B0: f.B0, Eps: f.AbsResiduals[idx]}
	scale := math.Abs(f.B0)
	for i := range f.xs {
		scale = math.Max(scale, math.Max(math.Abs(f.ys[i]), math.Abs(f.K*f.xs[i])))
	}
	step := math.Max(scale*0x1p-52, math.SmallestNonzeroFloat64)
	for lc.Eps < math.Inf(1) && f.admitted(lc) < idx+1 {
		lc.Eps += step
		step *= 2
	}
	return lc.Eps
}

// admitted counts the fitted rows lc.Admits.
func (f *LinearFit) admitted(lc *catalog.LinearCorrelation) int {
	in := 0
	for i := range f.xs {
		if lc.AdmitsFloat(f.ys[i], f.xs[i]) {
			in++
		}
	}
	return in
}

// Selectivity reports ε's width relative to A's range: small values mean a
// derived predicate on A selects a narrow band, which is what makes the
// correlation useful ([10]'s selectivity requirement).
func (f *LinearFit) Selectivity(eps float64) float64 {
	if f.RangeA <= 0 {
		return 1
	}
	return math.Min(1, 2*eps/f.RangeA)
}

// LinearMinerConfig controls the table-wide correlation search.
type LinearMinerConfig struct {
	// MaxEpsFraction bounds ε relative to A's value range; pairs whose
	// absolute envelope is wider are rejected as unselective ([10]'s
	// threshold). Default 0.1.
	MaxEpsFraction float64
	// MinConfidence is the weakest SSC worth reporting when the absolute
	// envelope fails the ε test. Default 0.9.
	MinConfidence float64
	// MinRows skips tables with too little data. Default 32.
	MinRows int
}

func (c *LinearMinerConfig) defaults() {
	if c.MaxEpsFraction <= 0 {
		c.MaxEpsFraction = 0.1
	}
	if c.MinConfidence <= 0 {
		c.MinConfidence = 0.9
	}
	if c.MinRows <= 0 {
		c.MinRows = 32
	}
}

// MineCorrelations searches every ordered pair of numeric columns of the
// table for useful linear correlations, the [10] discovery pass. For each
// pair it prefers an absolute (100%) envelope when selective enough, else
// a statistical envelope at MinConfidence.
func MineCorrelations(def *schema.Table, heap *storage.Heap, cfg LinearMinerConfig) []*catalog.LinearCorrelation {
	cfg.defaults()
	if int(heap.RowCount()) < cfg.MinRows {
		return nil
	}
	var out []*catalog.LinearCorrelation
	ords := numericOrdinals(def)
	cols := heap.Columns(ords)
	nums := make([]numeric, len(ords))
	for i, ord := range ords {
		nums[i] = numericOf(&cols[i], def.Columns[ord].Type)
	}
	for ai, aOrd := range ords {
		for bi, bOrd := range ords {
			if aOrd == bOrd {
				continue
			}
			fit, err := fitLinearPoints(points(nums[ai], nums[bi]))
			if err != nil || fit.N < cfg.MinRows {
				continue
			}
			lc := &catalog.LinearCorrelation{
				Name: fmt.Sprintf("corr_%s_%s_%s",
					strings.ToLower(def.Name), strings.ToLower(def.Columns[aOrd].Name), strings.ToLower(def.Columns[bOrd].Name)),
				Table:  def.Name,
				ColA:   def.Columns[aOrd].Name,
				ColB:   def.Columns[bOrd].Name,
				K:      fit.K,
				B0:     fit.B0,
				Active: true,
			}
			lc.Eps = fit.EpsForConfidence(1)
			if fit.Selectivity(lc.Eps) > cfg.MaxEpsFraction {
				lc.Eps = fit.EpsForConfidence(cfg.MinConfidence)
				if fit.Selectivity(lc.Eps) > cfg.MaxEpsFraction {
					continue // not selective even statistically
				}
			}
			lc.Confidence = float64(fit.admitted(lc)) / float64(fit.N)
			lc.VerifiedVersion = heap.Version()
			out = append(out, lc)
		}
	}
	return out
}

func numericOrdinals(def *schema.Table) []int {
	var out []int
	for i, c := range def.Columns {
		switch c.Type {
		case types.KindInt, types.KindFloat, types.KindDate:
			out = append(out, i)
		}
	}
	return out
}
