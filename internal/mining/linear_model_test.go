package mining

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"softdb/internal/catalog"
)

// epsBySort is EpsForConfidence as it read ε before the residuals went
// unsorted: sort them all and take the quantile's index.
func epsBySort(f *LinearFit, confidence float64) float64 {
	rs := slices.Clone(f.AbsResiduals)
	sort.Float64s(rs)
	n := len(rs)
	idx := n - 1
	if confidence < 1 {
		idx = max(int(math.Ceil(confidence*float64(n)))-1, 0)
	}
	lc := &catalog.LinearCorrelation{K: f.K, B0: f.B0, Eps: rs[idx]}
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

// TestEpsMatchesSortedResiduals: the ε that EpsForConfidence reads with a
// max scan (confidence 1) and a selection (below 1) has the bits of the one
// read from the fully sorted residuals, on random fits — exact lines, noisy
// ones, a few outliers, values drawn from a small grid so that residuals tie
// in long runs, ±0 and ±Inf among the points — at every confidence the miner
// uses and at the quantile edges.
func TestEpsMatchesSortedResiduals(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	negZero := math.Copysign(0, -1)
	confidences := []float64{1, 0.999, 0.99, 0.95, 0.9, 0.75, 0.5, 0.1, 1e-9}
	for trial := 0; trial < 600; trial++ {
		n := 2 + r.Intn([]int{10, 100, 3000}[trial%3])
		k, b0 := float64(r.Intn(7)-3), float64(r.Intn(9)-4)/2
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			x := float64(r.Intn(40) - 20)
			if trial%4 == 0 {
				x = []float64{negZero, 0, 1, -1}[r.Intn(4)]
			}
			y := k*x + b0
			switch trial % 5 {
			case 1:
				y += r.NormFloat64()
			case 2: // a small grid of offsets: long runs of tied residuals
				y += float64(r.Intn(3)-1) / 4
			case 3:
				if r.Intn(50) == 0 {
					y += 1000 * r.Float64()
				}
			case 4:
				if r.Intn(200) == 0 {
					y = []float64{math.Inf(1), math.Inf(-1), negZero}[r.Intn(3)]
				}
			}
			xs[i], ys[i] = x, y
		}
		for _, conf := range confidences {
			fit, err := fitLinearPoints(xs, ys)
			if err != nil {
				continue
			}
			want := epsBySort(fit, conf)
			got := fit.EpsForConfidence(conf)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("trial %d (n %d) confidence %g: ε %v, sorted residuals give %v", trial, n, conf, got, want)
			}
		}
	}
}

// TestSelectResidualMatchesSort: selection returns the element sort.Float64s
// puts at every index, on slices with NaNs, zeros, infinities and long runs
// of ties, and on already sorted and reversed input. Residuals are absolute
// values, so no −0 is among them (where both zeros were, either order is a
// sorted one and the index would name either).
func TestSelectResidualMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pool := []float64{math.NaN(), 0, 0, math.Inf(1), 1, 2, 2, 3.5}
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(400)
		rs := make([]float64, n)
		for i := range rs {
			if r.Intn(2) == 0 {
				rs[i] = pool[r.Intn(len(pool))]
			} else {
				rs[i] = float64(r.Intn(1 + trial%50))
			}
		}
		switch trial % 3 {
		case 1:
			sort.Float64s(rs)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(rs)))
		}
		sorted := slices.Clone(rs)
		sort.Float64s(sorted)
		for _, k := range []int{0, n / 2, n - 1, r.Intn(n)} {
			got := selectResidual(slices.Clone(rs), k)
			if want := sorted[k]; math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("trial %d: index %d of %d: selected %v, sorted %v", trial, k, n, got, want)
			}
		}
		if got, want := largestResidual(rs), sorted[n-1]; math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d: largest %v, sorted %v", trial, got, want)
		}
	}
}
