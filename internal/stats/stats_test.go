package stats

import (
	"math"
	"math/rand"
	"testing"

	"softdb/internal/expr"
	"softdb/internal/schema"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/vec"
)

func intHeap(vals []int64, nulls int) *storage.Heap {
	def := mustTable("t", schema.Column{Name: "v", Type: types.KindInt, Nullable: true})
	h := storage.NewHeap(def)
	for _, v := range vals {
		h.Insert(types.Row{types.NewInt(v)})
	}
	for i := 0; i < nulls; i++ {
		h.Insert(types.Row{types.Null})
	}
	return h
}

func TestCollectBasics(t *testing.T) {
	vals := make([]int64, 0, 1000)
	for i := 0; i < 1000; i++ {
		vals = append(vals, int64(i%100))
	}
	ts := Collect(intHeap(vals, 50), 16)
	cs := ts.Column("v")
	if cs == nil {
		t.Fatal("no stats for v")
	}
	if cs.RowCount != 1050 || cs.NullCount != 50 || cs.NDV != 100 {
		t.Errorf("counts: %s", cs)
	}
	if cs.Min.Int() != 0 || cs.Max.Int() != 99 {
		t.Errorf("min/max: %s", cs)
	}
	if cs.Hist == nil || cs.Hist.Buckets() == 0 || cs.Hist.Buckets() > 16 {
		t.Errorf("histogram buckets: %d", cs.Hist.Buckets())
	}
	if ts.Column("missing") != nil {
		t.Error("missing column yields nil")
	}
	if ts.Column("V") == nil {
		t.Error("lookup is case-insensitive")
	}
}

func TestMCVs(t *testing.T) {
	vals := []int64{7, 7, 7, 7, 7, 1, 2, 3, 9, 9}
	ts := Collect(intHeap(vals, 0), 8)
	cs := ts.Column("v")
	if len(cs.MCVs) == 0 || cs.MCVs[0].Value.Int() != 7 || cs.MCVs[0].Count != 5 {
		t.Errorf("mcvs: %v", cs.MCVs)
	}
	// Singleton values are not MCVs.
	for _, m := range cs.MCVs {
		if m.Count <= 1 {
			t.Errorf("singleton MCV: %v", m)
		}
	}
}

func TestSelectivityEq(t *testing.T) {
	vals := make([]int64, 0)
	for i := 0; i < 900; i++ {
		vals = append(vals, int64(i%90))
	}
	for i := 0; i < 100; i++ {
		vals = append(vals, 1000) // heavy hitter
	}
	ts := Collect(intHeap(vals, 0), 16)
	cs := ts.Column("v")
	// MCV hit: exact frequency.
	if got := cs.SelectivityEq(types.NewInt(1000)); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("MCV selectivity: %g", got)
	}
	// Non-MCV: roughly 1/NDV.
	got := cs.SelectivityEq(types.NewInt(5))
	want := 1.0 / float64(cs.NDV)
	if got < want/3 || got > want*3 {
		t.Errorf("eq selectivity: %g want ~%g", got, want)
	}
	// Out of range: zero.
	if cs.SelectivityEq(types.NewInt(99999)) != 0 {
		t.Error("out-of-range equality should be 0")
	}
	if cs.SelectivityEq(types.Null) != 0 {
		t.Error("NULL equality should be 0")
	}
}

func TestSelectivityInterval(t *testing.T) {
	vals := make([]int64, 0, 10000)
	for i := 0; i < 10000; i++ {
		vals = append(vals, int64(i))
	}
	ts := Collect(intHeap(vals, 0), 32)
	cs := ts.Column("v")
	cases := []struct {
		iv   expr.Interval
		want float64
		tol  float64
	}{
		{expr.Between(types.NewInt(0), types.NewInt(999), true, true), 0.1, 0.03},
		{expr.Between(types.NewInt(2500), types.NewInt(7499), true, true), 0.5, 0.05},
		{expr.AtLeast(types.NewInt(9000), true), 0.1, 0.03},
		{expr.AtMost(types.NewInt(-5), true), 0, 0.01},
		{expr.Unbounded(), 1, 0.001},
	}
	for _, c := range cases {
		got := cs.SelectivityInterval(c.iv)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("interval %s: %g want %g±%g", c.iv, got, c.want, c.tol)
		}
	}
	if got := cs.SelectivityInterval(expr.Interval{ExactEmpty: true}); got != 0 {
		t.Errorf("empty interval: %g", got)
	}
}

func TestSelectivityIntervalSkewed(t *testing.T) {
	// 90% of mass at small values; the histogram should capture it.
	r := rand.New(rand.NewSource(8))
	vals := make([]int64, 0, 10000)
	for i := 0; i < 9000; i++ {
		vals = append(vals, int64(r.Intn(100)))
	}
	for i := 0; i < 1000; i++ {
		vals = append(vals, int64(100+r.Intn(9900)))
	}
	ts := Collect(intHeap(vals, 0), 32)
	cs := ts.Column("v")
	got := cs.SelectivityInterval(expr.AtMost(types.NewInt(99), true))
	if math.Abs(got-0.9) > 0.05 {
		t.Errorf("skewed selectivity: %g want ~0.9", got)
	}
}

func TestClusterRatio(t *testing.T) {
	asc := make([]int64, 1000)
	for i := range asc {
		asc[i] = int64(i)
	}
	ts := Collect(intHeap(asc, 0), 8)
	if cr := ts.Column("v").ClusterRatio; cr != 1 {
		t.Errorf("ascending cluster ratio: %g", cr)
	}
	r := rand.New(rand.NewSource(1))
	shuffled := append([]int64(nil), asc...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	ts = Collect(intHeap(shuffled, 0), 8)
	if cr := ts.Column("v").ClusterRatio; cr < 0.3 || cr > 0.7 {
		t.Errorf("random cluster ratio: %g want ~0.5", cr)
	}
}

func mkEstimator(ts *TableStats) *Estimator {
	return &Estimator{Stats: ts, ColumnName: func(ord int) string {
		if ord == 0 {
			return "v"
		}
		return ""
	}}
}

func col0() *expr.Column { return expr.NewColumn("t", "v", 0, types.KindInt) }

func TestEstimatorCombinesSameColumnIntervals(t *testing.T) {
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(i)
	}
	est := mkEstimator(Collect(intHeap(vals, 0), 32))
	// v >= 1000 AND v < 2000 is one 10% range, not 1/3 * 1/3.
	conj := []expr.Expr{
		expr.NewBinary(expr.OpGe, col0(), expr.NewConst(types.NewInt(1000))),
		expr.NewBinary(expr.OpLt, col0(), expr.NewConst(types.NewInt(2000))),
	}
	got := est.Selectivity(conj)
	if math.Abs(got-0.1) > 0.03 {
		t.Errorf("combined range: %g want ~0.1", got)
	}
}

func TestEstimatorDefaultsWithoutStats(t *testing.T) {
	est := &Estimator{}
	eq := []expr.Expr{expr.Eq(col0(), expr.NewConst(types.NewInt(5)))}
	if got := est.Selectivity(eq); got != 0.1 {
		t.Errorf("default eq: %g", got)
	}
	rng := []expr.Expr{expr.NewBinary(expr.OpLt, col0(), expr.NewConst(types.NewInt(5)))}
	if got := est.Selectivity(rng); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("default range: %g", got)
	}
	if est.Selectivity(nil) != 1 {
		t.Error("no conjuncts: selectivity 1")
	}
}

func TestEstimatorIsNullUsesStats(t *testing.T) {
	vals := make([]int64, 900)
	est := mkEstimator(Collect(intHeap(vals, 100), 8))
	isNull := []expr.Expr{expr.NewUnary(expr.OpIsNull, col0())}
	if got := est.Selectivity(isNull); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("IS NULL: %g want 0.1", got)
	}
	isNotNull := []expr.Expr{expr.NewUnary(expr.OpIsNotNull, col0())}
	if got := est.Selectivity(isNotNull); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("IS NOT NULL: %g want 0.9", got)
	}
}

func TestSelectivityWithSSCs(t *testing.T) {
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(i)
	}
	est := mkEstimator(Collect(intHeap(vals, 0), 32))
	orig := []expr.Expr{expr.NewBinary(expr.OpGe, col0(), expr.NewConst(types.NewInt(0)))}
	twin := []EstimationPredicate{{
		Pred:       expr.NewBinary(expr.OpLt, col0(), expr.NewConst(types.NewInt(1000))),
		Confidence: 0.9,
		Source:     "ssc1",
	}}
	with := est.SelectivityWithSSCs(orig, twin)
	without := est.Selectivity(orig)
	if with >= without {
		t.Errorf("twin should tighten: %g vs %g", with, without)
	}
	// Confidence-weighted: sel*0.9 + (1-0.9)*base.
	expected := est.Selectivity(append(append([]expr.Expr(nil), orig...), twin[0].Pred))*0.9 + 0.1*without
	if math.Abs(with-expected) > 1e-9 {
		t.Errorf("adjustment: %g want %g", with, expected)
	}
	// No twins: passthrough.
	if est.SelectivityWithSSCs(orig, nil) != without {
		t.Error("no twins should equal plain selectivity")
	}
}

func TestBuildColumnStatsEmpty(t *testing.T) {
	nulls := &vec.Col{Class: vec.ClassInt, Ints: make([]int64, 5), Nulls: []bool{true, true, true, true, true}, HasNulls: true}
	cs := BuildColumnStats("x", types.KindInt, nulls, 8)
	if cs.RowCount != 5 || cs.NDV != 0 || !cs.Min.IsNull() {
		t.Errorf("empty column: %s", cs)
	}
	if got := cs.SelectivityInterval(expr.AtLeast(types.NewInt(0), true)); got == 0 {
		// With no histogram we fall back to the default, never 0.
		t.Errorf("no-histogram selectivity: %g", got)
	}
}

// Property: selectivity of an interval matches the true fraction within
// histogram error bounds on uniform data.
func TestSelectivityAccuracyProperty(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	vals := make([]int64, 20000)
	for i := range vals {
		vals[i] = int64(r.Intn(5000))
	}
	ts := Collect(intHeap(vals, 0), 32)
	cs := ts.Column("v")
	for trial := 0; trial < 100; trial++ {
		lo := int64(r.Intn(5000))
		hi := lo + int64(r.Intn(2000))
		iv := expr.Between(types.NewInt(lo), types.NewInt(hi), true, true)
		est := cs.SelectivityInterval(iv)
		actual := 0
		for _, v := range vals {
			if v >= lo && v <= hi {
				actual++
			}
		}
		af := float64(actual) / float64(len(vals))
		if math.Abs(est-af) > 0.05 {
			t.Fatalf("interval [%d,%d]: est %.4f actual %.4f", lo, hi, est, af)
		}
	}
}

// mustTable is a test-local NewTable that panics on error; the schema
// package itself no longer exports a panicking constructor.
func mustTable(name string, cols ...schema.Column) *schema.Table {
	def, err := schema.NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return def
}
