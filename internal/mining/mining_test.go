package mining

import (
	"math"
	"math/rand"
	"testing"

	"softdb/internal/catalog"
	"softdb/internal/schema"
	"softdb/internal/storage"
	"softdb/internal/types"
)

func pairTable(t *testing.T, n int, f func(i int) (a, b float64)) (*schema.Table, *storage.Heap) {
	t.Helper()
	def := mustTable("t",
		schema.Column{Name: "a", Type: types.KindFloat},
		schema.Column{Name: "b", Type: types.KindFloat},
	)
	h := storage.NewHeap(def)
	for i := 0; i < n; i++ {
		a, b := f(i)
		h.Insert(types.Row{types.NewFloat(a), types.NewFloat(b)})
	}
	return def, h
}

func TestFitLinearExact(t *testing.T) {
	_, h := pairTable(t, 100, func(i int) (float64, float64) {
		b := float64(i)
		return 3*b + 7, b
	})
	fit, err := FitLinear(h, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.K-3) > 1e-9 || math.Abs(fit.B0-7) > 1e-9 {
		t.Errorf("fit: k=%g b0=%g", fit.K, fit.B0)
	}
	if fit.EpsForConfidence(1) > 1e-9 {
		t.Errorf("exact fit should have ~0 max residual: %g", fit.EpsForConfidence(1))
	}
	if fit.admitted(&catalog.LinearCorrelation{K: fit.K, B0: fit.B0, Eps: 0.001}) != fit.N {
		t.Error("confidence for tiny eps on exact data")
	}
}

func TestFitLinearWithNoiseAndOutliers(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	_, h := pairTable(t, 1000, func(i int) (float64, float64) {
		b := float64(i)
		a := 2*b + 5 + r.Float64()*2 - 1 // ±1 noise
		if i%100 == 0 {
			a += 500 // 1% outliers
		}
		return a, b
	})
	fit, err := FitLinear(h, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.K-2) > 0.1 {
		t.Errorf("slope: %g", fit.K)
	}
	eps99 := fit.EpsForConfidence(0.99)
	epsMax := fit.EpsForConfidence(1)
	if eps99 >= epsMax {
		t.Errorf("eps99 (%g) should be far below epsMax (%g)", eps99, epsMax)
	}
	conf := float64(fit.admitted(&catalog.LinearCorrelation{K: fit.K, B0: fit.B0, Eps: eps99})) / float64(fit.N)
	if conf < 0.99 {
		t.Errorf("confidence at eps99: %g", conf)
	}
	if epsMax < 400 {
		t.Errorf("outliers should dominate max residual: %g", epsMax)
	}
}

func TestFitLinearErrors(t *testing.T) {
	_, h := pairTable(t, 1, func(int) (float64, float64) { return 1, 1 })
	if _, err := FitLinear(h, 0, 1); err == nil {
		t.Error("single point should error")
	}
	_, h = pairTable(t, 50, func(i int) (float64, float64) { return float64(i), 5 })
	if _, err := FitLinear(h, 0, 1); err == nil {
		t.Error("constant B should error")
	}
}

func TestMineCorrelationsFindsAbsolute(t *testing.T) {
	def, h := pairTable(t, 200, func(i int) (float64, float64) {
		b := float64(i)
		return 1.5*b + 2 + float64(i%3)*0.1, b
	})
	out := MineCorrelations(def, h, LinearMinerConfig{})
	if len(out) == 0 {
		t.Fatal("expected a correlation")
	}
	found := false
	for _, lc := range out {
		if lc.ColA == "a" && lc.ColB == "b" {
			found = true
			if lc.Confidence != 1 {
				t.Errorf("tight envelope should be absolute: %v", lc.Confidence)
			}
			if math.Abs(lc.K-1.5) > 0.01 {
				t.Errorf("k: %g", lc.K)
			}
		}
	}
	if !found {
		t.Error("a=f(b) not discovered")
	}
}

func TestMineCorrelationsStatisticalFallback(t *testing.T) {
	def, h := pairTable(t, 1000, func(i int) (float64, float64) {
		b := float64(i)
		a := b
		if i%50 == 0 {
			a = b + 700 // 2% gross outliers widen the absolute envelope
		}
		return a, b
	})
	out := MineCorrelations(def, h, LinearMinerConfig{MinConfidence: 0.95})
	var forA *catalog.LinearCorrelation
	for _, lc := range out {
		if lc.ColA == "a" && lc.ColB == "b" {
			forA = lc
		}
	}
	if forA == nil {
		t.Fatal("statistical correlation not discovered")
	}
	if forA.Confidence >= 1 {
		t.Errorf("should be statistical: %v", forA.Confidence)
	}
	if forA.Confidence < 0.95 {
		t.Errorf("confidence: %v", forA.Confidence)
	}
}

func TestMineCorrelationsRejectsUncorrelated(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	def, h := pairTable(t, 500, func(i int) (float64, float64) {
		return r.Float64() * 1000, r.Float64() * 1000
	})
	out := MineCorrelations(def, h, LinearMinerConfig{})
	if len(out) != 0 {
		t.Errorf("noise should yield nothing: %d found", len(out))
	}
}

// --- hole mining ---

func TestExtractHolesFindsPlantedHole(t *testing.T) {
	// Points fill [0,100]² except the rectangle [40,60]×[40,60].
	var as, bs []float64
	r := rand.New(rand.NewSource(5))
	for len(as) < 4000 {
		a, b := r.Float64()*100, r.Float64()*100
		if a > 38 && a < 62 && b > 38 && b < 62 {
			continue
		}
		as = append(as, a)
		bs = append(bs, b)
	}
	holes := ExtractHoles(as, bs, types.KindFloat, types.KindFloat, HoleMinerConfig{Grid: 32})
	if len(holes) == 0 {
		t.Fatal("no holes found")
	}
	// The largest hole should cover the planted center.
	center := holes[0]
	if !center.A.Contains(types.NewFloat(50)) || !center.B.Contains(types.NewFloat(50)) {
		t.Errorf("largest hole should contain (50,50): %s", center)
	}
	// Every reported hole must be truly empty.
	for _, hrect := range holes {
		for i := range as {
			if hrect.A.Contains(types.NewFloat(as[i])) && hrect.B.Contains(types.NewFloat(bs[i])) {
				t.Fatalf("hole %s contains point (%g,%g)", hrect, as[i], bs[i])
			}
		}
	}
}

func TestExtractHolesIntKind(t *testing.T) {
	// Integer grid with a missing band a in [100, 200).
	var as, bs []float64
	for a := 0; a < 300; a += 5 {
		if a >= 100 && a < 200 {
			continue
		}
		for b := 0; b < 100; b += 10 {
			as = append(as, float64(a))
			bs = append(bs, float64(b))
		}
	}
	holes := ExtractHoles(as, bs, types.KindInt, types.KindInt, HoleMinerConfig{Grid: 16})
	if len(holes) == 0 {
		t.Fatal("no holes")
	}
	for _, hrect := range holes {
		for i := range as {
			if hrect.A.Contains(types.NewInt(int64(as[i]))) && hrect.B.Contains(types.NewInt(int64(bs[i]))) {
				t.Fatalf("hole %s contains (%g,%g)", hrect, as[i], bs[i])
			}
		}
	}
}

func TestMineJoinHolesEndToEnd(t *testing.T) {
	cat := catalog.New()
	oneDef := mustTable("one",
		schema.Column{Name: "k", Type: types.KindInt},
		schema.Column{Name: "a", Type: types.KindInt},
	)
	twoDef := mustTable("two",
		schema.Column{Name: "k", Type: types.KindInt},
		schema.Column{Name: "b", Type: types.KindInt},
	)
	one, _ := cat.CreateTable(oneDef)
	two, _ := cat.CreateTable(twoDef)
	// Join on k. a is i, b is i+offset; plant a hole: no pairs with
	// a in [250,500) (those keys are absent from table two).
	for i := 0; i < 1000; i++ {
		one.Heap.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i))})
		if i >= 250 && i < 500 {
			continue
		}
		two.Heap.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 100))})
	}
	jh, n, err := MineJoinHoles(JoinHoleRequest{
		Left: one, Right: two,
		JoinLeft: "k", JoinRight: "k",
		AttrLeft: "a", AttrRight: "b",
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 750 {
		t.Errorf("join size: %d", n)
	}
	if len(jh.Holes) == 0 {
		t.Fatal("no holes found over the missing key band")
	}
	// Some hole should cover a values inside the missing band.
	found := false
	for _, hrect := range jh.Holes {
		if hrect.A.Contains(types.NewInt(375)) {
			found = true
		}
	}
	if !found {
		t.Errorf("missing band not detected: %v", jh.Holes)
	}
}

// --- FD mining ---

func TestMineFDsExact(t *testing.T) {
	def := mustTable("denorm",
		schema.Column{Name: "id", Type: types.KindInt},
		schema.Column{Name: "cust", Type: types.KindInt},
		schema.Column{Name: "cust_name", Type: types.KindString},
	)
	h := storage.NewHeap(def)
	names := []string{"ann", "bob", "carol"}
	for i := 0; i < 90; i++ {
		c := i % 3
		h.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(int64(c)), types.NewString(names[c])})
	}
	fds := MineFDs(def, h, FDMinerConfig{})
	hasCustName := false
	for _, fd := range fds {
		if len(fd.Det) == 1 && fd.Det[0] == "cust" && fd.Dep == "cust_name" {
			hasCustName = true
			if fd.Confidence != 1 {
				t.Errorf("exact FD confidence: %g", fd.Confidence)
			}
		}
		// id is a key: id → everything should be found too.
	}
	if !hasCustName {
		t.Errorf("cust → cust_name not found: %v", fds)
	}
	// Minimality: cust→cust_name found, so {cust,id}→cust_name must not be
	// reported... (id→cust_name is reported separately since id is a key).
	for _, fd := range fds {
		if len(fd.Det) == 2 && fd.Dep == "cust_name" {
			t.Errorf("non-minimal FD reported: %v", fd)
		}
	}
}

func TestMineFDsApproximate(t *testing.T) {
	def := mustTable("t",
		schema.Column{Name: "x", Type: types.KindInt},
		schema.Column{Name: "y", Type: types.KindInt},
	)
	h := storage.NewHeap(def)
	for i := 0; i < 100; i++ {
		y := i % 10
		if i >= 95 {
			y = 99 // 5 dirty rows break x→y for x in {5..9}
		}
		h.Insert(types.Row{types.NewInt(int64(i % 10)), types.NewInt(int64(y))})
	}
	fds := MineFDs(def, h, FDMinerConfig{MinConfidence: 0.9})
	found := false
	for _, fd := range fds {
		if len(fd.Det) == 1 && fd.Det[0] == "x" && fd.Dep == "y" {
			found = true
			if fd.Confidence >= 1 || fd.Confidence < 0.9 {
				t.Errorf("approximate confidence: %g", fd.Confidence)
			}
		}
	}
	if !found {
		t.Errorf("approximate FD not found: %v", fds)
	}
	// With exact-only config the dirty FD disappears.
	exact := MineFDs(def, h, FDMinerConfig{MinConfidence: 1})
	for _, fd := range exact {
		if len(fd.Det) == 1 && fd.Det[0] == "x" && fd.Dep == "y" {
			t.Error("dirty FD reported as exact")
		}
	}
}

func TestVerifyFD(t *testing.T) {
	def := mustTable("t",
		schema.Column{Name: "x", Type: types.KindInt},
		schema.Column{Name: "y", Type: types.KindInt},
	)
	h := storage.NewHeap(def)
	for i := 0; i < 50; i++ {
		h.Insert(types.Row{types.NewInt(int64(i % 5)), types.NewInt(int64(i % 5))})
	}
	if conf := VerifyFD(def, h, []string{"x"}, "y"); conf != 1 {
		t.Errorf("clean FD: %g", conf)
	}
	h.Insert(types.Row{types.NewInt(0), types.NewInt(999)})
	if conf := VerifyFD(def, h, []string{"x"}, "y"); conf >= 1 {
		t.Errorf("dirty FD should drop below 1: %g", conf)
	}
}

// --- range mining ---

func TestMineRanges(t *testing.T) {
	def := mustTable("t",
		schema.Column{Name: "v", Type: types.KindInt},
		schema.Column{Name: "s", Type: types.KindString, Nullable: true},
	)
	h := storage.NewHeap(def)
	for i := 10; i <= 50; i++ {
		h.Insert(types.Row{types.NewInt(int64(i)), types.Null})
	}
	cons := MineRanges(def, h, 16)
	if len(cons) != 1 {
		t.Fatalf("constraints: %d (string column had only NULLs)", len(cons))
	}
	c := cons[0]
	if c.Mode != catalog.ModeSoftAbsolute || c.Kind != catalog.Check {
		t.Errorf("mode/kind: %v %v", c.Mode, c.Kind)
	}
	// The check should accept 10..50 and reject outside.
	row := types.Row{types.NewInt(30), types.Null}
	v, _ := c.CheckExpr.Eval(row)
	if !v.Bool() {
		t.Error("30 in range")
	}
	row = types.Row{types.NewInt(51), types.Null}
	v, _ = c.CheckExpr.Eval(row)
	if v.Bool() {
		t.Error("51 out of range")
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

// TestMineFDsExactValues: region → big holds on float images (2^53 and
// 2^53+1 share one) but not on values, so it is neither mined nor verified.
func TestMineFDsExactValues(t *testing.T) {
	def := mustTable("t",
		schema.Column{Name: "region", Type: types.KindInt},
		schema.Column{Name: "big", Type: types.KindInt},
	)
	h := storage.NewHeap(def)
	for i := 0; i < 64; i++ {
		h.Insert(types.Row{types.NewInt(int64(i % 4)), types.NewInt(1<<53 + int64(i/4%2))})
	}
	for _, fd := range MineFDs(def, h, FDMinerConfig{}) {
		if fd.Dep == "big" {
			t.Errorf("mined %v → big, which holds only on float images", fd.Det)
		}
	}
	if c := VerifyFD(def, h, []string{"region"}, "big"); c != 0.5 {
		t.Errorf("VerifyFD(region → big) = %g, want 0.5", c)
	}
}
