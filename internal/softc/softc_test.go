package softc

import (
	"math"
	"strings"
	"testing"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/schema"
	"softdb/internal/storage"
	"softdb/internal/types"
)

func setupPurchase(t *testing.T, n int, latEvery int) (*catalog.Catalog, *catalog.TableEntry) {
	t.Helper()
	cat := catalog.New()
	def := mustTable("purchase",
		schema.Column{Name: "id", Type: types.KindInt},
		schema.Column{Name: "order_date", Type: types.KindDate},
		schema.Column{Name: "ship_date", Type: types.KindDate},
	)
	te, err := cat.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		lag := i % 20
		if latEvery > 0 && i%latEvery == 0 {
			lag = 90
		}
		te.Heap.Insert(types.Row{
			types.NewInt(int64(i)),
			types.NewDate(int64(i)),
			types.NewDate(int64(i + lag)),
		})
	}
	return cat, te
}

func TestDiscoverTable(t *testing.T) {
	cat, _ := setupPurchase(t, 500, 0)
	m := NewManager(cat)
	c, err := m.DiscoverTable("purchase")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Correlations) == 0 {
		t.Error("ship≈order correlation should be found")
	}
	if len(c.Ranges) != 3 {
		t.Errorf("ranges: %d", len(c.Ranges))
	}
	if len(m.Events) == 0 {
		t.Error("events should log discovery")
	}
}

func TestSelectCorrelationsPrefersIndexAsymmetry(t *testing.T) {
	cat, _ := setupPurchase(t, 500, 0)
	if _, err := cat.CreateIndex("idx_od", "purchase", []string{"order_date"}, false); err != nil {
		t.Fatal(err)
	}
	m := NewManager(cat)
	c, _ := m.DiscoverTable("purchase")
	scored := m.SelectCorrelations(c.Correlations, 0)
	if len(scored) == 0 {
		t.Fatal("nothing scored")
	}
	// The top candidate should derive the indexed column (order_date as A).
	top := scored[0]
	if !strings.EqualFold(top.Corr.ColA, "order_date") {
		t.Errorf("top pick should target the indexed column: %s", top.Corr.Describe())
	}
	if !strings.Contains(top.Why, "index") {
		t.Errorf("why: %s", top.Why)
	}
	if err := m.InstallCorrelations(scored[:1]); err != nil {
		t.Fatal(err)
	}
	if len(cat.Correlations("purchase")) != 1 {
		t.Error("install should register")
	}
}

func TestRefreshCorrelationAndReactivation(t *testing.T) {
	cat, te := setupPurchase(t, 300, 0)
	m := NewManager(cat)
	lc := &catalog.LinearCorrelation{
		Table: "purchase", ColA: "ship_date", ColB: "order_date",
		K: 1, B0: 9.5, Eps: 10, Confidence: 1,
	}
	if err := cat.AddCorrelation(lc); err != nil {
		t.Fatal(err)
	}
	// Violating row, then deactivation (as the engine would do).
	te.Heap.Insert(types.Row{types.NewInt(9999), types.NewDate(0), types.NewDate(500)})
	if err := cat.DeactivateCorrelation(lc.Name); err != nil {
		t.Fatal(err)
	}
	if err := m.RefreshCorrelation(lc.Name); err != nil {
		t.Fatal(err)
	}
	if lc.Active {
		t.Error("refresh must not reactivate while a violation exists")
	}
	if lc.Confidence >= 1 {
		// expected: confidence now reflects the violation
	} else if lc.Confidence < 0.99 {
		t.Errorf("confidence after one bad row of 301: %g", lc.Confidence)
	}
	// Remove the bad row and refresh again: reactivation.
	removeWhere(te, func(r types.Row) bool { return r[0].Int() == 9999 })
	if err := m.RefreshCorrelation(lc.Name); err != nil {
		t.Fatal(err)
	}
	if !lc.Active || lc.Confidence < 1 {
		t.Errorf("should reactivate: active=%v conf=%g", lc.Active, lc.Confidence)
	}
}

func removeWhere(te *catalog.TableEntry, pred func(types.Row) bool) {
	var ids []storage.RowID
	te.Heap.Scan(nil, func(id storage.RowID, row types.Row) bool {
		if pred(row) {
			ids = append(ids, id)
		}
		return true
	})
	for _, id := range ids {
		te.Heap.SetEnd(id, storage.CommittedMin)
	}
}

func TestRefreshCheckConfidence(t *testing.T) {
	cat, te := setupPurchase(t, 1000, 100) // 1% late
	// ship_date <= order_date + 21 as SSC with a stale stated confidence.
	check := expr.NewBinary(expr.OpLe,
		expr.NewColumn("purchase", "ship_date", 2, types.KindDate),
		expr.NewBinary(expr.OpAdd,
			expr.NewColumn("purchase", "order_date", 1, types.KindDate),
			expr.NewConst(types.NewInt(21))))
	con := &catalog.Constraint{
		Name: "ship3w", Kind: catalog.Check, Mode: catalog.ModeSoftStatistical,
		Table: "purchase", CheckExpr: check, Confidence: 0.5,
	}
	if err := cat.AddConstraint(con); err != nil {
		t.Fatal(err)
	}
	m := NewManager(cat)
	conf, err := m.RefreshCheckConfidence("purchase", "ship3w")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(conf-0.99) > 0.001 {
		t.Errorf("confidence: %g, want ~0.99", conf)
	}
	if con.Confidence != conf || con.ModsSince != 0 {
		t.Error("refresh should update the catalog entry")
	}
	_ = te
}

func TestMarginOfErrorModel(t *testing.T) {
	// The paper's example: 1M rows, 1k updates/day ⇒ ~3% margin after a
	// month (§3.3).
	margin := MarginOfError(30*1000, 1_000_000)
	if math.Abs(margin-0.03) > 1e-9 {
		t.Errorf("30 days of updates: %g, want 0.03", margin)
	}
	if MarginOfError(5, 0) != 1 {
		t.Error("empty table: margin saturates")
	}
	if MarginOfError(1<<40, 100) != 1 {
		t.Error("margin caps at 1")
	}
	if EffectiveConfidence(0.99, 30*1000, 1_000_000) != 0.96 {
		t.Errorf("effective: %g", EffectiveConfidence(0.99, 30*1000, 1_000_000))
	}
}

func TestCurrencyReport(t *testing.T) {
	cat, te := setupPurchase(t, 100, 0)
	check := expr.NewBinary(expr.OpGe,
		expr.NewColumn("purchase", "ship_date", 2, types.KindDate),
		expr.NewColumn("purchase", "order_date", 1, types.KindDate))
	con := &catalog.Constraint{
		Name: "s1", Kind: catalog.Check, Mode: catalog.ModeSoftStatistical,
		Table: "purchase", CheckExpr: check, Confidence: 0.98,
	}
	if err := cat.AddConstraint(con); err != nil {
		t.Fatal(err)
	}
	con.ModsSince = 10
	m := NewManager(cat)
	report := m.CurrencyReport()
	if len(report) != 1 {
		t.Fatalf("report: %d entries", len(report))
	}
	e := report[0]
	if e.Margin != 0.1 || math.Abs(e.Effective-0.88) > 1e-9 {
		t.Errorf("entry: %+v", e)
	}
	_ = te
}

func TestBuildExceptionPredicate(t *testing.T) {
	check := expr.NewBinary(expr.OpLe,
		expr.NewColumn("t", "a", 0, types.KindInt),
		expr.NewConst(types.NewInt(5)))
	con := &catalog.Constraint{CheckExpr: check}
	p := BuildExceptionPredicate(con)
	ok, _ := expr.EvalBool(p, types.Row{types.NewInt(9)})
	if !ok {
		t.Error("violating row satisfies the exception predicate")
	}
	ok, _ = expr.EvalBool(p, types.Row{types.NewInt(3)})
	if ok {
		t.Error("conforming row does not")
	}
	if BuildExceptionPredicate(&catalog.Constraint{}) != nil {
		t.Error("nil check yields nil")
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
