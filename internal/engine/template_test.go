package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/obs"
	"softdb/internal/types"
)

// templateDB holds one table family per rewrite rule, sized so scans span
// many pages (page counts are part of what the sweeps compare).
func templateDB(t testing.TB) *Database {
	t.Helper()
	db := Open()
	must := func(q string) {
		t.Helper()
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	load := func(table string, n int, row func(i int) types.Row) {
		t.Helper()
		te, err := db.Catalog().Table(table)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := db.InsertRow(te, row(i)); err != nil {
				t.Fatal(err)
			}
		}
		must("ANALYZE " + table)
	}
	base := int64(10592) // 1999-01-01

	// Predicate introduction (index on order_date) and its §4.1 backup.
	must(`CREATE TABLE purchase (id INT PRIMARY KEY, order_date DATE NOT NULL, ship_date DATE, amount FLOAT,
		CONSTRAINT ship_window CHECK (ship_date >= order_date AND ship_date <= order_date + 21) SOFT)`)
	must("CREATE INDEX idx_purchase_order_date ON purchase (order_date)")
	load("purchase", 4000, func(i int) types.Row {
		d := base + int64(i/4)
		ship := types.NewDate(d + int64(i%21))
		if i%97 == 0 {
			ship = types.Null
		}
		return types.Row{types.NewInt(int64(i)), types.NewDate(d), ship, types.NewFloat(float64(i%1000) / 10)}
	})

	// Prune introduction: the same correlation with no index anywhere, so
	// the derived interval can only skip pages.
	must(`CREATE TABLE shipment (id INT NOT NULL, order_date DATE NOT NULL, ship_date DATE,
		CONSTRAINT shipment_window CHECK (ship_date >= order_date AND ship_date <= order_date + 21) SOFT)`)
	load("shipment", 4000, func(i int) types.Row {
		d := base + int64(i/4)
		return types.Row{types.NewInt(int64(i)), types.NewDate(d), types.NewDate(d + int64(i%21))}
	})

	// Join elimination over an informational foreign key.
	must("CREATE TABLE dim (id INT PRIMARY KEY, name VARCHAR(20))")
	must(`CREATE TABLE fact (id INT PRIMARY KEY, dim_id INT NOT NULL, qty INT, price FLOAT,
		CONSTRAINT fact_dim FOREIGN KEY (dim_id) REFERENCES dim (id) INFORMATIONAL)`)
	load("dim", 50, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("d%d", i))}
	})
	load("fact", 3000, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 50)), types.NewInt(int64(i % 60)), types.NewFloat(float64(i%400) + 0.5)}
	})

	// Branch pruning: a UNION ALL view over CHECK-partitioned tables.
	var view strings.Builder
	for m := 1; m <= 6; m++ {
		must(fmt.Sprintf("CREATE TABLE sales_%d (month INT, amount INT, CHECK (month >= %d AND month <= %d))", m, m*10, m*10+9))
		load(fmt.Sprintf("sales_%d", m), 200, func(i int) types.Row {
			return types.Row{types.NewInt(int64(m*10 + i%10)), types.NewInt(int64(i))}
		})
		if m > 1 {
			view.WriteString(" UNION ALL ")
		}
		fmt.Fprintf(&view, "SELECT * FROM sales_%d", m)
	}
	must("CREATE VIEW sales AS " + view.String())

	// Hole trimming: orders ⋈ lineitem with one planted hole.
	must("CREATE TABLE orders (oid INT NOT NULL, amount INT NOT NULL)")
	must("CREATE TABLE lineitem (oid INT NOT NULL, qty INT NOT NULL)")
	load("orders", 2000, func(i int) types.Row { return types.Row{types.NewInt(int64(i)), types.NewInt(int64(i))} })
	load("lineitem", 2000, func(j int) types.Row {
		i := (j*7 + 13) % 2000
		qty := int64(i % 50)
		if i >= 400 && i < 1000 {
			qty += 1000
		}
		return types.Row{types.NewInt(int64(i)), types.NewInt(qty)}
	})
	if err := db.Catalog().AddJoinHoles(&catalog.JoinHoles{
		Name: "oh", LeftTable: "orders", RightTable: "lineitem",
		JoinLeft: "oid", JoinRight: "oid", AttrLeft: "amount", AttrRight: "qty",
		Holes: []catalog.Rect{{
			A: expr.Between(types.NewInt(400), types.NewInt(999), true, true),
			B: expr.Between(types.NewInt(0), types.NewInt(100), true, true),
		}},
	}); err != nil {
		t.Fatal(err)
	}

	// Sort / GROUP BY simplification over a mined FD.
	must("CREATE TABLE denorm (id INT PRIMARY KEY, cust_id INT, cust_name VARCHAR(20), region INT)")
	load("denorm", 1500, func(i int) types.Row {
		c := int64(i % 40)
		return types.Row{types.NewInt(int64(i)), types.NewInt(c), types.NewString(fmt.Sprintf("c%02d", c)), types.NewInt(c % 5)}
	})
	if err := db.Catalog().AddConstraint(&catalog.Constraint{
		Name: "fd_cust", Kind: catalog.FuncDep, Mode: catalog.ModeSoftAbsolute,
		Table: "denorm", Columns: []string{"cust_id"}, DepColumns: []string{"cust_name"},
	}); err != nil {
		t.Fatal(err)
	}

	// Exception-AST routing and SSC twins over a statistical constraint.
	must(`CREATE TABLE late (id INT PRIMARY KEY, order_date DATE NOT NULL, ship_date DATE,
		CONSTRAINT ship3w CHECK (ship_date <= order_date + 21) SOFT STATISTICAL CONFIDENCE 0.99)`)
	must("CREATE INDEX idx_late_order ON late (order_date)")
	load("late", 1200, func(i int) types.Row {
		lag := int64(i % 20)
		if i%100 == 0 {
			lag = 60
		}
		return types.Row{types.NewInt(int64(i)), types.NewDate(base + int64(i)), types.NewDate(base + int64(i) + lag)}
	})
	must("CREATE SUMMARY TABLE late_shipments AS (SELECT * FROM late WHERE ship_date > order_date + 21)")
	if err := db.LinkException("ship3w", "late_shipments"); err != nil {
		t.Fatal(err)
	}
	must(`CREATE TABLE project (id INT PRIMARY KEY, start_date DATE NOT NULL, end_date DATE,
		CONSTRAINT dur CHECK (end_date <= start_date + 30) SOFT STATISTICAL CONFIDENCE 0.9)`)
	load("project", 1000, func(i int) types.Row {
		dur := int64(i % 28)
		if i%10 == 0 {
			dur = 200
		}
		return types.Row{types.NewInt(int64(i)), types.NewDate(base + int64(i)), types.NewDate(base + int64(i) + dur)}
	})
	return db
}

func dateSQL(days int64) string { return "DATE '" + types.NewDate(days).String() + "'" }

// templateShape is one statement shape of the sweep: a format with one
// verb per literal, and how the i-th literal vector is drawn.
type templateShape struct {
	rule     string
	format   string
	args     func(i int) []any
	template bool // the shape must be served by one rebound template
	// pieces > 0 makes the shape guarded: templates serve it, one per
	// region of literal vectors its guards tell apart (a literal pinned to
	// a bound on both sides of its guards is literal-bound), and at most
	// pieces statements are compiled.
	pieces int
	// templated, when set, makes the shape mixed: the vectors it picks are
	// served by templates (at most two compiles among them), and every
	// other vector is compiled literal-bound for the mixedReason decision.
	templated   func(i int) bool
	mixedReason string
}

func templateShapes() []templateShape {
	base := int64(10592)
	// Sweep values walk across and beyond the data, hitting every boundary
	// (first/last day, CHECK and hole edges ±1, far outside) repeatedly.
	day := func(i int) int64 { return base - 30 + int64(i*7%1100) }
	edges := []int64{-1, 0, 1, 9, 10, 11, 19, 20, 29, 30, 59, 60, 69, 70, 399, 400, 401, 999, 1000, 1001, 1999, 2000, 1 << 40, -(1 << 40)}
	num := func(i int) int64 {
		if i%3 == 0 {
			return edges[i/3%len(edges)]
		}
		return int64(i * 37 % 2100)
	}
	return []templateShape{
		{rule: "point (primary key)", template: true,
			format: "SELECT * FROM purchase WHERE id = %d",
			args:   func(i int) []any { return []any{num(i)} }},
		{rule: "prune introduction rides an index probe", template: true,
			format: "SELECT * FROM purchase WHERE order_date = %s",
			args:   func(i int) []any { return []any{dateSQL(day(i))} }},
		{rule: "predicate introduction", template: true,
			format: "SELECT id FROM purchase WHERE ship_date = %s",
			args:   func(i int) []any { return []any{dateSQL(day(i))} }},
		// An empty range (i%17 < 2) is decided by one guard, b < a, and
		// served by a template; a point or a wider range is an index range
		// whose use is costed on its width.
		{rule: "predicate introduction (range)",
			format:    "SELECT COUNT(*) AS n, SUM(amount) AS s FROM purchase WHERE ship_date BETWEEN %s AND %s",
			args:      func(i int) []any { return []any{dateSQL(day(i)), dateSQL(day(i) + int64(i%17) - 2)} },
			templated: func(i int) bool { return i%17 < 2 }, mixedReason: "access-path"},
		{rule: "range check (empty range)", template: true,
			format: "SELECT SUM(amount) AS s FROM purchase WHERE ship_date BETWEEN %s AND %s",
			args:   func(i int) []any { return []any{dateSQL(day(i)), dateSQL(day(i) - 1 - int64(i%3))} }},
		{rule: "prune introduction", template: true,
			format: "SELECT id, ship_date FROM shipment WHERE order_date = %s",
			args:   func(i int) []any { return []any{dateSQL(day(i))} }},
		{rule: "prune introduction (half range)", template: true,
			format: "SELECT COUNT(*) AS n FROM shipment WHERE order_date >= %s",
			args:   func(i int) []any { return []any{dateSQL(day(i))} }},
		{rule: "join elimination", template: true,
			format: "SELECT COUNT(*) AS n, SUM(f.price) AS p FROM fact f, dim d WHERE f.dim_id = d.id AND f.qty > %d AND f.price < %g",
			args:   func(i int) []any { return []any{num(i) % 70, float64(i%500) + 0.25} }},
		{rule: "join elimination (key range)",
			format: "SELECT COUNT(*) AS n FROM fact f, dim d WHERE f.dim_id = d.id AND f.id >= %d AND f.id < %d",
			args:   func(i int) []any { return []any{num(i), num(i) + int64(i%300)} }},
		// 12 CHECK bounds cut the line into at most 25 pieces.
		{rule: "branch pruning (point)", pieces: 25,
			format: "SELECT month, amount FROM sales WHERE month = %d ORDER BY amount",
			args:   func(i int) []any { return []any{num(i) % 80} }},
		// Two literals among 12 bounds: the sweep's 240 vectors fall into
		// 74 pieces.
		{rule: "branch pruning (range)", pieces: 80,
			format: "SELECT COUNT(*) AS n FROM sales WHERE month >= %d AND month <= %d",
			args:   func(i int) []any { return []any{num(i) % 80, num(i)%80 + int64(i%25)} }},
		{rule: "hole trimming",
			format: "SELECT COUNT(*) AS n FROM orders, lineitem WHERE orders.oid = lineitem.oid AND orders.amount >= %d AND orders.amount <= %d AND lineitem.qty >= %d AND lineitem.qty <= %d",
			args: func(i int) []any {
				return []any{num(i), num(i) + int64(i%900), int64(i % 60), int64(i%60) + int64(i%50)}
			}},
		{rule: "sort simplification (pinned key)", template: true,
			format: "SELECT id, cust_name FROM denorm WHERE region = %d ORDER BY region, id",
			args:   func(i int) []any { return []any{num(i) % 7} }},
		{rule: "FD sort/group simplification", template: true,
			format: "SELECT cust_id, cust_name, COUNT(*) AS n FROM denorm WHERE region > %d GROUP BY cust_id, cust_name ORDER BY cust_id, cust_name",
			args:   func(i int) []any { return []any{num(i) % 7} }},
		{rule: "exception-AST routing",
			format: "SELECT id FROM late WHERE ship_date = %s",
			args:   func(i int) []any { return []any{dateSQL(day(i))} }},
		{rule: "SSC twins", template: true,
			format: "SELECT id FROM project WHERE start_date = %s",
			args:   func(i int) []any { return []any{dateSQL(day(i))} }},
		{rule: "SSC twins (two ranges)", template: true,
			format: "SELECT id FROM project WHERE start_date <= %s AND end_date >= %s",
			args:   func(i int) []any { return []any{dateSQL(day(i)), dateSQL(day(i) - int64(i%9))} }},
		{rule: "strings and NULL-adjacent predicates", template: true,
			format: "SELECT id FROM denorm WHERE cust_name = '%s' AND region IS NOT NULL AND id <> %d",
			args:   func(i int) []any { return []any{fmt.Sprintf("c%02d", i%45), num(i)} }},
		{rule: "LIKE, IN list and LIMIT stay in the shape", template: true,
			format: "SELECT id FROM denorm WHERE cust_name LIKE '%s' AND region IN (1, 2, 3) AND cust_id > %d ORDER BY id LIMIT 7",
			args:   func(i int) []any { return []any{fmt.Sprintf("c%d%%", i%5), num(i) % 45} }},
		{rule: "constant folding",
			format: "SELECT id FROM purchase WHERE order_date = %s + %d",
			args:   func(i int) []any { return []any{dateSQL(day(i)), int64(i % 5)} }},
		{rule: "HAVING", template: true,
			format: "SELECT cust_id, COUNT(*) AS n FROM denorm GROUP BY cust_id HAVING n > %d ORDER BY cust_id",
			args:   func(i int) []any { return []any{int64(i % 50)} }},
	}
}

func eventStrings(res *Result) []string {
	out := make([]string, len(res.Events))
	for i, e := range res.Events {
		out[i] = e.String()
	}
	return out
}

// TestTemplateDifferential sweeps every shape over 240 literal vectors and
// requires the cached answer — rows, column headers, pages read, plan text,
// rewrite trace and events — to be identical to planning the same text from
// scratch with the cache off, on the same engine; every eighth answer must
// also be the reference interpreter's.
func TestTemplateDifferential(t *testing.T) {
	db := templateDB(t)
	const vectors = 240
	for _, sh := range templateShapes() {
		t.Run(sh.rule, func(t *testing.T) {
			db.ResetCacheStats()
			var mixed *obs.Counter
			if sh.templated != nil {
				mixed = db.obs.metrics.Counter(mCacheLitBound, "reason", sh.mixedReason)
			}
			templated := 0
			for i := 0; i < vectors; i++ {
				q := fmt.Sprintf(sh.format, sh.args(i)...)
				before, boundBefore := db.CacheStats(), int64(0)
				if mixed != nil {
					boundBefore = mixed.Value()
				}
				got, err := db.Exec(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if mixed != nil {
					after := db.CacheStats()
					served := after.TemplateHits > before.TemplateHits || after.Misses > before.Misses && after.LiteralBound == before.LiteralBound
					bound := mixed.Value() > boundBefore
					if want := sh.templated(i); served != want || bound == want {
						t.Fatalf("%s: served by a template %v, compiled %s-bound %v; want template %v", q, served, sh.mixedReason, bound, want)
					}
					if served {
						templated++
					}
				}
				db.DisablePlanCache = true
				want, err := db.Exec(q)
				db.DisablePlanCache = false
				if err != nil {
					t.Fatalf("%s (uncached): %v", q, err)
				}
				if g, w := strings.Join(got.Columns, ","), strings.Join(want.Columns, ","); g != w {
					t.Fatalf("%s: columns %s, want %s", q, g, w)
				}
				if g, w := strings.Join(rowsAsStrings(got.Rows), "|"), strings.Join(rowsAsStrings(want.Rows), "|"); g != w {
					t.Fatalf("%s: rows differ (hit=%v)\n got %s\nwant %s\nplan:\n%s", q, got.CacheHit, g, w, got.Plan)
				}
				if g, w := got.Ctx.IO.Load().PagesRead, want.Ctx.IO.Load().PagesRead; g != w {
					t.Fatalf("%s: pages_read %d, want %d (hit=%v)\n got plan:\n%swant plan:\n%s", q, g, w, got.CacheHit, got.Plan, want.Plan)
				}
				if got.Plan != want.Plan {
					t.Fatalf("%s: plan text differs (hit=%v)\n got:\n%swant:\n%s", q, got.CacheHit, got.Plan, want.Plan)
				}
				if g, w := strings.Join(got.Trace, "\n"), strings.Join(want.Trace, "\n"); g != w {
					t.Fatalf("%s: rewrite trace differs\n got %s\nwant %s", q, g, w)
				}
				if g, w := strings.Join(eventStrings(got), "\n"), strings.Join(eventStrings(want), "\n"); g != w {
					t.Fatalf("%s: events differ\n got %s\nwant %s", q, g, w)
				}
				if i%8 == 0 {
					if d := refDiff(q, got, refAnswer(t, db, nil, q)); d != "" {
						t.Fatal(d)
					}
				}
			}
			cs := db.CacheStats()
			switch {
			case sh.templated != nil:
				if compiled := templated - int(cs.TemplateHits); compiled < 1 || compiled > 2 {
					t.Errorf("%d templated vectors should take one or two compiles: %+v", templated, cs)
				}
			case sh.pieces > 0:
				if cs.TemplateHits < vectors/2 || cs.Misses > int64(sh.pieces) || cs.Misses+cs.Hits != vectors {
					t.Errorf("shape should be served by templates, at most %d compiled: %+v", sh.pieces, cs)
				}
			case sh.template:
				// One compile makes the template. (A second is tolerated: when
				// a cost-based choice — a hash join's build side — comes out
				// differently for the first statement's literals than for the
				// nudged ones templateHolds checks against, that one plan stays
				// literal-bound and the next statement of the shape tries again.)
				if cs.Misses > 2 || cs.Misses+cs.TemplateHits != vectors || cs.LiteralBound != cs.Misses-1 {
					t.Errorf("shape should be one template rebound for every literal vector: %+v", cs)
				}
			default:
				if cs.TemplateHits != 0 || cs.LiteralBound == 0 {
					t.Errorf("shape should be literal-bound: %+v", cs)
				}
			}
		})
	}
}

// TestTemplateExplainShowsBoundLiterals: EXPLAIN, EXPLAIN ANALYZE, the
// result's plan and the recent-queries trace all carry the literals of the
// statement that ran, never those the template was compiled from.
func TestTemplateExplainShowsBoundLiterals(t *testing.T) {
	db := templateDB(t)
	db.SetTracing(true)
	db.MustExec("SELECT id, ship_date FROM shipment WHERE order_date = DATE '1999-03-01'")
	res := db.MustExec("SELECT id, ship_date FROM shipment WHERE order_date = DATE '2000-02-02'")
	if !res.CacheHit {
		t.Fatal("second literal should rebind the template")
	}
	trace := db.QueryLog().Recent(1)[0]
	for name, text := range map[string]string{
		"Result.Plan": res.Plan, "events": strings.Join(eventStrings(res), "\n"), "trace": trace.Render(),
	} {
		if strings.Contains(text, "1999-03-01") || !strings.Contains(text, "2000-02-02") {
			t.Errorf("%s shows the template's literals:\n%s", name, text)
		}
	}
	if !strings.Contains(res.Plan, "prune=ship_date in [2000-02-02") {
		t.Errorf("prune interval not rebound:\n%s", res.Plan)
	}
	if trace.Shape == "" || !strings.Contains(trace.Render(), "shape="+trace.Shape) {
		t.Errorf("trace should carry the shape id: %q", trace.Shape)
	}
	if first := db.QueryLog().Recent(2)[1]; first.Shape != trace.Shape {
		t.Errorf("both statements share a shape: %q vs %q", first.Shape, trace.Shape)
	}
	// Span estimates and economy attribution survive the rebind.
	if trace.Root == nil || !trace.Root.HasEst {
		t.Errorf("rebound plan lost its per-node estimates: %+v", trace.Root)
	}
	for _, q := range []string{"EXPLAIN ", "EXPLAIN ANALYZE "} {
		out := strings.Join(rowsAsStrings(db.MustExec(q+"SELECT id, ship_date FROM shipment WHERE order_date = DATE '2001-01-05'").Rows), "\n")
		if !strings.Contains(out, "2001-01-05") || strings.Contains(out, "1999-03-01") {
			t.Errorf("%sshows stale literals:\n%s", q, out)
		}
		if !strings.Contains(out, "plan cache: hit (template, 1 slot, 0 guards)") {
			t.Errorf("%sshould report the template:\n%s", q, out)
		}
	}
	// Branch elimination weighs the literal against the six CHECK ranges:
	// two guards a range. A literal on a bound stays literal-bound.
	out := strings.Join(rowsAsStrings(db.MustExec("EXPLAIN SELECT COUNT(*) FROM sales WHERE month = 15").Rows), "\n")
	if !strings.Contains(out, "plan cache: miss (template, 1 slot, 12 guards)") {
		t.Errorf("guarded template missing:\n%s", out)
	}
	out = strings.Join(rowsAsStrings(db.MustExec("EXPLAIN SELECT COUNT(*) FROM sales WHERE month = 19").Rows), "\n")
	if !strings.Contains(out, "plan cache: miss (literal-bound: rebind)") {
		t.Errorf("literal-bound reason missing:\n%s", out)
	}
	// A statement without predicate literals is a template with no slots.
	db.MustExec("SELECT COUNT(*) FROM dim")
	out = strings.Join(rowsAsStrings(db.MustExec("EXPLAIN SELECT COUNT(*) FROM dim").Rows), "\n")
	if !strings.Contains(out, "plan cache: hit (template, 0 slots, 0 guards)") {
		t.Errorf("literal-free statement:\n%s", out)
	}
}

// TestTemplateFailover violates ship_window mid-stream: the shape's one
// template reverts to its backup once — not once per literal — and no
// statement after the violation is served by the plan that relied on it.
func TestTemplateFailover(t *testing.T) {
	db := templateDB(t)
	q := func(day int64) string { return "SELECT id FROM purchase WHERE ship_date = " + dateSQL(day) }
	base := int64(10592)
	for i := int64(0); i < 20; i++ {
		res := db.MustExec(q(base + 10 + i))
		if !strings.Contains(res.Plan, "IndexScan") {
			t.Fatalf("primary plan should use the introduced predicate:\n%s", res.Plan)
		}
	}
	if n := db.CachedPlanCount(); n != 1 {
		t.Fatalf("one template expected, have %d plans", n)
	}
	db.ResetCacheStats()
	// The violating row ships 300 days after it was ordered: the introduced
	// order_date window would miss it.
	db.MustExec("INSERT INTO purchase VALUES (99999, " + dateSQL(base+100) + ", " + dateSQL(base+400) + ", 1.0)")
	for i := int64(0); i < 50; i++ {
		day := base + 390 + i
		res := db.MustExec(q(day))
		if strings.Contains(res.Plan, "IndexScan") {
			t.Fatalf("stale template served after the ASC was overturned:\n%s", res.Plan)
		}
		if !strings.Contains(res.Plan, types.NewDate(day).String()) {
			t.Fatalf("backup not rebound to %s:\n%s", types.NewDate(day), res.Plan)
		}
		found := false
		for _, r := range res.Rows {
			found = found || r[0].Int() == 99999
		}
		if found != (day == base+400) {
			t.Fatalf("day %s: violating row found=%v", types.NewDate(day), found)
		}
	}
	cs := db.CacheStats()
	if cs.Failovers != 1 || cs.Misses != 0 || cs.TemplateHits != 49 {
		t.Errorf("want one failover then 49 rebinds of the backup, no recompiles: %+v", cs)
	}
	// A hard change invalidates the backup too: one recompile for the shape.
	db.MustExec("CREATE INDEX idx_purchase_ship ON purchase (ship_date)")
	db.ResetCacheStats()
	db.MustExec(q(base + 5))
	db.MustExec(q(base + 6))
	if cs := db.CacheStats(); cs.Invalidations != 1 || cs.Misses != 1 || cs.TemplateHits != 1 {
		t.Errorf("hard change should recompile the template once: %+v", cs)
	}
}

// TestTemplateVariantCap: an unbounded stream of literal vectors over a
// literal-bound shape (hole trimming) holds at most maxVariants plans,
// evicting the least recently used, while a recently used vector stays
// cached.
func TestTemplateVariantCap(t *testing.T) {
	db := templateDB(t)
	q := func(i int) string {
		return fmt.Sprintf("SELECT COUNT(*) AS n FROM orders, lineitem WHERE orders.oid = lineitem.oid AND orders.amount >= %d AND orders.amount <= %d AND lineitem.qty >= 0 AND lineitem.qty <= 10", i, i+5)
	}
	hot := q(0)
	for i := 0; i < 4*maxVariants; i++ {
		db.MustExec(q(i))
		if res := db.MustExec(hot); i > 0 && !res.CacheHit {
			t.Fatalf("recently used variant evicted at i=%d", i)
		}
	}
	if n := db.CachedPlanCount(); n != maxVariants {
		t.Errorf("variants held: %d, want %d", n, maxVariants)
	}
	cs := db.CacheStats()
	if want := int64(4*maxVariants - maxVariants); cs.Evictions != want {
		t.Errorf("evictions %d, want %d", cs.Evictions, want)
	}
	if db.MustExec(q(1)).CacheHit {
		t.Error("the oldest variant should have been evicted")
	}
	// Texts the fingerprint refuses share one capped bucket, keyed whole.
	for i := 0; i < 2*maxVariants; i++ {
		db.MustExec(fmt.Sprintf("SELECT COUNT(*) AS n FROM sales WHERE month = %d AND 'x", i) + "' = 'x'")
	}
	before := db.CachedPlanCount()
	for i := 0; i < 2*maxVariants; i++ {
		sel, err := parseSelect(fmt.Sprintf("SELECT amount FROM sales_1 WHERE month = %d", i))
		if err != nil {
			t.Fatal(err)
		}
		// A cache key that is not the statement's text does not fingerprint
		// to its constants: keyed whole.
		if _, err := db.ExecStmt(sel, fmt.Sprintf("q%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.CachedPlanCount() - before; n != maxVariants {
		t.Errorf("whole-text bucket holds %d plans, want %d", n, maxVariants)
	}
}

// TestTemplateConcurrentSessions: eight sessions, four per prune setting,
// rebind the same shapes concurrently; every answer matches the reference
// interpreter's, and each prune setting compiled its own template (nothing
// shared across knob sets, shared within one).
func TestTemplateConcurrentSessions(t *testing.T) {
	db := templateDB(t)
	shapes := []templateShape{}
	for _, sh := range templateShapes() {
		if sh.template && !strings.Contains(sh.format, "LIMIT") {
			shapes = append(shapes, sh)
		}
	}
	// Reference answers, computed serially.
	const vectors = 40
	want := map[string]*Result{}
	for _, sh := range shapes {
		for i := 0; i < vectors; i++ {
			q := fmt.Sprintf(sh.format, sh.args(i)...)
			want[q] = refAnswer(t, db, nil, q)
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		sess := db.NewSession(fmt.Sprintf("s%d", s))
		if err := sess.Set("prune", []string{"on", "off"}[s&1]); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer sess.Close()
			for i := 0; i < vectors; i++ {
				for _, sh := range shapes {
					q := fmt.Sprintf(sh.format, sh.args((i+s*5)%vectors)...)
					res, err := sess.ExecCtx(context.Background(), q)
					if err != nil {
						t.Errorf("session %d: %s: %v", s, q, err)
						return
					}
					if d := refDiff(q, res, want[q]); d != "" {
						t.Errorf("session %d: %s", s, d)
						return
					}
					if prune := s&1 == 0; !prune && strings.Contains(res.Plan, "prune=") {
						t.Errorf("session %d (prune off) was served a pruning plan:\n%s", s, res.Plan)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	if got, want := db.CachedPlanCount(), 2*len(shapes); got != want {
		t.Errorf("cached plans %d, want one template per shape and knob set = %d", got, want)
	}
}

// TestTemplateASCDynamicOnlyAndDisable: the two cache toggles keep their
// meaning for templates.
func TestTemplateASCDynamicOnlyAndDisable(t *testing.T) {
	db := templateDB(t)
	db.ASCDynamicOnly = true
	soft := "SELECT id FROM purchase WHERE ship_date = " + dateSQL(10700)
	if res := db.MustExec(soft); len(res.Trace) == 0 {
		t.Fatal("setup: predicate introduction should fire")
	}
	db.MustExec(soft)
	if n := db.CachedPlanCount(); n != 0 {
		t.Errorf("plans shaped by soft rules must not be cached under ASCDynamicOnly: %d", n)
	}
	db.MustExec("SELECT * FROM purchase WHERE id = 5")
	if res := db.MustExec("SELECT * FROM purchase WHERE id = 6"); !res.CacheHit {
		t.Error("a plan no soft rule shaped still templates under ASCDynamicOnly")
	}
	db.ASCDynamicOnly = false
	db.DisablePlanCache = true
	before := db.CachedPlanCount()
	db.MustExec(soft)
	if res := db.MustExec(soft); res.CacheHit || db.CachedPlanCount() != before {
		t.Error("DisablePlanCache must bypass the cache entirely")
	}
}
