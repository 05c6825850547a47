package engine

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"softdb/internal/expr"
	"softdb/internal/types"
)

// guardLo and guardHi bound the keys of guardDB's shard.
const guardLo, guardHi = 5000, 6999

// guardDB is one shard of softbench's sharded_mixed: events(k, v, grp)
// over keys [guardLo, guardHi] in scattered order, an index on k, and the
// soft CHECKs a router sync installs on k and v. A FLOAT column w, the
// key's position in the range scaled to [0, 1], carries a soft CHECK as
// narrow as that.
func guardDB(t testing.TB) *Database {
	t.Helper()
	db := Open()
	db.MustExec("CREATE TABLE events (k INT NOT NULL, v INT, grp INT, w FLOAT)")
	db.MustExec("CREATE INDEX idx_events_k ON events (k)")
	te, err := db.Catalog().Table("events")
	if err != nil {
		t.Fatal(err)
	}
	n := guardHi - guardLo + 1
	for i := 0; i < n; i++ {
		k := int64(guardLo + i*1009%n)
		w := types.NewFloat(float64(k-guardLo) / float64(n-1))
		if err := db.InsertRows(te, []types.Row{{types.NewInt(k), types.NewInt(k), types.NewInt(k % 10), w}}); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExec("ANALYZE events")
	for _, c := range []string{"k", "v"} {
		db.MustExec(fmt.Sprintf("ALTER TABLE events ADD CONSTRAINT sync_%s CHECK (%s >= %d AND %s <= %d) SOFT", c, c, guardLo, c, guardHi))
	}
	db.MustExec("ALTER TABLE events ADD CONSTRAINT sync_w CHECK (w >= 0.0 AND w <= 1.0) SOFT")
	return db
}

// guardShapes are the statement shapes the checks sweep: a point read by k,
// and v bands with inclusive, exclusive and BETWEEN ends; %[1]d and %[2]d
// are the two literals (the point read uses the first). The last
// floatShapes of them read %[3]s and %[4]s, the same literals in
// thousandths as FLOAT: a point on w beside a second literal, and an open
// w band.
var guardShapes = []string{
	"SELECT k, v, grp FROM events WHERE k = %[1]d",
	"SELECT COUNT(*) AS n, SUM(v) AS s FROM events WHERE v >= %[1]d AND v <= %[2]d",
	"SELECT COUNT(*) AS n, SUM(v) AS s FROM events WHERE v > %[1]d AND v < %[2]d",
	"SELECT COUNT(*) AS n, MIN(k) AS m FROM events WHERE v BETWEEN %[1]d AND %[2]d",
	"SELECT grp, COUNT(*) AS n FROM events WHERE v >= %[1]d AND v < %[2]d AND k <= %[2]d GROUP BY grp ORDER BY grp",
	"SELECT COUNT(*) AS n, SUM(v) AS s FROM events WHERE w = %[3]s AND grp = %[2]d",
	"SELECT COUNT(*) AS n, MIN(k) AS m FROM events WHERE w > %[3]s AND w < %[4]s",
}

const floatShapes = 2

// guardQuery formats guardShapes[shape] with the literals a and b.
func guardQuery(shape int, a, b int64) string {
	milli := func(x int64) string {
		s := strconv.FormatFloat(float64(x)/1000, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	}
	return fmt.Sprintf(guardShapes[shape], a, b, milli(a), milli(b))
}

// checkGuarded runs q through the cache and again with the cache off: rows,
// headers, plan text, rewrite trace, events and pages read must be the
// same, and the rows must be the reference interpreter's.
func checkGuarded(t *testing.T, db *Database, q string) *Result {
	t.Helper()
	got, err := db.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	db.DisablePlanCache = true
	want, err := db.Exec(q)
	db.DisablePlanCache = false
	if err != nil {
		t.Fatalf("%s (uncached): %v", q, err)
	}
	for _, c := range []struct{ what, got, want string }{
		{"rows", strings.Join(rowsAsStrings(got.Rows), "|"), strings.Join(rowsAsStrings(want.Rows), "|")},
		{"plan", got.Plan, want.Plan},
		{"trace", strings.Join(got.Trace, "\n"), strings.Join(want.Trace, "\n")},
		{"events", strings.Join(eventStrings(got), "\n"), strings.Join(eventStrings(want), "\n")},
		{"pages", fmt.Sprint(got.Ctx.IO.Load().PagesRead), fmt.Sprint(want.Ctx.IO.Load().PagesRead)},
	} {
		if c.got != c.want {
			t.Fatalf("%s: cached %s differ (hit=%v)\n got %s\nwant %s", q, c.what, got.CacheHit, c.got, c.want)
		}
	}
	if d := refDiff(q, got, refAnswer(t, db, nil, q)); d != "" {
		t.Fatal(d)
	}
	return got
}

// TestGuardedTemplateBoundaries sweeps literals across the shard's CHECK
// bounds — each bound −1/0/+1, a = b, a = b + 1, ranges far outside — in
// both orders, so templates compiled on one side of a bound meet
// statements on the other. Every answer is checked by checkGuarded, and
// the point and band shapes must be served by templates.
func TestGuardedTemplateBoundaries(t *testing.T) {
	db := guardDB(t)
	vectors := func(cands ...int64) (vecs [][2]int64) {
		for _, a := range cands {
			vecs = append(vecs, [2]int64{a, a}, [2]int64{a, a - 1}, [2]int64{a, a + 1}, [2]int64{a, a + 40})
			for _, b := range cands {
				vecs = append(vecs, [2]int64{a, b})
			}
		}
		return vecs
	}
	ints := vectors(-1_000_000, guardLo-1, guardLo, guardLo+1, 5500, 6000, guardHi-1, guardHi, guardHi+1, 1_000_000)
	// w's bounds are 0 and 1000 thousandths.
	floats := vectors(-1_000_000, -1, 0, 1, 250, 500, 999, 1000, 1001, 1_000_000)
	for shape := range guardShapes {
		vecs := ints
		if shape >= len(guardShapes)-floatShapes {
			vecs = floats
		}
		db.ResetCacheStats()
		for _, order := range []bool{false, true} {
			for i := range vecs {
				if order {
					i = len(vecs) - 1 - i
				}
				checkGuarded(t, db, guardQuery(shape, vecs[i][0], vecs[i][1]))
			}
		}
		if cs := db.CacheStats(); cs.TemplateHits < cs.Hits/2 || cs.TemplateHits == 0 {
			t.Errorf("%s: templates should serve most statements: %+v", guardShapes[shape], cs)
		}
	}
	// A point inside the shard records its two comparisons with the k
	// range; one on a bound is pinned there and stays literal-bound.
	inside := strings.Join(rowsAsStrings(db.MustExec("EXPLAIN SELECT k, v, grp FROM events WHERE k = 6100").Rows), "\n")
	if !strings.Contains(inside, "plan cache: hit (template, 1 slot, 2 guards)") {
		t.Errorf("interior point read:\n%s", inside)
	}
	// A FLOAT literal inside w's [0, 1] is moved inside it for the check,
	// not left where it is; one on a bound is pinned there and the other
	// literal still moves.
	for _, q := range []string{
		"EXPLAIN SELECT COUNT(*) AS n, SUM(v) AS s FROM events WHERE w = 0.5 AND grp = 7",
		"EXPLAIN SELECT COUNT(*) AS n, SUM(v) AS s FROM events WHERE w = 0.0 AND grp = 7",
	} {
		if out := strings.Join(rowsAsStrings(db.MustExec(q).Rows), "\n"); !strings.Contains(out, "(template, 2 slots, 2 guards)") {
			t.Errorf("%s:\n%s", q, out)
		}
	}
	onBound := strings.Join(rowsAsStrings(db.MustExec(fmt.Sprintf("EXPLAIN SELECT k, v, grp FROM events WHERE k = %d", guardHi)).Rows), "\n")
	if !strings.Contains(onBound, "(literal-bound: rebind)") {
		t.Errorf("point read on the bound:\n%s", onBound)
	}
}

// TestNudgeMovesEveryUnpinnedLiteral: the vector templateHolds re-plans
// gives each literal another value inside the guards' region, unless an
// equality with a constant pins it; a region that leaves an unpinned
// literal no room keeps the plan literal-bound.
func TestNudgeMovesEveryUnpinnedLiteral(t *testing.T) {
	lit := func(slot int, v types.Datum) expr.Side { return expr.Side{Value: v, From: expr.Origin{Slot: slot}} }
	con := func(v types.Datum) expr.Side { return expr.Side{Value: v} }
	f, i := types.NewFloat, types.NewInt
	for _, c := range []struct {
		name   string
		vals   []types.Datum
		guards []expr.Guard
		ok     bool
		pinned []bool
	}{
		{"float inside (0, 1)", []types.Datum{f(0.5), i(7)},
			[]expr.Guard{{X: lit(1, f(0.5)), Y: con(f(0)), Sign: 1}, {X: lit(1, f(0.5)), Y: con(f(1)), Sign: -1}},
			true, []bool{false, false}},
		{"float next to a bound", []types.Datum{f(0.999999)},
			[]expr.Guard{{X: lit(1, f(0.999999)), Y: con(f(1)), Sign: -1}, {X: lit(1, f(0.999999)), Y: con(f(0.99999)), Sign: 1}},
			true, []bool{false}},
		{"pinned to a bound", []types.Datum{f(1), i(7)},
			[]expr.Guard{{X: lit(1, f(1)), Y: con(f(1)), Sign: 0}},
			true, []bool{true, false}},
		{"a = b moves both", []types.Datum{i(6), i(6)},
			[]expr.Guard{{X: lit(1, i(6)), Y: lit(2, i(6)), Sign: 0}, {X: lit(1, i(6)), Y: con(i(9)), Sign: -1}},
			true, []bool{false, false}},
		{"one integer between two bounds", []types.Datum{i(6)},
			[]expr.Guard{{X: lit(1, i(6)), Y: con(i(5)), Sign: 1}, {X: lit(1, i(6)), Y: con(i(7)), Sign: -1}},
			false, nil},
		{"every literal pinned", []types.Datum{i(5)},
			[]expr.Guard{{X: lit(1, i(5)), Y: con(i(5)), Sign: 0}},
			false, nil},
	} {
		other, ok := nudge(c.vals, c.guards)
		if ok != c.ok {
			t.Errorf("%s: ok = %v, want %v (%v)", c.name, ok, c.ok, other)
			continue
		}
		if !ok {
			continue
		}
		if !expr.GuardsHold(c.guards, other) {
			t.Errorf("%s: %v leaves the region", c.name, other)
		}
		for j, v := range other {
			if stayed := v.Compare(c.vals[j]) == 0; stayed != c.pinned[j] {
				t.Errorf("%s: literal %d %v → %v, pinned %v", c.name, j+1, c.vals[j], v, c.pinned[j])
			}
		}
	}
}

// TestGuardMissesCounted: a statement outside every template of its shape
// is a guard miss, compiled into one more template; back inside, it hits.
func TestGuardMissesCounted(t *testing.T) {
	db := guardDB(t)
	db.MustExec("SELECT k, v, grp FROM events WHERE k = 6100")
	db.MustExec("SELECT k, v, grp FROM events WHERE k = 6200")
	db.MustExec("SELECT k, v, grp FROM events WHERE k = 9000")
	db.MustExec("SELECT k, v, grp FROM events WHERE k = 9100")
	if cs := db.CacheStats(); cs.GuardMisses != 1 || cs.TemplateHits != 2 || cs.Misses != 2 || db.CachedPlanCount() != 2 {
		t.Errorf("want two templates, one guard miss: %+v, %d plans", cs, db.CachedPlanCount())
	}
	var m strings.Builder
	if err := db.Metrics().WritePrometheus(&m); err != nil || !strings.Contains(m.String(), mCacheGuard+" 1") {
		t.Errorf("metrics missing %s 1", mCacheGuard)
	}
}

// TestVariantAdmittedByTemplateNotFiled: a literal-bound plan compiled for
// literals that a template filed meanwhile admits is not held beside it —
// lookup would never reach it — while one outside every template is.
func TestVariantAdmittedByTemplateNotFiled(t *testing.T) {
	db := guardDB(t)
	db.MustExec("SELECT k, v, grp FROM events WHERE k = 6100")
	for _, c := range []struct {
		q     string
		plans int
	}{
		{"SELECT k, v, grp FROM events WHERE k = 6150", 1},
		{"SELECT k, v, grp FROM events WHERE k = 9000", 2},
	} {
		fp := printOf(c.q, Settings{})
		db.cacheStore(&fp, &cachedPlan{literalBound: "access-path", catVersion: db.cat.Version(), hardVersion: db.cat.HardVersion()})
		if got := db.CachedPlanCount(); got != c.plans {
			t.Errorf("%s: %d cached plans, want %d", c.q, got, c.plans)
		}
	}
}

var (
	fuzzGuardOnce sync.Once
	fuzzGuardDB   *Database
)

// FuzzGuardedTemplate runs checkGuarded over random literal vectors on one
// shared shard, so the templates earlier inputs compiled serve later ones.
func FuzzGuardedTemplate(f *testing.F) {
	for _, s := range [][3]int64{
		{0, 6100, 6200}, {1, guardLo, guardHi}, {2, guardHi, guardHi + 1}, {3, 6000, 5999},
		{4, guardLo - 1, guardLo - 1}, {1, -1 << 62, 1 << 62}, {0, guardHi, 0},
		{5, 500, 7}, {5, 1000, 3}, {6, 0, 1000}, {6, 999, 1001}, {6, -5, 5},
	} {
		f.Add(uint8(s[0]), s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, shape uint8, a, b int64) {
		fuzzGuardOnce.Do(func() { fuzzGuardDB = guardDB(t) })
		checkGuarded(t, fuzzGuardDB, guardQuery(int(shape)%len(guardShapes), a, b))
	})
}
