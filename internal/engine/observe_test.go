package engine

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// purchaseDB builds the paper's running example: a soft ship-window check
// over an indexed order_date, so predicate introduction fires and EXPLAIN
// output names the constraint.
func purchaseDB(t *testing.T, n int) *Database {
	t.Helper()
	db := newDB(t, `
		CREATE TABLE purchase (
			id INT PRIMARY KEY,
			order_date DATE NOT NULL,
			ship_date DATE,
			CONSTRAINT ship_window CHECK (ship_date >= order_date AND ship_date <= order_date + 21) SOFT
		);
		CREATE INDEX idx_order ON purchase (order_date);
	`)
	for i := 0; i < n; i++ {
		db.MustExec(fmt.Sprintf(
			"INSERT INTO purchase VALUES (%d, DATE '1999-01-01' + %d, DATE '1999-01-01' + %d)",
			i, i, i+(i%21)))
	}
	db.MustExec("ANALYZE purchase")
	return db
}

func planLines(t *testing.T, db *Database, q string) string {
	t.Helper()
	res, err := db.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r[0].Str())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestExplainAnalyzeOutput(t *testing.T) {
	db := purchaseDB(t, 600)
	out := planLines(t, db, "EXPLAIN ANALYZE SELECT id FROM purchase WHERE ship_date = DATE '1999-03-15'")
	for _, want := range []string{
		"(actual rows=",          // per-node measured figures
		"(est rows=",             // per-node optimizer estimates
		"predicate-introduction", // the rewrite consulted the soft check...
		"ship_window",            // ...and the output names the constraint
		"eff-conf=",              // with its effective confidence
		"applied",                // and applied/rejected status
		"estimated rows:",
		"actual rows:",
		"plan cache: miss",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "degree") {
		t.Errorf("EXPLAIN ANALYZE still reports a parallel degree:\n%s", out)
	}
}

func TestExplainShowsCacheStatus(t *testing.T) {
	db := purchaseDB(t, 300)
	sel := "SELECT id FROM purchase WHERE ship_date = DATE '1999-02-15'"

	out := planLines(t, db, "EXPLAIN "+sel)
	if !strings.Contains(out, "plan cache: miss") {
		t.Errorf("EXPLAIN before running should report a cache miss:\n%s", out)
	}
	if strings.Contains(out, "degree") {
		t.Errorf("EXPLAIN still reports a parallel degree:\n%s", out)
	}

	// Running the SELECT populates the cache; EXPLAIN then reports a hit
	// for the equivalent statement without disturbing the entry.
	db.MustExec(sel)
	before := db.CacheStats()
	out = planLines(t, db, "EXPLAIN "+sel)
	if !strings.Contains(out, "plan cache: hit") {
		t.Errorf("EXPLAIN after running should report a cache hit:\n%s", out)
	}
	if after := db.CacheStats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("EXPLAIN peek must not move cache stats: %+v -> %+v", before, after)
	}
}

func TestQueryMetrics(t *testing.T) {
	db := purchaseDB(t, 600)
	m := db.Metrics()
	base := m.Counter(mQueries).Value()

	sel := "SELECT id FROM purchase WHERE ship_date = DATE '1999-03-15'"
	db.MustExec(sel) // miss
	db.MustExec(sel) // hit
	if got := m.Counter(mQueries).Value() - base; got != 2 {
		t.Errorf("queries counter advanced by %d, want 2", got)
	}
	if got := m.Counter(mCacheHits).Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	if m.Counter(mCacheMisses).Value() == 0 {
		t.Error("cache misses stayed zero")
	}
	if got := m.Counter(mRewriteFires, "kind", "predicate-introduction").Value(); got == 0 {
		t.Error("predicate-introduction fire not counted")
	}
	if got := m.Gauge(mCacheEntries).Value(); got == 0 {
		t.Error("plan-cache entries gauge stayed zero")
	}
	if h := m.Histogram(mQueryDuration, nil); h.Count() < 2 {
		t.Errorf("duration histogram has %d observations, want >= 2", h.Count())
	}

	// A query that fails before execution still errors cleanly and leaves
	// the execution counters untouched.
	if _, err := db.Exec("SELECT nope FROM purchase"); err == nil {
		t.Fatal("expected error")
	}
	if got := m.Counter(mQueries).Value() - base; got != 2 {
		t.Errorf("plan-time failure should not count as an executed query: %d", got)
	}
}

func TestTracingProducesSpans(t *testing.T) {
	db := purchaseDB(t, 300)
	db.SetTracing(true)
	db.MustExec("SELECT id FROM purchase WHERE ship_date = DATE '1999-02-15'")
	recent := db.QueryLog().Recent(1)
	if len(recent) != 1 {
		t.Fatalf("query log has %d entries, want 1", len(recent))
	}
	tr := recent[0]
	if tr.Root == nil {
		t.Fatal("trace has no span tree with tracing on")
	}
	text := tr.Render()
	if !strings.Contains(text, "actual rows=") || !strings.Contains(text, "est rows=") {
		t.Errorf("trace render missing actual/est figures:\n%s", text)
	}

	db.SetTracing(false)
	db.MustExec("SELECT id FROM purchase WHERE ship_date = DATE '1999-02-16'")
	if tr := db.QueryLog().Recent(1)[0]; tr.Root != nil {
		t.Error("span tree collected with tracing off")
	}
}

// Instrumenting a plan copies its operators; the copy must keep every field
// — a hash join whose projection was pushed into it used to lose the
// projection under tracing and feed the aggregate above it full-width rows.
func TestTracingKeepsJoinProjection(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE d (id INT PRIMARY KEY, name VARCHAR(8));
		CREATE TABLE f (id INT PRIMARY KEY, d_id INT, qty INT);
		INSERT INTO d VALUES (1, 'a'), (2, 'b');
		INSERT INTO f VALUES (1, 1, 10), (2, 2, 20), (3, 1, 5);
	`)
	q := "SELECT d.name, SUM(f.qty) AS s FROM f, d WHERE f.d_id = d.id GROUP BY d.name"
	plain := db.MustExec(q)
	if !strings.Contains(plain.Plan, "proj=") {
		t.Fatalf("setup: expected a join with a pushed projection:\n%s", plain.Plan)
	}
	db.SetTracing(true)
	traced := db.MustExec(q)
	if got, want := rowsAsStrings(traced.Rows), rowsAsStrings(plain.Rows); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("tracing changed the answer: %v, want %v", got, want)
	}
}

func TestDebugHandlerServesMetricsAndQueries(t *testing.T) {
	db := purchaseDB(t, 300)
	db.SetTracing(true)
	db.MustExec("SELECT id FROM purchase WHERE ship_date = DATE '1999-02-15'")
	db.MustExec("SELECT id FROM purchase WHERE ship_date = DATE '1999-02-16'")                             // template rebind
	db.MustExec("SELECT id FROM purchase WHERE ship_date BETWEEN DATE '1999-02-15' AND DATE '1999-02-20'") // literal-bound: the derived order_date range is weighed for the index

	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, name := range []string{
		mQueries, mCacheHits, mCacheMisses, mRewriteFires,
		mSSCRefreshes, mQueryDuration, mASCViolations,
		mCacheTemplate + " 1", mCacheLitBound + `{reason="access-path"} 1`, mCacheEvicted + " 0",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	queries := get("/debug/queries")
	if !strings.Contains(queries, "purchase") || !strings.Contains(queries, " shape="+db.QueryLog().Recent(1)[0].Shape) {
		t.Errorf("/debug/queries does not show the recent query and its shape:\n%s", queries)
	}
}

func TestSlowQueryStructuredLog(t *testing.T) {
	db := purchaseDB(t, 300)
	var records []slog.Record
	db.SetLogger(slog.New(captureHandler{records: &records}))
	db.SetSlowQueryThreshold(time.Nanosecond)
	db.MustExec("SELECT id FROM purchase WHERE ship_date = DATE '1999-02-15'")

	found := false
	for _, r := range records {
		if r.Message != "query" {
			continue
		}
		found = true
		if r.Level < slog.LevelWarn {
			t.Errorf("slow query logged at %v, want >= WARN", r.Level)
		}
		var slow, sawSQL bool
		r.Attrs(func(a slog.Attr) bool {
			switch a.Key {
			case "slow":
				slow = a.Value.Bool()
			case "sql":
				sawSQL = a.Value.String() != ""
			}
			return true
		})
		if !slow || !sawSQL {
			t.Errorf("slow query record missing attrs: slow=%v sql=%v", slow, sawSQL)
		}
	}
	if !found {
		t.Fatal("no structured query record emitted")
	}
	if db.Metrics().Counter(mSlowQueries).Value() == 0 {
		t.Error("slow-queries counter stayed zero")
	}
}

// captureHandler collects slog records for assertions.
type captureHandler struct{ records *[]slog.Record }

func (h captureHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h captureHandler) Handle(_ context.Context, r slog.Record) error {
	*h.records = append(*h.records, r)
	return nil
}
func (h captureHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h captureHandler) WithGroup(string) slog.Handler      { return h }

func TestWriteMetricsCounters(t *testing.T) {
	db := newDB(t, `
		CREATE TABLE t (a INT, b INT, CONSTRAINT ab CHECK (a <= b) SOFT);
		INSERT INTO t VALUES (1, 2)`)
	db.MustExec("INSERT INTO t VALUES (9, 1)") // violates the ASC
	if got := db.Metrics().Counter(mASCViolations).Value(); got != 1 {
		t.Errorf("ASC violations = %d, want 1", got)
	}
}
