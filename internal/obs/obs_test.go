package obs

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(0.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry should hand out nil metrics")
	}
	r.Describe("x", "counter", "help")
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	var q *QueryLog
	q.Add(&Trace{})
	if q.Recent(5) != nil {
		t.Fatal("nil qlog recent")
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	c := &Counter{}
	c.Add(10)
	c.Add(-4)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	// 0.005 and 0.01 land in le=0.01 (upper bounds are inclusive),
	// 0.05 in le=0.1, 0.5 in le=1, 5 in +Inf.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
	if s := h.Sum(); s < 5.56 || s > 5.57 {
		t.Fatalf("sum = %g", s)
	}
}

func TestRegistryPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	r.Describe("softdb_queries_total", "counter", "Queries executed.")
	r.Counter("softdb_queries_total").Add(7)
	r.Counter("softdb_rewrite_fires_total", "kind", "elim").Add(2)
	r.Counter("softdb_rewrite_fires_total", "kind", "ssc-twin").Inc()
	r.Gauge("softdb_plan_cache_entries").Set(3)
	h := r.Histogram("softdb_query_duration_seconds", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)
	// A labeled histogram, observed below a microsecond: the labels ride
	// on every line and the sum keeps the sub-microsecond values.
	lw := r.Histogram("softdb_engine_lock_wait_seconds", []float64{1e-6}, "lock", "db", "mode", "shared")
	lw.Observe(4e-7)
	lw.Observe(4e-7)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP softdb_queries_total Queries executed.",
		"# TYPE softdb_queries_total counter",
		"softdb_queries_total 7",
		`softdb_rewrite_fires_total{kind="elim"} 2`,
		`softdb_rewrite_fires_total{kind="ssc-twin"} 1`,
		"softdb_plan_cache_entries 3",
		`softdb_query_duration_seconds_bucket{le="0.01"} 1`,
		`softdb_query_duration_seconds_bucket{le="0.1"} 2`,
		`softdb_query_duration_seconds_bucket{le="+Inf"} 3`,
		"softdb_query_duration_seconds_count 3",
		`softdb_engine_lock_wait_seconds_bucket{lock="db",mode="shared",le="0.000001"} 2`,
		`softdb_engine_lock_wait_seconds_bucket{lock="db",mode="shared",le="+Inf"} 2`,
		`softdb_engine_lock_wait_seconds_sum{lock="db",mode="shared"} 8e-07`,
		`softdb_engine_lock_wait_seconds_count{lock="db",mode="shared"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Same metric pointer on repeat lookup.
	if r.Counter("softdb_queries_total") != r.Counter("softdb_queries_total") {
		t.Fatal("counter lookup not stable")
	}
}

func TestDescribeBeforeUseStillListed(t *testing.T) {
	r := NewRegistry()
	r.Describe("softdb_ssc_refreshes_total", "counter", "SSC confidence refreshes.")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE softdb_ssc_refreshes_total counter") {
		t.Fatalf("described-but-unused family missing:\n%s", b.String())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Counter("labeled", "worker", fmt.Sprint(n%4)).Inc()
				r.Histogram("h", DefLatencyBuckets).Observe(0.001)
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestQueryLogRing(t *testing.T) {
	q := NewQueryLog(3)
	for i := 0; i < 5; i++ {
		q.Add(&Trace{SQL: fmt.Sprintf("q%d", i)})
	}
	got := q.Recent(0)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	// Newest first: q4, q3, q2.
	for i, want := range []string{"q4", "q3", "q2"} {
		if got[i].SQL != want {
			t.Fatalf("recent[%d] = %q, want %q", i, got[i].SQL, want)
		}
	}
	if got := q.Recent(1); len(got) != 1 || got[0].SQL != "q4" {
		t.Fatalf("recent(1) = %v", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Rule: "ssc-twin", Constraint: "corr_ship", Mode: "SOFT STATISTICAL",
		Confidence: 0.93, Applied: true, Detail: "twinned shipdate bound"}
	s := e.String()
	for _, want := range []string{"ssc-twin applied", "corr_ship", "SOFT STATISTICAL", "eff-conf=0.930", "twinned shipdate bound"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event %q missing %q", s, want)
		}
	}
	rej := Event{Rule: "exception-union", Constraint: "ck_old", Mode: "SOFT ABSOLUTE", Confidence: 1, Applied: false, Detail: "no index benefit"}
	if !strings.Contains(rej.String(), "exception-union rejected") {
		t.Fatalf("rejected event: %q", rej.String())
	}
}

func TestTraceRender(t *testing.T) {
	root := &SpanNode{Desc: "HashJoin", EstRows: 100, HasEst: true}
	root.Rows.Store(97)
	root.Nanos.Store(int64(2 * time.Millisecond))
	child := &SpanNode{Desc: "SeqScan t"}
	child.Rows.Store(1000)
	child.Pages.Store(12)
	root.Children = append(root.Children, child)
	tr := &Trace{
		SQL: "SELECT 1", CacheHit: true, Root: root,
		Duration: 3 * time.Millisecond, ActualRows: 97, PagesRead: 12,
		Events: []Event{{Rule: "branch-elimination", Constraint: "ck", Mode: "SOFT ABSOLUTE", Confidence: 1, Applied: true}},
	}
	out := tr.Render()
	for _, want := range []string{
		"query: SELECT 1",
		"skipped=0 cache=hit",
		"HashJoin  (est rows=100.0)  (actual rows=97",
		"  SeqScan t  (actual rows=1000",
		"pages=12",
		"event: branch-elimination applied",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "degree=") {
		t.Fatalf("trace render still prints a parallel degree:\n%s", out)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("softdb_queries_total").Add(2)
	q := NewQueryLog(4)
	q.Add(&Trace{SQL: "SELECT 42", Duration: time.Millisecond})

	h := Handler(r, q)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "softdb_queries_total 2") {
		t.Fatalf("/metrics: %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries?n=10", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "SELECT 42") {
		t.Fatalf("/debug/queries: %d %q", rec.Code, rec.Body.String())
	}
}
