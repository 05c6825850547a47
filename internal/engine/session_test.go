package engine

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"softdb/internal/exec"
	"softdb/internal/fault"
)

// TestSessionSettingsLayering: unset session knobs follow the database
// default, overrides stick, and "default" clears them again.
func TestSessionSettingsLayering(t *testing.T) {
	db := Open()
	db.NoBatch = true
	db.MemBudget = 1024
	s := db.NewSession("conn-1")

	st := s.Settings()
	if !st.NoBatch || st.MemBudget != 1024 || st.NoPrune {
		t.Fatalf("fresh session should inherit defaults: %+v", st)
	}
	for _, kv := range [][2]string{
		{"prune", "off"}, {"batch", "on"},
		{"mem_budget", "2048"}, {"timeout", "250ms"},
	} {
		if err := s.Set(kv[0], kv[1]); err != nil {
			t.Fatalf("Set(%s, %s): %v", kv[0], kv[1], err)
		}
	}
	st = s.Settings()
	if !st.NoPrune || st.NoBatch || st.MemBudget != 2048 || st.StmtTimeout != 250*time.Millisecond {
		t.Fatalf("overrides not applied: %+v", st)
	}
	// The database default still reaches knobs the session resets.
	if err := s.Set("batch", "default"); err != nil {
		t.Fatal(err)
	}
	if !s.Settings().NoBatch {
		t.Fatal("reset batch should follow the default (off) again")
	}
	desc := strings.Join(s.Describe(), "\n")
	if !strings.Contains(desc, "mem_budget = 2048 (session)") || !strings.Contains(desc, "batch = off\n") {
		t.Fatalf("Describe should mark overrides:\n%s", desc)
	}

	// Bad input errors without mutating.
	for _, kv := range [][2]string{
		{"prune", "maybe"}, {"batch", "2"},
		{"mem_budget", "-5"}, {"timeout", "later"}, {"no_such", "1"},
	} {
		if err := s.Set(kv[0], kv[1]); err == nil {
			t.Errorf("Set(%s, %s) should fail", kv[0], kv[1])
		}
	}
}

// TestSessionPlanCacheIsolation: concurrent sessions with different
// plan-shaping knob sets (prune/batch) must not share plan-cache
// entries, while lifecycle knobs (mem_budget, timeout) must not fragment
// the cache. Extends the PR4 planCacheKey rule to session-layered
// settings.
func TestSessionPlanCacheIsolation(t *testing.T) {
	db := pruneDB(t, 4000, false)

	const q = "SELECT a, b FROM t WHERE a >= 100 AND a <= 140"

	plain := db.NewSession("plain")
	noPrune := db.NewSession("noprune")
	if err := noPrune.Set("prune", "off"); err != nil {
		t.Fatal(err)
	}
	noBatch := db.NewSession("nobatch")
	if err := noBatch.Set("batch", "off"); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	rPlain, err := plain.ExecCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rNoPrune, err := noPrune.ExecCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rNoPrune.CacheHit {
		t.Fatal("no-prune session must not hit a pruning session's entry")
	}
	if io := rNoPrune.Ctx.IO.Load(); io.PagesSkipped != 0 {
		t.Fatalf("prune=off session skipped pages: %+v", io)
	}
	if io := rPlain.Ctx.IO.Load(); io.PagesSkipped == 0 {
		t.Fatalf("default session should prune: %+v", io)
	}
	rNoBatch, err := noBatch.ExecCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rNoBatch.CacheHit {
		t.Fatal("no-batch session must not hit a batched session's entry")
	}
	if got := db.CachedPlanCount(); got != 3 {
		t.Fatalf("3 knob sets should compile 3 entries, got %d", got)
	}
	// All three agree on the answer.
	for _, r := range []*Result{rNoPrune, rNoBatch} {
		if len(r.Rows) != len(rPlain.Rows) {
			t.Fatalf("row counts diverged across sessions: %d vs %d", len(r.Rows), len(rPlain.Rows))
		}
	}

	// Lifecycle knobs do NOT fragment: a session differing only in budget
	// and timeout hits the plain session's entry.
	budget := db.NewSession("budget")
	if err := budget.Set("mem_budget", "1048576"); err != nil {
		t.Fatal(err)
	}
	if err := budget.Set("timeout", "30s"); err != nil {
		t.Fatal(err)
	}
	rBudget, err := budget.ExecCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !rBudget.CacheHit {
		t.Fatal("lifecycle-only overrides must share the plan-cache entry")
	}
	if got := db.CachedPlanCount(); got != 3 {
		t.Fatalf("lifecycle knobs fragmented the cache: %d entries", got)
	}

	// Re-execution from each session hits its own entry.
	for _, s := range []*Session{plain, noPrune, noBatch} {
		r, err := s.ExecCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !r.CacheHit {
			t.Errorf("session %s should re-hit its own entry", s.Label())
		}
	}
}

// TestSessionConcurrentKnobs: the knob matrix above run from concurrent
// goroutines (the -race proof that session-layered planning is safe and
// that every session keeps observing its own knobs).
func TestSessionConcurrentKnobs(t *testing.T) {
	db := pruneDB(t, 4000, false)
	const q = "SELECT a, b FROM t WHERE a >= 100 AND a <= 140"

	type check func(t *testing.T, r *Result)
	mk := func(label string, set [][2]string) *Session {
		s := db.NewSession(label)
		for _, kv := range set {
			if err := s.Set(kv[0], kv[1]); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	cases := []struct {
		s     *Session
		check check
	}{
		{mk("w-plain", nil), func(t *testing.T, r *Result) {
			if io := r.Ctx.IO.Load(); io.PagesSkipped == 0 {
				t.Error("default session skipped no pages")
			}
		}},
		{mk("w-noprune", [][2]string{{"prune", "off"}}), func(t *testing.T, r *Result) {
			if io := r.Ctx.IO.Load(); io.PagesSkipped != 0 {
				t.Errorf("no-prune session skipped %d pages", io.PagesSkipped)
			}
		}},
		{mk("w-nobatch", [][2]string{{"batch", "off"}}), nil},
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	rowCounts := map[int]bool{}
	for _, c := range cases {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					r, err := c.s.ExecCtx(context.Background(), q)
					if err != nil {
						t.Errorf("session %s: %v", c.s.Label(), err)
						return
					}
					if c.check != nil {
						c.check(t, r)
					}
					mu.Lock()
					rowCounts[len(r.Rows)] = true
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	if len(rowCounts) != 1 {
		t.Fatalf("sessions disagreed on the answer: row counts %v", rowCounts)
	}
	if got := db.CachedPlanCount(); got != 3 {
		t.Fatalf("expected exactly 3 cache entries, got %d", got)
	}
}

// TestSessionRejectsParallelSetting: intra-query parallelism is gone, so
// SET parallel is an unknown setting like any other — it errors, changes
// nothing, and leaves the session usable.
func TestSessionRejectsParallelSetting(t *testing.T) {
	db := pruneDB(t, 400, false)
	s := db.NewSession("conn-1")
	before := s.Describe()
	err := s.Set("parallel", "4")
	if err == nil || !strings.Contains(err.Error(), `unknown setting "parallel"`) {
		t.Fatalf("SET parallel = 4: got %v, want an unknown-setting error", err)
	}
	if after := s.Describe(); strings.Join(after, "\n") != strings.Join(before, "\n") {
		t.Fatalf("rejected SET changed the settings:\n%v\n%v", before, after)
	}
	res, err := s.ExecCtx(context.Background(), "SELECT COUNT(*) AS n FROM t")
	if err != nil {
		t.Fatalf("session unusable after a rejected SET: %v", err)
	}
	if got := res.Rows[0][0].Int(); got != 400 {
		t.Fatalf("count after rejected SET = %d, want 400", got)
	}
}

// TestSessionTimeoutAndTrace: a session's timeout override aborts its own
// statement with a typed timeout while other sessions run unaffected, and
// the session label lands in the query trace.
func TestSessionTimeoutAndTrace(t *testing.T) {
	db := pruneDB(t, 2000, false)
	db.Fault = fault.New(fault.Config{SlowProb: 1, SlowDelay: 2 * time.Millisecond})
	db.NoPrune = true // make the scan touch every (stalled) page

	slow := db.NewSession("conn-slow")
	if err := slow.Set("timeout", "10ms"); err != nil {
		t.Fatal(err)
	}
	_, err := slow.ExecCtx(context.Background(), "SELECT COUNT(*) AS n FROM t WHERE c >= 0")
	qe, ok := exec.AsQueryError(err)
	if !ok || qe.Kind != exec.KindTimeout {
		t.Fatalf("session timeout should produce a typed timeout, got %v", err)
	}

	db.Fault = nil
	fine := db.NewSession("conn-fine")
	if _, err := fine.ExecCtx(context.Background(), "SELECT COUNT(*) AS n FROM t WHERE c >= 0"); err != nil {
		t.Fatalf("default session should be unaffected: %v", err)
	}

	var found bool
	for _, tr := range db.QueryLog().Recent(8) {
		if tr.Session == "conn-slow" {
			found = true
			if tr.State != string(exec.KindTimeout) {
				t.Errorf("trace state for timed-out session statement: %s", tr.State)
			}
			if !strings.Contains(tr.Render(), "session=conn-slow") {
				t.Errorf("trace render missing session tag: %s", tr.Render())
			}
		}
	}
	if !found {
		t.Error("no trace carried the session label")
	}
}
