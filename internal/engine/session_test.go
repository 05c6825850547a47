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
	db.NoPrune = true
	db.MemBudget = 1024
	s := db.NewSession("conn-1")

	st := s.Settings()
	if !st.NoPrune || st.MemBudget != 1024 {
		t.Fatalf("fresh session should inherit defaults: %+v", st)
	}
	for _, kv := range [][2]string{
		{"prune", "on"}, {"mem_budget", "2048"}, {"timeout", "250ms"},
	} {
		if err := s.Set(kv[0], kv[1]); err != nil {
			t.Fatalf("Set(%s, %s): %v", kv[0], kv[1], err)
		}
	}
	st = s.Settings()
	if st.NoPrune || st.MemBudget != 2048 || st.StmtTimeout != 250*time.Millisecond {
		t.Fatalf("overrides not applied: %+v", st)
	}
	// The database default still reaches knobs the session resets.
	if err := s.Set("prune", "default"); err != nil {
		t.Fatal(err)
	}
	if !s.Settings().NoPrune {
		t.Fatal("reset prune should follow the default (off) again")
	}
	desc := strings.Join(s.Describe(), "\n")
	if !strings.Contains(desc, "mem_budget = 2048 (session)") || !strings.Contains(desc, "prune = off\n") {
		t.Fatalf("Describe should mark overrides:\n%s", desc)
	}

	// Bad input errors without mutating.
	for _, kv := range [][2]string{
		{"prune", "maybe"}, {"mem_budget", "-5"}, {"timeout", "later"}, {"no_such", "1"},
	} {
		if err := s.Set(kv[0], kv[1]); err == nil {
			t.Errorf("Set(%s, %s) should fail", kv[0], kv[1])
		}
	}
}

// TestSessionPlanCacheIsolation: concurrent sessions with different
// plan-shaping knob sets (prune on/off) must not share plan-cache entries,
// while lifecycle knobs (mem_budget, timeout) must not fragment the cache;
// every knob set gives the reference interpreter's answer.
func TestSessionPlanCacheIsolation(t *testing.T) {
	db := pruneDB(t, 4000, false)

	const q = "SELECT a, b FROM t WHERE a >= 100 AND a <= 140"

	plain := db.NewSession("plain")
	noPrune := db.NewSession("noprune")
	if err := noPrune.Set("prune", "off"); err != nil {
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
	if got := db.CachedPlanCount(); got != 2 {
		t.Fatalf("2 knob sets should compile 2 entries, got %d", got)
	}
	// Both agree with the reference.
	ref := refAnswer(t, db, plain, q)
	for _, r := range []*Result{rPlain, rNoPrune} {
		if d := refDiff(q, r, ref); d != "" {
			t.Fatal(d)
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
	if got := db.CachedPlanCount(); got != 2 {
		t.Fatalf("lifecycle knobs fragmented the cache: %d entries", got)
	}

	// Re-execution from each session hits its own entry.
	for _, s := range []*Session{plain, noPrune} {
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
// goroutines beside reference evaluations (the -race proof that
// session-layered planning is safe and that every session keeps observing
// its own knobs).
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
		ref   bool // answer through the reference interpreter
	}{
		{mk("w-plain", nil), func(t *testing.T, r *Result) {
			if io := r.Ctx.IO.Load(); io.PagesSkipped == 0 {
				t.Error("default session skipped no pages")
			}
		}, false},
		{mk("w-noprune", [][2]string{{"prune", "off"}}), func(t *testing.T, r *Result) {
			if io := r.Ctx.IO.Load(); io.PagesSkipped != 0 {
				t.Errorf("no-prune session skipped %d pages", io.PagesSkipped)
			}
		}, false},
		{mk("w-reference", nil), nil, true},
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
					run := c.s.ExecCtx
					if c.ref {
						run = func(ctx context.Context, q string) (*Result, error) { return db.reference(ctx, nil, q, c.s) }
					}
					r, err := run(context.Background(), q)
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
	if got := db.CachedPlanCount(); got != 2 {
		t.Fatalf("expected exactly 2 cache entries, got %d", got)
	}
}

// TestSessionRejectsParallelSetting: intra-query parallelism and the row
// executor are gone, so SET parallel and SET batch are unknown settings like
// any other — they error, change nothing, and leave the session usable.
func TestSessionRejectsParallelSetting(t *testing.T) {
	db := pruneDB(t, 400, false)
	s := db.NewSession("conn-1")
	before := s.Describe()
	for _, kv := range [][2]string{{"parallel", "4"}, {"batch", "off"}} {
		err := s.Set(kv[0], kv[1])
		if err == nil || !strings.Contains(err.Error(), `unknown setting "`+kv[0]+`"`) {
			t.Fatalf("SET %s = %s: got %v, want an unknown-setting error", kv[0], kv[1], err)
		}
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
