package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"softdb/internal/exec"
	"softdb/internal/fault"
	"softdb/internal/types"
)

// lifecycleDB builds a table wide enough that scans span many pages, so
// page-granular cancellation checkpoints and slow-page injection have
// something to bite on.
func lifecycleDB(tb testing.TB, n int, configure ...func(*Database)) *Database {
	tb.Helper()
	db := Open()
	// Knobs that latch on the first statement (the admission gate) must be
	// set before the setup DDL below runs.
	for _, f := range configure {
		f(db)
	}
	db.MustExec("CREATE TABLE big (id INT, v INT, s VARCHAR(40))")
	te, err := db.Catalog().Table("big")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 97)),
			types.NewString(fmt.Sprintf("row-%032d", i)),
		}
		validated, err := te.Def.ValidateRow(row)
		if err != nil {
			tb.Fatal(err)
		}
		if err := db.InsertRows(te, []types.Row{validated}); err != nil {
			tb.Fatal(err)
		}
	}
	db.MustExec("ANALYZE big")
	return db
}

// wantKind asserts err is a QueryError of the given kind and returns it.
func wantKind(tb testing.TB, err error, kind exec.ErrKind) *exec.QueryError {
	tb.Helper()
	if err == nil {
		tb.Fatalf("want %s QueryError, got nil", kind)
	}
	qe, ok := exec.AsQueryError(err)
	if !ok {
		tb.Fatalf("want %s QueryError, got %T: %v", kind, err, err)
	}
	if qe.Kind != kind {
		tb.Fatalf("error kind = %s, want %s (err: %v)", qe.Kind, kind, err)
	}
	return qe
}

func counterValue(db *Database, name string) int64 {
	return db.Metrics().Counter(name).Value()
}

// TestCancelBeforeExecution: a pre-canceled context aborts before any page
// is read, increments the canceled counter, and leaves a canceled trace.
func TestCancelBeforeExecution(t *testing.T) {
	db := lifecycleDB(t, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := counterValue(db, mQueriesCanceled)
	_, err := db.ExecCtx(ctx, "SELECT COUNT(*) AS n FROM big")
	wantKind(t, err, exec.KindCanceled)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled QueryError does not unwrap to context.Canceled: %v", err)
	}
	if got := counterValue(db, mQueriesCanceled); got != before+1 {
		t.Errorf("%s = %d, want %d", mQueriesCanceled, got, before+1)
	}
	recent := db.QueryLog().Recent(1)
	if len(recent) == 0 || recent[0].State != string(exec.KindCanceled) {
		t.Errorf("trace state after cancellation: %+v", recent)
	}
}

// TestCancelMidQuery: with every page stalled 2ms, a cancel fired 10ms in
// must abort the scan with a canceled QueryError naming an operator.
func TestCancelMidQuery(t *testing.T) {
	db := lifecycleDB(t, 3000)
	te, _ := db.Catalog().Table("big")
	if pages := te.Heap.PageCount(); pages < 20 {
		t.Fatalf("table too small to test mid-scan cancel: %d pages", pages)
	}
	db.Fault = fault.New(fault.Config{SlowProb: 1, SlowDelay: 2 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(10*time.Millisecond, cancel)
	_, err := db.ExecCtx(ctx, "SELECT COUNT(*) AS n FROM big WHERE v > 3")
	qe := wantKind(t, err, exec.KindCanceled)
	if qe.Op == "" {
		t.Errorf("canceled QueryError has no operator attribution: %v", qe)
	}
}

// TestStmtTimeout: the database-level default deadline fires mid-scan and
// is classified as a timeout, both in the error and in the trace/metrics.
func TestStmtTimeout(t *testing.T) {
	db := lifecycleDB(t, 3000)
	db.Fault = fault.New(fault.Config{SlowProb: 1, SlowDelay: 2 * time.Millisecond})
	db.StmtTimeout = 15 * time.Millisecond
	before := counterValue(db, mQueriesTimedOut)
	_, err := db.Exec("SELECT COUNT(*) AS n FROM big WHERE v > 3")
	wantKind(t, err, exec.KindTimeout)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout QueryError does not unwrap to DeadlineExceeded: %v", err)
	}
	if got := counterValue(db, mQueriesTimedOut); got != before+1 {
		t.Errorf("%s = %d, want %d", mQueriesTimedOut, got, before+1)
	}
	recent := db.QueryLog().Recent(1)
	if len(recent) == 0 || recent[0].State != string(exec.KindTimeout) {
		t.Errorf("trace state after timeout: %+v", recent)
	}

	// A caller-supplied deadline takes the same path.
	db.StmtTimeout = 0
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, err = db.ExecCtx(ctx, "SELECT COUNT(*) AS n FROM big WHERE v > 5")
	wantKind(t, err, exec.KindTimeout)
}

// TestMemBudget: a sort that would buffer the whole table trips a small
// budget with a typed out-of-memory error; lifting the budget succeeds.
// The plan cache must not key on the budget (same key, different budgets).
func TestMemBudget(t *testing.T) {
	const n = 2000
	db := lifecycleDB(t, n)
	q := "SELECT id FROM big ORDER BY v"
	db.MemBudget = 4096
	before := counterValue(db, mMemBudgetRejected)
	_, err := db.Exec(q)
	wantKind(t, err, exec.KindMemBudget)
	if !errors.Is(err, exec.ErrMemBudget) {
		t.Errorf("budget QueryError does not unwrap to ErrMemBudget: %v", err)
	}
	if got := counterValue(db, mMemBudgetRejected); got != before+1 {
		t.Errorf("%s = %d, want %d", mMemBudgetRejected, got, before+1)
	}
	recent := db.QueryLog().Recent(1)
	if len(recent) == 0 || recent[0].State != string(exec.KindMemBudget) {
		t.Errorf("trace state after budget rejection: %+v", recent)
	}

	db.MemBudget = 0
	res, err := db.Exec(q)
	if err != nil {
		t.Fatalf("unlimited budget: %v", err)
	}
	if len(res.Rows) != n {
		t.Fatalf("unlimited budget returned %d rows, want %d", len(res.Rows), n)
	}

	// Hash aggregation and joins account against the same budget.
	db.MemBudget = 512
	_, err = db.Exec("SELECT s, COUNT(*) AS c FROM big GROUP BY s")
	wantKind(t, err, exec.KindMemBudget)
}

// TestAdmissionGate: with MaxConcurrent=1 a statement stalled inside the
// engine holds the only slot; a second statement's cancellation is
// attributed to the admission gate, and the slot frees on completion.
func TestAdmissionGate(t *testing.T) {
	db := lifecycleDB(t, 2000, func(db *Database) { db.MaxConcurrent = 1 })
	inj := fault.New(fault.Config{SlowProb: 1, SlowDelay: time.Millisecond})
	var once sync.Once
	started := make(chan struct{})
	release := make(chan struct{})
	inj.SetSleep(func(time.Duration) {
		once.Do(func() { close(started) })
		<-release
	})
	db.Fault = inj

	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("SELECT COUNT(*) AS n FROM big")
		done <- err
	}()
	<-started

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.ExecCtx(canceled, "SELECT COUNT(*) AS n FROM big WHERE v = 1")
	qe := wantKind(t, err, exec.KindCanceled)
	if qe.Op != "engine.admission" {
		t.Errorf("blocked statement's error op = %q, want engine.admission", qe.Op)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("slot-holding query failed: %v", err)
	}
	db.Fault = nil
	if _, err := db.Exec("SELECT COUNT(*) AS n FROM big WHERE v = 2"); err != nil {
		t.Fatalf("slot not released: %v", err)
	}
}

// TestWorkerPanicIsolation: an injected panic in a scan surfaces as a typed
// panic QueryError (never a crash), increments the recovered-panic counter,
// and leaves the engine healthy for the next statement.
func TestWorkerPanicIsolation(t *testing.T) {
	db := lifecycleDB(t, 2000)
	db.Fault = fault.New(fault.Config{PanicProb: 1})
	before := counterValue(db, mWorkerPanics)
	_, err := db.Exec("SELECT COUNT(*) AS n FROM big WHERE v > 3")
	qe := wantKind(t, err, exec.KindPanic)
	if !strings.Contains(qe.Error(), "injected panic") {
		t.Errorf("panic QueryError lost the panic value: %v", qe)
	}
	if qe.Stack == "" {
		t.Error("panic QueryError carries no stack")
	}
	if got := counterValue(db, mWorkerPanics); got <= before {
		t.Errorf("%s did not increase", mWorkerPanics)
	}
	if s := db.QueryLog().Recent(1); len(s) == 0 || s[0].State != string(exec.KindPanic) {
		t.Errorf("trace state after panic: %+v", s)
	}
	db.Fault = nil
	res, err := db.Exec("SELECT COUNT(*) AS n FROM big")
	if err != nil {
		t.Fatalf("engine poisoned after recovered panic: %v", err)
	}
	if got := res.Rows[0][0].Int(); got != 2000 {
		t.Fatalf("wrong rows after recovered panic: count=%d", got)
	}
}

// TestTerminalStateInTrace: successful queries record state=ok in the
// trace, and EXPLAIN ANALYZE prints the terminal state.
func TestTerminalStateInTrace(t *testing.T) {
	db := lifecycleDB(t, 100)
	if _, err := db.Exec("SELECT COUNT(*) AS n FROM big"); err != nil {
		t.Fatal(err)
	}
	recent := db.QueryLog().Recent(1)
	if len(recent) == 0 || recent[0].State != "ok" {
		t.Fatalf("trace state after success: %+v", recent)
	}
	if r := recent[0].Render(); !strings.Contains(r, "state=ok") {
		t.Errorf("rendered trace missing state=ok:\n%s", r)
	}
	res, err := db.Exec("EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM big")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, row := range res.Rows {
		for _, d := range row {
			out.WriteString(d.String())
			out.WriteByte('\n')
		}
	}
	if !strings.Contains(out.String(), "terminal state: ok") {
		t.Errorf("EXPLAIN ANALYZE missing terminal state:\n%s", out.String())
	}
}

// TestMustExecTruncatesQuery: MustExec's panic value is a QueryError whose
// message clips the statement text, so a huge hostile statement cannot
// land whole in logs.
func TestMustExecTruncatesQuery(t *testing.T) {
	db := Open()
	long := "SELECT bogus FROM nowhere WHERE pad = '" + strings.Repeat("x", 4000) + "'"
	defer func() {
		r := recover()
		qe, ok := r.(*exec.QueryError)
		if !ok {
			t.Fatalf("MustExec panic value = %T, want *exec.QueryError", r)
		}
		if qe.Op != "engine.MustExec" {
			t.Errorf("op = %q", qe.Op)
		}
		if msg := qe.Error(); len(msg) > 400 {
			t.Errorf("panic message not truncated: %d bytes", len(msg))
		}
	}()
	db.MustExec(long)
	t.Fatal("MustExec did not panic on a bad statement")
}

// numGoroutinesSettled polls until the goroutine count drops back to the
// baseline (plus slack for runtime helpers) or the deadline passes.
func numGoroutinesSettled(baseline int) (int, bool) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+3 {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelLeavesNoGoroutines: canceled queries must not strand
// goroutines — the count returns to its pre-test baseline.
func TestCancelLeavesNoGoroutines(t *testing.T) {
	db := lifecycleDB(t, 3000)
	db.Fault = fault.New(fault.Config{SlowProb: 0.5, SlowDelay: time.Millisecond})
	baseline := runtime.NumGoroutine()
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 25; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		delay := time.Duration(r.Intn(4_000)) * time.Microsecond
		timer := time.AfterFunc(delay, cancel)
		_, err := db.ExecCtx(ctx, "SELECT v, COUNT(*) AS c FROM big WHERE id >= 0 GROUP BY v ORDER BY v")
		timer.Stop()
		cancel()
		if err != nil {
			wantKind(t, err, exec.KindCanceled)
		}
	}
	if n, ok := numGoroutinesSettled(baseline); !ok {
		t.Fatalf("goroutines leaked: %d before, %d after settle window", baseline, n)
	}
}

// TestCancelStress hammers the engine from many goroutines canceling at
// random points; run under -race this is the lifecycle path's concurrency
// proof. Every statement either returns the correct answer or a typed
// cancellation/timeout error — nothing else, and never a wrong count.
func TestCancelStress(t *testing.T) {
	const n = 3000
	db := lifecycleDB(t, n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				delay := time.Duration(r.Intn(3_000)) * time.Microsecond
				timer := time.AfterFunc(delay, cancel)
				res, err := db.ExecCtx(ctx, "SELECT COUNT(*) AS c FROM big WHERE v >= 0")
				timer.Stop()
				cancel()
				if err != nil {
					qe, ok := exec.AsQueryError(err)
					if !ok || (qe.Kind != exec.KindCanceled && qe.Kind != exec.KindTimeout) {
						t.Errorf("stress: unexpected error %T: %v", err, err)
					}
					continue
				}
				if got := res.Rows[0][0].Int(); got != n {
					t.Errorf("stress: wrong answer under cancellation: count=%d, want %d", got, n)
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
}
