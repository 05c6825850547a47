package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"softdb/internal/exec"
	"softdb/internal/fault"
)

// The fault-injection differential suite: run a fixed query mix with
// seeded storage read errors, injected operator panics, and artificial
// slow pages, comparing against a no-fault baseline. The contract under
// test is partial service, never corruption — each statement either
// returns exactly the baseline answer or a typed QueryError traceable to
// an injected fault; no crash, no deadlock, no stranded goroutine.

// faultQueries exercises every operator family the lifecycle instruments:
// sequential and index scans, sorts, hash aggregation, hash join, and
// distinct.
var faultQueries = []string{
	"SELECT COUNT(*) AS n FROM big WHERE v > 3",
	"SELECT id, v FROM big WHERE v = 7",
	"SELECT v, COUNT(*) AS c FROM big GROUP BY v ORDER BY v",
	"SELECT DISTINCT v FROM big WHERE id < 500",
	"SELECT COUNT(*) AS n FROM big a, big b WHERE a.id = b.id AND a.v < 5",
	"SELECT id FROM big WHERE v >= 90 ORDER BY id DESC LIMIT 10",
}

// fingerprint renders a result order-insensitively, so a faulted run is
// compared by content alone.
func fingerprint(res *Result) string {
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, d := range row {
			cells[i] = d.String()
		}
		lines = append(lines, strings.Join(cells, "|"))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// checkFaultedResult enforces the differential property on one execution.
func checkFaultedResult(t *testing.T, label string, res *Result, err error, baseline string) {
	t.Helper()
	if err == nil {
		if got := fingerprint(res); got != baseline {
			t.Errorf("%s: WRONG ROWS under injected faults:\ngot:\n%s\nwant:\n%s", label, got, baseline)
		}
		return
	}
	qe, ok := exec.AsQueryError(err)
	if !ok {
		t.Errorf("%s: untyped error under faults: %T: %v", label, err, err)
		return
	}
	switch qe.Kind {
	case exec.KindError:
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("%s: error not traceable to an injected fault: %v", label, err)
		}
	case exec.KindPanic:
		if !strings.Contains(qe.Error(), "injected panic") {
			t.Errorf("%s: panic not the injected one: %v", label, err)
		}
	default:
		t.Errorf("%s: unexpected error kind %s: %v", label, qe.Kind, err)
	}
	if qe.Op == "" {
		t.Errorf("%s: fault error lost operator attribution: %v", label, err)
	}
}

// TestFaultDifferential is the main fault-injection run: three fault
// mixes, several seeds each.
func TestFaultDifferential(t *testing.T) {
	db := lifecycleDB(t, 3000)

	baselines := make([]string, len(faultQueries))
	for i, q := range faultQueries {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		baselines[i] = fingerprint(res)
	}

	configs := []fault.Config{
		{ReadErrProb: 0.05},
		{PanicProb: 0.02},
		{ReadErrProb: 0.03, PanicProb: 0.01, SlowProb: 0.05, SlowDelay: 50 * time.Microsecond},
	}
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	start := runtime.NumGoroutine()
	okRuns, faulted := 0, 0
	for ci, cfg := range configs {
		for _, seed := range seeds {
			cfg.Seed = seed
			db.Fault = fault.New(cfg)
			for i, q := range faultQueries {
				label := fmt.Sprintf("cfg=%d seed=%d query=%d", ci, seed, i)
				res, err := db.ExecCtx(nil, q)
				checkFaultedResult(t, label, res, err, baselines[i])
				if err == nil {
					okRuns++
				} else {
					faulted++
				}
			}
		}
	}
	db.Fault = nil
	// The sweep must actually have exercised both sides of the property.
	if okRuns == 0 {
		t.Error("no query survived any fault mix; fault rates too hot to test the success path")
	}
	if faulted == 0 {
		t.Error("no query hit any fault; fault rates too cold to test the error path")
	}
	// Faulted queries (including recovered panics) must not strand goroutines.
	if n, ok := numGoroutinesSettled(start); !ok {
		t.Fatalf("goroutines leaked across fault sweep: %d before, %d after", start, n)
	}
	// And the engine must come out healthy.
	for i, q := range faultQueries {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("engine unhealthy after fault sweep: %q: %v", q, err)
		}
		if fingerprint(res) != baselines[i] {
			t.Fatalf("engine corrupted after fault sweep: %q diverged", q)
		}
	}
}

// TestFaultWithDeadline layers slow pages under a statement deadline: the
// only acceptable outcomes are the exact answer, a typed timeout, or a
// typed injected fault.
func TestFaultWithDeadline(t *testing.T) {
	db := lifecycleDB(t, 3000)
	db.StmtTimeout = 5 * time.Millisecond
	base, err := db.Exec("SELECT COUNT(*) AS n FROM big")
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(base)
	for seed := int64(1); seed <= 5; seed++ {
		db.Fault = fault.New(fault.Config{SlowProb: 0.3, SlowDelay: time.Millisecond, ReadErrProb: 0.01, Seed: seed})
		res, err := db.Exec("SELECT COUNT(*) AS n FROM big")
		if err == nil {
			if fingerprint(res) != want {
				t.Fatalf("seed %d: wrong rows under slow pages", seed)
			}
			continue
		}
		qe, ok := exec.AsQueryError(err)
		if !ok || (qe.Kind != exec.KindTimeout && qe.Kind != exec.KindError) {
			t.Fatalf("seed %d: unexpected outcome %T: %v", seed, err, err)
		}
	}
}
