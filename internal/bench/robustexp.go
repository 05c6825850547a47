package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"softdb/internal/engine"
	"softdb/internal/exec"
	"softdb/internal/fault"
	"softdb/internal/workload"
)

// R1Robustness measures the query-lifecycle machinery (experiment R1):
//
//   - context-check overhead: the star-schema scan and aggregation queries
//     run under a live cancelable deadline context versus the background
//     default; the per-page/per-batch checkpoints are the only difference,
//     and the acceptance bar is <=5% median wall-time overhead;
//   - cancellation latency: with every page stalled 1ms by the fault
//     injector, how long after cancel() a running scan takes to return its
//     typed canceled error;
//   - deadline and budget enforcement: a statement deadline and a memory
//     budget each abort with their typed error, reported for completeness.
//
// Overhead is reported from medians over several repetitions; on a noisy
// host individual runs can exceed the bar.
func R1Robustness(factRows int) (*Report, error) {
	rep := &Report{
		ID:     "R1",
		Title:  "query lifecycle: cancellation latency and context-check overhead",
		Claim:  "page/batch-granular cancellation checkpoints stop a canceled query within a few checkpoint intervals while costing <5% wall time on queries that never use them",
		Header: []string{"measure", "config", "ms", "detail"},
	}
	db, err := R1DB(factRows)
	if err != nil {
		return nil, err
	}

	// (a) Context-check overhead, background vs live-deadline context.
	for _, qc := range R1Queries {
		offMs, onMs, err := medianPair(7, func(withCtx bool) error {
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if withCtx {
				ctx, cancel = context.WithTimeout(ctx, time.Hour)
			}
			defer cancel()
			_, err := db.ExecCtx(ctx, qc.SQL)
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.AddRow(qc.Name, "ctx=off", fmt.Sprintf("%.2f", offMs), "background context")
		rep.AddRow(qc.Name, "ctx=on", fmt.Sprintf("%.2f", onMs),
			fmt.Sprintf("overhead %+.1f%%", (onMs/offMs-1)*100))
	}

	// (b) Cancellation latency under 1ms/page slow pages. Every page read
	// is a fault decision, so the decisions after cancel() count the pages
	// a canceled scan still read.
	db.Fault = fault.New(fault.Config{SlowProb: 1, SlowDelay: time.Millisecond})
	pagesRead := func() int64 { return db.Fault.Stats().Decisions }
	var latencies []float64
	var pagesAfter int64
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		canceledAt := make(chan time.Time, 1)
		var atCancel int64
		timer := time.AfterFunc(5*time.Millisecond, func() {
			atCancel = pagesRead()
			canceledAt <- time.Now()
			cancel()
		})
		_, err := db.ExecCtx(ctx, R1Queries[0].SQL)
		returned := time.Now()
		timer.Stop()
		cancel()
		qe, ok := exec.AsQueryError(err)
		if !ok || qe.Kind != exec.KindCanceled {
			return nil, fmt.Errorf("R1: canceled query returned %T: %v", err, err)
		}
		latencies = append(latencies, float64(returned.Sub(<-canceledAt).Microseconds())/1000)
		if n := pagesRead() - atCancel; n > pagesAfter {
			pagesAfter = n
		}
	}
	sort.Float64s(latencies)
	rep.AddRow("cancel-latency", "slow-pages 1ms", fmt.Sprintf("%.2f", latencies[len(latencies)/2]),
		fmt.Sprintf("cancel() to typed error, median of 5; pages read after cancel: at most %d", pagesAfter))

	// (c) Deadline and budget enforcement.
	db.StmtTimeout = 5 * time.Millisecond
	start, before := time.Now(), pagesRead()
	_, err = db.Exec(R1Queries[0].SQL)
	tookMs := float64(time.Since(start).Microseconds()) / 1000
	if qe, ok := exec.AsQueryError(err); !ok || qe.Kind != exec.KindTimeout {
		return nil, fmt.Errorf("R1: deadline run returned %T: %v", err, err)
	}
	rep.AddRow("deadline", "stmt-timeout 5ms", fmt.Sprintf("%.2f", tookMs),
		fmt.Sprintf("typed timeout error; pages read: %d", pagesRead()-before))
	db.StmtTimeout = 0
	db.Fault = nil

	db.MemBudget = 16 << 10
	start = time.Now()
	_, err = db.Exec("SELECT id FROM fact ORDER BY qty")
	tookMs = float64(time.Since(start).Microseconds()) / 1000
	if qe, ok := exec.AsQueryError(err); !ok || qe.Kind != exec.KindMemBudget {
		return nil, fmt.Errorf("R1: budget run returned %T: %v", err, err)
	}
	rep.AddRow("mem-budget", "16KiB sort", fmt.Sprintf("%.2f", tookMs), "typed oom error")
	db.MemBudget = 0

	rep.Notef("fact rows: %d; overhead medians over 7 interleaved reps", factRows)
	return rep, nil
}

// R1Queries are the star-schema statements R1 and O1 time: a filtered scan
// and a grouped aggregate, each over every fact row.
var R1Queries = []struct{ Name, SQL string }{
	{"filter-scan", "SELECT id, qty FROM fact WHERE qty > 25 AND price < 500.0"},
	{"group-agg", "SELECT dim_id, COUNT(*) AS n, SUM(qty) AS total FROM fact GROUP BY dim_id"},
}

// R1DB loads the star schema R1 and O1 run R1Queries over: 1,000 dim rows
// and factRows fact rows, plan cache off.
func R1DB(factRows int) (*engine.Database, error) {
	db := engine.Open()
	db.DisablePlanCache = true
	return db, workload.LoadStar(db, workload.StarConfig{DimRows: 1000, FactRows: factRows, Seed: 17})
}

// medianPair times fn(false) and fn(true) reps times each, interleaving the
// repetitions so heap and cache drift hit both variants equally, and
// returns the median wall-clock milliseconds of each.
func medianPair(reps int, fn func(on bool) error) (offMs, onMs float64, err error) {
	var off, on []float64
	for i := 0; i < reps; i++ {
		for _, variant := range []bool{false, true} {
			start := time.Now()
			if err := fn(variant); err != nil {
				return 0, 0, err
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			if variant {
				on = append(on, ms)
			} else {
				off = append(off, ms)
			}
		}
	}
	sort.Float64s(off)
	sort.Float64s(on)
	return off[reps/2], on[reps/2], nil
}

// O1Observability measures what the observability layer costs the query
// path (experiment O1): R1's statements with tracing off — the production
// default, where metrics counters and the query-log ring still update on
// every query — and on, which wraps every operator in a span (the \trace on
// and EXPLAIN ANALYZE path). Page reads must not move with tracing.
func O1Observability(factRows int) (*Report, error) {
	rep := &Report{
		ID:     "O1",
		Title:  "instrumentation overhead: tracing off vs on",
		Claim:  "always-on observability costs the query path under 5%; per-operator span tracing is opt-in and bounded",
		Header: []string{"query", "tracing off ms", "tracing on ms", "overhead", "pages"},
	}
	db, err := R1DB(factRows)
	if err != nil {
		return nil, err
	}
	defer db.SetTracing(false)
	for _, qc := range R1Queries {
		pages := map[bool]int64{}
		offMs, onMs, err := medianPair(7, func(tracing bool) error {
			db.SetTracing(tracing)
			res, err := db.Exec(qc.SQL)
			if err == nil {
				pages[tracing] = res.Ctx.IO.PagesRead
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if pages[false] != pages[true] {
			return nil, fmt.Errorf("O1 %s: tracing moved page reads: %d off vs %d on", qc.Name, pages[false], pages[true])
		}
		rep.AddRow(qc.Name, fmt.Sprintf("%.2f", offMs), fmt.Sprintf("%.2f", onMs),
			fmt.Sprintf("%+.1f%%", (onMs/offMs-1)*100), pages[false])
	}
	rep.Notef("fact rows: %d; medians over 7 interleaved reps", factRows)
	return rep, nil
}
