// Command scbench runs the paper-reproduction experiment suite (E1–E13
// plus the P-series systems experiments and the R1 robustness experiment,
// see DESIGN.md and EXPERIMENTS.md) and prints one result table per
// experiment.
//
// Usage:
//
//	scbench [-only E1,E5] [-list] [-bench-json DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"softdb/internal/bench"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	benchJSON := flag.String("bench-json", "", "instead of the experiment tables, run `go test -bench=. -benchtime=5x -short`, write BENCH_<date>.json into this directory, and fail if the E1/E2/E4 optimized variants stop beating their baselines on pages/op, the V1 typed kernels stop beating the tree-walk, a V2 page scan over warm page images stops beating cold ones, a V3 wide frozen index range stops running faster on the page path than entry by entry, the T1 reader p99 under write load degrades past 3x read-only, or a C1 plan-template rebind stops costing under half a cold plan")
	flag.Parse()

	if *benchJSON != "" {
		if err := benchSnapshot(*benchJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	experiments := bench.All()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	failed := false
	for _, e := range experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		rep, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed = true
			continue
		}
		fmt.Print(rep.String())
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	if failed {
		os.Exit(1)
	}
}

// benchResult is one benchmark line of the snapshot file.
type benchResult struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"` // unit -> value (ns/op, pages/op, ...)
}

// benchSnapshot runs the top-level benchmark suite, records every reported
// metric into BENCH_<date>.json under dir, and enforces the perf-trajectory
// floor: the optimized variant of E1, E2, and E4 must still beat its
// baseline on pages/op. Five iterations per benchmark, not one: the
// sub-millisecond ops (E1's 6-page indexed probe, the V1 kernels) are
// warmup-dominated on their first iteration, and a snapshot that is mostly
// cold-cache noise can't serve as a trajectory baseline.
func benchSnapshot(dir string) error {
	cmd := exec.Command("go", "test", "-bench=.", "-benchtime=5x", "-short", "-run", "^$", ".")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	fmt.Print(string(out))
	if err != nil {
		return fmt.Errorf("bench run failed: %w", err)
	}
	results := parseBenchOutput(string(out))
	if len(results) == 0 {
		return fmt.Errorf("bench run produced no parseable benchmark lines")
	}
	// C1's statements take microseconds: five of them time the clock, not
	// the plan cache. Its entries are measured again over 2,000 statements.
	cmd = exec.Command("go", "test", "-bench=C1PlanTemplate", "-benchtime=2000x", "-short", "-run", "^$", ".")
	cmd.Stderr = os.Stderr
	out, err = cmd.Output()
	fmt.Print(string(out))
	if err != nil {
		return fmt.Errorf("C1 bench run failed: %w", err)
	}
	results = mergeBenchResults(results, parseBenchOutput(string(out)))
	snapshot := struct {
		Date       string        `json:"date"`
		GoVersion  string        `json:"go_version"`
		GOMAXPROCS int           `json:"gomaxprocs"`
		Benchmarks []benchResult `json:"benchmarks"`
	}{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: results,
	}
	buf, err := json.MarshalIndent(snapshot, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+snapshot.Date+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(results))
	return checkTrajectory(results)
}

// mergeBenchResults replaces the entries of base that rerun measured again.
func mergeBenchResults(base, rerun []benchResult) []benchResult {
	again := map[string]benchResult{}
	for _, r := range rerun {
		again[r.Name] = r
	}
	for i, r := range base {
		if nr, ok := again[r.Name]; ok {
			base[i] = nr
		}
	}
	return base
}

// parseBenchOutput extracts benchmark lines of the form
//
//	BenchmarkName/sub-4   12   345 ns/op   6.0 pages/op   7.0 skipped/op
//
// into structured results. Non-benchmark lines are ignored.
func parseBenchOutput(out string) []benchResult {
	var results []benchResult
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := benchResult{Name: fields[0], Iters: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			r.Metrics[fields[i+1]] = v
		}
		if len(r.Metrics) > 0 {
			results = append(results, r)
		}
	}
	return results
}

// checkTrajectory fails when a tracked optimized/baseline pair no longer
// shows the optimization winning on pages/op — the regression this guard
// exists to catch is a rewrite silently stopping to fire.
func checkTrajectory(results []benchResult) error {
	pages := func(sub string) (float64, bool) {
		for _, r := range results {
			if strings.Contains(r.Name, sub) {
				v, ok := r.Metrics["pages/op"]
				return v, ok
			}
		}
		return 0, false
	}
	pairs := []struct{ id, optimized, baseline string }{
		{"E1", "E1PredicateIntroduction/sqo", "E1PredicateIntroduction/baseline"},
		{"E2", "E2JoinHoles/holetrim", "E2JoinHoles/baseline"},
		{"E4", "E4JoinElimination/eliminated", "E4JoinElimination/join"},
	}
	var failures []string
	for _, p := range pairs {
		opt, okO := pages(p.optimized)
		base, okB := pages(p.baseline)
		if !okO || !okB {
			failures = append(failures, fmt.Sprintf("%s: missing pages/op for %s or %s", p.id, p.optimized, p.baseline))
			continue
		}
		if opt >= base {
			failures = append(failures, fmt.Sprintf("%s: optimized variant no longer beats baseline on pages/op: %.1f >= %.1f", p.id, opt, base))
			continue
		}
		fmt.Printf("trajectory %s: ok (%.1f < %.1f pages/op)\n", p.id, opt, base)
	}
	// R1: the lifecycle-overhead pair must be present in the snapshot so
	// the robustness run stays tracked; the overhead itself is reported but
	// not gated here — single-iteration wall times are timer-noise-bound
	// (the -race fault-injection CI job carries the hard guarantees).
	nsPerOp := func(sub string) (float64, bool) {
		for _, r := range results {
			if strings.Contains(r.Name, sub) {
				v, ok := r.Metrics["ns/op"]
				return v, ok
			}
		}
		return 0, false
	}
	for _, wl := range []string{"filter-scan", "group-agg"} {
		on, okOn := nsPerOp("R1LifecycleOverhead/" + wl + "/ctx=on")
		off, okOff := nsPerOp("R1LifecycleOverhead/" + wl + "/ctx=off")
		if !okOn || !okOff {
			failures = append(failures, fmt.Sprintf("R1: missing lifecycle benchmark for %s (ctx=on and ctx=off must both report)", wl))
			continue
		}
		fmt.Printf("trajectory R1: %s lifecycle overhead %+.1f%% (informational; bar is 5%%)\n", wl, (on/off-1)*100)
	}
	// S1: the server-throughput benchmark must be present so the network
	// path stays tracked; throughput and tail latency are reported but not
	// gated — absolute numbers depend on the host (the server tests and the
	// S1 experiment carry the semantic guarantees).
	metric := func(sub, unit string) (float64, bool) {
		for _, r := range results {
			if strings.Contains(r.Name, sub) {
				v, ok := r.Metrics[unit]
				return v, ok
			}
		}
		return 0, false
	}
	qps, okQ := metric("S1Server", "qps")
	p99, okP := metric("S1Server", "p99_us")
	if !okQ || !okP {
		failures = append(failures, "S1: missing S1Server benchmark (qps and p99_us must both report)")
	} else {
		fmt.Printf("trajectory S1: server throughput %.0f stmt/s, accepted p99 %.0fµs (informational)\n", qps, p99)
	}
	// D1: both recovery variants must report so the durability path stays
	// tracked, and the checkpointed image must replay a bounded tail —
	// checkpoints silently not truncating replay is the regression this
	// guards. Wall times are host-bound and stay informational.
	unRec, okU := metric("D1Recovery/uncheckpointed", "records/op")
	ckRec, okC := metric("D1Recovery/checkpointed", "records/op")
	switch {
	case !okU || !okC:
		failures = append(failures, "D1: missing D1Recovery benchmark (uncheckpointed and checkpointed must both report records/op)")
	case ckRec >= unRec:
		failures = append(failures, fmt.Sprintf("D1: checkpointed recovery no longer replays a bounded tail: %.0f >= %.0f records/op", ckRec, unRec))
	default:
		fmt.Printf("trajectory D1: recovery replays %.0f records uncheckpointed vs %.0f past the last snapshot (wall time informational)\n", unRec, ckRec)
	}
	// V1: every kernel family must report both the compiled-kernel and the
	// tree-walk variant, and the best typed kernel must still win clearly.
	// A uniform ~1.0x across all typed families means CompilePredicate
	// silently stopped producing specialized stages — the regression this
	// gate exists to catch; per-family margins stay informational because
	// single-iteration wall times are noisy.
	nsPerRow := func(sub string) (float64, bool) {
		for _, r := range results {
			if strings.Contains(r.Name, sub) {
				v, ok := r.Metrics["ns/row"]
				return v, ok
			}
		}
		return 0, false
	}
	bestV1 := 0.0
	for _, kernel := range []string{"eq-int", "lt-float", "between-int", "is-null", "generic-col-col"} {
		k, okK := nsPerRow("V1Kernels/" + kernel + "/kernel")
		w, okW := nsPerRow("V1Kernels/" + kernel + "/treewalk")
		if !okK || !okW {
			failures = append(failures, fmt.Sprintf("V1: missing kernel benchmark for %s (kernel and treewalk must both report ns/row)", kernel))
			continue
		}
		speedup := w / k
		if kernel != "generic-col-col" && speedup > bestV1 {
			bestV1 = speedup
		}
		fmt.Printf("trajectory V1: %s kernel %.1f ns/row vs tree-walk %.1f (%.1fx)\n", kernel, k, w, speedup)
	}
	if bestV1 > 0 && bestV1 < 1.5 {
		failures = append(failures, fmt.Sprintf("V1: no typed kernel beats the tree-walk anymore (best %.2fx); predicate compilation has stopped specializing", bestV1))
	}
	// V2: a page scan over warm page images must beat the same scan with
	// the images dropped before every execution. Parity means scans stopped
	// reading the cached vectors (or started building them eagerly) — the
	// regression this gate catches; the margin itself is host-bound.
	for _, scan := range []string{"fact-scan", "wide-scan"} {
		cold, okC := nsPerRow("V2FrozenScan/" + scan + "/cold")
		warm, okW := nsPerRow("V2FrozenScan/" + scan + "/warm")
		switch {
		case !okC || !okW:
			failures = append(failures, fmt.Sprintf("V2: missing V2FrozenScan/%s benchmark (cold and warm must both report ns/row)", scan))
		case warm >= cold:
			failures = append(failures, fmt.Sprintf("V2: %s over warm page images (%.1f ns/row) no longer beats cold images (%.1f ns/row)", scan, warm, cold))
		default:
			fmt.Printf("trajectory V2: ok (%s warm %.1f ns/row vs cold %.1f, %.2fx)\n", scan, warm, cold, cold/warm)
		}
	}
	// V3: on the wider range over frozen pages, finishing on the page path
	// must beat fetching entry by entry. Parity means the page path stopped
	// reading images or pruning (or the forced entry path stopped being
	// one) — the regression this gate catches; the margin is host-bound.
	entryNs, okE := metric("V3IndexPagePath/range-40pct/entry", "ns/entry")
	pagesNs, okP3 := metric("V3IndexPagePath/range-40pct/pages-frozen", "ns/entry")
	switch {
	case !okE || !okP3:
		failures = append(failures, "V3: missing V3IndexPagePath/range-40pct benchmark (entry and pages-frozen must both report ns/entry)")
	case pagesNs >= entryNs:
		failures = append(failures, fmt.Sprintf("V3: the page path over frozen pages (%.1f ns/entry) no longer beats the entry path (%.1f ns/entry)", pagesNs, entryNs))
	default:
		fmt.Printf("trajectory V3: ok (wide frozen range: page path %.1f ns/entry vs entry path %.1f, %.2fx)\n", pagesNs, entryNs, entryNs/pagesNs)
	}
	// S2: the shard-router benchmark must show registry pruning still
	// excluding shards — a pruned one-shard-band query contacting as many
	// shards as a broadcast means the registry silently stopped firing,
	// which is the regression this gate catches. Throughput stays
	// informational (host-bound).
	prShards, okPr := metric("S2Router/pruned", "shards/op")
	bcShards, okBc := metric("S2Router/broadcast", "shards/op")
	switch {
	case !okPr || !okBc:
		failures = append(failures, "S2: missing S2Router benchmark (pruned and broadcast must both report shards/op)")
	case prShards >= bcShards:
		failures = append(failures, fmt.Sprintf("S2: shard pruning no longer excludes shards: %.1f >= %.1f shards/op", prShards, bcShards))
	default:
		prQPS, _ := metric("S2Router/pruned", "qps")
		bcQPS, _ := metric("S2Router/broadcast", "qps")
		fmt.Printf("trajectory S2: ok (pruned contacts %.1f shards/op vs %.1f broadcast; %.0f vs %.0f stmt/s informational)\n", prShards, bcShards, prQPS, bcQPS)
	}
	// T1: reader p99 under a concurrent insert flood must stay within a
	// small factor of the read-only p99. Before MVCC snapshot isolation a
	// writer serialized behind each materializing scan and later readers
	// queued behind the writer, inflating this ratio multi-x — scans
	// silently re-acquiring the engine lock across materialization is the
	// regression this gate catches. The 3x bar is deliberately loose:
	// absolute latencies are host-bound, but the pre-MVCC failure mode
	// showed up as 5–10x.
	roP99, okRO := metric("T1ReadUnderWrites", "ro_p99_us")
	rwP99, okRW := metric("T1ReadUnderWrites", "rw_p99_us")
	switch {
	case !okRO || !okRW:
		failures = append(failures, "T1: missing T1ReadUnderWrites benchmark (ro_p99_us and rw_p99_us must both report)")
	case rwP99 > 3*roP99:
		failures = append(failures, fmt.Sprintf("T1: reader p99 under write load degraded to %.0fµs vs %.0fµs read-only (%.1fx > 3x); scans are queueing behind writers again", rwP99, roP99, rwP99/roP99))
	default:
		fmt.Printf("trajectory T1: ok (reader p99 %.0fµs under write flood vs %.0fµs alone, %.2fx <= 3x)\n", rwP99, roP99, rwP99/roP99)
	}
	// C1: serving a statement of a known shape by rebinding its plan
	// template must cost less than half of planning it cold, on both
	// point_lookup shapes. A rebind creeping up on a cold plan means the hit
	// path started parsing or planning again (or the shapes stopped being
	// templates and every new literal compiles).
	for _, shape := range []string{"id", "order_date"} {
		cold, okC := nsPerOp("C1PlanTemplate/" + shape + "/cold-plan")
		rebind, okR := nsPerOp("C1PlanTemplate/" + shape + "/template-rebind")
		repeat, okT := nsPerOp("C1PlanTemplate/" + shape + "/text-repeat")
		switch {
		case !okC || !okR || !okT:
			failures = append(failures, fmt.Sprintf("C1: missing C1PlanTemplate/%s benchmark (cold-plan, text-repeat and template-rebind must all report ns/op)", shape))
		case rebind >= cold/2:
			failures = append(failures, fmt.Sprintf("C1: %s template rebind %.0f ns/op is not under half a cold plan's %.0f ns/op", shape, rebind, cold))
		default:
			fmt.Printf("trajectory C1: ok (%s: rebind %.0f ns/op, text repeat %.0f, cold plan %.0f — %.1fx)\n", shape, rebind, repeat, cold, cold/rebind)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench trajectory regressions:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
