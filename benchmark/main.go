// Command softbench is the repository's one repeatable benchmark: it sets
// the system up in-process, drives it over the real wire protocol with
// closed-loop clients, checks the answers, and prints every metric by name
// with its unit. See README.md for the workloads, the metrics and what each
// is expected to move.
//
//	softbench --workload W --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json contract)
//	softbench --seed N [--trace 1] [--repeat K]                every workload, each in a child process
//	softbench compare a.json b.json ...                        medians, quartiles and bounds over result files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric of BENCHMARK.json; the test keeps the two in
// step.
type metricDef struct{ name, unit string }

// endToEnd are the client-side metrics every workload produces, in the
// order BENCHMARK.json lists them. write_p50_ms, write_p99_ms, recovery_s
// and failed_frac are end-to-end too, but not every workload produces them
// and failed_frac is 0 when all is well, so they are reported beside these
// (see report.Extra) and are not bounded in BENCHMARK.json.
var endToEnd = []metricDef{
	{"throughput_ops_s", "stmt/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics. A layer a workload bypasses
// reports 0.
var perLayer = []metricDef{
	{"sql.parse_us", "us"},
	{"plan.build_us", "us"},
	{"rewrite.rewrite_us", "us"},
	{"rewrite.fires_per_stmt", "count"},
	{"opt.optimize_us", "us"},
	{"opt.qerror_p50", "ratio"},
	{"engine.plan_cache_hit_ratio", "ratio"},
	{"engine.cached_plans", "count"},
	{"engine.exec_us", "us"},
	{"engine.recover_ms", "ms"},
	{"exec.pages_read_per_stmt", "count"},
	{"exec.pages_skipped_per_stmt", "count"},
	{"exec.rows_read_per_row_out", "ratio"},
	{"exec.short_circuits_per_stmt", "count"},
	{"exec.comparisons_per_stmt", "count"},
	{"exec.hash_probes_per_stmt", "count"},
	{"storage.skip_ratio", "ratio"},
	{"server.wire_overhead_us", "us"},
	{"client.write_p50_ms", "ms"},
	{"client.write_p99_ms", "ms"},
	{"wal.bytes_per_write_stmt", "bytes"},
	{"wal.fsyncs_per_commit", "ratio"},
	{"wal.checkpoints", "count"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.replayed_records", "count"},
	{"txn.conflicts", "count"},
	{"txn.vacuum_reclaimed", "count"},
	{"txn.vacuum_ms", "ms"},
	{"softc.maintenance_ns_per_write", "ns"},
	{"softc.active_constraints", "count"},
	{"shard.contacted_per_stmt", "ratio"},
	{"shard.pruned_frac", "ratio"},
	{"shard.router_overhead_us", "us"},
}

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is one run of one workload: the envelope, the metrics, and what
// the checks found.
type report struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`

	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Clients        int            `json:"clients"`
	LoadModel      string         `json:"load_model"`
	WarmupS        float64        `json:"warmup_s"`
	WindowS        float64        `json:"window_s"`
	WindowRanS     float64        `json:"window_ran_s"` // start of window to the last in-window completion
	Throughput     float64        `json:"throughput_ops_s"`
	SetupReps      int            `json:"setup_reps"`
	SetupsS        []float64      `json:"setups_s"`
	SyncPolicy     string         `json:"sync_policy,omitempty"`
	CheckpointStmt int            `json:"checkpoint_every_stmts,omitempty"`
	DataSizes      map[string]int `json:"data_sizes"`
	P99Windows     int            `json:"p99_windows"`

	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Checked   int   `json:"checked_answers"`

	// Metrics holds the BENCHMARK.json metrics of the run's mode; Extra the
	// end-to-end metrics only some workloads produce.
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

// run is one invocation's settings and scratch state.
type run struct {
	wl      *workload
	seed    int64
	window  time.Duration
	warm    time.Duration
	traced  bool
	smoke   bool   // 1/20 data, no sample-count floors: the test's mode
	workDir string // scratch for data directories, removed at exit
	outDir  string // where the traced run writes its span file
	began   time.Time
	dirs    int
	notes   []string
}

func (r *run) scale(n int) int {
	if r.smoke {
		return n / 20
	}
	return n
}

// rng is client c's generator: a pure function of (seed, workload, c).
func (r *run) rng(c int) *rand.Rand {
	h := int64(0)
	for _, b := range []byte(r.wl.name) {
		h = h*131 + int64(b)
	}
	return rand.New(rand.NewSource(r.seed*1000003 + h*31 + int64(c)))
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) tempDir() (string, error) {
	r.dirs++
	dir := filepath.Join(r.workDir, fmt.Sprintf("%s-%d-%d", r.wl.name, os.Getpid(), r.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// errIncorrect marks a run that completed but whose checks failed; its
// report is still printed.
var errIncorrect = errors.New("softbench: the run's checks failed")

// execute performs one run: setupReps set-ups (the last one serves), the
// closed loop, then everything that must stay out of the timed window —
// layer decomposition, the correctness gate, the durability check.
func (r *run) execute() (*report, error) {
	r.began = time.Now()
	defer os.RemoveAll(r.workDir)
	rep := &report{
		Workload: r.wl.name, Why: r.wl.why, Seed: r.seed, Traced: r.traced,
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: nClients, LoadModel: "closed loop, one goroutine per wire connection, all from this process",
		WarmupS: r.warm.Seconds(), WindowS: r.window.Seconds(), SetupReps: setupReps,
		Metrics: map[string]metric{}, Extra: map[string]metric{},
	}

	var sys *system
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
		}
		t := time.Now()
		s, err := r.wl.setup(r)
		if err != nil {
			if s != nil {
				s.close()
			}
			return nil, fmt.Errorf("%s: setup: %w", r.wl.name, err)
		}
		rep.SetupsS = append(rep.SetupsS, time.Since(t).Seconds())
		sys = s
	}
	defer sys.close()
	rep.DataSizes = sys.sizes
	if sys.recovery != nil {
		rep.SyncPolicy, rep.CheckpointStmt = "always", sys.durOpts.CheckpointEvery
	}
	runtime.GC()

	streams := r.wl.streams(r, sys)
	logs, err := drive(r, sys, streams)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.wl.name, err)
	}
	heap := liveHeapMB()

	var all clientLog
	for _, log := range logs {
		all.samples = append(all.samples, log.samples...)
		all.attempted += log.attempted
		all.failed += log.failed
		all.conflicts += log.conflicts
		all.commits += log.commits
		all.done += log.done
		if log.lastEnd > all.lastEnd {
			all.lastEnd = log.lastEnd
		}
		if log.firstErr != nil {
			r.notef("client error: %v", log.firstErr)
		}
	}
	rep.WindowRanS = all.lastEnd.Seconds()
	rep.Throughput = windowedRate(all.samples, r.window, subWindows)

	// The steady-state refusal: a pooled workload must serve its window from
	// the plan cache, or its numbers describe the warm-up.
	d := sys.after
	hits, misses := d.cacheHits-sys.before.cacheHits, d.cacheMisses-sys.before.cacheMisses
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	if r.wl.steadyCache && hitRatio < 0.99 {
		return nil, fmt.Errorf("%s: plan-cache hit ratio %.4f in the window: the warm-up did not reach steady state", r.wl.name, hitRatio)
	}

	minN := minP99Samples
	if r.smoke {
		minN = 1
	}
	reads, writes := ofKind(all.samples, kindRead), durations(ofKind(all.samples, kindWrite))
	p99, windows, fewest := windowedP99(reads, r.window, minN)
	if windows == 0 {
		return nil, fmt.Errorf("%s: undersized run: %d reads in the thinnest sub-window, a p99 needs %d", r.wl.name, fewest, minN)
	}
	rep.P99Windows = windows

	if r.traced {
		if err := r.layers(rep, sys, logs, &all, writes, hitRatio); err != nil {
			return nil, fmt.Errorf("%s: trace: %w", r.wl.name, err)
		}
	} else {
		rep.Metrics["throughput_ops_s"] = metric{rep.Throughput, "stmt/s", int(all.done)}
		rep.Metrics["read_p50_ms"] = metric{ms(windowedQuantile(reads, r.window, subWindows, 0.5)), "ms", len(reads)}
		rep.Metrics["read_p99_ms"] = metric{ms(p99), "ms", fewest}
		rep.Metrics["live_heap_mb"] = metric{heap, "MB", 0}
		rep.Metrics["setup_s"] = metric{median(rep.SetupsS), "s", setupReps}
		if len(writes) > 0 {
			rep.Extra["write_p50_ms"] = metric{ms(quantile(writes, 0.5)), "ms", len(writes)}
			rep.Extra["write_p99_ms"] = metric{ms(quantile(writes, 0.99)), "ms", len(writes)}
		}
		if sys.recovery != nil {
			rep.Extra["recovery_s"] = metric{sys.recoverDur.Seconds(), "s", 1}
		}
	}

	// Checks, outside every timed interval.
	checked, wrong, err := gate(r, sys, streams, logs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.wl.name, err)
	}
	if r.wl.after != nil {
		c, w, err := r.wl.after(r, sys, streams)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.wl.name, err)
		}
		checked, wrong = checked+c, wrong+w
	}
	if checked == 0 {
		return nil, fmt.Errorf("%s: no answer was checked", r.wl.name)
	}
	rep.Checked = checked
	rep.Attempted = all.attempted + int64(checked)
	rep.Failed = all.failed + int64(wrong)
	rep.Correct = rep.Failed == 0
	rep.Extra["failed_frac"] = metric{float64(rep.Failed) / float64(rep.Attempted), "ratio", int(rep.Attempted)}
	rep.Notes = r.notes
	if !rep.Correct {
		return rep, errIncorrect
	}
	return rep, nil
}

// layers fills the per-layer metrics of a traced run: counter deltas over
// the window, the post-window decomposition of the sampled statements, and
// the explicit one-off spans. It also writes the span file.
func (r *run) layers(rep *report, sys *system, logs []*clientLog, all *clientLog, writes []time.Duration, hitRatio float64) error {
	lt, err := decompose(r, sys, logs)
	if err != nil {
		return err
	}
	m := map[string]metric{}
	put := func(name string, v float64, samples int) {
		for _, d := range perLayer {
			if d.name == name {
				m[name] = metric{v, d.unit, samples}
				return
			}
		}
		panic("softbench: " + name + " is not a per-layer metric")
	}
	per := func(total int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	put("sql.parse_us", us(p50(lt.parse)), len(lt.parse))
	put("plan.build_us", us(p50(lt.build)), len(lt.build))
	put("rewrite.rewrite_us", us(p50(lt.rewrite)), len(lt.rewrite))
	put("rewrite.fires_per_stmt", mean(lt.fires), len(lt.fires))
	put("opt.optimize_us", us(p50(lt.optimize)), len(lt.optimize))
	put("opt.qerror_p50", median(lt.qerr), len(lt.qerr))
	put("engine.exec_us", us(p50(lt.exec)), len(lt.exec))
	put("exec.pages_read_per_stmt", per(lt.pagesRead, lt.stmts), lt.stmts)
	put("exec.pages_skipped_per_stmt", per(lt.pagesSkipped, lt.stmts), lt.stmts)
	put("exec.rows_read_per_row_out", per(lt.rowsRead, int(lt.rowsOut)), lt.stmts)
	put("exec.short_circuits_per_stmt", per(lt.shortCircuits, lt.stmts), lt.stmts)
	put("exec.comparisons_per_stmt", per(lt.comparisons, lt.stmts), lt.stmts)
	put("exec.hash_probes_per_stmt", per(lt.probes, lt.stmts), lt.stmts)
	put("storage.skip_ratio", per(lt.pagesSkipped, int(lt.pagesRead+lt.pagesSkipped)), lt.stmts)
	// The median of per-statement differences: the same statement timed at
	// the client inside the window and in process after it. The pools mix
	// statements two orders of magnitude apart, so a difference of two
	// medians would mostly measure which statement each median landed on.
	put("server.wire_overhead_us", us(p50(lt.wireOver)), len(lt.wireOver))
	put("shard.router_overhead_us", us(p50(lt.routeOver)), len(lt.routeOver))

	b, a := sys.before, sys.after
	put("engine.plan_cache_hit_ratio", hitRatio, int(a.cacheHits+a.cacheMisses-b.cacheHits-b.cacheMisses))
	put("engine.cached_plans", float64(a.cachedPlans), 0)
	put("client.write_p50_ms", ms(quantile(writes, 0.5)), len(writes))
	put("client.write_p99_ms", ms(quantile(writes, 0.99)), len(writes))
	put("txn.conflicts", float64(all.conflicts), int(all.attempted))
	put("softc.maintenance_ns_per_write", per(a.maintNanos-b.maintNanos, len(writes)), len(writes))
	put("softc.active_constraints", float64(a.activeConstraints), 0)
	put("shard.contacted_per_stmt", per(a.shardQueries-b.shardQueries, int(all.attempted)), int(all.attempted))
	put("shard.pruned_frac", per(a.shardsPruned-b.shardsPruned, int(a.shardsPruned-b.shardsPruned+a.shardQueries-b.shardQueries)), int(all.attempted))

	// WAL and transaction layers: zero unless the engine is durable. A
	// commit point is an autocommit write or a COMMIT; a statement inside a
	// transaction is logged but not fsynced.
	stmtWrites, commits := len(writes), int(all.commits)
	put("wal.bytes_per_write_stmt", per(a.walBytes-b.walBytes, stmtWrites), stmtWrites)
	put("wal.fsyncs_per_commit", per(a.walFsyncs-b.walFsyncs, commits), commits)
	put("wal.checkpoints", float64(a.checkpoints-b.checkpoints), 0)
	put("wal.checkpoint_ms", 0, 0)
	put("wal.replayed_records", 0, 0)
	put("engine.recover_ms", 0, 0)
	put("txn.vacuum_reclaimed", 0, 0)
	put("txn.vacuum_ms", 0, 0)
	if sys.recovery != nil {
		db := sys.dbs[0]
		var cerr error
		took := lt.timed("wal.checkpoint", func() { cerr = db.Checkpoint() })
		if cerr != nil {
			return cerr
		}
		put("wal.checkpoint_ms", ms(took), 1)
		put("wal.replayed_records", float64(sys.recovery.RecordsReplayed), 1)
		put("engine.recover_ms", ms(sys.recoverDur), 1)
		lt.add("engine.recover", -1, -1, sys.recoverAt, sys.recoverAt.Add(sys.recoverDur))
		reclaimed := 0
		took = lt.timed("txn.vacuum", func() { reclaimed = db.Vacuum() })
		put("txn.vacuum_reclaimed", float64(reclaimed), 1)
		put("txn.vacuum_ms", ms(took), 1)
	}
	rep.Metrics = m

	lists := [][]span{lt.spans}
	for _, log := range logs {
		lists = append(lists, log.spans)
	}
	rep.TraceFile, err = writeTrace(r, lists...)
	return err
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// commit is the VCS revision stamped into the binary, when there was one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// contractLine is the last line of a --workload run: exactly the keys the
// driver reads, with exactly the metrics BENCHMARK.json lists for the mode.
func contractLine(rep *report) string {
	type m struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	metrics := map[string]m{}
	for _, d := range defs {
		metrics[d.name] = m{rep.Metrics[d.name].Value, d.unit}
	}
	out, _ := json.Marshal(map[string]any{ // marshaling plain maps and numbers cannot fail
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics,
	})
	return string(out)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "run this one workload and end with the BENCHMARK.json result line; empty runs all of them in child processes")
	seed := flag.Int64("seed", 1, "seed of the statement streams")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics and writing benchmark/out/trace-<workload>.json")
	repeat := flag.Int("repeat", 1, "with no --workload: produce this many result files")
	out := flag.String("out", filepath.Join("benchmark", "out"), "directory for the span files and, with no --workload, the result files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace == 1, *repeat, *out))
	}
	wl := workloadByName(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "softbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	r := &run{
		wl: wl, seed: *seed, window: window, warm: window / 5, traced: *trace == 1,
		workDir: filepath.Join(".bench_build", "data", fmt.Sprintf("%s-%d", wl.name, os.Getpid())),
		outDir:  *out,
	}
	rep, err := r.execute()
	if rep != nil {
		full, _ := json.Marshal(rep) // a report holds only plain fields
		fmt.Println(string(full))
		fmt.Println(contractLine(rep))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runAll runs every workload in a fresh child process of this binary, so
// heap and GC state never leak between workloads, and writes one result
// document per repeat: the children's reports, untraced first. With traced
// set each workload also gets a traced run, and trace_overhead_frac = 1 −
// traced ÷ untraced throughput is added to it.
func runAll(seed int64, seconds int, traced bool, repeat int, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	child := func(wl string, trace int) (*report, error) {
		cmd := exec.Command(self, "--workload", wl, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		if len(lines) < 2 {
			return nil, fmt.Errorf("%s: no report: %v", wl, err)
		}
		rep := &report{}
		if jerr := json.Unmarshal([]byte(lines[len(lines)-2]), rep); jerr != nil {
			return nil, fmt.Errorf("%s: %w", wl, jerr)
		}
		return rep, err
	}
	status := 0
	for i := 0; i < repeat; i++ {
		doc := struct {
			Seed    int64     `json:"seed"`
			Reports []*report `json:"reports"`
		}{Seed: seed}
		for _, wl := range workloads {
			modes := []int{0}
			if traced {
				modes = append(modes, 1)
			}
			untraced := 0.0
			for _, mode := range modes {
				rep, err := child(wl.name, mode)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					status = 1
				}
				if rep == nil {
					continue
				}
				if mode == 0 {
					untraced = rep.Throughput
				} else if untraced > 0 {
					rep.Extra["trace_overhead_frac"] = metric{1 - rep.Throughput/untraced, "ratio", 0}
				}
				doc.Reports = append(doc.Reports, rep)
				printReport(rep)
			}
		}
		data, _ := json.MarshalIndent(doc, "", " ") // plain fields only
		path := filepath.Join(outDir, fmt.Sprintf("result-%d.json", i+1))
		if repeat == 1 {
			path = filepath.Join(outDir, "result.json")
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println("wrote", path)
	}
	return status
}

// printReport prints one report's metrics by name with their units.
func printReport(rep *report) {
	mode := "untraced"
	if rep.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %gs window ran %.3fs, %d clients): correct=%v attempted=%d failed=%d checked=%d\n",
		rep.Workload, mode, rep.Seed, rep.WindowS, rep.WindowRanS, rep.Clients, rep.Correct, rep.Attempted, rep.Failed, rep.Checked)
	for _, set := range []map[string]metric{rep.Metrics, rep.Extra} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-32s %14.4f %-7s n=%d\n", n, set[n].Value, set[n].Unit, set[n].Samples)
		}
	}
	for _, n := range rep.Notes {
		fmt.Println("  note:", n)
	}
}
