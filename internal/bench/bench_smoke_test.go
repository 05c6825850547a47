package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// The smoke tests run every experiment at reduced scale and assert the
// *shape* of each result — who wins and roughly by how much — which is what
// the reproduction promises (absolute numbers depend on the simulated
// substrate).

func lastFloat(t *testing.T, cell string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return f
}

func TestE1Shape(t *testing.T) {
	rep, err := E1PredicateIntroduction([]int{5000, 20000})
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for _, row := range rep.Rows {
		speedup := lastFloat(t, row[3])
		if speedup < 2 {
			t.Errorf("n=%s: predicate introduction should win clearly: speedup %.2f", row[0], speedup)
		}
		if row[4] != "true" {
			t.Errorf("n=%s: answers must match", row[0])
		}
		if prev > 0 && speedup < prev*0.8 {
			t.Errorf("speedup should grow (or hold) with table size: %.2f then %.2f", prev, speedup)
		}
		prev = speedup
	}
}

func TestE2Shape(t *testing.T) {
	rep, err := E2JoinHoles(4000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows: %v", rep.Rows)
	}
	speedup := lastFloat(t, rep.Rows[1][3])
	if speedup <= 1.0 {
		t.Errorf("hole trimming should reduce pages: %.2f", speedup)
	}
	if rep.Rows[0][2] != rep.Rows[1][2] {
		t.Errorf("join answers must match: %s vs %s", rep.Rows[0][2], rep.Rows[1][2])
	}
}

func TestE3Shape(t *testing.T) {
	rep, err := E3Cardinality(8000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var qi, qt float64
	var count int
	for _, row := range rep.Rows {
		qi += lastFloat(t, row[4])
		qt += lastFloat(t, row[5])
		count++
	}
	qi /= float64(count)
	qt /= float64(count)
	if qt >= qi {
		t.Errorf("SSC twin should reduce mean q-error: indep %.2f vs twin %.2f", qi, qt)
	}
}

func TestE4Shape(t *testing.T) {
	rep, err := E4JoinElimination(5000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	// The mechanism, not the clock: the eliminated plan never reads the
	// dimension table and never probes it, so it reads fewer pages and
	// makes fewer probes than the join, and it still reads the fact table.
	for _, row := range rep.Rows {
		var joinPages, elimPages, joinProbes, elimProbes int
		if _, err := fmt.Sscanf(row[1], "%d / %d", &joinPages, &elimPages); err != nil {
			t.Fatalf("%s: pages %q: %v", row[0], row[1], err)
		}
		if _, err := fmt.Sscanf(row[2], "%d / %d", &joinProbes, &elimProbes); err != nil {
			t.Fatalf("%s: probes %q: %v", row[0], row[2], err)
		}
		if elimPages <= 0 || elimPages >= joinPages {
			t.Errorf("%s: pages join/elim %d / %d: elimination must skip the dimension's pages", row[0], joinPages, elimPages)
		}
		if elimProbes >= joinProbes {
			t.Errorf("%s: probes join/elim %d / %d: elimination must drop the join's probes", row[0], joinProbes, elimProbes)
		}
		if row[5] != "true" {
			t.Errorf("%s: answers must match", row[0])
		}
	}
}

func TestE5Shape(t *testing.T) {
	rep, err := E5BranchPrune(800)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: months 1..3 → 3 of 12 branches.
	if rep.Rows[0][1] != "12" || rep.Rows[0][2] != "3" {
		t.Errorf("Jan–Mar should scan 3 of 12 branches: %v", rep.Rows[0])
	}
	if rep.Rows[1][2] != "1" {
		t.Errorf("single month should scan 1 branch: %v", rep.Rows[1])
	}
	if rep.Rows[2][2] != "12" {
		t.Errorf("full year scans all: %v", rep.Rows[2])
	}
	if lastFloat(t, rep.Rows[0][5]) < 3 {
		t.Errorf("Jan–Mar speedup should approach 4x: %v", rep.Rows[0])
	}
}

func TestE6Shape(t *testing.T) {
	rep, err := E6ExceptionAST(12000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows: %v", rep.Rows)
	}
	astSpeedup := lastFloat(t, rep.Rows[2][3])
	if astSpeedup < 3 {
		t.Errorf("exception-AST plan should beat the scan clearly: %.2f", astSpeedup)
	}
	for _, n := range rep.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("answer mismatch: %s", n)
		}
	}
}

func TestE7Shape(t *testing.T) {
	rep, err := E7FDSort(6000, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row[4] != "true" {
			t.Errorf("%s: answers must match: %v", row[0], row)
		}
	}
	// The ORDER BY query should save a noticeable share of comparisons.
	if saved := lastFloat(t, rep.Rows[0][3]); saved <= 0 {
		t.Errorf("FD sort simplification saved nothing: %v", rep.Rows[0])
	}
}

func TestE8Shape(t *testing.T) {
	rep, err := E8CheckingOverhead(4000)
	if err != nil {
		t.Fatal(err)
	}
	// The mechanism, not the clock: enforced mode tests the CHECK once per
	// inserted row, informational mode never.
	if info, enforced := rep.Rows[0][5], rep.Rows[1][5]; info != "0.00" || enforced != "1.00" {
		t.Errorf("CHECK evaluations per row: informational %s, enforced %s; want 0 and 1", info, enforced)
	}
}

func TestE9Shape(t *testing.T) {
	rep, err := E9Currency(20000, 200, 30) // 1%/day for a fast test run
	if err != nil {
		t.Fatal(err)
	}
	// Margin grows over days; predicted bounds actual.
	var lastPred, lastDrift float64
	for _, row := range rep.Rows {
		if row[0] == "refresh" {
			continue
		}
		pred := lastFloat(t, row[1])
		drift := lastFloat(t, row[2])
		if drift > pred+1e-9 {
			t.Errorf("day %s: drift %.3f exceeds predicted bound %.3f", row[0], drift, pred)
		}
		lastPred, lastDrift = pred, drift
	}
	if lastPred <= 0 || lastDrift <= 0 {
		t.Errorf("after 30 days both should be positive: pred=%.3f drift=%.3f", lastPred, lastDrift)
	}
	// The paper's ratio: 30 days * 200/20000 per day = 30%... our scaled
	// run uses 1% per day; check predicted margin is day*rate.
	if lastPred < 25 {
		t.Errorf("predicted margin after 30 days at 1%%/day: %.1f%%", lastPred)
	}
}

func TestE10Shape(t *testing.T) {
	rep, err := E10Miners([]int{4000, 8000, 16000})
	if err != nil {
		t.Fatal(err)
	}
	// Linear scaling, gated on work counted in the run, not on its clock:
	// at every size the fit reads each row once per pass — its sum pass and
	// its residual pass — and the hole miner probes once per order, where
	// the orders of the planted band (one in four) join nothing: 4/3 probes
	// per join row. A pass more shows as a larger count; the milliseconds
	// stay report-only.
	for _, row := range rep.Rows {
		if visits := lastFloat(t, row[3]); visits != 2 {
			t.Errorf("%s rows: the correlation fit visited %.2f points per row, want 2 (two passes)", row[0], visits)
		}
		if probes := lastFloat(t, row[6]); probes < 1 || probes > 1.34 {
			t.Errorf("%s rows: the hole miner made %.2f probes per join row, want 4/3 (one per order)", row[0], probes)
		}
	}
}

func TestE11Shape(t *testing.T) {
	rep, err := E11Violation(4000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows: %v", rep.Rows)
	}
	holesBefore, _ := strconv.Atoi(rep.Rows[0][1])
	holesAfter, _ := strconv.Atoi(rep.Rows[1][1])
	holesRemined, _ := strconv.Atoi(rep.Rows[2][1])
	if holesAfter >= holesBefore {
		t.Errorf("violating writes should retire holes: %d -> %d", holesBefore, holesAfter)
	}
	if holesRemined <= holesAfter {
		t.Errorf("re-mine should restore holes: %d -> %d", holesAfter, holesRemined)
	}
	if rep.Rows[1][3] == "0" {
		t.Errorf("backup-plan failover expected after repair: %v", rep.Rows[1])
	}
}

func TestP2Shape(t *testing.T) {
	rep, err := P2Prune(8000)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, row := range rep.Rows {
		rows[row[0]+"/"+row[1]] = row
	}
	get := func(key string) []string {
		t.Helper()
		row, ok := rows[key]
		if !ok {
			t.Fatalf("missing row %q in %v", key, rep.Rows)
		}
		return row
	}
	// Selective workloads: pruning must read at most 25% of the baseline
	// pages (the acceptance bar) and account for every page.
	for _, wl := range []string{"selective-scan", "corr-derived"} {
		off := lastFloat(t, get(wl + "/prune off")[2])
		on := lastFloat(t, get(wl + "/prune on")[2])
		if on*4 > off {
			t.Errorf("%s: pruning should read <=25%% of pages: %0.f of %.0f", wl, on, off)
		}
		if skipped := lastFloat(t, get(wl + "/prune on")[3]); on+skipped != off {
			t.Errorf("%s: read %0.f + skipped %.0f != total %.0f", wl, on, skipped, off)
		}
	}
	// The interior hole must add skips beyond what the filter proves.
	filterOnly := lastFloat(t, get("join-hole/filter-only")[3])
	full := lastFloat(t, get("join-hole/prune on")[3])
	if full <= filterOnly {
		t.Errorf("interior hole should add skips: filter-only %.0f vs full %.0f", filterOnly, full)
	}
}

func TestO1Shape(t *testing.T) {
	rep, err := O1Observability(20000) // errors if tracing moves page reads
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(R1Queries) {
		t.Fatalf("rows: %v", rep.Rows)
	}
	for i, row := range rep.Rows {
		if row[0] != R1Queries[i].Name || row[4] != "200" {
			t.Errorf("want %s over all 200 fact pages: %v", R1Queries[i].Name, row)
		}
	}
}

func TestR1Shape(t *testing.T) {
	rep, err := R1Robustness(30000)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, row := range rep.Rows {
		rows[row[0]+"/"+row[1]] = row
	}
	for _, key := range []string{
		"filter-scan/ctx=off", "filter-scan/ctx=on",
		"group-agg/ctx=off", "group-agg/ctx=on",
		"cancel-latency/slow-pages 1ms", "deadline/stmt-timeout 5ms", "mem-budget/16KiB sort",
	} {
		if _, ok := rows[key]; !ok {
			t.Fatalf("missing row %q in %v", key, rep.Rows)
		}
	}
	// A canceled scan stops at its next page checkpoint: at most the page
	// that was being read when cancel() fired and one whose read began
	// beside it. The latency stays in the report; the page count gates.
	lastField := func(cell string) float64 {
		f := strings.Fields(cell)
		return lastFloat(t, f[len(f)-1])
	}
	if pages := lastField(rows["cancel-latency/slow-pages 1ms"][3]); pages > 2 {
		t.Errorf("a canceled scan read %.0f pages after cancel(); it should stop at the next checkpoint", pages)
	}
	// The deadline run stops at the first checkpoint past 5ms, and every
	// page stalls at least 1ms, so it reads at most 5 pages plus the one in
	// flight and one beside it. A slow machine stalls longer and reads
	// fewer, so the ceiling cannot flake; the stalled full scan reads
	// hundreds.
	if pages := lastField(rows["deadline/stmt-timeout 5ms"][3]); pages > 7 {
		t.Errorf("the deadline run read %.0f pages against a 5ms timeout at 1ms a page", pages)
	}
}

func TestS1Shape(t *testing.T) {
	cfg := S1Config{
		Rows: 4000, Clients: 8, ParityOps: 4, MixedOps: 10,
		OverloadOps: 2, BaselineOps: 4, SlowPageUs: 1000, ShedDepth: 0, MaxConc: 2,
	}
	// Every criterion is a count, so none needs a retry: the shed row's
	// latency stays in the report, but two timings on a loaded machine do
	// not gate.
	rep := runS1(t, cfg)
	find := func(phase, configPrefix string) []string {
		t.Helper()
		for _, row := range rep.Rows {
			if row[0] == phase && strings.HasPrefix(row[1], configPrefix) {
				return row
			}
		}
		t.Fatalf("missing row %s/%s* in %v", phase, configPrefix, rep.Rows)
		return nil
	}
	if got := find("parity", "")[2]; got != "match=true" {
		t.Errorf("remote result streams must hash identically to in-process: %s", got)
	}
	if got := find("asc-invalidation", "")[2]; got != "before=true notice=true after=true" {
		t.Errorf("cross-session invalidation must propagate: %s", got)
	}
	var shedN, total int
	if _, err := fmt.Sscanf(find("overload", "shed rejections")[2], "%d of %d", &shedN, &total); err != nil {
		t.Fatalf("shed rejections cell: %v", err)
	}
	if shedN <= 0 {
		t.Errorf("overload against the shed server must reject statements: %d of %d", shedN, total)
	}
	// Admitted statements never run more than MaxConc at a time: the gate,
	// not the clock, is what bounds an accepted statement's latency.
	var peak, gate int
	if _, err := fmt.Sscanf(find("overload", "admitted concurrency")[2], "peak %d of gate %d", &peak, &gate); err != nil {
		t.Fatalf("admitted concurrency cell: %v", err)
	}
	if peak < 1 || peak > cfg.MaxConc || gate != cfg.MaxConc {
		t.Errorf("admitted statements ran %d at once against a gate of %d (want 1..%d)", peak, gate, cfg.MaxConc)
	}
}

func runS1(t *testing.T, cfg S1Config) *Report {
	t.Helper()
	rep, err := S1Server(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestO2Shape(t *testing.T) {
	rep, err := O2Economy(6000, 12)
	if err != nil {
		t.Fatal(err)
	}
	var overhead, ranking, rewriteCredit [][]string
	for _, row := range rep.Rows {
		switch row[0] {
		case "overhead":
			overhead = append(overhead, row)
		case "ranking":
			ranking = append(ranking, row)
		case "rewrite-credit":
			rewriteCredit = append(rewriteCredit, row)
		}
	}
	if len(overhead) != 3 {
		t.Fatalf("overhead rows: %v", overhead)
	}
	if len(rewriteCredit) != 1 || lastFloat(t, rewriteCredit[0][2]) <= 0 {
		t.Fatalf("join elimination should credit plan-time rewrite rows: %v", rewriteCredit)
	}
	// The 5% claim is asserted at full scale by the experiment's note; at
	// smoke scale timer noise dominates, so gate only against a gross
	// regression (the ledger doubling query cost would indicate a lock or
	// allocation on the hot path). This ceiling cannot flake on a loaded
	// host: it compares minima over strictly interleaved ledger-on and
	// ledger-off runs, and noise only adds time, so it fails only when
	// every ledger-on run takes twice the fastest ledger-off run beside it.
	for _, row := range overhead {
		if pct := lastFloat(t, row[2]); pct > 100 {
			t.Errorf("%s: ledger overhead %.1f%%; crediting should be near-free", row[1], pct)
		}
	}
	// O2Economy itself errors unless hole net > 0 > ballast net and the
	// ranking orders them; re-assert the signs from the rendered rows so the
	// table and the internal checks can't drift apart.
	var holeNet, ballastNet float64
	holeNet, ballastNet = 0, 0
	for _, row := range ranking {
		if strings.HasSuffix(row[1], " holes_orders_lineitem") {
			holeNet = lastFloat(t, row[2])
		}
		if strings.HasSuffix(row[1], " ballast_pos") {
			ballastNet = lastFloat(t, row[2])
		}
	}
	if holeNet <= 0 || ballastNet >= 0 {
		t.Errorf("ranking rows disagree with ledger: hole %.1f, ballast %.1f", holeNet, ballastNet)
	}
}

// TestC1Shape: both point_lookup shapes are served by one template each,
// and a rebind parses and plans nothing — exact counts, not timings.
func TestC1Shape(t *testing.T) {
	const stmts = 400
	rep, err := C1PlanTemplate(20000, stmts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows: %v", rep.Rows)
	}
	for i, shape := range []string{"id", "order_date"} {
		row := rep.Rows[i]
		// stmts fresh literals plus the warm-up statement, all rebinds.
		if row[0] != shape || row[5] != fmt.Sprint(i+1) || row[6] != fmt.Sprint(stmts+1) || row[7] != "0" {
			t.Errorf("%s: want %d cached plan(s), %d template hits, nothing literal-bound: %v", shape, i+1, stmts+1, row)
		}
		if row[8] != "0" || row[9] != "0" {
			t.Errorf("%s: a template rebind must make no parse (%s) and no build/rewrite/optimize pass (%s): %v", shape, row[8], row[9], row)
		}
	}
	mix := rep.Rows[2]
	if mix[5] != "2" || mix[6] != fmt.Sprint(stmts-2) || mix[7] != "0" {
		t.Errorf("the traffic mix should leave two templates and miss twice: %v", mix)
	}
	// Only the two misses parse.
	if mix[8] != "2" {
		t.Errorf("the traffic mix parsed %s texts; want its two misses: %v", mix[8], mix)
	}
}

// TestV2Shape: the frozen-page mechanism by its counts, not its clock. A
// cold execution freezes every settled page it reads (freezes cold equals
// the warm execution's frozen page reads), a warm one freezes nothing, and
// the state never moves an answer or a charge (V2FrozenScan errors then).
func TestV2Shape(t *testing.T) {
	rep, err := V2FrozenScan(20000, 10000) // errors on any answer/charge divergence across page states
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, row := range rep.Rows {
		rows[row[0]] = row
	}
	for _, name := range []string{"fact-scan", "wide-scan"} {
		row := rows[name]
		if row == nil || row[1] != "page scan" || row[7] == "0" {
			t.Fatalf("%s should be a page scan over frozen pages: %v", name, row)
		}
		if row[8] != row[7] || row[9] != "0" {
			t.Errorf("%s: freezes cold %s, warm %s; want the %s pages a warm scan reads frozen, then none", name, row[8], row[9], row[7])
		}
	}
	// An index range reads frozen pages exactly when its range switched to
	// the page path (V2FrozenScan errors otherwise). The E4 range holds a
	// tenth of fact, wide enough to switch; the FD range's thousand entries
	// fit one collected chunk and stay on the entry path.
	for name, path := range map[string]string{"fd-group-order": "index range", "e4-index-range": "index range, page path"} {
		if row := rows[name]; row == nil || row[1] != path || (row[7] == "0") != (path == "index range") {
			t.Fatalf("%s should read as %q, with frozen pages only on the page path: %v", name, path, row)
		}
		if row := rows[name]; row[8] != row[7] || row[9] != "0" {
			t.Errorf("%s: freezes cold %s, warm %s; want %s, then none", name, row[8], row[9], row[7])
		}
	}
}

// TestV3Shape: both ranges switch to the page path when the switch is on
// (V3Run errors otherwise) and answer alike on every path; only the page
// path reads frozen pages, and it reads fewer pages than fetching entry by
// entry, as many cold as frozen — counts, not timings.
func TestV3Shape(t *testing.T) {
	rep, err := V3IndexPagePath(20000)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, row := range rep.Rows {
		rows[row[0]+"/"+row[1]] = row
	}
	for _, c := range []string{"range-10pct", "range-40pct"} {
		for _, mode := range V3Modes {
			row := rows[c+"/"+mode]
			if row == nil || (row[7] == "0") != (mode == "entry") {
				t.Fatalf("%s %s: frozen pages only on the page path: %v", c, mode, row)
			}
		}
	}
	for _, c := range []string{"range-10pct", "range-40pct"} {
		entry, frozen, cold := rows[c+"/entry"], rows[c+"/pages-frozen"], rows[c+"/pages-cold"]
		if entry[9] != "0" || frozen[9] != "1" || cold[9] != "1" {
			t.Errorf("%s page paths per execution: entry %s, frozen %s, cold %s; want 0, 1, 1", c, entry[9], frozen[9], cold[9])
		}
		if lastFloat(t, frozen[8]) >= lastFloat(t, entry[8]) || frozen[8] != cold[8] || frozen[7] != cold[7] {
			t.Errorf("%s pages per execution: entry %s, frozen %s (%s frozen), cold %s (%s frozen); want fewer on the page path, alike cold and frozen",
				c, entry[8], frozen[8], frozen[7], cold[8], cold[7])
		}
	}
}

func TestV1Shape(t *testing.T) {
	rep, err := V1Kernels(8192)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, row := range rep.Rows {
		rows[row[0]] = row
	}
	get := func(name string) []string {
		t.Helper()
		row, ok := rows[name]
		if !ok {
			t.Fatalf("missing kernel row %q in %v", name, rep.Rows)
		}
		return row
	}
	// The mechanism, not the clock: the comparator families the compiler
	// specializes run typed stages that evaluate no expression per row,
	// where the tree-walk evaluates at least one; the column-to-column
	// predicate falls back to the generic stage, which evaluates it once per
	// row, as the tree-walk does.
	for _, name := range []string{"eq-int", "lt-float", "between-int", "is-null"} {
		row := get(name)
		if row[1] != "true" {
			t.Errorf("%s: expected a typed kernel: %v", name, row)
		}
		if row[2] != "0.00" {
			t.Errorf("%s: typed kernel evaluated %s expressions per row, want 0", name, row[2])
		}
		if lastFloat(t, row[3]) < 1 {
			t.Errorf("%s: tree-walk evaluated %s expressions per row, want at least 1", name, row[3])
		}
	}
	generic := get("generic-col-col")
	if generic[1] != "false" {
		t.Errorf("column-to-column compare should use the generic stage: %v", generic)
	}
	if generic[2] != "1.00" || generic[3] != "1.00" {
		t.Errorf("generic stage and tree-walk evaluations per row %s / %s, want 1.00 / 1.00", generic[2], generic[3])
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{ID: "X", Title: "t", Claim: "c", Header: []string{"a", "bb"}}
	rep.AddRow(1, 2.5)
	rep.Notef("note %d", 7)
	s := rep.String()
	for _, want := range []string{"=== X: t ===", "a", "bb", "1", "2.50", "note 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestE12Shape(t *testing.T) {
	rep, err := E12ASTs(4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows: %v", rep.Rows)
	}
	qIndep := lastFloat(t, rep.Rows[0][4])
	qAST := lastFloat(t, rep.Rows[1][4])
	qInfo := lastFloat(t, rep.Rows[3][4])
	if qAST >= qIndep {
		t.Errorf("AST-backed estimate should beat independence: %.2f vs %.2f", qAST, qIndep)
	}
	if qAST > 1.5 || qInfo > 1.5 {
		t.Errorf("AST-backed estimates should be near-exact: %.2f / %.2f", qAST, qInfo)
	}
	basePages := lastFloat(t, rep.Rows[0][1])
	routedPages := lastFloat(t, rep.Rows[2][1])
	if routedPages*3 > basePages {
		t.Errorf("routing should save pages: %.0f vs %.0f", routedPages, basePages)
	}
	for _, n := range rep.Notes {
		if strings.Contains(n, "WARNING") {
			t.Error(n)
		}
	}
}

func TestE13Shape(t *testing.T) {
	rep, err := E13VirtualColumns(5000)
	if err != nil {
		t.Fatal(err)
	}
	var qd, qv float64
	for _, row := range rep.Rows {
		qd += lastFloat(t, row[4])
		qv += lastFloat(t, row[5])
	}
	if qv >= qd {
		t.Errorf("virtual column should reduce mean q-error: %.2f vs %.2f", qv/float64(len(rep.Rows)), qd/float64(len(rep.Rows)))
	}
	// Every individual estimate should be within 2x of actual.
	for _, row := range rep.Rows {
		if q := lastFloat(t, row[5]); q > 2 {
			t.Errorf("k=%s: virtual estimate q-error %.2f", row[0], q)
		}
	}
	for _, n := range rep.Notes {
		if strings.Contains(n, "WARNING") {
			t.Error(n)
		}
	}
}

func TestD1Shape(t *testing.T) {
	rep, err := D1Recovery(300, []int{200, 800})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, row := range rep.Rows {
		if row[0] == "recovery" {
			rows = append(rows, row)
		}
	}
	if len(rows) != 3 {
		t.Fatalf("recovery rows: %v", rows)
	}
	// Replay work scales with the uncheckpointed log; the checkpointed run
	// replays a bounded tail. Wall times on a shared host are too noisy to
	// gate, so the shape assertions are on the replayed-record counts.
	if !strings.Contains(rows[0][3], "replayed 202 ") {
		t.Errorf("log=200 should replay 202 records: %s", rows[0][3])
	}
	if !strings.Contains(rows[1][3], "replayed 802 ") {
		t.Errorf("log=800 should replay 802 records: %s", rows[1][3])
	}
	var ckptReplayed int
	if _, err := fmt.Sscanf(rows[2][3], "replayed %d records", &ckptReplayed); err != nil {
		t.Fatalf("checkpoint row detail %q: %v", rows[2][3], err)
	}
	if ckptReplayed >= 802 || ckptReplayed > 256+2 {
		t.Errorf("checkpoint cadence should bound the replayed suffix: %d", ckptReplayed)
	}
	for _, row := range rep.Rows {
		if row[0] == "commit" && lastFloat(t, row[2]) <= 0 {
			t.Errorf("commit row has no timing: %v", row)
		}
	}
}

func TestS2Shape(t *testing.T) {
	// Smoke scale: the semantic phases (parity, shard-prune contact
	// counts, invalidation) are hard criteria; the scaling speedup is
	// reported but not gated — 1-shard vs 2-shard wall times at this size
	// are timer-noise-bound on a loaded CI machine (scbench's full-scale
	// run carries the >= 1.5x bar).
	rep, err := S2Router(S2Config{Rows: 6000, Ops: 15, Shards: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	find := func(phase, configPrefix string) []string {
		t.Helper()
		for _, row := range rep.Rows {
			if row[0] == phase && strings.HasPrefix(row[1], configPrefix) {
				return row
			}
		}
		t.Fatalf("missing row %s/%s* in %v", phase, configPrefix, rep.Rows)
		return nil
	}
	for _, n := range []string{"shards=1", "shards=4"} {
		if got := find("parity", n)[2]; got != "match=true" {
			t.Errorf("%s parity: %s", n, got)
		}
	}
	prune := find("shard-prune", "")
	if prune[2] != "contacted 1 pruned vs 4 broadcast" {
		t.Errorf("shard-prune contacts: %s", prune[2])
	}
	if !strings.Contains(prune[3], "hash match=true") {
		t.Errorf("pruned result must be byte-identical to broadcast: %s", prune[3])
	}
	if got := find("invalidation", "")[2]; got != "retired=1 visible=true" {
		t.Errorf("invalidation: %s", got)
	}
}
