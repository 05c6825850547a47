package bench

import (
	"fmt"
	"time"

	"softdb/internal/engine"
	"softdb/internal/obs"
	"softdb/internal/workload"
)

// o2Workload is one steady-state query path O2 times with the economy
// ledger on and off.
type o2Workload struct {
	name string
	db   *engine.Database
	q    string
}

// O2HolesQuery returns a join whose date ranges straddle the planted
// band entirely, so range subtraction cannot trim the query's edges and
// the rewriter plants an interior exclusion prune predicate instead —
// the path that skips pages with per-constraint attribution.
func O2HolesQuery(n int) string {
	lo, hi := n/8, 3*n/4
	return fmt.Sprintf(`SELECT COUNT(*) AS n FROM orders o, lineitem l
		WHERE o.okey = l.okey
		AND o.odate >= DATE '1999-01-01' + %d AND o.odate <= DATE '1999-01-01' + %d
		AND l.shipdate >= DATE '1999-01-01' + %d AND l.shipdate <= DATE '1999-01-01' + %d`,
		lo, hi, lo, hi+10)
}

// o2Min returns the minimum of ns. The per-op minimum is the overhead
// estimator because timing noise on a shared host is one-sided — GC
// pauses, CPU-frequency drift, and noisy neighbors only ever add time,
// in multiples that dwarf the effect being measured — while real ledger
// work executed on every operation would raise the minimum too. Means
// and medians over the same samples swing tens of percent either way
// between runs; the minima are stable.
func o2Min(ns []float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	m := ns[0]
	for _, v := range ns[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// O2Economy measures the constraint-economy ledger itself, two ways.
//
// Overhead: three steady-state query paths that exercise the crediting
// hot spots (skip attribution, q-error fallback, rewrite credits) run with
// the ledger on and off in alternating rounds; the ledger must be close to
// free, since every credit is an atomic add on a resolved counter.
//
// Ranking: after a mixed workload — a consulted join-hole characterization
// earning page skips versus a soft check that is only ever written to,
// never consulted — the net-benefit ordering must put the earner above the
// pure cost center, with the signs to match. This is the ledger's reason
// to exist: telling an administrator which characterizations pay rent.
func O2Economy(n, iters int) (*Report, error) {
	rep := &Report{
		ID:     "O2",
		Title:  "Constraint-economy ledger: overhead and net-benefit ranking",
		Claim:  "per-constraint benefit/cost accounting is cheap enough to leave on (<5% steady-state overhead) and ranks characterizations by measured net benefit (DESIGN.md §15)",
		Header: []string{"phase", "config", "result", "detail"},
	}

	predDB, err := CorrelatedPurchaseDB(workload.PurchaseConfig{N: n, Seed: 1, IndexOrderDate: true})
	if err != nil {
		return nil, err
	}
	holesDB, err := HolesDB(n, 2, 5)
	if err != nil {
		return nil, err
	}
	// The ledger's overhead matters on the production execution path, not
	// an isolated rewrite effect: page pruning and the plan cache go back on.
	for _, db := range []*engine.Database{predDB, holesDB} {
		db.NoPrune, db.DisablePlanCache = false, false
	}
	starDB := engine.Open()
	if err := workload.LoadStar(starDB, workload.StarConfig{
		DimRows: 1000, FactRows: n, Seed: 2, FKMode: "informational",
	}); err != nil {
		return nil, err
	}
	workloads := []o2Workload{
		{"E1 pred-intro", predDB,
			"SELECT id FROM purchase WHERE ship_date = DATE '1999-01-01' + " + fmt.Sprint(n/8)},
		{"E2 hole-prune", holesDB, O2HolesQuery(n)},
		{"E4 join-elim", starDB,
			"SELECT SUM(f.qty) AS s FROM fact f, dim d WHERE f.dim_id = d.id"},
	}

	// Warm with the ledger on so plans are compiled (and shadow-costed)
	// once, outside the timed region; the measured loops then exercise the
	// cached steady state, which is where overhead matters.
	for _, w := range workloads {
		w.db.NoEconomy = false
		if _, err := w.db.Exec(w.q); err != nil {
			return nil, fmt.Errorf("O2 warm %s: %w", w.name, err)
		}
		w.db.NoEconomy = true
		if _, err := w.db.Exec(w.q); err != nil {
			return nil, err
		}
	}

	for _, w := range workloads {
		onNs := make([]float64, 0, iters)
		offNs := make([]float64, 0, iters)
		for i := 0; i < iters; i++ {
			// Strictly interleave the two modes op by op, alternating
			// which goes first, so drift in machine load and allocator
			// state hits both distributions equally.
			modes := []bool{false, true}
			if i%2 == 1 {
				modes = []bool{true, false}
			}
			for _, noEcon := range modes {
				w.db.NoEconomy = noEcon
				t0 := time.Now()
				if _, err := w.db.Exec(w.q); err != nil {
					return nil, err
				}
				d := float64(time.Since(t0).Nanoseconds())
				if noEcon {
					offNs = append(offNs, d)
				} else {
					onNs = append(onNs, d)
				}
			}
		}
		onUs := o2Min(onNs) / 1000
		offUs := o2Min(offNs) / 1000
		pct := 0.0
		if offUs > 0 {
			pct = (onUs - offUs) / offUs * 100
		}
		rep.AddRow("overhead", w.name,
			fmt.Sprintf("%+.2f%%", pct),
			fmt.Sprintf("ledger on %.1fµs/op, off %.1fµs/op (min over %d interleaved ops each)", onUs, offUs, iters))
	}

	// Ranking phase: keep accruing on the holes database with the ledger
	// on, and add a soft check that only ever costs (write hooks on every
	// insert, never consulted by a query).
	holesDB.NoEconomy = false
	for i := 0; i < 5; i++ {
		if _, err := holesDB.Exec(O2HolesQuery(n)); err != nil {
			return nil, err
		}
	}
	if _, err := holesDB.Exec(
		"CREATE TABLE ballast (id INT PRIMARY KEY, v INT, CONSTRAINT ballast_pos CHECK (v >= 0) SOFT)"); err != nil {
		return nil, err
	}
	for i := 0; i < 400; i++ {
		if _, err := holesDB.Exec(fmt.Sprintf("INSERT INTO ballast VALUES (%d, %d)", i, i%7)); err != nil {
			return nil, err
		}
	}

	rows := holesDB.ConstraintEconomy()
	holeIdx, ballastIdx := -1, -1
	for i, r := range rows {
		rep.AddRow("ranking", fmt.Sprintf("%d. %s", i+1, r.Name),
			fmt.Sprintf("%.1f", r.NetBenefitUs),
			fmt.Sprintf("kind=%s pages=%d rewrite_rows=%d maint=%dµs wal=%d",
				r.Kind, r.PagesSkipped, r.RewriteRows, r.MaintNanos/1000, r.WALRecords))
		switch r.Name {
		case "holes_orders_lineitem":
			holeIdx = i
		case "ballast_pos":
			ballastIdx = i
		}
	}
	if holeIdx < 0 || ballastIdx < 0 {
		return nil, fmt.Errorf("O2: ledger missing expected constraints (hole=%d ballast=%d)", holeIdx, ballastIdx)
	}
	hole, ballast := rows[holeIdx], rows[ballastIdx]
	if hole.PagesSkipped <= 0 {
		return nil, fmt.Errorf("O2: interior-hole prune predicate attributed no page skips")
	}
	if hole.NetBenefitUs <= 0 {
		return nil, fmt.Errorf("O2: consulted hole characterization should be net positive, got %.1fµs", hole.NetBenefitUs)
	}
	if ballast.NetBenefitUs >= 0 {
		return nil, fmt.Errorf("O2: never-consulted soft check should be net negative, got %.1fµs", ballast.NetBenefitUs)
	}
	if holeIdx > ballastIdx {
		return nil, fmt.Errorf("O2: ranking inverted: earner at %d below cost center at %d", holeIdx, ballastIdx)
	}
	// Rewrite-credit check: the star query's join elimination must have
	// credited its FK constraint, at plan time, with the dim rows the
	// removed join would have touched.
	var fkRow *obs.EconomyRow
	srows := starDB.ConstraintEconomy()
	for i := range srows {
		if srows[i].RewriteRows > 0 {
			fkRow = &srows[i]
			break
		}
	}
	if fkRow == nil {
		return nil, fmt.Errorf("O2: join elimination credited no rewrite rows")
	}
	rep.AddRow("rewrite-credit", fkRow.Name, fkRow.RewriteRows,
		fmt.Sprintf("kind=%s plan-time rows removed by join elimination, net=%.1fµs", fkRow.Kind, fkRow.NetBenefitUs))
	rep.Notef("target: ledger overhead < 5%% per steady-state query (net-benefit units: µs, see DESIGN.md §15)")
	rep.Notef("ranking: pages-earning hole characterization net %.1fµs above write-only soft check net %.1fµs",
		hole.NetBenefitUs, ballast.NetBenefitUs)
	return rep, nil
}
