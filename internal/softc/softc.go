// Package softc implements the paper's §3.2 soft-constraint lifecycle:
// discovery (driving the miners), selection (ranking candidates by
// estimated utility for the optimizer), installation into the catalog, and
// maintenance — asynchronous refresh of statistical soft constraints,
// reactivation, and the §3.3 currency/margin-of-error model.
package softc

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"time"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/fault"
	"softdb/internal/mining"
	"softdb/internal/obs"
	"softdb/internal/storage"
	"softdb/internal/types"
)

// Manager drives the soft-constraint facility over one catalog.
type Manager struct {
	Cat *catalog.Catalog
	// Linear configures correlation mining.
	Linear mining.LinearMinerConfig
	// FDs configures dependency mining.
	FDs mining.FDMinerConfig
	// Events records lifecycle actions for inspection.
	Events []string
	// Logger, when set, receives every lifecycle action as a structured
	// record (constraint and table names as fields, not prose).
	Logger *slog.Logger
	// Metrics, when set, counts lifecycle actions (discovery runs, SSC
	// refreshes, probation promotions). A nil registry disables counting.
	Metrics *obs.Registry
	// Fault, when set, injects transient errors into maintenance attempts
	// (one decision per refresh attempt); the retry wrappers in retry.go
	// absorb them. Nil disables injection.
	Fault *fault.Injector
	// OnChange, when set, fires after every successful registry mutation
	// (install, refresh, remine, probation change). The durable engine
	// wires it to log a soft-registry image to the WAL, so mined state
	// survives a crash without being re-mined.
	OnChange func()
	// OnChangeNamed, when set, fires like OnChange but receives the names
	// of the mutated characterizations, so the caller can attribute the
	// registry-maintenance WAL write to specific constraints in the
	// economy ledger.
	OnChangeNamed func(names []string)
	// Econ, when set, is credited with the wall time of every refresh and
	// remine pass (including retry backoff), the maintenance side of the
	// per-constraint benefit/cost ledger. Nil disables the accounting.
	Econ *obs.Economy
}

// NewManager returns a manager with default miner configurations.
func NewManager(cat *catalog.Catalog) *Manager { return &Manager{Cat: cat} }

// log appends the rendered line to Events and, when a Logger is wired,
// emits msg as a structured record with the given attrs.
func (m *Manager) log(level slog.Level, msg string, line string, attrs ...any) {
	m.Events = append(m.Events, line)
	if m.Logger != nil {
		m.Logger.Log(context.Background(), level, msg, attrs...)
	}
}

func (m *Manager) count(name string) {
	m.Metrics.Counter(name).Inc()
}

// changed fires the change hooks after a successful registry mutation,
// naming the characterizations the mutation touched.
func (m *Manager) changed(names ...string) {
	if m.OnChangeNamed != nil {
		m.OnChangeNamed(names)
	}
	if m.OnChange != nil {
		m.OnChange()
	}
}

// Candidates is the output of a discovery pass over one table.
type Candidates struct {
	Table        string
	Correlations []*catalog.LinearCorrelation
	FDs          []mining.FD
	Ranges       []*catalog.Constraint
}

// DiscoverTable runs all single-table miners.
func (m *Manager) DiscoverTable(table string) (*Candidates, error) {
	te, err := m.Cat.Table(table)
	if err != nil {
		return nil, err
	}
	c := &Candidates{Table: te.Def.Name}
	c.Correlations = mining.MineCorrelations(te.Def, te.Heap, m.Linear)
	c.FDs = mining.MineFDs(te.Def, te.Heap, m.FDs)
	c.Ranges = mining.MineRanges(te.Def, te.Heap, 0)
	m.count("softdb_discovery_runs_total")
	m.log(slog.LevelInfo, "discovery complete",
		fmt.Sprintf("discover %s: %d correlations, %d FDs, %d ranges",
			table, len(c.Correlations), len(c.FDs), len(c.Ranges)),
		"table", table,
		"correlations", len(c.Correlations), "fds", len(c.FDs), "ranges", len(c.Ranges))
	return c, nil
}

// --- selection ---

// ScoredCorrelation carries a utility estimate for ranking.
type ScoredCorrelation struct {
	Corr  *catalog.LinearCorrelation
	Score float64
	Why   string
}

// SelectCorrelations ranks discovered correlations by estimated optimizer
// utility, per the paper's selection stage: an absolute, selective envelope
// that can unlock an existing index is worth the most; a statistical
// envelope is worth less (estimation only) unless an exception AST could
// make it exact.
func (m *Manager) SelectCorrelations(cands []*catalog.LinearCorrelation, topN int) []ScoredCorrelation {
	var scored []ScoredCorrelation
	for _, lc := range cands {
		te, err := m.Cat.Table(lc.Table)
		if err != nil {
			continue
		}
		aOrd := te.Def.ColumnIndex(lc.ColA)
		bOrd := te.Def.ColumnIndex(lc.ColB)
		if aOrd < 0 || bOrd < 0 {
			continue
		}
		score := 0.0
		var why []string
		if lc.IsAbsolute() {
			score += 2
			why = append(why, "absolute (usable in rewrite)")
		} else {
			score += lc.Confidence
			why = append(why, fmt.Sprintf("statistical @%.2f (estimation only)", lc.Confidence))
		}
		// Index asymmetry: predicate introduction pays off when the derived
		// column has an index and the driving column does not.
		if te.IndexOn(aOrd) != nil && te.IndexOn(bOrd) == nil {
			score += 2
			why = append(why, fmt.Sprintf("index on %s, none on %s", lc.ColA, lc.ColB))
		}
		// Narrow envelopes select better.
		if stats := te.Stats; stats != nil {
			if cs := stats.Column(lc.ColA); cs != nil && !cs.Min.IsNull() && cs.Max.IsNumeric() {
				spread := cs.Max.Float() - cs.Min.Float()
				if spread > 0 {
					frac := 2 * lc.Eps / spread
					score += math.Max(0, 1-frac)
					why = append(why, fmt.Sprintf("envelope %.1f%% of range", 100*frac))
				}
			}
		}
		scored = append(scored, ScoredCorrelation{Corr: lc, Score: score, Why: strings.Join(why, "; ")})
	}
	sort.Slice(scored, func(i, j int) bool { return scored[i].Score > scored[j].Score })
	if topN > 0 && len(scored) > topN {
		scored = scored[:topN]
	}
	return scored
}

// --- installation ---

// InstallCorrelations registers the given correlations.
func (m *Manager) InstallCorrelations(sel []ScoredCorrelation) error {
	names := make([]string, 0, len(sel))
	for _, sc := range sel {
		if err := m.Cat.AddCorrelation(sc.Corr); err != nil {
			return err
		}
		names = append(names, sc.Corr.Name)
		m.log(slog.LevelInfo, "installed correlation",
			fmt.Sprintf("install correlation %s (score %.2f: %s)", sc.Corr.Name, sc.Score, sc.Why),
			"constraint", sc.Corr.Name, "table", sc.Corr.Table, "score", sc.Score)
	}
	m.changed(names...)
	return nil
}

// InstallFDs registers discovered dependencies as soft FD constraints.
func (m *Manager) InstallFDs(table string, fds []mining.FD) error {
	names := make([]string, 0, len(fds))
	for _, fd := range fds {
		con := fd.ToConstraint(table)
		if err := m.Cat.AddConstraint(con); err != nil {
			return err
		}
		names = append(names, con.Name)
		m.log(slog.LevelInfo, "installed FD",
			fmt.Sprintf("install FD %s: %s -> %s @%.3f", con.Name, strings.Join(fd.Det, ","), fd.Dep, fd.Confidence),
			"constraint", con.Name, "table", table, "confidence", fd.Confidence)
	}
	m.changed(names...)
	return nil
}

// InstallRanges registers min/max soft range constraints.
func (m *Manager) InstallRanges(ranges []*catalog.Constraint) error {
	names := make([]string, 0, len(ranges))
	for _, con := range ranges {
		if err := m.Cat.AddConstraint(con); err != nil {
			return err
		}
		names = append(names, con.Name)
		m.log(slog.LevelInfo, "installed range",
			fmt.Sprintf("install range %s", con.Name),
			"constraint", con.Name, "table", con.Table)
	}
	m.changed(names...)
	return nil
}

// --- maintenance ---

// RefreshCorrelation re-fits the correlation against the current data
// (asynchronous maintenance): confidence is recomputed for the stored
// envelope, currency counters reset, and an inactive correlation whose
// envelope again holds absolutely is reactivated.
func (m *Manager) RefreshCorrelation(name string) error {
	defer m.timeRefresh(name)()
	lc, ok := m.Cat.CorrelationByName(name)
	if !ok {
		return fmt.Errorf("softc: no correlation %s", name)
	}
	te, err := m.Cat.Table(lc.Table)
	if err != nil {
		return err
	}
	aOrd := te.Def.ColumnIndex(lc.ColA)
	bOrd := te.Def.ColumnIndex(lc.ColB)
	fit, err := mining.FitLinear(te.Heap, aOrd, bOrd)
	if err != nil {
		return err
	}
	// Keep the line, re-measure the envelope's confidence.
	conf := confidenceForEnvelope(te.Heap, aOrd, bOrd, lc)
	prev := lc.Confidence
	lc.Confidence = conf
	lc.ModsSince = 0
	lc.VerifiedVersion = te.Heap.Version()
	m.count("softdb_ssc_refreshes_total")
	if !lc.Active && conf >= 1 {
		lc.Active = true
		m.log(slog.LevelInfo, "correlation reactivated",
			fmt.Sprintf("refresh %s: reactivated (confidence back to 1)", name),
			"constraint", name, "table", lc.Table)
	} else {
		m.log(slog.LevelInfo, "correlation refreshed",
			fmt.Sprintf("refresh %s: confidence %.4f -> %.4f (fit k=%.3f)", name, prev, conf, fit.K),
			"constraint", name, "table", lc.Table, "prev", prev, "confidence", conf)
	}
	m.Cat.Touch()
	m.changed(name)
	return nil
}

// timeRefresh starts a wall-clock measurement of one refresh/remine pass;
// the returned stop function credits the elapsed time to the named
// characterization's maintenance cost. Nil-Econ managers pay one closure.
func (m *Manager) timeRefresh(name string) func() {
	if m.Econ == nil {
		return func() {}
	}
	start := time.Now()
	return func() { m.Econ.AddRefresh(name, time.Since(start)) }
}

// confidenceForEnvelope is the fraction of the rows with both columns
// non-NULL that lc admits.
func confidenceForEnvelope(heap *storage.Heap, aOrd, bOrd int, lc *catalog.LinearCorrelation) float64 {
	bs, as := mining.Points(heap, aOrd, bOrd)
	if len(as) == 0 {
		return 1
	}
	in := 0
	for i := range as {
		if lc.AdmitsFloat(as[i], bs[i]) {
			in++
		}
	}
	return float64(in) / float64(len(as))
}

// RefreshCheckConfidence rescans the table and updates an SSC check
// constraint's confidence (the periodic runstats-like refresh of §3.3).
func (m *Manager) RefreshCheckConfidence(table, constraint string) (float64, error) {
	defer m.timeRefresh(constraint)()
	te, err := m.Cat.Table(table)
	if err != nil {
		return 0, err
	}
	var con *catalog.Constraint
	for _, c := range te.Constraints {
		if strings.EqualFold(c.Name, constraint) {
			con = c
			break
		}
	}
	if con == nil || con.Kind != catalog.Check {
		return 0, fmt.Errorf("softc: no check constraint %s on %s", constraint, table)
	}
	var ok, total int64
	var evalErr error
	te.Heap.Scan(nil, func(_ storage.RowID, row types.Row) bool {
		total++
		admits, err := con.Admits(row)
		if admits {
			ok++
		}
		evalErr = err
		return err == nil
	})
	if evalErr != nil {
		return 0, evalErr
	}
	conf := 1.0
	if total > 0 {
		conf = float64(ok) / float64(total)
	}
	prev := con.Confidence
	con.Confidence = conf
	con.ModsSince = 0
	con.VerifiedVersion = te.Heap.Version()
	m.count("softdb_ssc_refreshes_total")
	if !con.Active && conf >= 1 && con.Mode == catalog.ModeSoftAbsolute {
		con.Active = true
		m.log(slog.LevelInfo, "check constraint reactivated",
			fmt.Sprintf("refresh %s: reactivated", constraint),
			"constraint", constraint, "table", table)
	}
	m.Cat.Touch()
	m.log(slog.LevelInfo, "check confidence refreshed",
		fmt.Sprintf("refresh %s: confidence %.4f -> %.4f over %d rows", constraint, prev, conf, total),
		"constraint", constraint, "table", table, "prev", prev, "confidence", conf, "rows", total)
	m.changed(constraint)
	return conf, nil
}

// RemineJoinHoles replaces a hole set by re-running the discovery join —
// the asynchronous repair that restores optimality after cheap synchronous
// hole drops (§4.3).
func (m *Manager) RemineJoinHoles(name string, cfg mining.HoleMinerConfig) (int, error) {
	defer m.timeRefresh(name)()
	jh, ok := m.Cat.JoinHolesByName(name)
	if !ok {
		return 0, fmt.Errorf("softc: no join holes %s", name)
	}
	left, err := m.Cat.Table(jh.LeftTable)
	if err != nil {
		return 0, err
	}
	right, err := m.Cat.Table(jh.RightTable)
	if err != nil {
		return 0, err
	}
	fresh, _, err := mining.MineJoinHoles(mining.JoinHoleRequest{
		Left: left, Right: right,
		JoinLeft: jh.JoinLeft, JoinRight: jh.JoinRight,
		AttrLeft: jh.AttrLeft, AttrRight: jh.AttrRight,
		Config: cfg,
	})
	if err != nil {
		return 0, err
	}
	jh.Holes = fresh.Holes
	jh.Active = true
	jh.ModsSince = 0
	jh.VerifiedVersion = left.Heap.Version()
	m.Cat.Touch()
	m.log(slog.LevelInfo, "join holes remined",
		fmt.Sprintf("remine %s: %d holes", name, len(jh.Holes)),
		"constraint", name, "holes", len(jh.Holes))
	m.changed(name)
	return len(jh.Holes), nil
}

// MarginOfError is §3.3's currency model: with u modifications since the
// last verification of a table of n rows, at most u/n of the rows can have
// drifted from the constraint statement, so the stated confidence c is
// bounded below by c - u/n.
func MarginOfError(modsSince, rowCount int64) float64 {
	if rowCount <= 0 {
		return 1
	}
	return math.Min(1, float64(modsSince)/float64(rowCount))
}

// EffectiveConfidence applies the margin of error to a stated confidence.
func EffectiveConfidence(stated float64, modsSince, rowCount int64) float64 {
	return math.Max(0, stated-MarginOfError(modsSince, rowCount))
}

// CurrencyEntry reports one soft characterization's staleness.
type CurrencyEntry struct {
	Name      string
	Kind      string
	Stated    float64
	ModsSince int64
	RowCount  int64
	Margin    float64
	Effective float64
}

// CurrencyReport lists the staleness of every statistical soft
// characterization in the catalog.
func (m *Manager) CurrencyReport() []CurrencyEntry {
	var out []CurrencyEntry
	for _, table := range m.Cat.TableNames() {
		te, err := m.Cat.Table(table)
		if err != nil {
			continue
		}
		n := te.Heap.RowCount()
		for _, con := range te.Constraints {
			if con.Mode != catalog.ModeSoftStatistical {
				continue
			}
			margin := MarginOfError(con.ModsSince, n)
			out = append(out, CurrencyEntry{
				Name: con.Name, Kind: con.Kind.String(), Stated: con.Confidence,
				ModsSince: con.ModsSince, RowCount: n, Margin: margin,
				Effective: EffectiveConfidence(con.Confidence, con.ModsSince, n),
			})
		}
		for _, lc := range m.Cat.Correlations(table) {
			if lc.IsAbsolute() {
				continue
			}
			margin := MarginOfError(lc.ModsSince, n)
			out = append(out, CurrencyEntry{
				Name: lc.Name, Kind: "LINEAR CORRELATION", Stated: lc.Confidence,
				ModsSince: lc.ModsSince, RowCount: n, Margin: margin,
				Effective: EffectiveConfidence(lc.Confidence, lc.ModsSince, n),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// --- probation (§3.2 dynamic selection) ---

// InstallOnProbation registers correlations in probationary state: writes
// maintain them (a violation deactivates), but the optimizer does not
// employ them yet.
func (m *Manager) InstallOnProbation(sel []ScoredCorrelation) error {
	names := make([]string, 0, len(sel))
	for _, sc := range sel {
		sc.Corr.Probation = true
		if err := m.Cat.AddCorrelation(sc.Corr); err != nil {
			return err
		}
		names = append(names, sc.Corr.Name)
		m.log(slog.LevelDebug, "installed on probation",
			fmt.Sprintf("probation: installed %s (score %.2f)", sc.Corr.Name, sc.Score),
			"constraint", sc.Corr.Name, "table", sc.Corr.Table, "score", sc.Score)
	}
	m.changed(names...)
	return nil
}

// Promote ends a correlation's probation if it survived: still active
// (never violated) and, for absolute envelopes, still exact against the
// current data.
func (m *Manager) Promote(name string) error {
	lc, ok := m.Cat.CorrelationByName(name)
	if !ok {
		return fmt.Errorf("softc: no correlation %s", name)
	}
	if !lc.Active {
		return fmt.Errorf("softc: %s was violated during probation; not promoting", name)
	}
	if lc.IsAbsolute() {
		exact, err := m.VerifyCorrelationExact(name)
		if err != nil {
			return err
		}
		if !exact {
			return fmt.Errorf("softc: %s drifted during probation; not promoting", name)
		}
	}
	lc.Probation = false
	m.Cat.Touch()
	m.count("softdb_probation_promotions_total")
	m.log(slog.LevelInfo, "probation promoted",
		fmt.Sprintf("probation: promoted %s", name),
		"constraint", name, "table", lc.Table)
	m.changed(name)
	return nil
}

// --- workload-directed selection (§3.2) ---

// WorkloadCounts maps table → column → number of query predicates seen
// referencing that column. The engine records these during planning.
type WorkloadCounts map[string]map[string]int64

// SelectCorrelationsForWorkload ranks like SelectCorrelations, with an
// additional bonus for correlations whose driving column (ColB, the one
// queries filter on) appears frequently in the observed workload — "input
// from ... the workload can likely be used to direct the search towards
// those characterizations that would be most beneficial" (§3.2).
func (m *Manager) SelectCorrelationsForWorkload(cands []*catalog.LinearCorrelation, topN int, wl WorkloadCounts) []ScoredCorrelation {
	scored := m.SelectCorrelations(cands, 0)
	for i := range scored {
		lc := scored[i].Corr
		if cols, ok := wl[strings.ToLower(lc.Table)]; ok {
			refs := cols[strings.ToLower(lc.ColB)]
			if refs > 0 {
				bonus := math.Min(2, math.Log2(float64(refs)+1))
				scored[i].Score += bonus
				scored[i].Why += fmt.Sprintf("; %d workload predicates on %s", refs, lc.ColB)
			}
		}
	}
	sort.Slice(scored, func(i, j int) bool { return scored[i].Score > scored[j].Score })
	if topN > 0 && len(scored) > topN {
		scored = scored[:topN]
	}
	return scored
}

// VerifyCorrelationExact rescans and reports whether the correlation holds
// absolutely right now (used before promoting an SSC envelope to ASC).
func (m *Manager) VerifyCorrelationExact(name string) (bool, error) {
	lc, ok := m.Cat.CorrelationByName(name)
	if !ok {
		return false, fmt.Errorf("softc: no correlation %s", name)
	}
	te, err := m.Cat.Table(lc.Table)
	if err != nil {
		return false, err
	}
	conf := confidenceForEnvelope(te.Heap, te.Def.ColumnIndex(lc.ColA), te.Def.ColumnIndex(lc.ColB), lc)
	return conf >= 1, nil
}

// BuildExceptionPredicate renders the violation predicate of a check
// constraint (NOT check), used to declare the §4.4 exception AST.
func BuildExceptionPredicate(con *catalog.Constraint) expr.Expr {
	if con.CheckExpr == nil {
		return nil
	}
	return expr.NewUnary(expr.OpNot, con.CheckExpr)
}
