// Package opt is softdb's cost-based physical optimizer. It lowers logical
// plans to executable operator trees, choosing access paths (sequential vs
// index scans) and join orders/methods by estimated cost. Cardinality
// estimates come from collected statistics, optionally sharpened by the
// paper's §5.1 estimation-only twinned predicates.
package opt

import (
	"fmt"
	"math"
	"strings"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/obs"
	"softdb/internal/plan"
	"softdb/internal/stats"
)

// Cost model weights. Page I/O dominates, as in the paper's reasoning; CPU
// terms break ties and keep huge intermediate results expensive.
const (
	costPage      = 1.0
	costRow       = 0.01
	costHashBuild = 0.02
	costHashProbe = 0.01
	costCompare   = 0.005
	costEmit      = 0.002
)

// defaultRowsPerLeaf approximates index entries per B+tree leaf for
// costing.
const defaultRowsPerLeaf = 32

// prop carries the optimizer's estimates for a lowered subtree.
type prop struct {
	rows float64
	cost float64
}

// scanEstimate estimates output rows for a scan given its filters and
// twinned predicates. When an AST (materialized or informational, §4.4)
// matches a subset of the filter conjuncts, its row count supplies the
// exact joint selectivity of that subset — the paper's "the optimizer uses
// the statistics from both the base tables and the ASTs involved for
// filter factor estimation".
// The informed return names the constraints/ASTs whose information
// sharpened the estimate (empty for a purely statistics-driven guess).
func (o *Optimizer) scanEstimate(s *plan.Scan) (total float64, selected float64, informed []string) {
	var ts *stats.TableStats
	var rowCount int64
	switch {
	case s.Summary != nil:
		ts = s.Summary.Stats
		if s.Summary.Heap != nil {
			rowCount = s.Summary.Heap.RowCount()
		} else {
			rowCount = s.Summary.RowCountEstimate
		}
	case s.Entry != nil:
		ts = s.Entry.Stats
		rowCount = s.Entry.Heap.RowCount()
	}
	filter := s.Filter
	baseFraction := 1.0
	if s.Entry != nil && !o.NoASTEstimation && rowCount > 0 {
		if frac, remaining, name, ok := o.astCoverage(s, rowCount); ok {
			baseFraction = frac
			filter = remaining
			informed = append(informed, name)
			o.event(obs.Event{
				Rule: "ast-estimation", Constraint: name, Mode: "AST",
				Confidence: 1, Applied: true,
				Detail: fmt.Sprintf("summary row count gives exact filter factor %.4f for %s", frac, s.Table),
			})
		}
	}
	est := o.estimatorFor(s, ts)
	twins := s.EstOnly
	if o.Masked != "" {
		kept := twins[:0:0]
		for _, ep := range twins {
			if !strings.EqualFold(ep.Source, o.Masked) {
				kept = append(kept, ep)
			}
		}
		twins = kept
	}
	var sel float64
	if len(twins) > 0 && !o.NoSSCEstimation {
		sel = est.SelectivityWithSSCs(filter, twins)
		for _, ep := range twins {
			informed = append(informed, ep.Source)
			o.event(obs.Event{
				Rule: "ssc-estimation", Constraint: ep.Source,
				Mode: catalog.ModeSoftStatistical.String(), Confidence: ep.Confidence,
				Applied: true,
			}.Detailf("twinned predicate %s tightens %s estimate", ep.Pred, s.Table))
		}
	} else {
		sel = est.Selectivity(filter)
	}
	return float64(rowCount), float64(rowCount) * baseFraction * sel, informed
}

// astCoverage finds the AST over s's base table whose defining predicate is
// contained in the scan's conjuncts and covers the most of them, returning
// the AST's observed fraction and the conjuncts it does not account for.
func (o *Optimizer) astCoverage(s *plan.Scan, total int64) (frac float64, remaining []expr.Expr, name string, ok bool) {
	bestCovered := 0
	for _, st := range o.Cat.SummariesOn(s.Table) {
		if st.Where == nil || (o.Masked != "" && strings.EqualFold(st.Name, o.Masked)) {
			continue
		}
		astConjuncts := expr.SplitConjuncts(st.Where)
		contained := true
		for _, c := range astConjuncts {
			if !expr.ContainsConjunct(s.Filter, c) {
				contained = false
				break
			}
		}
		if !contained || len(astConjuncts) <= bestCovered {
			continue
		}
		var astRows int64
		if st.Heap != nil {
			astRows = st.Heap.RowCount()
		} else {
			astRows = st.RowCountEstimate
		}
		rest := make([]expr.Expr, 0, len(s.Filter))
		for _, c := range s.Filter {
			if !expr.ContainsConjunct(astConjuncts, c) {
				rest = append(rest, c)
			}
		}
		bestCovered = len(astConjuncts)
		frac = float64(astRows) / float64(total)
		remaining = rest
		name = st.Name
		ok = true
	}
	return frac, remaining, name, ok
}

func (o *Optimizer) estimatorFor(s *plan.Scan, ts *stats.TableStats) *stats.Estimator {
	est := &stats.Estimator{
		Stats: ts,
		ColumnName: func(ord int) string {
			if ord >= 0 && ord < len(s.Def.Columns) {
				return s.Def.Columns[ord].Name
			}
			return ""
		},
	}
	if s.Entry != nil {
		for _, vc := range s.Entry.Virtual {
			if vc.Stats != nil {
				est.Virtuals = append(est.Virtuals, stats.VirtualStat{Canon: vc.Canon, Stats: vc.Stats})
			}
		}
	}
	return est
}

// indexScanCost models a root-to-leaf descent, a leaf walk over the
// matching fraction, and distinct heap pages per the Cardenas estimate
// (the executor charges each heap page once per scan, modeling a buffer
// pool over the scan's working set).
func indexScanCost(height float64, matchRows, heapPages, cluster, rowsPerPage float64) float64 {
	leaves := math.Ceil(matchRows / defaultRowsPerLeaf)
	random := cardenasPages(heapPages, matchRows)
	sequential := math.Ceil(matchRows / math.Max(rowsPerPage, 1))
	touched := cluster*sequential + (1-cluster)*random
	return (height+leaves+touched)*costPage + matchRows*costRow
}

// cardenasPages estimates the distinct pages touched when fetching k rows
// from a table of p pages: p * (1 - (1 - 1/p)^k).
func cardenasPages(p, k float64) float64 {
	if p <= 0 || k <= 0 {
		return 0
	}
	if k >= p*32 {
		return p
	}
	return p * (1 - math.Pow(1-1/p, k))
}

// equiJoinSelectivity estimates 1/max(ndv_l, ndv_r) for an equi-join pair,
// falling back to 1/max(rows) without statistics.
func (o *Optimizer) equiJoinSelectivity(l scanCol, r scanCol, lRows, rRows float64) float64 {
	ndv := func(sc scanCol, rows float64) float64 {
		if sc.scan != nil {
			var ts *stats.TableStats
			if sc.scan.Summary != nil {
				ts = sc.scan.Summary.Stats
			} else if sc.scan.Entry != nil {
				ts = sc.scan.Entry.Stats
			}
			if cs := ts.Column(sc.name); cs != nil && cs.NDV > 0 {
				return float64(cs.NDV)
			}
		}
		if rows > 0 {
			return rows
		}
		return 1
	}
	d := math.Max(ndv(l, lRows), ndv(r, rRows))
	if d < 1 {
		d = 1
	}
	return 1 / d
}

// scanCol identifies a base column used in a join predicate.
type scanCol struct {
	scan *plan.Scan
	name string
}

// intervalFromFilter extracts the filter interval on the index's leading
// column and converts it to tree bounds plus the matching-fraction
// estimate.
func (o *Optimizer) leadingInterval(s *plan.Scan, ix *catalog.Index) (expr.Interval, bool) {
	iv, _ := expr.ExtractInterval(s.Filter, ix.Ordinal[0])
	if iv.IsUnbounded() {
		return iv, false
	}
	return iv, true
}
