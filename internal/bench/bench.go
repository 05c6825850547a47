// Package bench implements the paper-reproduction experiments E1–E13
// described in DESIGN.md. Each experiment builds its workload, runs the
// measured configurations, and returns a Report whose rows the scbench
// binary prints and the package's shape tests assert on. The exported
// builders (OpenSQO, HolesDB, V2DB, ...) also set up the workloads whose
// counts the repository's TestSemanticCounts pins. The paper (SIGMOD 2001) has
// no numbered tables or figures; each experiment reproduces a specific
// quantitative claim, cited in its Claim field.
package bench

import (
	"fmt"
	"strings"

	"softdb/internal/engine"
)

// Report is one experiment's result table.
type Report struct {
	ID     string
	Title  string
	Claim  string // the paper claim being reproduced, with section cite
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		case int64:
			row[i] = fmt.Sprintf("%d", v)
		case bool:
			row[i] = fmt.Sprintf("%v", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	r.Rows = append(r.Rows, row)
}

// Notef appends a formatted note.
func (r *Report) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	fmt.Fprintf(&b, "claim: %s\n", r.Claim)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// OpenSQO returns a database configured for the semantic-rewrite
// experiments: zone-map page pruning is pinned off so each experiment
// isolates the one rewrite effect it measures, and the plan cache is off so
// every execution plans under the rewrite options it runs with. P2 measures
// synopsis pruning by itself, against an unpruned baseline.
func OpenSQO() *engine.Database {
	db := engine.Open()
	db.NoPrune = true
	db.DisablePlanCache = true
	return db
}

// Experiment names a runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func() (*Report, error)
}

// All returns the full experiment suite at default scale.
func All() []Experiment {
	return []Experiment{
		{"E1", "predicate introduction via linear-correlation ASC", func() (*Report, error) { return E1PredicateIntroduction(DefaultE1Sizes) }},
		{"E2", "join-hole range trimming", func() (*Report, error) { return E2JoinHoles(20000, 3) }},
		{"E3", "SSC twinned-predicate cardinality estimation", func() (*Report, error) { return E3Cardinality(20000, 0.1) }},
		{"E4", "join elimination over referential integrity", func() (*Report, error) { return E4JoinElimination(20000, 50000) }},
		{"E5", "union-all branch elimination", func() (*Report, error) { return E5BranchPrune(4000) }},
		{"E6", "exception-AST union rewrite (late shipments)", func() (*Report, error) { return E6ExceptionAST(50000, 0.01) }},
		{"E7", "FD-based sort and group-by simplification", func() (*Report, error) { return E7FDSort(30000, 200) }},
		{"E8", "constraint-checking overhead vs informational", func() (*Report, error) { return E8CheckingOverhead(20000) }},
		{"E9", "SSC currency / margin-of-error model", func() (*Report, error) { return E9Currency(20000, 20, 30) }},
		{"E10", "miner cost scaling", func() (*Report, error) { return E10Miners([]int{10000, 20000, 40000, 80000}) }},
		{"E11", "ASC violation handling and plan-cache invalidation", func() (*Report, error) { return E11Violation(20000, 3) }},
		{"E12", "AST routing and AST-based estimation", func() (*Report, error) { return E12ASTs(20000) }},
		{"E13", "virtual-column statistics for expression predicates", func() (*Report, error) { return E13VirtualColumns(20000) }},
		{"P2", "zone-map page pruning from synopses and soft constraints", func() (*Report, error) { return P2Prune(20000) }},
		{"O1", "instrumentation overhead: tracing off vs on", func() (*Report, error) { return O1Observability(100000) }},
		{"R1", "query lifecycle: cancellation latency and context-check overhead", func() (*Report, error) { return R1Robustness(100000) }},
		{"S1", "network server: concurrent clients, parity, load shedding", func() (*Report, error) { return S1Server(DefaultS1) }},
		{"S2", "constraint-aware shard router: scaling, shard pruning, invalidation", func() (*Report, error) { return S2Router(DefaultS2) }},
		{"D1", "durability: fsync policy overhead and recovery-time scaling", func() (*Report, error) { return D1Recovery(2000, DefaultD1Sweep) }},
		{"O2", "constraint-economy ledger: overhead and net-benefit ranking", func() (*Report, error) { return O2Economy(20000, 40) }},
		{"V1", "vectorized kernels: typed tight loops vs per-row tree-walk", func() (*Report, error) { return V1Kernels(65536) }},
		{"V2", "frozen columnar pages: cold vs warm vs periodically thawed page images", func() (*Report, error) { return V2FrozenScan(100000, 50000) }},
		{"V3", "run-time index access path: entry fetches vs the page path, typed vs generic build", func() (*Report, error) { return V3IndexPagePath(100000) }},
		{"T1", "transactions: snapshot readers under write load, wire-level txns", func() (*Report, error) { return T1Txn(DefaultT1) }},
		{"C1", "shape-keyed plan templates: cold plan vs text repeat vs template rebind", func() (*Report, error) { return C1PlanTemplate(200000, 20000) }},
	}
}

// DefaultE1Sizes is the table-size sweep for E1.
var DefaultE1Sizes = []int{10000, 50000, 200000}
