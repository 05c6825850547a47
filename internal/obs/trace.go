package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// SpanNode is one operator's slot in a query's execution trace. The
// executor's instrumentation wrapper accumulates into the fields and the
// tree is read after the query quiesces; the fields are atomic so a reader
// on another goroutine is never a data race, whatever the execution order. All accumulated figures are inclusive of
// the node's children (the natural reading for a push-based executor where
// an operator's Run drives its whole subtree).
type SpanNode struct {
	// Desc is the operator's Describe() line.
	Desc string
	// EstRows is the optimizer's cardinality estimate for this node;
	// HasEst reports whether one was recorded.
	EstRows float64
	HasEst  bool

	// Rows counts rows this operator emitted. Pages/RowsRead are the I/O
	// charged while the node (and its subtree) ran. Nanos is busy time,
	// cumulative across calls. Calls counts Run invocations (nested-loop
	// join re-runs its inner side per outer row).
	Rows  atomic.Int64
	Pages atomic.Int64
	// PagesSkipped counts heap pages the subtree's scans pruned via
	// synopses instead of reading.
	PagesSkipped atomic.Int64
	// PagesFrozen counts the heap pages (of Pages) the subtree's scans
	// served as frozen page windows, with no per-slot visibility check.
	PagesFrozen atomic.Int64
	RowsRead    atomic.Int64
	Nanos       atomic.Int64
	Calls       atomic.Int64

	// PagePaths counts the calls of an IndexScan node that switched to the
	// page path; PagePathEntries and PagePathPages sum those calls' estimated
	// range entries and unpruned pages (the figures the switch weighed).
	PagePaths       atomic.Int64
	PagePathEntries atomic.Int64
	PagePathPages   atomic.Int64

	// Informed names the constraints whose information sharpened this
	// node's cardinality estimate (SSC twins, AST coverage, ...). The
	// economy ledger splits per-node q-error by whether this is empty.
	Informed []string

	Children []*SpanNode
}

// ActualLine renders the node's measured figures. An index scan that
// switched to the page path leads with path=pages and the estimated range
// entries and unpruned pages it decided on. Scans that pruned pages
// additionally report the skip count and the prune ratio (fraction of the
// pages they would otherwise have read); scan nodes (leaves) that read
// frozen pages report frozen=k/n, k of their n page reads.
func (n *SpanNode) ActualLine() string {
	d := time.Duration(n.Nanos.Load())
	s := fmt.Sprintf("(actual rows=%d time=%s pages=%d", n.Rows.Load(), formatDur(d), n.Pages.Load())
	if pp := n.PagePaths.Load(); pp > 0 {
		s += fmt.Sprintf(" path=pages est_entries=%d unpruned_pages=%d", n.PagePathEntries.Load(), n.PagePathPages.Load())
		if calls := n.Calls.Load(); pp < calls {
			s += fmt.Sprintf(" (%d of %d calls)", pp, calls)
		}
	}
	if sk := n.PagesSkipped.Load(); sk > 0 {
		s += fmt.Sprintf(" skipped=%d prune=%.0f%%", sk, 100*float64(sk)/float64(sk+n.Pages.Load()))
	}
	if fz := n.PagesFrozen.Load(); fz > 0 && len(n.Children) == 0 {
		s += fmt.Sprintf(" frozen=%d/%d", fz, n.Pages.Load())
	}
	if calls := n.Calls.Load(); calls > 1 {
		s += fmt.Sprintf(" calls=%d", calls)
	}
	return s + ")"
}

// Render writes the span tree as indented plan lines with estimated vs
// actual figures.
func (n *SpanNode) Render() []string {
	var out []string
	var walk func(*SpanNode, int)
	walk = func(s *SpanNode, depth int) {
		line := strings.Repeat("  ", depth) + s.Desc
		if s.HasEst {
			line += fmt.Sprintf("  (est rows=%.1f)", s.EstRows)
		}
		line += "  " + s.ActualLine()
		out = append(out, line)
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return out
}

func formatDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// Event records one optimizer or rewriter decision involving a
// soft-constraint-like characterization: which rule consulted which
// constraint, at what effective confidence, and whether the rule applied
// or why it was rejected.
type Event struct {
	// Rule names the consulting rule (predicate-introduction, ssc-twin,
	// exception-union, branch-elimination, hole-trim, join-elimination,
	// ast-routing, sort-simplify, group-simplify, ssc-estimation,
	// ast-estimation, ...).
	Rule string
	// Constraint is the consulted characterization's catalog name (empty
	// when the rule is not tied to a named object).
	Constraint string
	// Mode is the characterization's enforcement mode string.
	Mode string
	// Confidence is the effective confidence at consultation time — stated
	// confidence minus the §3.3 margin of error; 1 for absolute rules.
	Confidence float64
	// Applied reports whether the rule fired; when false Detail carries
	// the rejection reason.
	Applied bool
	// Shaped reports that the decision changed the plan in a way that is
	// valid only while the consulted characterization holds: §4.1 gives
	// such a plan an SQO-free backup, and the restriction option refuses
	// to cache it. Prune-only predicates (re-validated at every scan),
	// rejections and estimation events leave it unset. The rewrite trace
	// is these events rendered (see TraceLine).
	Shaped bool
	// Reason is a short machine-readable slug for rejections (e.g.
	// "probation", "below-floor", "no-index"); it labels the per-reason
	// rejection counters and stays low-cardinality.
	Reason string
	// Detail is a human-readable elaboration.
	Detail string
	// DetailText, when set, is what Detail was rendered from (see Detailf):
	// a cached plan template renders Detail again when its arguments embed
	// values computed from the statement's literals, so the event shows the
	// literals of the statement that actually ran.
	DetailText *Text
	// RowsSaved estimates, at plan time, how many rows the rewrite
	// eliminated from the query's work (rows of a dropped join side, of an
	// eliminated union branch, of the scan narrowed to an AST). Zero when
	// the rule doesn't remove rows or the saving isn't cheaply known; the
	// economy ledger credits it to Constraint.
	RowsSaved float64
}

// Text is a message kept as format and arguments, so it can be rendered
// again after the arguments are recomputed.
type Text struct {
	Format string
	Args   []any
}

// String renders the message.
func (t Text) String() string { return fmt.Sprintf(t.Format, t.Args...) }

// Detailf returns the event with Detail rendered from format and args, and
// both kept in DetailText. Rules whose detail can embed a value computed
// from a statement literal (a predicate, an interval) use it instead of
// formatting Detail themselves.
func (e Event) Detailf(format string, args ...any) Event {
	e.DetailText = &Text{Format: format, Args: args}
	e.Detail = e.DetailText.String()
	return e
}

// TraceLine renders a shaping event as its rewrite-trace line.
func (e Event) TraceLine() string { return e.Rule + ": " + e.Detail }

// TraceOf renders the rewrite trace of a plan: one line per event that
// shaped it, in order.
func TraceOf(events []Event) []string {
	var lines []string
	for _, e := range events {
		if e.Shaped {
			lines = append(lines, e.TraceLine())
		}
	}
	return lines
}

// String renders the event for traces and EXPLAIN output.
func (e Event) String() string {
	status := "applied"
	if !e.Applied {
		status = "rejected"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", e.Rule, status)
	if e.Reason != "" {
		fmt.Fprintf(&b, " (%s)", e.Reason)
	}
	if e.Constraint != "" {
		fmt.Fprintf(&b, ": constraint %s", e.Constraint)
		if e.Mode != "" {
			fmt.Fprintf(&b, " [%s]", e.Mode)
		}
		fmt.Fprintf(&b, " eff-conf=%.3f", e.Confidence)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " — %s", e.Detail)
	}
	return b.String()
}

// Trace is the complete observability record of one query execution.
type Trace struct {
	SQL      string
	Start    time.Time
	Duration time.Duration
	// CacheHit reports whether the plan came from the plan cache.
	CacheHit bool
	// Session tags the executing session (e.g. the server's "conn-3");
	// empty for direct in-process calls.
	Session string
	// Shape identifies the statement's plan-cache shape (its text with the
	// predicate literals lifted out); statements that differ only in
	// literals share it. Empty when the statement was not fingerprinted.
	Shape string
	// Slow marks the query as exceeding the engine's slow-query threshold.
	Slow bool
	// Root is the instrumented span tree; nil when per-operator tracing
	// was off for this query.
	Root *SpanNode
	// Events are the plan-time soft-constraint consultations.
	Events []Event
	// Estimates and outcome.
	EstRows    float64
	EstCost    float64
	ActualRows int64
	PagesRead  int64
	// PagesSkipped counts heap pages pruned via synopses query-wide.
	PagesSkipped int64
	// PagesFrozen counts the page reads served from frozen page images
	// query-wide.
	PagesFrozen int64
	// RowsShortCircuited counts rows whose per-row filter evaluation the
	// vectorized scan skipped because a page synopsis proved every row on
	// the page qualifies.
	RowsShortCircuited int64
	// IndexPagePaths counts the index scan executions that switched to the
	// page path.
	IndexPagePaths int64
	Err            string
	// State is the query's terminal lifecycle state: "ok", "canceled",
	// "timeout", "oom", "panic", or "error".
	State string
}

// Render formats the full trace as plan-style text lines.
func (t *Trace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", t.SQL)
	fmt.Fprintf(&b, "elapsed=%s rows=%d pages=%d skipped=%d%s%s cache=%s%s%s%s\n",
		formatDur(t.Duration), t.ActualRows, t.PagesRead, t.PagesSkipped, frozenWord(t.PagesFrozen, t.PagesRead), pagePathWord(t.IndexPagePaths),
		cacheWord(t.CacheHit), stateWord(t.State), sessionWord(t.Session), shapeWord(t.Shape))
	if t.Err != "" {
		fmt.Fprintf(&b, "error: %s\n", t.Err)
	}
	if t.Root != nil {
		for _, line := range t.Root.Render() {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	for _, e := range t.Events {
		fmt.Fprintf(&b, "event: %s\n", e)
	}
	return b.String()
}

func cacheWord(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func frozenWord(frozen, pages int64) string {
	if frozen == 0 {
		return ""
	}
	return fmt.Sprintf(" frozen=%d/%d", frozen, pages)
}

func pagePathWord(n int64) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf(" index_page_paths=%d", n)
}

func stateWord(state string) string {
	if state == "" {
		return ""
	}
	return " state=" + state
}

func shapeWord(shape string) string {
	if shape == "" {
		return ""
	}
	return " shape=" + shape
}

func sessionWord(sess string) string {
	if sess == "" {
		return ""
	}
	return " session=" + sess
}
