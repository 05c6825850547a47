package rewrite

import (
	"fmt"
	"strings"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/obs"
	"softdb/internal/plan"
)

// simplifySort applies §2 [29]'s FD-based order optimization:
//
//  1. keys whose column is pinned to a single constant by a filter below
//     are dropped (every row agrees on them);
//  2. a key functionally determined by the keys before it (within the same
//     table binding, using declared and mined FDs plus unique keys) is
//     superfluous and dropped;
//  3. when every key is dropped the sort itself is eliminated.
func (r *Rewriter) simplifySort(s *plan.Sort) {
	cols := s.Input.Cols()
	scans := collectScans(s.Input)
	var kept []plan.SortKey
	var prefix []plan.ColumnInfo
	for _, k := range s.Keys {
		ci := cols[k.Ordinal]
		if ci.SourceTable == "" {
			kept = append(kept, k)
			prefix = append(prefix, ci)
			continue
		}
		// Rule 1: constant-pinned columns order nothing.
		if sc := scanForBinding(scans, ci.Qualifier); sc != nil {
			iv, _ := expr.ExtractInterval(sc.Filter, ci.SourceOrdinal)
			r.guarded("sort-simplify", iv.Guards())
			if iv.EqualityConstant != nil {
				r.event(obs.Event{Rule: "sort-simplify", Applied: true, Shaped: true,
					Detail: fmt.Sprintf("dropped key %s.%s (pinned to a constant)", ci.Qualifier, ci.Name)})
				continue
			}
		}
		// Rule 2: determined by the preceding keys from the same binding.
		var dets []string
		for _, p := range prefix {
			if strings.EqualFold(p.Qualifier, ci.Qualifier) && p.SourceTable != "" {
				dets = append(dets, p.SourceColumn)
			}
		}
		if len(dets) > 0 && r.determines(ci.SourceTable, dets, ci.SourceColumn) {
			r.event(obs.Event{Rule: "sort-simplify", Applied: true, Shaped: true, Confidence: 1, Mode: "FD",
				Detail: fmt.Sprintf("dropped key %s.%s (determined by %s)", ci.Qualifier, ci.Name, strings.Join(dets, ", "))})
			continue
		}
		kept = append(kept, k)
		prefix = append(prefix, ci)
	}
	if len(kept) == 0 && len(s.Keys) > 0 {
		s.Eliminated = true
		s.Reason = "all keys constant or functionally determined"
		r.event(obs.Event{Rule: "sort-simplify", Applied: true, Shaped: true,
			Detail: "sort eliminated entirely"})
	}
	s.Keys = kept
}

// reduceGroupBy marks group columns functionally determined by the other
// group columns as redundant, so the executor excludes them from the
// grouping key (they are constant within each group).
func (r *Rewriter) reduceGroupBy(a *plan.Aggregate) {
	if len(a.GroupBy) < 2 {
		return
	}
	inCols := a.Input.Cols()
	type gcol struct {
		ci plan.ColumnInfo
		ok bool
	}
	gcols := make([]gcol, len(a.GroupBy))
	for i, g := range a.GroupBy {
		c, isCol := g.(*expr.Column)
		if !isCol || c.Index < 0 || c.Index >= len(inCols) || inCols[c.Index].SourceTable == "" {
			continue
		}
		gcols[i] = gcol{ci: inCols[c.Index], ok: true}
	}
	redundant := make([]bool, len(a.GroupBy))
	for i := range a.GroupBy {
		if !gcols[i].ok {
			continue
		}
		target := gcols[i].ci
		var dets []string
		for j := range a.GroupBy {
			if j == i || redundant[j] || !gcols[j].ok {
				continue
			}
			if strings.EqualFold(gcols[j].ci.Qualifier, target.Qualifier) {
				dets = append(dets, gcols[j].ci.SourceColumn)
			}
		}
		if len(dets) > 0 && r.determines(target.SourceTable, dets, target.SourceColumn) {
			redundant[i] = true
			r.event(obs.Event{Rule: "group-simplify", Applied: true, Shaped: true, Confidence: 1, Mode: "FD",
				Detail: fmt.Sprintf("%s.%s removed from grouping key (determined by %s)",
					target.Qualifier, target.Name, strings.Join(dets, ", "))})
		}
	}
	for _, red := range redundant {
		if red {
			a.Redundant = redundant
			return
		}
	}
}

// determines reports whether det+ ⊇ {target} under the table's functional
// dependencies: declared/mined FuncDep constraints plus PK/Unique keys
// (which determine every column). Soft FDs participate only when absolute
// (confidence 1) and active.
func (r *Rewriter) determines(table string, det []string, target string) bool {
	for _, d := range det {
		if strings.EqualFold(d, target) {
			return true
		}
	}
	te, err := r.Cat.Table(table)
	if err != nil {
		return false
	}
	closure := map[string]bool{}
	for _, d := range det {
		closure[strings.ToLower(d)] = true
	}
	covered := func(cols []string) bool {
		for _, c := range cols {
			if !closure[strings.ToLower(c)] {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, con := range te.Constraints {
			if !con.Active || !con.Mode.UsableInRewrite() || con.Confidence < 1 {
				continue
			}
			switch con.Kind {
			case catalog.FuncDep:
				if covered(con.Columns) {
					for _, dep := range con.DepColumns {
						if !closure[strings.ToLower(dep)] {
							closure[strings.ToLower(dep)] = true
							changed = true
						}
					}
				}
			case catalog.PrimaryKey, catalog.Unique:
				if covered(con.Columns) {
					for _, col := range te.Def.Columns {
						if !closure[strings.ToLower(col.Name)] {
							closure[strings.ToLower(col.Name)] = true
							changed = true
						}
					}
				}
			}
		}
		if closure[strings.ToLower(target)] {
			return true
		}
	}
	return closure[strings.ToLower(target)]
}

// collectScans gathers the base-table scans beneath n.
func collectScans(n plan.Node) []*plan.Scan {
	var out []*plan.Scan
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			out = append(out, s)
			return
		}
		for _, c := range n.Inputs() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// scanForBinding finds the scan bound under the given alias.
func scanForBinding(scans []*plan.Scan, alias string) *plan.Scan {
	for _, s := range scans {
		if strings.EqualFold(s.Alias, alias) {
			return s
		}
	}
	return nil
}
