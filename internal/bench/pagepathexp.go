package bench

import (
	"context"
	"fmt"
	"time"

	"softdb/internal/btree"
	"softdb/internal/engine"
	"softdb/internal/exec"
	"softdb/internal/expr"
	"softdb/internal/types"
	"softdb/internal/vec"
	"softdb/internal/workload"
)

// V3Modes are the ways a V3 range is read: fetched entry by entry (the
// IndexScan's entry path, forced), and switched to the page path over frozen
// pages and over pages thawed before every execution (cold).
var V3Modes = []string{"entry", "pages-frozen", "pages-cold"}

// v3BuildModes are the hash-join build tables V3 times: the string-keyed
// generic table with per-row clones, and the typed int table.
var v3BuildModes = []string{"generic", "typed"}

// V3Case is one measured index range over the star schema's fact table:
// id in [Lo, Hi) plus a price conjunct no page synopsis can prove, so the
// filter really runs on every page read.
type V3Case struct {
	Name   string
	Lo, Hi int64
}

// Entries is the number of index entries the case's range holds.
func (c V3Case) Entries() int64 { return c.Hi - c.Lo }

// V3DB loads the fact table (fact.id is its primary key) and returns the
// ranges to measure: a tenth and two fifths of the table.
func V3DB(factRows int) (*engine.Database, []V3Case, error) {
	db := engine.Open()
	if err := workload.LoadStar(db, workload.StarConfig{DimRows: 1000, FactRows: factRows, Seed: 2}); err != nil {
		return nil, nil, err
	}
	n := int64(factRows)
	return db, []V3Case{
		{"range-10pct", n / 11, n/11 + n/10},
		{"range-40pct", n / 5, n/5 + 2*n/5},
	}, nil
}

// V3Scan builds the case's index scan over fact with the prune predicates
// the optimizer would give it.
func V3Scan(db *engine.Database, c V3Case) (*exec.IndexScan, error) {
	te, err := db.Catalog().Table("fact")
	if err != nil {
		return nil, err
	}
	def := te.Heap.Def()
	col := func(name string) *expr.Column {
		ord := def.ColumnIndex(name)
		return expr.NewColumn("fact", name, ord, def.Columns[ord].Type)
	}
	ix := te.IndexOn(def.ColumnIndex("id"))
	if ix == nil {
		return nil, fmt.Errorf("V3: fact.id has no index")
	}
	filter := []expr.Expr{
		expr.NewBinary(expr.OpGe, col("id"), expr.NewConst(types.NewInt(c.Lo))),
		expr.NewBinary(expr.OpLt, col("id"), expr.NewConst(types.NewInt(c.Hi))),
		expr.NewBinary(expr.OpLt, col("price"), expr.NewConst(types.NewFloat(900))),
	}
	return &exec.IndexScan{Table: "fact", Heap: te.Heap, Index: ix, Filter: filter,
		Prune: exec.FilterPrunePreds(filter, len(def.Columns)),
		Lo:    btree.Bound{Key: types.Row{types.NewInt(c.Lo)}, Inclusive: true},
		Hi:    btree.Bound{Key: types.Row{types.NewInt(c.Hi)}}}, nil
}

// V3Run executes scan once in mode (the caller thaws the table for
// pages-cold) and returns the qualifying rows' count and id sum with the
// execution's counters.
func V3Run(scan *exec.IndexScan, mode string) (rows, idSum int64, ctx *exec.Ctx, err error) {
	ctx = exec.NewCtx(context.Background(), exec.CtxOptions{})
	ctx.EntryPathOnly = mode == "entry"
	err = scan.Run(ctx, func(b *vec.Batch) bool {
		n := b.Len()
		for i := 0; i < n; i++ {
			idSum += b.Row(i)[0].Int()
		}
		rows += int64(n)
		return true
	})
	if err == nil {
		switch {
		case ctx.EntryPathOnly && ctx.PagePaths != 0:
			err = fmt.Errorf("V3: the forced entry path switched")
		case !ctx.EntryPathOnly && ctx.PagePaths != 1:
			err = fmt.Errorf("V3: a %d-entry range did not switch to the page path", scan.Hi.Key[0].Int()-scan.Lo.Key[0].Int())
		}
	}
	return rows, idSum, ctx, err
}

// v3Join builds a hash join whose build side is every fact row keyed by
// dim_id, probed by an empty input, so running it times the build alone.
// The generic mode hides the key column's kind, which is what keeps a join
// off the typed table.
func v3Join(db *engine.Database, mode string) (*exec.HashJoin, int64, error) {
	te, err := db.Catalog().Table("fact")
	if err != nil {
		return nil, 0, err
	}
	ord := te.Heap.Def().ColumnIndex("dim_id")
	kind := types.KindInt
	if mode == "generic" {
		kind = types.KindNull
	}
	return &exec.HashJoin{
		Left:     &exec.SeqScan{Table: "fact", Heap: te.Heap},
		Right:    &exec.Values{},
		LeftKeys: []expr.Expr{expr.NewColumn("fact", "dim_id", ord, kind)},
		RightKey: []expr.Expr{expr.NewColumn("", "k", 0, types.KindInt)},
	}, te.Heap.RowCount(), nil
}

// V3IndexPagePath measures the two access methods an IndexScan chooses
// between at run time — fetching each range entry's row by RowID, or
// reading the table's unpruned pages through the page scan kernel — on
// frozen pages and on pages thawed before every execution (which the scan
// then walks slot by slot and freezes again). The row cost column is the page
// path's time per row read over the entry path's time per entry:
// pagePathCostRatio in internal/exec is the cold figure of the narrower
// range. It also times the hash-join build the page path feeds: the typed
// int table against the generic string-keyed one. Answers are checked equal
// across modes; pages and page paths per execution are the counts its test
// gates on.
func V3IndexPagePath(factRows int) (*Report, error) {
	rep := &Report{
		ID:     "V3",
		Title:  "run-time index access path: entry fetches vs the page path, typed vs generic hash-join build",
		Claim:  "a wide index range is cheaper to finish on the frozen page path than to fetch entry by entry, so an index scan chooses per execution from its bound range and the pruned page count; page-path batches carry the pages' typed columns a typed int table keys on directly",
		Header: []string{"measure", "mode", "entries", "rows read", "ns/entry", "ns/row read", "row cost vs entry", "frozen pages", "pages", "page paths"},
	}
	db, cases, err := V3DB(factRows)
	if err != nil {
		return nil, err
	}
	te, err := db.Catalog().Table("fact")
	if err != nil {
		return nil, err
	}
	const reps = 12
	for _, c := range cases {
		scan, err := V3Scan(db, c)
		if err != nil {
			return nil, err
		}
		var perEntry float64
		var answer [2]int64
		for _, mode := range V3Modes {
			var total time.Duration
			var frozen, rowsRead, pages, pagePaths int64
			for run := -1; run < reps; run++ { // run -1 warms (and freezes) the pages
				if mode == "pages-cold" {
					te.Heap.ThawAll()
				}
				start := time.Now()
				rows, sum, ctx, err := V3Run(scan, mode)
				if err != nil {
					return nil, err
				}
				if run < 0 {
					continue
				}
				total += time.Since(start)
				if answer == [2]int64{} {
					answer = [2]int64{rows, sum}
				} else if answer != [2]int64{rows, sum} {
					return nil, fmt.Errorf("V3 %s [%s]: %d rows (id sum %d), want %d (%d)", c.Name, mode, rows, sum, answer[0], answer[1])
				}
				frozen, rowsRead, pages, pagePaths = ctx.IO.PagesFrozen, ctx.IO.RowsRead, ctx.IO.PagesRead, ctx.PagePaths
			}
			ns := float64(total.Nanoseconds()) / reps
			// The entry path's unit of work is the entry (its rows read
			// count the tree's entries too); the page path's is the row.
			perRow := ns / float64(c.Entries())
			if mode == "entry" {
				perEntry = perRow
			} else {
				perRow = ns / float64(rowsRead)
			}
			rep.AddRow(c.Name, mode, c.Entries(), rowsRead, fmt.Sprintf("%.1f", ns/float64(c.Entries())),
				fmt.Sprintf("%.1f", perRow), fmt.Sprintf("%.2f", perRow/perEntry), frozen, pages, pagePaths)
		}
	}
	var base float64
	for _, mode := range v3BuildModes {
		join, buildRows, err := v3Join(db, mode)
		if err != nil {
			return nil, err
		}
		var total time.Duration
		for run := -1; run < reps; run++ {
			start := time.Now()
			if err := join.Run(exec.NewCtx(context.Background(), exec.CtxOptions{}), func(*vec.Batch) bool { return true }); err != nil {
				return nil, err
			}
			if run >= 0 {
				total += time.Since(start)
			}
		}
		ns := float64(total.Nanoseconds()) / reps / float64(buildRows)
		if base == 0 {
			base = ns
		}
		rep.AddRow("hash-join build", mode, "", buildRows, "", fmt.Sprintf("%.1f", ns), fmt.Sprintf("%.2f", ns/base), "", "", "")
	}
	rep.Notef("fact %d rows; the filter adds price < 900.0, which no synopsis proves; rows read are the last execution's: the entry path counts each entry and its visible row, the page path every row of a read page; the build rows' cost is relative to the generic build", factRows)
	return rep, nil
}
