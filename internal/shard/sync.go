package shard

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"softdb/internal/client"
	"softdb/internal/expr"
	"softdb/internal/sql"
)

// Sync is the constraint-sync protocol, triggered by the raw ROUTER SYNC
// admin statement. For every shard it re-characterizes each partitioned
// (and explicitly tracked) table:
//
//   - reads COUNT(*) plus MIN/MAX per tracked column in one scan,
//   - installs a shard-side soft absolute CHECK backing the observed
//     range (or a CHECK (0 = 1) marker on an empty shard), and
//   - only then installs the registry entry, so the entry is never
//     trusted without a live shard-side tripwire: any later violating
//     write deactivates the CHECK and the deactivation notice rides that
//     write's response back through the router (AbsorbNotices).
//
// Backing constraints are generation-named (router_<table>_<col>_s<i>_g<g>)
// because a re-sync cannot reuse a name — the engine rejects duplicates —
// and must not rely on the previous generation's wider range. Verified
// operator-declared holes install the same way with an inverted CHECK.
func (r *Router) Sync(ctx context.Context) (*client.Result, error) {
	tables := r.syncTables()
	res := &client.Result{}
	for shard := 0; shard < r.n; shard++ {
		for _, t := range tables {
			notices, err := r.syncTable(ctx, shard, t.table, t.cols)
			if err != nil {
				return nil, err
			}
			res.Notices = append(res.Notices, notices...)
		}
		for _, h := range r.cfg.Holes {
			if h.Shard != shard {
				continue
			}
			notice, err := r.syncHole(ctx, h)
			if err != nil {
				return nil, err
			}
			res.Notices = append(res.Notices, notice)
		}
	}
	r.cSyncs.Inc()
	if len(res.Notices) == 0 {
		res.Notices = []string{"sync: nothing to characterize (no partition specs or tracked columns)"}
	}
	return res, nil
}

type syncTarget struct {
	table string
	cols  []string
}

// syncTables merges partition specs and TrackCols into per-table column
// lists, sorted for deterministic sync order.
func (r *Router) syncTables() []syncTarget {
	cols := map[string][]string{}
	add := func(table, col string) {
		table, col = strings.ToLower(table), strings.ToLower(col)
		for _, c := range cols[table] {
			if c == col {
				return
			}
		}
		cols[table] = append(cols[table], col)
	}
	for _, sp := range r.cfg.Specs {
		add(sp.Table, sp.Column)
	}
	for _, tc := range r.cfg.TrackCols {
		if table, col, ok := strings.Cut(tc, "."); ok {
			add(table, col)
		}
	}
	out := make([]syncTarget, 0, len(cols))
	for t, cs := range cols {
		sort.Strings(cs)
		out = append(out, syncTarget{table: t, cols: cs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].table < out[j].table })
	return out
}

// syncTable characterizes one table on one shard. The read and the
// constraint install race with live writes, so a verify rejection
// ("existing rows violate") triggers one re-read-and-retry.
func (r *Router) syncTable(ctx context.Context, shard int, table string, cols []string) ([]string, error) {
	var notices []string
	for attempt := 0; ; attempt++ {
		sel := "SELECT COUNT(*)"
		for _, c := range cols {
			sel += fmt.Sprintf(", MIN(%s), MAX(%s)", c, c)
		}
		sel += " FROM " + table
		res, err := r.adminQuery(ctx, shard, sel)
		if err != nil {
			return nil, fmt.Errorf("shard: sync %s on shard %d: %w", table, shard, err)
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1+2*len(cols) {
			return nil, fmt.Errorf("shard: sync %s on shard %d: unexpected result shape", table, shard)
		}
		row := res.Rows[0]
		if row[0].Int() == 0 {
			// Empty shard: a CHECK (0 = 1) marker — trivially true over no
			// rows, violated by the first insert — backs an empty-range
			// entry that prunes the shard for any predicate on the table.
			name, err := r.installCheck(ctx, shard, table, "(0 = 1)")
			if err != nil {
				if attempt == 0 && isVerifyReject(err) {
					continue
				}
				return nil, err
			}
			r.reg.Install(Entry{
				Shard: shard, Table: table, Column: cols[0], Kind: KindRange,
				Iv: expr.Interval{ExactEmpty: true}, Constraint: name, Active: true,
			})
			return append(notices, fmt.Sprintf("sync: shard %d: %s empty (%s)", shard, table, name)), nil
		}
		retry := false
		for i, c := range cols {
			lo, hi := row[1+2*i], row[2+2*i]
			if lo.IsNull() || hi.IsNull() {
				continue // all-NULL column: no range to characterize
			}
			check := fmt.Sprintf("(%s >= %s AND %s <= %s)", c, sql.FormatConst(lo), c, sql.FormatConst(hi))
			name, err := r.installCheck(ctx, shard, table, check)
			if err != nil {
				if attempt == 0 && isVerifyReject(err) {
					// A write moved the range between read and install;
					// re-read the whole table once.
					retry, notices = true, notices[:0]
					break
				}
				return nil, err
			}
			iv := expr.Between(lo, hi, true, true)
			r.reg.Install(Entry{
				Shard: shard, Table: table, Column: c, Kind: KindRange,
				Iv: iv, Constraint: name, Active: true,
			})
			notices = append(notices, fmt.Sprintf("sync: shard %d: %s.%s range %s (%s)", shard, table, c, iv, name))
		}
		if !retry {
			return notices, nil
		}
	}
}

// syncHole verifies an operator-declared hole against the shard and, when
// it holds, installs the inverted CHECK plus the registry entry.
func (r *Router) syncHole(ctx context.Context, h Hole) (string, error) {
	probe := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s >= %s AND %s <= %s",
		h.Table, h.Column, sql.FormatConst(h.Lo), h.Column, sql.FormatConst(h.Hi))
	res, err := r.adminQuery(ctx, h.Shard, probe)
	if err != nil {
		return "", fmt.Errorf("shard: hole verify %s.%s on shard %d: %w", h.Table, h.Column, h.Shard, err)
	}
	if n := res.Rows[0][0].Int(); n != 0 {
		return fmt.Sprintf("sync: shard %d: hole %s.%s [%s, %s] rejected: %d rows inside",
			h.Shard, h.Table, h.Column, h.Lo, h.Hi, n), nil
	}
	check := fmt.Sprintf("(%s < %s OR %s > %s)", h.Column, sql.FormatConst(h.Lo), h.Column, sql.FormatConst(h.Hi))
	name, err := r.installCheck(ctx, h.Shard, h.Table, check)
	if err != nil {
		return "", err
	}
	iv := expr.Between(h.Lo, h.Hi, true, true)
	r.reg.Install(Entry{
		Shard: h.Shard, Table: h.Table, Column: h.Column, Kind: KindHole,
		Iv: iv, Constraint: name, Active: true,
	})
	return fmt.Sprintf("sync: shard %d: %s.%s hole %s (%s)", h.Shard, h.Table, h.Column, iv, name), nil
}

// installCheck installs one generation-named soft CHECK on a shard,
// advancing the generation past names a previous router process left
// behind.
func (r *Router) installCheck(ctx context.Context, shard int, table, check string) (string, error) {
	for {
		name := fmt.Sprintf("router_%s_s%d_g%d", table, shard, r.genSeq.Add(1))
		stmt := fmt.Sprintf("ALTER TABLE %s ADD CONSTRAINT %s CHECK %s SOFT", table, name, check)
		if _, err := r.adminQuery(ctx, shard, stmt); err != nil {
			if strings.Contains(err.Error(), "already exists") {
				continue // stale generation from an earlier router; skip past it
			}
			return "", fmt.Errorf("shard: install %s on shard %d: %w", name, shard, err)
		}
		return name, nil
	}
}

func isVerifyReject(err error) bool {
	return err != nil && strings.Contains(err.Error(), "existing rows violate")
}
