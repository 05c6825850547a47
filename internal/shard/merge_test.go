package shard

import (
	"errors"
	"math"
	"testing"

	"softdb/internal/exec"
	"softdb/internal/sql"
	"softdb/internal/types"
)

func mustSelect(t *testing.T, text string) *sql.Select {
	t.Helper()
	st, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := st.(*sql.Select)
	if !ok {
		t.Fatalf("%q is %T", text, st)
	}
	return sel
}

func mustMerge(t *testing.T, p *selectPlan, shardRows [][]types.Row) []types.Row {
	t.Helper()
	rows, err := p.mergeRows(shardRows)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func intRow(vs ...int64) types.Row {
	r := make(types.Row, len(vs))
	for i, v := range vs {
		r[i] = types.NewInt(v)
	}
	return r
}

func TestPlanPlainSelectOrderLimit(t *testing.T) {
	sel := mustSelect(t, "SELECT k, v FROM t WHERE v > 0 ORDER BY k DESC LIMIT 3")
	p, err := planSelect(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.agg != nil || !p.hasOrder || p.limit != 3 {
		t.Fatalf("plan = %+v", p)
	}
	if len(p.order) != 1 || p.order[0].col != 0 || !p.order[0].desc {
		t.Fatalf("order = %+v", p.order)
	}
	rows := mustMerge(t, p, [][]types.Row{
		{intRow(1, 10), intRow(5, 50)},
		{intRow(3, 30), intRow(9, 90)},
	})
	if len(rows) != 3 {
		t.Fatalf("limit not applied: %d rows", len(rows))
	}
	if rows[0][0].Int() != 9 || rows[1][0].Int() != 5 || rows[2][0].Int() != 3 {
		t.Fatalf("merged order wrong: %v", rows)
	}
}

func TestPlanPlainSelectDistinct(t *testing.T) {
	sel := mustSelect(t, "SELECT DISTINCT k FROM t")
	p, err := planSelect(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := mustMerge(t, p, [][]types.Row{
		{intRow(1), intRow(2)},
		{intRow(2), intRow(3)},
	})
	if len(rows) != 3 {
		t.Fatalf("distinct merge: %v", rows)
	}
}

func TestPlanStarOrderByNeedsSchema(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t ORDER BY k")
	schema := func(string) ([]string, error) { return []string{"id", "k", "v"}, nil }
	p, err := planSelect(sel, schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.order) != 1 || p.order[0].col != 1 {
		t.Fatalf("ORDER BY k should resolve to expanded column 1, got %+v", p.order)
	}
	if _, err := planSelect(sel, nil); err == nil {
		t.Fatal("star + ORDER BY without a schema resolver should fail")
	}
}

func TestPlanAggSelect(t *testing.T) {
	sel := mustSelect(t, "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t GROUP BY g")
	p, err := planSelect(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.agg == nil || len(p.agg.groupSrc) != 1 || p.agg.groupSrc[0] != 0 {
		t.Fatalf("plan = %+v", p)
	}
	// Per-shard statement: the original items verbatim (their row
	// description supplies the exact output names), then AVG's SUM+COUNT
	// partials appended.
	per := sql.Print(p.perShard)
	want := "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v), SUM(v), COUNT(v) FROM t GROUP BY g"
	if per != want {
		t.Fatalf("per-shard = %q, want %q", per, want)
	}
	// Shard 0: group 1 has 2 rows summing 30 (min 10 max 20); group 2 one
	// row of 5. Shard 1: group 1 has 1 row of 40. Layout: g, count, sum,
	// min, max, avg (ignored), sum partial, count partial.
	rows := mustMerge(t, p, [][]types.Row{
		{intRow(1, 2, 30, 10, 20, 15, 30, 2), intRow(2, 1, 5, 5, 5, 5, 5, 1)},
		{intRow(1, 1, 40, 40, 40, 40, 40, 1)},
	})
	if len(rows) != 2 {
		t.Fatalf("groups = %v", rows)
	}
	g1 := rows[0]
	if g1[0].Int() != 1 || g1[1].Int() != 3 || g1[2].Int() != 70 || g1[3].Int() != 10 || g1[4].Int() != 40 {
		t.Fatalf("group 1 = %v", g1)
	}
	if g1[5].Kind() != types.KindFloat || g1[5].Float() != 70.0/3.0 {
		t.Fatalf("avg = %v", g1[5])
	}
	if got := p.columns(nil); got[1] != "count(*)" || got[5] != "avg(v)" {
		t.Fatalf("columns = %v", got)
	}
}

func TestAggMergeGlobalGroup(t *testing.T) {
	sel := mustSelect(t, "SELECT COUNT(*), SUM(v) FROM t")
	p, err := planSelect(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every shard returns its one global row, including empty shards
	// (COUNT 0, SUM NULL).
	rows := mustMerge(t, p, [][]types.Row{
		{types.Row{types.NewInt(0), types.Null}},
		{intRow(3, 60)},
	})
	if len(rows) != 1 || rows[0][0].Int() != 3 || rows[0][1].Int() != 60 {
		t.Fatalf("global merge = %v", rows)
	}
}

func TestAggMergeAllNull(t *testing.T) {
	sel := mustSelect(t, "SELECT SUM(v), AVG(v), MIN(v) FROM t")
	p, err := planSelect(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: sum, avg (ignored), min, then AVG's sum+count partials.
	rows := mustMerge(t, p, [][]types.Row{
		{types.Row{types.Null, types.Null, types.Null, types.Null, types.NewInt(0)}},
		{types.Row{types.Null, types.Null, types.Null, types.Null, types.NewInt(0)}},
	})
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	for i, d := range rows[0] {
		if !d.IsNull() {
			t.Errorf("col %d should be NULL over no values, got %v", i, d)
		}
	}
}

func TestAggMergeFloatSum(t *testing.T) {
	sel := mustSelect(t, "SELECT SUM(v) FROM t")
	p, err := planSelect(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := mustMerge(t, p, [][]types.Row{
		{types.Row{types.NewFloat(1.5)}},
		{types.Row{types.NewInt(2)}},
	})
	if rows[0][0].Kind() != types.KindFloat || rows[0][0].Float() != 3.5 {
		t.Fatalf("mixed sum = %v", rows[0][0])
	}
}

// TestAggMergeExactIntSum: INT SUM partials add exactly past 2^53, and a
// total outside the INT range fails whatever order the shards answer in.
func TestAggMergeExactIntSum(t *testing.T) {
	sel := mustSelect(t, "SELECT SUM(v) FROM t")
	p, err := planSelect(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	const max = 1<<63 - 1
	for _, c := range []struct {
		partials []int64
		want     string
	}{
		{[]int64{9007199254740993, 1}, "9007199254740994"},
		{[]int64{max, 1, -5}, "9223372036854775803"},
		{[]int64{-max, -1, -1}, "overflow"},
		{[]int64{max, 1}, "overflow"},
	} {
		var shardRows [][]types.Row
		for _, v := range c.partials {
			shardRows = append(shardRows, []types.Row{intRow(v)})
		}
		rows, err := p.mergeRows(shardRows)
		if c.want == "overflow" {
			if qe, ok := exec.AsQueryError(err); !ok || qe.Kind != exec.KindError || !errors.Is(err, exec.ErrSumOverflow) {
				t.Errorf("%v: %v, %v; want a SUM overflow error", c.partials, rows, err)
			}
			continue
		}
		if err != nil || rows[0][0].String() != c.want {
			t.Errorf("%v: %v, %v; want %s", c.partials, rows, err, c.want)
		}
	}
}

func TestPlanAggOrderByAlias(t *testing.T) {
	sel := mustSelect(t, "SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY n DESC, g")
	p, err := planSelect(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := mustMerge(t, p, [][]types.Row{
		{intRow(1, 1, 0), intRow(2, 5, 0)},
		{intRow(3, 5, 0)},
	})
	_ = rows
	if len(p.order) != 2 || p.order[0].col != 1 || !p.order[0].desc || p.order[1].col != 0 {
		t.Fatalf("order = %+v", p.order)
	}
}

func TestPlanRejectsCrossShardUnsupported(t *testing.T) {
	for _, text := range []string{
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING n > 1",
		"SELECT k FROM t UNION ALL SELECT k FROM u",
		"SELECT COUNT(DISTINCT v) FROM t",
		"SELECT v FROM t GROUP BY g",
	} {
		sel := mustSelect(t, text)
		if _, err := planSelect(sel, nil); err == nil {
			t.Errorf("planSelect(%q) should fail", text)
		}
	}
}

func TestPlanAggDistinctRejected(t *testing.T) {
	sel := mustSelect(t, "SELECT DISTINCT g, COUNT(*) FROM t GROUP BY g")
	if _, err := planSelect(sel, nil); err == nil {
		t.Fatal("DISTINCT with aggregates should be rejected across shards")
	}
}

// TestAggMergeNaNFails: FLOAT SUM and AVG partials of +Inf and -Inf merge
// to NaN, which fails the query as it does on one node.
func TestAggMergeNaNFails(t *testing.T) {
	inf := func(sign int) types.Datum { return types.NewFloat(math.Inf(sign)) }
	for _, c := range []struct {
		q    string
		rows [][]types.Row // AVG's layout: avg (ignored), then its sum+count partials
	}{
		{"SELECT SUM(v) FROM t", [][]types.Row{{{inf(1)}}, {{inf(-1)}}}},
		{"SELECT AVG(v) FROM t", [][]types.Row{{{types.Null, inf(1), types.NewInt(1)}}, {{types.Null, inf(-1), types.NewInt(1)}}}},
	} {
		p, err := planSelect(mustSelect(t, c.q), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := p.mergeRows(c.rows); !errors.Is(err, types.ErrNaN) {
			t.Errorf("%s: %v, %v; want ErrNaN", c.q, rows, err)
		}
	}
}
