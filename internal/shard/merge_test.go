package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"softdb/internal/client"
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

func mustPlan(t *testing.T, text string) *selectPlan {
	t.Helper()
	p, err := planSelect(mustSelect(t, text))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mergeRows runs p's router phase over shardRows, one slice per shard. The
// per-shard columns are named c0, c1, ...; without a * in the per-shard
// statement there is one per item.
func mergeRows(p *selectPlan, shardRows [][]types.Row) (*client.Result, error) {
	var cols []string
	for i := range p.perShard.Items {
		cols = append(cols, fmt.Sprintf("c%d", i))
	}
	results := make([]*client.Result, len(shardRows))
	for i, rs := range shardRows {
		results[i] = &client.Result{Columns: cols, Rows: rs}
	}
	return p.run(context.Background(), results)
}

func mustMerge(t *testing.T, p *selectPlan, shardRows [][]types.Row) []types.Row {
	t.Helper()
	res, err := mergeRows(p, shardRows)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

func intRow(vs ...int64) types.Row {
	r := make(types.Row, len(vs))
	for i, v := range vs {
		r[i] = types.NewInt(v)
	}
	return r
}

func TestPlanPlainSelectOrderLimit(t *testing.T) {
	p := mustPlan(t, "SELECT k, v FROM t WHERE v > 0 ORDER BY k DESC LIMIT 3")
	// The sort key travels as a trailing helper column; ORDER BY and LIMIT
	// push down.
	if got, want := sql.Print(p.perShard), "SELECT k, v, k FROM t WHERE (v > 0) ORDER BY k DESC LIMIT 3"; got != want {
		t.Fatalf("per-shard = %q, want %q", got, want)
	}
	res, err := mergeRows(p, [][]types.Row{
		{intRow(1, 10, 1), intRow(5, 50, 5)},
		{intRow(3, 30, 3), intRow(9, 90, 9)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Columns, res.Rows); got != "[c0 c1] [(9, 90) (5, 50) (3, 30)]" {
		t.Fatalf("merged = %s; want k DESC, limit 3, the helper dropped", got)
	}
}

func TestPlanPlainSelectDistinct(t *testing.T) {
	p := mustPlan(t, "SELECT DISTINCT k FROM t")
	rows := mustMerge(t, p, [][]types.Row{
		{intRow(1), intRow(2)},
		{intRow(2), intRow(3)},
	})
	if len(rows) != 3 {
		t.Fatalf("distinct merge: %v", rows)
	}
}

// TestPlanStarOrderByHelperColumn: * with ORDER BY needs no schema — the
// key is a helper column after the star's columns, however many there are.
func TestPlanStarOrderByHelperColumn(t *testing.T) {
	p := mustPlan(t, "SELECT * FROM t ORDER BY k")
	if got, want := sql.Print(p.perShard), "SELECT *, k FROM t ORDER BY k"; got != want {
		t.Fatalf("per-shard = %q, want %q", got, want)
	}
	// t is (id, k, v): each shard row is id, k, v, then the helper k.
	cols := []string{"id", "k", "v", "k"}
	res, err := p.run(context.Background(), []*client.Result{
		{Columns: cols, Rows: []types.Row{intRow(1, 30, 0, 30), intRow(2, 10, 0, 10)}},
		{Columns: cols, Rows: []types.Row{intRow(3, 20, 0, 20)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Columns, res.Rows); got != "[id k v] [(2, 10, 0) (3, 20, 0) (1, 30, 0)]" {
		t.Fatalf("merged = %s; want the expanded rows by k, the helper dropped", got)
	}
}

// TestPlanOrderByAliasAndOutsideColumn: an ORDER BY alias is replaced by its
// item's expression, and a key outside the select list (DISTINCT too)
// travels as a helper the router sorts on and drops.
func TestPlanOrderByAliasAndOutsideColumn(t *testing.T) {
	for _, c := range []struct{ q, want string }{
		{"SELECT k AS kk FROM t ORDER BY kk DESC", "SELECT k AS kk, k FROM t ORDER BY kk DESC"},
		{"SELECT k FROM t ORDER BY id LIMIT 2", "SELECT k, id FROM t ORDER BY id LIMIT 2"},
		{"SELECT DISTINCT k FROM t ORDER BY id", "SELECT DISTINCT k, id FROM t ORDER BY id"},
	} {
		if got := sql.Print(mustPlan(t, c.q).perShard); got != c.want {
			t.Errorf("%s: per-shard = %q, want %q", c.q, got, c.want)
		}
	}
	p := mustPlan(t, "SELECT DISTINCT k FROM t ORDER BY id")
	rows := mustMerge(t, p, [][]types.Row{
		{intRow(7, 3), intRow(5, 1)},
		{intRow(7, 2), intRow(5, 1)},
	})
	// One node dedupes on (k, id) before it sorts by id and drops id.
	if got := fmt.Sprint(rows); got != "[(5) (7) (7)]" {
		t.Fatalf("merged = %s", got)
	}
}

func TestPlanAggSelect(t *testing.T) {
	p := mustPlan(t, "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t GROUP BY g")
	// Per-shard statement: the original items verbatim (their row
	// description supplies the exact output names), then AVG's FLOAT sum and
	// count partials appended.
	per := sql.Print(p.perShard)
	want := "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v), SUM(CAST(v AS FLOAT)), COUNT(v) FROM t GROUP BY g"
	if per != want {
		t.Fatalf("per-shard = %q, want %q", per, want)
	}
	// Shard 0: group 1 has 2 rows summing 30 (min 10 max 20); group 2 one
	// row of 5. Shard 1: group 1 has 1 row of 40. Layout: g, count, sum,
	// min, max, avg (ignored), sum partial, count partial.
	f := types.NewFloat
	res, err := mergeRows(p, [][]types.Row{
		{append(intRow(1, 2, 30, 10, 20), f(15), f(30), types.NewInt(2)), append(intRow(2, 1, 5, 5, 5), f(5), f(5), types.NewInt(1))},
		{append(intRow(1, 1, 40, 40, 40), f(40), f(40), types.NewInt(1))},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
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
	// The shards' own names for the items, the helpers' sliced off.
	if got := strings.Join(res.Columns, ","); got != "c0,c1,c2,c3,c4,c5" {
		t.Fatalf("columns = %v", got)
	}
}

func TestAggMergeGlobalGroup(t *testing.T) {
	p := mustPlan(t, "SELECT COUNT(*), SUM(v) FROM t")
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

// TestAggMergeTypedGroupKey: a group key is typed with the kind its
// non-NULL shard values share, and a NULL key still folds into its own
// group under the typed keyer.
func TestAggMergeTypedGroupKey(t *testing.T) {
	for _, c := range []struct {
		col  []types.Datum
		want types.Kind
	}{
		{[]types.Datum{types.NewInt(1), types.Null, types.NewInt(2)}, types.KindInt},
		{[]types.Datum{types.Null, types.NewString("a")}, types.KindString},
		{[]types.Datum{types.NewInt(1), types.NewFloat(1)}, types.KindNull},
		{[]types.Datum{types.Null, types.Null}, types.KindNull},
	} {
		var rows []types.Row
		for _, v := range c.col {
			rows = append(rows, types.Row{v})
		}
		if got := sharedKind(rows, 0); got != c.want {
			t.Errorf("sharedKind(%v) = %v, want %v", c.col, got, c.want)
		}
	}
	p := mustPlan(t, "SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY g")
	rows := mustMerge(t, p, [][]types.Row{
		{intRow(1, 2), types.Row{types.Null, types.NewInt(1)}},
		{intRow(2, 5), intRow(1, 3), types.Row{types.Null, types.NewInt(4)}},
	})
	if got := fmt.Sprint(rows); got != "[(NULL, 5) (1, 5) (2, 5)]" {
		t.Fatalf("merged groups = %s", got)
	}
}

func TestAggMergeAllNull(t *testing.T) {
	p := mustPlan(t, "SELECT SUM(v), AVG(v), MIN(v) FROM t")
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
	p := mustPlan(t, "SELECT SUM(v) FROM t")
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
	p := mustPlan(t, "SELECT SUM(v) FROM t")
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
		res, err := mergeRows(p, shardRows)
		if c.want == "overflow" {
			if qe, ok := exec.AsQueryError(err); !ok || qe.Kind != exec.KindError || !errors.Is(err, exec.ErrSumOverflow) {
				t.Errorf("%v: %v, %v; want a SUM overflow error", c.partials, res, err)
			}
			continue
		}
		if err != nil || res.Rows[0][0].String() != c.want {
			t.Errorf("%v: %v, %v; want %s", c.partials, res, err, c.want)
		}
	}
}

func TestPlanAggOrderByAlias(t *testing.T) {
	p := mustPlan(t, "SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY n DESC, g")
	rows := mustMerge(t, p, [][]types.Row{
		{intRow(1, 1), intRow(2, 5)},
		{intRow(3, 5), intRow(1, 1)},
	})
	if got := fmt.Sprint(rows); got != "[(2, 5) (3, 5) (1, 2)]" {
		t.Fatalf("merged = %s; want n DESC, then g", got)
	}
}

func TestPlanRejectsCrossShardUnsupported(t *testing.T) {
	for _, text := range []string{
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING n > 1",
		"SELECT k FROM t UNION ALL SELECT k FROM u",
		"SELECT COUNT(DISTINCT v) FROM t",
		"SELECT v FROM t GROUP BY g",
	} {
		if _, err := planSelect(mustSelect(t, text)); err == nil {
			t.Errorf("planSelect(%q) should fail", text)
		}
	}
}

func TestPlanAggDistinctRejected(t *testing.T) {
	if _, err := planSelect(mustSelect(t, "SELECT DISTINCT g, COUNT(*) FROM t GROUP BY g")); err == nil {
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
		if res, err := mergeRows(mustPlan(t, c.q), c.rows); !errors.Is(err, types.ErrNaN) {
			t.Errorf("%s: %v, %v; want ErrNaN", c.q, res, err)
		}
	}
}

// BenchmarkRouterMerge is the router's phase over a broadcast GROUP BY as
// softbench's sharded_mixed sends it: 4 shards × 10 partial groups,
// planned and merged per operation.
func BenchmarkRouterMerge(b *testing.B) {
	sel, err := sql.Parse("SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM events WHERE grp >= 0 GROUP BY grp ORDER BY grp")
	if err != nil {
		b.Fatal(err)
	}
	p, err := planSelect(sel.(*sql.Select))
	if err != nil {
		b.Fatal(err)
	}
	shardRows := make([][]types.Row, 4)
	for s := range shardRows {
		for g := int64(0); g < 10; g++ {
			row := intRow(g, 2000, 2000*(g+1)+int64(s))
			for len(row) < len(p.perShard.Items) {
				row = append(row, types.NewInt(g))
			}
			shardRows[s] = append(shardRows[s], row)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		p, err := planSelect(sel.(*sql.Select))
		if err != nil {
			b.Fatal(err)
		}
		if res, err := mergeRows(p, shardRows); err != nil || len(res.Rows) != 10 {
			b.Fatalf("%v %v", res, err)
		}
	}
}
