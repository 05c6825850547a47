package sql

import (
	"strings"
	"testing"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/types"
)

func mustParse(t *testing.T, input string) Statement {
	t.Helper()
	s, err := Parse(input)
	if err != nil {
		t.Fatalf("Parse(%q): %v", input, err)
	}
	return s
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 'it''s' FROM t WHERE x <= 3.5 -- comment\nAND y <> 2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		kinds = append(kinds, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "it's", "FROM", "t", "WHERE", "x", "<=", "3.5", "AND", "y", "<>", "2"}
	if strings.Join(kinds, " ") != strings.Join(want, " ") {
		t.Errorf("tokens: %v", kinds)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("'unterminated"); err == nil {
		t.Error("unterminated string should error")
	}
	if _, err := Lex("a @ b"); err == nil {
		t.Error("bad char should error")
	}
}

func TestLexBangEquals(t *testing.T) {
	toks, err := Lex("a != b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Text != "<>" {
		t.Errorf("!= should normalize to <>: %q", toks[1].Text)
	}
}

func TestParseCreateTable(t *testing.T) {
	s := mustParse(t, `CREATE TABLE purchase (
		id INT PRIMARY KEY,
		order_date DATE NOT NULL,
		ship_date DATE,
		amount FLOAT,
		note VARCHAR(30),
		CONSTRAINT ship_window CHECK (ship_date <= order_date + 21) SOFT,
		CONSTRAINT amount_pos CHECK (amount >= 0) INFORMATIONAL,
		CONSTRAINT ssc_win CHECK (ship_date >= order_date) SOFT STATISTICAL CONFIDENCE 0.99
	)`)
	ct := s.(*CreateTable)
	if ct.Name != "purchase" || len(ct.Cols) != 5 || len(ct.Constraints) != 3 {
		t.Fatalf("shape: %d cols, %d constraints", len(ct.Cols), len(ct.Constraints))
	}
	if !ct.Cols[0].PrimaryKey || !ct.Cols[0].NotNull {
		t.Error("PRIMARY KEY column flags")
	}
	if ct.Cols[1].Type != types.KindDate || !ct.Cols[1].NotNull {
		t.Error("order_date def")
	}
	if ct.Cols[4].Type != types.KindString {
		t.Error("varchar maps to string")
	}
	if ct.Constraints[0].Mode != catalog.ModeSoftAbsolute {
		t.Errorf("SOFT mode: %v", ct.Constraints[0].Mode)
	}
	if ct.Constraints[1].Mode != catalog.ModeInformational {
		t.Errorf("INFORMATIONAL mode: %v", ct.Constraints[1].Mode)
	}
	c2 := ct.Constraints[2]
	if c2.Mode != catalog.ModeSoftStatistical || c2.Confidence != 0.99 {
		t.Errorf("SSC: mode=%v conf=%v", c2.Mode, c2.Confidence)
	}
}

func TestParseForeignKeyModes(t *testing.T) {
	s := mustParse(t, `CREATE TABLE lineitem (
		order_id INT NOT NULL,
		part VARCHAR(10),
		FOREIGN KEY (order_id) REFERENCES orders (id) NOT ENFORCED
	)`)
	ct := s.(*CreateTable)
	fk := ct.Constraints[0]
	if fk.Kind != catalog.ForeignKey || fk.Mode != catalog.ModeInformational {
		t.Errorf("fk: %v %v", fk.Kind, fk.Mode)
	}
	if fk.RefTable != "orders" || fk.RefColumns[0] != "id" {
		t.Errorf("fk target: %v %v", fk.RefTable, fk.RefColumns)
	}
}

func TestParseCreateIndex(t *testing.T) {
	s := mustParse(t, "CREATE UNIQUE INDEX idx_od ON purchase (order_date, id)")
	ci := s.(*CreateIndex)
	if !ci.Unique || ci.Table != "purchase" || len(ci.Columns) != 2 {
		t.Errorf("index: %+v", ci)
	}
}

func TestParseCreateSummary(t *testing.T) {
	s := mustParse(t, `CREATE SUMMARY TABLE late_shipments AS
		(SELECT * FROM purchase WHERE ship_date > order_date + 21)`)
	cs := s.(*CreateSummary)
	if cs.Name != "late_shipments" || cs.Base != "purchase" || cs.Informational {
		t.Errorf("summary: %+v", cs)
	}
	if cs.Where == nil {
		t.Error("where should parse")
	}
	s = mustParse(t, "CREATE INFORMATIONAL SUMMARY TABLE p_stats AS SELECT * FROM purchase")
	cs = s.(*CreateSummary)
	if !cs.Informational || cs.Where != nil {
		t.Errorf("informational summary: %+v", cs)
	}
}

func TestParseCreateView(t *testing.T) {
	s := mustParse(t, `CREATE VIEW sales_all AS
		SELECT * FROM sales_jan
		UNION ALL SELECT * FROM sales_feb
		UNION ALL SELECT * FROM sales_mar`)
	cv := s.(*CreateView)
	arms := 0
	for q := cv.Query; q != nil; q = q.UnionAll {
		arms++
	}
	if arms != 3 {
		t.Errorf("union arms: %d", arms)
	}
}

func TestParseInsert(t *testing.T) {
	s := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
	ins := s.(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("insert: %+v", ins)
	}
	s = mustParse(t, "INSERT INTO t VALUES (DATE '1999-12-15')")
	ins = s.(*Insert)
	if len(ins.Columns) != 0 || len(ins.Rows) != 1 {
		t.Fatalf("positional insert: %+v", ins)
	}
	if ins.Rows[0][0].String() != "1999-12-15" {
		t.Errorf("date literal: %s", ins.Rows[0][0])
	}
}

func TestParseUpdateDelete(t *testing.T) {
	s := mustParse(t, "UPDATE t SET a = a + 1, b = 'x' WHERE id = 3")
	upd := s.(*Update)
	if len(upd.Set) != 2 || upd.Where == nil {
		t.Errorf("update: %+v", upd)
	}
	s = mustParse(t, "DELETE FROM t")
	del := s.(*Delete)
	if del.Where != nil {
		t.Error("unconditional delete")
	}
}

func TestParseSelectShape(t *testing.T) {
	s := mustParse(t, `SELECT DISTINCT o.id, COUNT(*) AS n, SUM(l.qty) total
		FROM orders o, lineitem AS l
		WHERE o.id = l.order_id AND l.qty > 5
		GROUP BY o.id
		ORDER BY n DESC, o.id
		LIMIT 10`)
	sel := s.(*Select)
	if !sel.Distinct || len(sel.Items) != 3 || len(sel.From) != 2 {
		t.Fatalf("select shape: %+v", sel)
	}
	if sel.Items[1].Agg != AggCountStar || sel.Items[1].Alias != "n" {
		t.Errorf("count(*): %+v", sel.Items[1])
	}
	if sel.Items[2].Agg != AggSum || sel.Items[2].Alias != "total" {
		t.Errorf("sum alias without AS: %+v", sel.Items[2])
	}
	if sel.From[0].Name() != "o" || sel.From[1].Name() != "l" {
		t.Errorf("aliases: %+v", sel.From)
	}
	if len(sel.GroupBy) != 1 || len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc {
		t.Errorf("group/order: %+v", sel)
	}
	if sel.Limit != 10 {
		t.Errorf("limit: %d", sel.Limit)
	}
}

func TestParseExplicitJoin(t *testing.T) {
	s := mustParse(t, "SELECT * FROM a INNER JOIN b ON a.x = b.y JOIN c ON b.z = c.z WHERE a.w > 0")
	sel := s.(*Select)
	if len(sel.From) != 3 {
		t.Fatalf("from: %d", len(sel.From))
	}
	// ON conditions fold into WHERE: 3 conjuncts total.
	conjuncts := strings.Count(sel.Where.String(), " AND ")
	if conjuncts != 2 {
		t.Errorf("where: %s", sel.Where)
	}
}

func TestParseBetweenAndIn(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b IN (1, 2, 3) AND c NOT IN (4) AND d NOT BETWEEN 5 AND 6")
	sel := s.(*Select)
	str := sel.Where.String()
	if !strings.Contains(str, "(a >= 1)") || !strings.Contains(str, "(a <= 10)") {
		t.Errorf("between desugar: %s", str)
	}
	if !strings.Contains(str, "IN (1, 2, 3)") {
		t.Errorf("in list: %s", str)
	}
	if !strings.Contains(str, "(NOT (c IN (4)))") {
		t.Errorf("not in: %s", str)
	}
}

func TestParseIsNull(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL")
	sel := s.(*Select)
	str := sel.Where.String()
	if !strings.Contains(str, "(a IS NULL)") || !strings.Contains(str, "(b IS NOT NULL)") {
		t.Errorf("is null: %s", str)
	}
}

func TestParsePrecedence(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a + 2 * 3 = 7 OR NOT b < 1 AND c = 2")
	sel := s.(*Select)
	want := "(((a + (2 * 3)) = 7) OR ((NOT (b < 1)) AND (c = 2)))"
	if sel.Where.String() != want {
		t.Errorf("precedence:\n got %s\nwant %s", sel.Where, want)
	}
}

func TestParseNegativeLiterals(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a = -5 AND b = -2.5")
	sel := s.(*Select)
	if !strings.Contains(sel.Where.String(), "(a = -5)") {
		t.Errorf("negative int: %s", sel.Where)
	}
}

// TestParseMinInt64Literal: the smallest INT is a literal, though its
// magnitude is past the largest one.
func TestParseMinInt64Literal(t *testing.T) {
	sel := mustParse(t, "SELECT * FROM t WHERE a = -9223372036854775808").(*Select)
	if got := sel.Where.String(); got != "(a = -9223372036854775808)" {
		t.Errorf("MinInt64: %s", got)
	}
	if _, err := Parse("SELECT * FROM t WHERE a = 9223372036854775808"); err == nil {
		t.Error("2^63 is past the INT range and must not parse")
	}
}

// TestParseCastAsFloat: CAST(x AS FLOAT) widens numbers, dates and
// booleans to FLOAT as SUM and AVG do; a string or NULL is not a number.
func TestParseCastAsFloat(t *testing.T) {
	sel := mustParse(t, "SELECT CAST(a + 1 AS FLOAT) FROM t").(*Select)
	if got := Print(sel); got != "SELECT CAST((a + 1) AS FLOAT) FROM t" {
		t.Errorf("print: %s", got)
	}
	for _, c := range []struct {
		in   types.Datum
		want string
	}{
		{types.NewInt(9007199254740993), "9.007199254740992e+15"},
		{types.NewDate(3), "3"},
		{types.NewBool(true), "1"},
		{types.NewFloat(-2.5), "-2.5"},
		{types.Null, "NULL"},
	} {
		got, err := expr.NewUnary(expr.OpFloat, expr.NewConst(c.in)).Eval(nil)
		if err != nil || got.String() != c.want || (!got.IsNull() && got.Kind() != types.KindFloat) {
			t.Errorf("CAST(%v AS FLOAT) = %v, %v; want FLOAT %s", c.in, got, err, c.want)
		}
	}
	if _, err := expr.NewUnary(expr.OpFloat, expr.NewConst(types.NewString("1"))).Eval(nil); err == nil {
		t.Error("CAST of a string must fail")
	}
	for _, bad := range []string{"SELECT CAST(a AS INT) FROM t", "SELECT CAST(a) FROM t"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%s: want a parse error", bad)
		}
	}
}

func TestParseExplainAnalyze(t *testing.T) {
	s := mustParse(t, "EXPLAIN SELECT * FROM t")
	if _, ok := s.(*Explain).Stmt.(*Select); !ok {
		t.Error("explain wraps select")
	}
	s = mustParse(t, "ANALYZE TABLE t")
	if s.(*Analyze).Table != "t" {
		t.Error("analyze")
	}
	s = mustParse(t, "EXPLAIN ANALYZE SELECT * FROM t")
	ex := s.(*Explain)
	if !ex.Analyze {
		t.Error("EXPLAIN ANALYZE should set Analyze")
	}
	if _, ok := ex.Stmt.(*Select); !ok {
		t.Error("explain analyze wraps select")
	}
	if got := Print(ex); got != "EXPLAIN ANALYZE SELECT * FROM t" {
		t.Errorf("round trip: %q", got)
	}
	// EXPLAIN ANALYZE <ident> still explains the ANALYZE statement.
	s = mustParse(t, "EXPLAIN ANALYZE t")
	ex = s.(*Explain)
	if ex.Analyze {
		t.Error("EXPLAIN of ANALYZE statement must not set Analyze")
	}
	if _, ok := ex.Stmt.(*Analyze); !ok {
		t.Error("explain wraps analyze stmt")
	}
}

func TestParseAlterAdd(t *testing.T) {
	s := mustParse(t, "ALTER TABLE t ADD CONSTRAINT c CHECK (a > 0) SOFT")
	at := s.(*AlterTableAdd)
	if at.Table != "t" || at.Constraint.Mode != catalog.ModeSoftAbsolute {
		t.Errorf("alter: %+v", at)
	}
}

func TestParseUnionAllLimitPlacement(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a = 1 UNION ALL SELECT a FROM u")
	sel := s.(*Select)
	if sel.UnionAll == nil || sel.UnionAll.From[0].Table != "u" {
		t.Errorf("union: %+v", sel)
	}
}

func TestParseAllScript(t *testing.T) {
	stmts, err := ParseAll(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1);
		SELECT * FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Errorf("script: %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"CREATE TABLE (a INT)",
		"CREATE TABLE t (a BADTYPE)",
		"INSERT INTO t VALUES 1",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t UNION SELECT * FROM u", // only UNION ALL
		"CREATE SUMMARY TABLE s AS SELECT a FROM t",
		"ALTER TABLE t DROP COLUMN a",
		"SELECT * FROM t WHERE a = 'x' extra garbage ;;",
		"CREATE TABLE t (a INT, CONSTRAINT c CHECK (a > 0) SOFT STATISTICAL CONFIDENCE 2)",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParseQualifiedStar(t *testing.T) {
	s := mustParse(t, "SELECT p.*, q.a FROM p, q")
	sel := s.(*Select)
	if !sel.Items[0].Star || sel.Items[0].StarQualifier != "p" {
		t.Errorf("qualified star: %+v", sel.Items[0])
	}
}

func TestParsePaperLateShipmentQuery(t *testing.T) {
	// The §4.4 rewrite target parses as written in the paper (modulo date
	// syntax).
	s := mustParse(t, `
		(SELECT * FROM purchase
		 WHERE ship_date = DATE '1999-12-15'
		   AND order_date >= DATE '1999-12-15' - 21)`)
	_ = s
}

func TestParseParenthesizedSelect(t *testing.T) {
	// A leading parenthesis around a full select.
	s, err := Parse("(SELECT a FROM t)")
	if err != nil {
		t.Fatalf("parenthesized select: %v", err)
	}
	if _, ok := s.(*Select); !ok {
		t.Fatalf("got %T", s)
	}
}

func TestParseShowConstraintsEconomy(t *testing.T) {
	s := mustParse(t, "SHOW CONSTRAINTS ECONOMY")
	if _, ok := s.(*Show); !ok {
		t.Fatalf("parsed %T, want *Show", s)
	}
	printed := Print(s)
	if printed != "SHOW CONSTRAINTS ECONOMY" {
		t.Errorf("Print(*Show) = %q", printed)
	}
	if _, ok := mustParse(t, printed).(*Show); !ok {
		t.Error("printed form did not parse back to *Show")
	}
	for _, bad := range []string{"SHOW", "SHOW CONSTRAINTS", "SHOW ECONOMY"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}
