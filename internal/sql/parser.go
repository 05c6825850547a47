package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/types"
)

// reserved words may not be used as bare column references, which lets the
// expression grammar stop cleanly at clause boundaries.
var reserved = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "HAVING": true, "LIMIT": true, "UNION": true, "ALL": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "IS": true,
	"BETWEEN": true, "AS": true, "ON": true, "JOIN": true, "INNER": true,
	"LIKE": true,
	"ASC":  true, "DESC": true, "SET": true, "VALUES": true, "NULL": true,
	"TRUE": true, "FALSE": true, "DISTINCT": true, "CREATE": true,
	"TABLE": true, "INSERT": true, "UPDATE": true, "DELETE": true,
	"DROP": true, "INTO": true,
}

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks []Token
	pos  int
	src  string
	// lits, when set (ParseFingerprinted), are the literals Fingerprint
	// lifted out of src: the constant built from lits[k]'s token is tagged
	// with slot k+1.
	lits []Literal
}

// literalOrigin returns the slot tag for the literal whose number or string
// token starts at pos; the zero Origin when pos is not a lifted literal.
func (p *Parser) literalOrigin(pos int) expr.Origin {
	for k, l := range p.lits {
		if l.Pos == pos {
			return expr.Origin{Slot: k + 1}
		}
	}
	return expr.Origin{}
}

// NewParser tokenizes the input and returns a parser.
func NewParser(input string) (*Parser, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks, src: input}, nil
}

// Parse parses a single statement from the input (a trailing semicolon is
// allowed).
func Parse(input string) (Statement, error) {
	p, err := NewParser(input)
	if err != nil {
		return nil, err
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.eatOp(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected input after statement: %q", p.peek().Text)
	}
	return stmt, nil
}

// ParseAll parses a semicolon-separated script.
func ParseAll(input string) ([]Statement, error) {
	p, err := NewParser(input)
	if err != nil {
		return nil, err
	}
	var stmts []Statement
	for {
		for p.eatOp(";") {
		}
		if p.atEOF() {
			return stmts, nil
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.eatOp(";") && !p.atEOF() {
			return nil, p.errorf("expected ';' between statements, got %q", p.peek().Text)
		}
	}
}

// --- token plumbing ---

func (p *Parser) peek() Token { return p.toks[p.pos] }

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (at offset %d)", fmt.Sprintf(format, args...), p.peek().Pos)
}

// eatKeyword consumes the keyword if present.
func (p *Parser) eatKeyword(kw string) bool {
	if p.peek().IsKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

// expectKeyword consumes the keyword or errors.
func (p *Parser) expectKeyword(kw string) error {
	if !p.eatKeyword(kw) {
		return p.errorf("expected %s, got %q", kw, p.peek().Text)
	}
	return nil
}

// eatOp consumes the operator if present.
func (p *Parser) eatOp(op string) bool {
	t := p.peek()
	if t.Kind == TokOp && t.Text == op {
		p.pos++
		return true
	}
	return false
}

// expectOp consumes the operator or errors.
func (p *Parser) expectOp(op string) error {
	if !p.eatOp(op) {
		return p.errorf("expected %q, got %q", op, p.peek().Text)
	}
	return nil
}

// ident consumes an identifier (rejecting reserved words) and returns it.
func (p *Parser) ident() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errorf("expected identifier, got %q", t.Text)
	}
	if reserved[t.Upper()] {
		return "", p.errorf("reserved word %q cannot be an identifier", t.Text)
	}
	p.pos++
	return t.Text, nil
}

// --- statements ---

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind == TokOp && t.Text == "(" {
		return p.parseSelectStmt()
	}
	if t.Kind != TokIdent {
		return nil, p.errorf("expected a statement, got %q", t.Text)
	}
	switch t.Upper() {
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "ALTER":
		return p.parseAlter()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "SELECT":
		return p.parseSelectStmt()
	case "EXPLAIN":
		p.pos++
		// EXPLAIN ANALYZE SELECT ... runs the query; bare EXPLAIN ANALYZE t
		// still explains the ANALYZE statement, so only a following SELECT
		// selects the analyze form.
		analyze := p.peek().IsKeyword("ANALYZE") && p.toks[p.pos+1].IsKeyword("SELECT")
		if analyze {
			p.pos++
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner, Analyze: analyze}, nil
	case "ANALYZE":
		p.pos++
		p.eatKeyword("TABLE")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Analyze{Table: name}, nil
	case "BEGIN":
		p.pos++
		p.eatKeyword("TRANSACTION")
		return &Begin{}, nil
	case "COMMIT":
		p.pos++
		return &Commit{}, nil
	case "ROLLBACK":
		p.pos++
		return &Rollback{}, nil
	case "SHOW":
		p.pos++
		if p.eatKeyword("SHARDS") {
			return &Show{Shards: true}, nil
		}
		if err := p.expectKeyword("CONSTRAINTS"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ECONOMY"); err != nil {
			return nil, err
		}
		return &Show{}, nil
	default:
		return nil, p.errorf("unknown statement %q", t.Text)
	}
}

func (p *Parser) parseCreate() (Statement, error) {
	p.pos++ // CREATE
	switch {
	case p.eatKeyword("TABLE"):
		return p.parseCreateTable()
	case p.eatKeyword("UNIQUE"):
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex(true)
	case p.eatKeyword("INDEX"):
		return p.parseCreateIndex(false)
	case p.eatKeyword("VIEW"):
		return p.parseCreateView()
	case p.eatKeyword("INFORMATIONAL"):
		if err := p.expectKeyword("SUMMARY"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		return p.parseCreateSummary(true)
	case p.eatKeyword("SUMMARY"):
		if err := p.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		return p.parseCreateSummary(false)
	default:
		return nil, p.errorf("expected TABLE, INDEX, VIEW or SUMMARY TABLE after CREATE")
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		t := p.peek()
		switch t.Upper() {
		case "CONSTRAINT", "PRIMARY", "UNIQUE", "FOREIGN", "CHECK":
			cd, err := p.parseConstraintDef()
			if err != nil {
				return nil, err
			}
			ct.Constraints = append(ct.Constraints, *cd)
		default:
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			ct.Cols = append(ct.Cols, *col)
		}
		if p.eatOp(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return ct, nil
	}
}

func (p *Parser) parseColumnDef() (*ColumnDef, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	kind, err := p.parseType()
	if err != nil {
		return nil, err
	}
	cd := &ColumnDef{Name: name, Type: kind}
	for {
		switch {
		case p.eatKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			cd.NotNull = true
		case p.eatKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			cd.PrimaryKey = true
			cd.NotNull = true
		default:
			return cd, nil
		}
	}
}

func (p *Parser) parseType() (types.Kind, error) {
	t := p.next()
	if t.Kind != TokIdent {
		return 0, p.errorf("expected a type name, got %q", t.Text)
	}
	var kind types.Kind
	switch t.Upper() {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		kind = types.KindInt
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		kind = types.KindFloat
	case "VARCHAR", "CHAR", "STRING", "TEXT":
		kind = types.KindString
	case "DATE":
		kind = types.KindDate
	case "BOOL", "BOOLEAN":
		kind = types.KindBool
	default:
		return 0, p.errorf("unknown type %q", t.Text)
	}
	// Optional length like VARCHAR(30); accepted and ignored.
	if p.eatOp("(") {
		if p.peek().Kind != TokNumber {
			return 0, p.errorf("expected a length, got %q", p.peek().Text)
		}
		p.pos++
		if err := p.expectOp(")"); err != nil {
			return 0, err
		}
	}
	return kind, nil
}

func (p *Parser) parseConstraintDef() (*ConstraintDef, error) {
	cd := &ConstraintDef{Confidence: 1}
	if p.eatKeyword("CONSTRAINT") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		cd.Name = name
	}
	switch {
	case p.eatKeyword("PRIMARY"):
		if err := p.expectKeyword("KEY"); err != nil {
			return nil, err
		}
		cd.Kind = catalog.PrimaryKey
		cols, err := p.parseColumnList()
		if err != nil {
			return nil, err
		}
		cd.Columns = cols
	case p.eatKeyword("UNIQUE"):
		cd.Kind = catalog.Unique
		cols, err := p.parseColumnList()
		if err != nil {
			return nil, err
		}
		cd.Columns = cols
	case p.eatKeyword("FOREIGN"):
		if err := p.expectKeyword("KEY"); err != nil {
			return nil, err
		}
		cd.Kind = catalog.ForeignKey
		cols, err := p.parseColumnList()
		if err != nil {
			return nil, err
		}
		cd.Columns = cols
		if err := p.expectKeyword("REFERENCES"); err != nil {
			return nil, err
		}
		ref, err := p.ident()
		if err != nil {
			return nil, err
		}
		cd.RefTable = ref
		refCols, err := p.parseColumnList()
		if err != nil {
			return nil, err
		}
		cd.RefColumns = refCols
	case p.eatKeyword("CHECK"):
		cd.Kind = catalog.Check
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		cd.Check = e
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	default:
		return nil, p.errorf("expected a constraint definition, got %q", p.peek().Text)
	}
	mode, conf, err := p.parseConstraintMode()
	if err != nil {
		return nil, err
	}
	cd.Mode = mode
	if conf > 0 {
		cd.Confidence = conf
	}
	return cd, nil
}

// parseConstraintMode parses the optional enforcement-mode suffix.
func (p *Parser) parseConstraintMode() (catalog.Mode, float64, error) {
	switch {
	case p.eatKeyword("ENFORCED"):
		return catalog.ModeEnforced, 0, nil
	case p.eatKeyword("INFORMATIONAL"):
		return catalog.ModeInformational, 0, nil
	case p.peek().IsKeyword("NOT") && p.toks[p.pos+1].IsKeyword("ENFORCED"):
		p.pos += 2
		return catalog.ModeInformational, 0, nil
	case p.eatKeyword("SOFT"):
		if p.eatKeyword("STATISTICAL") {
			conf := 0.0
			if p.eatKeyword("CONFIDENCE") {
				t := p.next()
				if t.Kind != TokNumber {
					return 0, 0, p.errorf("expected a confidence value, got %q", t.Text)
				}
				f, err := strconv.ParseFloat(t.Text, 64)
				if err != nil || f <= 0 || f > 1 {
					return 0, 0, p.errorf("bad confidence %q (want a fraction in (0,1])", t.Text)
				}
				conf = f
			}
			return catalog.ModeSoftStatistical, conf, nil
		}
		return catalog.ModeSoftAbsolute, 0, nil
	default:
		return catalog.ModeEnforced, 0, nil
	}
}

func (p *Parser) parseColumnList() ([]string, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if p.eatOp(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return cols, nil
	}
}

func (p *Parser) parseCreateIndex(unique bool) (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	cols, err := p.parseColumnList()
	if err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Columns: cols, Unique: unique}, nil
}

func (p *Parser) parseCreateView() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelectStmt()
	if err != nil {
		return nil, err
	}
	return &CreateView{Name: name, Query: sel}, nil
}

// parseSelectStmt parses a select that may be wrapped in parentheses and
// may chain UNION ALL arms (each arm may itself be parenthesized), the
// shape the paper's §4.4 exception-union rewrite uses.
func (p *Parser) parseSelectStmt() (*Select, error) {
	var sel *Select
	if p.eatOp("(") {
		inner, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		sel = inner
	} else {
		inner, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		sel = inner
	}
	if p.eatKeyword("UNION") {
		if err := p.expectKeyword("ALL"); err != nil {
			return nil, p.errorf("only UNION ALL is supported")
		}
		arm, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		// Append to the tail of the existing chain.
		tail := sel
		for tail.UnionAll != nil {
			tail = tail.UnionAll
		}
		tail.UnionAll = arm
	}
	return sel, nil
}

// parseCreateSummary parses the restricted AST form the paper and DB2 v7
// support: a single-table SELECT * with an optional WHERE.
func (p *Parser) parseCreateSummary(informational bool) (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	wrapped := p.eatOp("(")
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if err := p.expectOp("*"); err != nil {
		return nil, p.errorf("summary tables support only SELECT *")
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	base, err := p.ident()
	if err != nil {
		return nil, err
	}
	var where expr.Expr
	if p.eatKeyword("WHERE") {
		where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if wrapped {
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	return &CreateSummary{Name: name, Informational: informational, Base: base, Where: where}, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.pos++ // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

func (p *Parser) parseAlter() (Statement, error) {
	p.pos++ // ALTER
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ADD"); err != nil {
		return nil, err
	}
	cd, err := p.parseConstraintDef()
	if err != nil {
		return nil, err
	}
	return &AlterTableAdd{Table: table, Constraint: *cd}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.pos++ // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.peek().Kind == TokOp && p.peek().Text == "(" {
		cols, err := p.parseColumnList()
		if err != nil {
			return nil, err
		}
		ins.Columns = cols
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.eatOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.eatOp(",") {
			return ins, nil
		}
	}
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.pos++ // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	upd := &Update{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, SetClause{Column: col, Value: val})
		if !p.eatOp(",") {
			break
		}
	}
	if p.eatKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.pos++ // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.eatKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

// --- SELECT ---

var aggNames = map[string]AggKind{
	"COUNT": AggCount, "SUM": AggSum, "MIN": AggMin, "MAX": AggMax, "AVG": AggAvg,
}

func (p *Parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	sel.Distinct = p.eatKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, *item)
		if !p.eatOp(",") {
			break
		}
	}
	if p.eatKeyword("FROM") {
		if err := p.parseFrom(sel); err != nil {
			return nil, err
		}
	}
	if p.eatKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = expr.And(sel.Where, w)
	}
	if p.eatKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.eatOp(",") {
				break
			}
		}
	}
	if p.eatKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if len(sel.GroupBy) == 0 {
			return nil, p.errorf("HAVING requires GROUP BY")
		}
		sel.Having = h
	}
	if p.eatKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.eatKeyword("DESC") {
				item.Desc = true
			} else {
				p.eatKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.eatOp(",") {
				break
			}
		}
	}
	if p.eatKeyword("LIMIT") {
		t := p.next()
		if t.Kind != TokNumber {
			return nil, p.errorf("expected a LIMIT count, got %q", t.Text)
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errorf("bad LIMIT %q", t.Text)
		}
		sel.Limit = n
	}
	if p.eatKeyword("UNION") {
		if err := p.expectKeyword("ALL"); err != nil {
			return nil, p.errorf("only UNION ALL is supported")
		}
		arm, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		sel.UnionAll = arm
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (*SelectItem, error) {
	// Bare *.
	if p.eatOp("*") {
		return &SelectItem{Star: true}, nil
	}
	t := p.peek()
	// t.* form.
	if t.Kind == TokIdent && !reserved[t.Upper()] &&
		p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TokOp && p.toks[p.pos+2].Text == "*" {
		p.pos += 3
		return &SelectItem{Star: true, StarQualifier: t.Text}, nil
	}
	// Aggregate call.
	if t.Kind == TokIdent {
		if agg, ok := aggNames[t.Upper()]; ok &&
			p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Text == "(" {
			p.pos += 2
			item := &SelectItem{Agg: agg}
			if agg == AggCount && p.eatOp("*") {
				item.Agg = AggCountStar
			} else if agg == AggCount && p.eatKeyword("DISTINCT") {
				item.Agg = AggCountDistinct
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				item.Expr = arg
			} else {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				item.Expr = arg
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			if err := p.parseAlias(&item.Alias); err != nil {
				return nil, err
			}
			return item, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	item := &SelectItem{Expr: e}
	if err := p.parseAlias(&item.Alias); err != nil {
		return nil, err
	}
	return item, nil
}

func (p *Parser) parseAlias(out *string) error {
	if p.eatKeyword("AS") {
		a, err := p.ident()
		if err != nil {
			return err
		}
		*out = a
		return nil
	}
	t := p.peek()
	if t.Kind == TokIdent && !reserved[t.Upper()] {
		p.pos++
		*out = t.Text
	}
	return nil
}

func (p *Parser) parseFrom(sel *Select) error {
	ref, err := p.parseTableRef()
	if err != nil {
		return err
	}
	sel.From = append(sel.From, *ref)
	for {
		switch {
		case p.eatOp(","):
			r, err := p.parseTableRef()
			if err != nil {
				return err
			}
			sel.From = append(sel.From, *r)
		case p.peek().IsKeyword("INNER") || p.peek().IsKeyword("JOIN"):
			p.eatKeyword("INNER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return err
			}
			r, err := p.parseTableRef()
			if err != nil {
				return err
			}
			sel.From = append(sel.From, *r)
			if err := p.expectKeyword("ON"); err != nil {
				return err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return err
			}
			sel.Where = expr.And(sel.Where, cond)
		default:
			return nil
		}
	}
}

func (p *Parser) parseTableRef() (*TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ref := &TableRef{Table: name}
	if err := p.parseAlias(&ref.Alias); err != nil {
		return nil, err
	}
	return ref, nil
}

// --- expressions ---

func (p *Parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = expr.NewBinary(expr.OpOr, l, r)
	}
	return l, nil
}

func (p *Parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = expr.NewBinary(expr.OpAnd, l, r)
	}
	return l, nil
}

func (p *Parser) parseNot() (expr.Expr, error) {
	if p.eatKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.NewUnary(expr.OpNot, x), nil
	}
	return p.parseComparison()
}

var compOps = map[string]expr.Op{
	"=": expr.OpEq, "<>": expr.OpNe, "<": expr.OpLt,
	"<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *Parser) parseComparison() (expr.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == TokOp {
		if op, ok := compOps[t.Text]; ok {
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return expr.NewBinary(op, l, r), nil
		}
	}
	negated := false
	if p.peek().IsKeyword("NOT") &&
		(p.toks[p.pos+1].IsKeyword("BETWEEN") || p.toks[p.pos+1].IsKeyword("IN") || p.toks[p.pos+1].IsKeyword("LIKE")) {
		p.pos++
		negated = true
	}
	switch {
	case p.eatKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		e := expr.And(
			expr.NewBinary(expr.OpGe, l, lo),
			expr.NewBinary(expr.OpLe, l, hi),
		)
		if negated {
			return expr.NewUnary(expr.OpNot, e), nil
		}
		return e, nil
	case p.eatKeyword("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.eatOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		var e expr.Expr = expr.NewInList(l, list)
		if negated {
			e = expr.NewUnary(expr.OpNot, e)
		}
		return e, nil
	case p.eatKeyword("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return expr.NewLike(l, pat, negated), nil
	case p.eatKeyword("IS"):
		neg := p.eatKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		if neg {
			return expr.NewUnary(expr.OpIsNotNull, l), nil
		}
		return expr.NewUnary(expr.OpIsNull, l), nil
	}
	return l, nil
}

func (p *Parser) parseAdditive() (expr.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.eatOp("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = expr.NewBinary(expr.OpAdd, l, r)
		case p.eatOp("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = expr.NewBinary(expr.OpSub, l, r)
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseMultiplicative() (expr.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.eatOp("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = expr.NewBinary(expr.OpMul, l, r)
		case p.eatOp("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = expr.NewBinary(expr.OpDiv, l, r)
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseUnary() (expr.Expr, error) {
	if p.eatOp("-") {
		operand := p.peek().Pos
		if t := p.peek(); t.Kind == TokNumber && t.Text == "9223372036854775808" {
			// The smallest INT: its magnitude is past the largest literal.
			p.pos++
			return expr.NewConst(types.NewInt(math.MinInt64)), nil
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative literals immediately.
		if c, ok := x.(*expr.Const); ok && c.Value.IsNumeric() {
			neg := expr.NewConst(types.NewInt(0))
			if c.Value.Kind() == types.KindFloat {
				neg.Value = types.NewFloat(-c.Value.Float())
			} else {
				neg.Value = types.NewInt(-c.Value.Int())
			}
			// The fold keeps the literal's tag only when this minus is the
			// one Fingerprint made part of the literal.
			if k := c.From.Slot; k > 0 && p.lits[k-1].Signed && p.lits[k-1].Pos == operand {
				neg.From = c.From
			}
			return neg, nil
		}
		return expr.NewUnary(expr.OpNeg, x), nil
	}
	return p.parsePrimary()
}

// parseCast parses CAST(x AS FLOAT), the one cast: it widens a number, date
// or boolean to FLOAT exactly as SUM and AVG do.
func (p *Parser) parseCast() (expr.Expr, error) {
	p.pos += 2 // CAST (
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	if !p.eatKeyword("FLOAT") {
		return nil, p.errorf("CAST supports only AS FLOAT, got %q", p.peek().Text)
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return expr.NewUnary(expr.OpFloat, x), nil
}

func (p *Parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.pos++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad numeric literal %q", t.Text)
			}
			return &expr.Const{Value: types.NewFloat(f), From: p.literalOrigin(t.Pos)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", t.Text)
		}
		return &expr.Const{Value: types.NewInt(n), From: p.literalOrigin(t.Pos)}, nil
	case TokString:
		p.pos++
		return &expr.Const{Value: types.NewString(t.Text), From: p.literalOrigin(t.Pos)}, nil
	case TokOp:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case TokIdent:
		switch t.Upper() {
		case "NULL":
			p.pos++
			return expr.NewConst(types.Null), nil
		case "TRUE":
			p.pos++
			return expr.NewConst(types.NewBool(true)), nil
		case "FALSE":
			p.pos++
			return expr.NewConst(types.NewBool(false)), nil
		case "DATE":
			// DATE 'YYYY-MM-DD' literal.
			if p.toks[p.pos+1].Kind == TokString {
				p.pos++
				s := p.next()
				d, err := types.ParseDate(s.Text)
				if err != nil {
					return nil, p.errorf("bad date literal %q", s.Text)
				}
				return &expr.Const{Value: d, From: p.literalOrigin(s.Pos)}, nil
			}
		case "CAST":
			if next := p.toks[p.pos+1]; next.Kind == TokOp && next.Text == "(" {
				return p.parseCast()
			}
		}
		if reserved[t.Upper()] {
			return nil, p.errorf("unexpected keyword %q in expression", t.Text)
		}
		p.pos++
		// Qualified column?
		if p.eatOp(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return expr.NewColumn(t.Text, col, -1, types.KindNull), nil
		}
		return expr.NewColumn("", t.Text, -1, types.KindNull), nil
	}
	return nil, p.errorf("unexpected token %q in expression", t.Text)
}
