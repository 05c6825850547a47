package sql

import (
	"strconv"
	"strings"

	"softdb/internal/expr"
	"softdb/internal/types"
)

// Literal is one literal of a SELECT text that Fingerprint lifted out of
// the statement's shape.
type Literal struct {
	Value types.Datum
	// Pos is the byte offset of the literal's number or string token (for
	// DATE '…' the string), which is how the parser recognizes it again.
	Pos int
	// Signed reports that the unary minus directly before the number is
	// part of the literal (Value is negative) and absent from the shape.
	Signed bool
}

// Fingerprint splits a SELECT text into its shape — the token stream with
// every predicate literal replaced by a placeholder naming its type class
// (?i ?f ?s ?d) — and the literals in order of appearance. It works on the
// token stream alone (no AST), so two texts with equal shape and equal
// literals are the same token stream and parse identically.
//
// Slotted: integer, float, string and DATE '…' literals, with a leading
// unary minus, inside WHERE, JOIN … ON and HAVING. Kept in the shape: the
// select list (literals there name output columns), GROUP BY and ORDER BY
// (ordinals), LIMIT counts, IN lists (their arity would otherwise have to
// be part of the shape), and NULL/TRUE/FALSE. ok is false for anything that
// is not a SELECT, does not lex, or holds a literal the parser would
// reject; such texts are keyed whole.
func Fingerprint(text string) (shape string, lits []Literal, ok bool) {
	sc := scanner{input: text}
	var b strings.Builder
	b.Grow(len(text) + 8)
	var (
		first      = true
		slotting   bool // inside WHERE / ON / HAVING
		depth      int  // open parentheses
		inList     = -1 // depth outside the IN list being skipped, -1: none
		sawIn      bool // previous token was the keyword IN
		operandEnd bool // previous token completed an operand: a following '-' is binary
		minus      bool // a unary '-' is held back: it belongs to the next number, or to the shape
		date       bool // previous token was the identifier DATE (held back like minus)
		dateText   string
	)
	flush := func() {
		if minus {
			b.WriteString("- ")
			minus = false
		}
		if date {
			// DATE not followed by a string is a column named date.
			b.WriteString(dateText)
			b.WriteByte(' ')
			date, operandEnd = false, true
		}
	}
	for {
		t, err := sc.next()
		if err != nil {
			return "", nil, false
		}
		if first {
			if !t.IsKeyword("SELECT") {
				return "", nil, false
			}
			first = false
		}
		slot := slotting && inList < 0
		wasIn := sawIn
		sawIn = false
		switch t.Kind {
		case TokEOF:
			flush()
			return b.String(), lits, true
		case TokNumber:
			if !slot {
				flush()
				b.WriteString(t.Text)
				b.WriteByte(' ')
				operandEnd = true
				continue
			}
			var v types.Datum
			if strings.ContainsAny(t.Text, ".eE") {
				f, err := strconv.ParseFloat(t.Text, 64)
				if err != nil {
					return "", nil, false
				}
				if minus {
					f = -f
				}
				v = types.NewFloat(f)
				b.WriteString("?f ")
			} else {
				n, err := strconv.ParseInt(t.Text, 10, 64)
				if err != nil {
					return "", nil, false
				}
				if minus {
					n = -n
				}
				v = types.NewInt(n)
				b.WriteString("?i ")
			}
			lits = append(lits, Literal{Value: v, Pos: t.Pos, Signed: minus})
			minus = false
			operandEnd = true
		case TokString:
			switch {
			case date:
				// DATE 'YYYY-MM-DD': one literal, slotted or not.
				d, err := types.ParseDate(t.Text)
				if err != nil {
					return "", nil, false
				}
				if slot {
					date = false
					flush()
					b.WriteString("?d ")
					lits = append(lits, Literal{Value: d, Pos: t.Pos})
				} else {
					flush()
					writeQuoted(&b, t.Text)
				}
			case slot:
				flush()
				b.WriteString("?s ")
				lits = append(lits, Literal{Value: types.NewString(t.Text), Pos: t.Pos})
			default:
				flush()
				writeQuoted(&b, t.Text)
			}
			operandEnd = true
		case TokOp:
			flush()
			switch t.Text {
			case "(":
				if wasIn && inList < 0 {
					inList = depth
				}
				depth++
			case ")":
				depth--
				if depth == inList {
					inList = -1
				}
			case "-":
				if slot && !operandEnd {
					minus = true
					continue
				}
			}
			b.WriteString(t.Text)
			b.WriteByte(' ')
			operandEnd = t.Text == ")"
		case TokIdent:
			flush()
			up := t.Upper()
			switch up {
			case "WHERE", "ON", "HAVING":
				slotting = true
			case "SELECT", "FROM", "GROUP", "ORDER", "LIMIT", "UNION", "JOIN", "INNER":
				slotting = false
			case "IN":
				sawIn = true
			case "DATE":
				date, dateText = true, t.Text
				operandEnd = false
				continue
			}
			b.WriteString(t.Text)
			b.WriteByte(' ')
			operandEnd = !reserved[up] || up == "NULL" || up == "TRUE" || up == "FALSE"
		}
	}
}

// writeQuoted writes s back as a single-quoted SQL string plus the token
// separator, so a literal kept in the shape can never read as a placeholder.
func writeQuoted(b *strings.Builder, s string) {
	b.WriteByte('\'')
	b.WriteString(strings.ReplaceAll(s, "'", "''"))
	b.WriteString("' ")
}

// ParseFingerprinted parses a SELECT text Fingerprint accepted, tagging the
// constant born from lits[k] with expr.Origin{Slot: k+1}. tagged is false —
// and the statement carries no tags — when the parser did not turn every
// literal into exactly one constant of the literal's value: the fingerprint
// misjudged a context, and the caller must key the text whole.
func ParseFingerprinted(text string, lits []Literal) (sel *Select, tagged bool, err error) {
	p, err := NewParser(text)
	if err != nil {
		return nil, false, err
	}
	p.lits = lits
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, false, err
	}
	p.eatOp(";")
	if !p.atEOF() {
		return nil, false, p.errorf("unexpected input after statement: %q", p.peek().Text)
	}
	sel, isSel := stmt.(*Select)
	if !isSel {
		return nil, false, p.errorf("not a SELECT")
	}
	if literalsTagged(sel, lits) {
		return sel, true, nil
	}
	p.pos, p.lits = 0, nil
	stmt, err = p.parseStatement()
	if err != nil {
		return nil, false, err
	}
	return stmt.(*Select), false, nil
}

// literalsTagged reports whether the constants tagged in sel are exactly
// lits, each once and with the literal's value.
func literalsTagged(sel *Select, lits []Literal) bool {
	seen := make([]bool, len(lits))
	ok := true
	visit := func(e expr.Expr) {
		expr.Walk(e, func(n expr.Expr) bool {
			c, isConst := n.(*expr.Const)
			if !isConst || c.From.Slot == 0 {
				return true
			}
			k := c.From.Slot - 1
			if k >= len(lits) || seen[k] || c.Value.Kind() != lits[k].Value.Kind() || c.Value.Compare(lits[k].Value) != 0 {
				ok = false
				return true
			}
			seen[k] = true
			return true
		})
	}
	for s := sel; s != nil; s = s.UnionAll {
		for _, it := range s.Items {
			visit(it.Expr)
		}
		visit(s.Where)
		for _, g := range s.GroupBy {
			visit(g)
		}
		visit(s.Having)
		for _, o := range s.OrderBy {
			visit(o.Expr)
		}
	}
	for _, s := range seen {
		ok = ok && s
	}
	return ok
}

// BindLiterals returns a copy of a select parsed by ParseFingerprinted with
// every tagged constant recomputed for the literal vector vals — the
// statement the same shape spells with those literals, without parsing it.
func BindLiterals(sel *Select, vals []types.Datum) *Select {
	if sel == nil {
		return nil
	}
	c := *sel
	c.Items = append([]SelectItem(nil), sel.Items...)
	for i := range c.Items {
		c.Items[i].Expr = expr.Bind(c.Items[i].Expr, vals)
	}
	c.Where = expr.Bind(sel.Where, vals)
	c.GroupBy = expr.BindAll(sel.GroupBy, vals)
	c.Having = expr.Bind(sel.Having, vals)
	c.OrderBy = append([]OrderItem(nil), sel.OrderBy...)
	for i := range c.OrderBy {
		c.OrderBy[i].Expr = expr.Bind(c.OrderBy[i].Expr, vals)
	}
	c.UnionAll = BindLiterals(sel.UnionAll, vals)
	return &c
}
