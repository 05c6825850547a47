package sql

import (
	"fmt"
	"strconv"
	"strings"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/types"
)

// Print renders a parsed statement back to SQL that this package's parser
// accepts. The printer is the parser's inverse up to a fixed point: for any
// statement s produced by Parse, Parse(Print(s)) succeeds and prints to the
// same text. FuzzParser enforces that property; keep the two in sync when
// extending the grammar.
func Print(st Statement) string {
	var b strings.Builder
	printStmt(&b, st)
	return b.String()
}

func printStmt(b *strings.Builder, st Statement) {
	switch s := st.(type) {
	case *Select:
		printSelect(b, s)
	case *Explain:
		b.WriteString("EXPLAIN ")
		if s.Analyze {
			b.WriteString("ANALYZE ")
		}
		printStmt(b, s.Stmt)
	case *Analyze:
		fmt.Fprintf(b, "ANALYZE %s", s.Table)
	case *Begin:
		b.WriteString("BEGIN")
	case *Commit:
		b.WriteString("COMMIT")
	case *Rollback:
		b.WriteString("ROLLBACK")
	case *Show:
		if s.Shards {
			b.WriteString("SHOW SHARDS")
		} else {
			b.WriteString("SHOW CONSTRAINTS ECONOMY")
		}
	case *CreateTable:
		printCreateTable(b, s)
	case *CreateIndex:
		b.WriteString("CREATE ")
		if s.Unique {
			b.WriteString("UNIQUE ")
		}
		fmt.Fprintf(b, "INDEX %s ON %s (%s)", s.Name, s.Table, strings.Join(s.Columns, ", "))
	case *CreateView:
		fmt.Fprintf(b, "CREATE VIEW %s AS ", s.Name)
		printSelect(b, s.Query)
	case *CreateSummary:
		b.WriteString("CREATE ")
		if s.Informational {
			b.WriteString("INFORMATIONAL ")
		}
		fmt.Fprintf(b, "SUMMARY TABLE %s AS (SELECT * FROM %s", s.Name, s.Base)
		if s.Where != nil {
			b.WriteString(" WHERE ")
			printExpr(b, s.Where)
		}
		b.WriteString(")")
	case *AlterTableAdd:
		fmt.Fprintf(b, "ALTER TABLE %s ADD ", s.Table)
		printConstraintDef(b, s.Constraint)
	case *DropTable:
		fmt.Fprintf(b, "DROP TABLE %s", s.Name)
	case *Insert:
		fmt.Fprintf(b, "INSERT INTO %s", s.Table)
		if len(s.Columns) > 0 {
			fmt.Fprintf(b, " (%s)", strings.Join(s.Columns, ", "))
		}
		b.WriteString(" VALUES ")
		for ri, row := range s.Rows {
			if ri > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			for i, e := range row {
				if i > 0 {
					b.WriteString(", ")
				}
				printExpr(b, e)
			}
			b.WriteString(")")
		}
	case *Update:
		fmt.Fprintf(b, "UPDATE %s SET ", s.Table)
		for i, sc := range s.Set {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%s = ", sc.Column)
			printExpr(b, sc.Value)
		}
		if s.Where != nil {
			b.WriteString(" WHERE ")
			printExpr(b, s.Where)
		}
	case *Delete:
		fmt.Fprintf(b, "DELETE FROM %s", s.Table)
		if s.Where != nil {
			b.WriteString(" WHERE ")
			printExpr(b, s.Where)
		}
	default:
		fmt.Fprintf(b, "/* unprintable %T */", st)
	}
}

func printCreateTable(b *strings.Builder, ct *CreateTable) {
	fmt.Fprintf(b, "CREATE TABLE %s (", ct.Name)
	for i, col := range ct.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s %s", col.Name, typeName(col.Type))
		// PRIMARY KEY implies NOT NULL in the parser; printing both would
		// still parse but double the suffix on every round trip is noise.
		if col.PrimaryKey {
			b.WriteString(" PRIMARY KEY")
		} else if col.NotNull {
			b.WriteString(" NOT NULL")
		}
	}
	for i, cd := range ct.Constraints {
		if len(ct.Cols) > 0 || i > 0 {
			b.WriteString(", ")
		}
		printConstraintDef(b, cd)
	}
	b.WriteString(")")
}

func typeName(k types.Kind) string {
	switch k {
	case types.KindInt:
		return "INT"
	case types.KindFloat:
		return "FLOAT"
	case types.KindString:
		return "VARCHAR"
	case types.KindDate:
		return "DATE"
	case types.KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("/* kind %d */", k)
	}
}

func printConstraintDef(b *strings.Builder, cd ConstraintDef) {
	if cd.Name != "" {
		fmt.Fprintf(b, "CONSTRAINT %s ", cd.Name)
	}
	switch cd.Kind {
	case catalog.PrimaryKey:
		fmt.Fprintf(b, "PRIMARY KEY (%s)", strings.Join(cd.Columns, ", "))
	case catalog.Unique:
		fmt.Fprintf(b, "UNIQUE (%s)", strings.Join(cd.Columns, ", "))
	case catalog.ForeignKey:
		fmt.Fprintf(b, "FOREIGN KEY (%s) REFERENCES %s (%s)",
			strings.Join(cd.Columns, ", "), cd.RefTable, strings.Join(cd.RefColumns, ", "))
	case catalog.Check:
		b.WriteString("CHECK (")
		printExpr(b, cd.Check)
		b.WriteString(")")
	}
	switch cd.Mode {
	case catalog.ModeEnforced:
		// The parser's default; print nothing.
	case catalog.ModeInformational:
		b.WriteString(" INFORMATIONAL")
	case catalog.ModeSoftAbsolute:
		b.WriteString(" SOFT")
	case catalog.ModeSoftStatistical:
		b.WriteString(" SOFT STATISTICAL")
		if cd.Confidence > 0 && cd.Confidence != 1 {
			fmt.Fprintf(b, " CONFIDENCE %s", formatFloatLit(cd.Confidence))
		}
	}
}

func printSelect(b *strings.Builder, s *Select) {
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		printSelectItem(b, it)
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, ref := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ref.Table)
			if ref.Alias != "" && ref.Alias != ref.Table {
				fmt.Fprintf(b, " AS %s", ref.Alias)
			}
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		printExpr(b, s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, e)
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		printExpr(b, s.Having)
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, it := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, it.Expr)
			if it.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(b, " LIMIT %d", s.Limit)
	}
	if s.UnionAll != nil {
		b.WriteString(" UNION ALL ")
		printSelect(b, s.UnionAll)
	}
}

func printSelectItem(b *strings.Builder, it SelectItem) {
	switch {
	case it.Star && it.StarQualifier != "":
		fmt.Fprintf(b, "%s.*", it.StarQualifier)
		return
	case it.Star:
		b.WriteString("*")
		return
	case it.Agg == AggCountStar:
		b.WriteString("COUNT(*)")
	case it.Agg == AggCountDistinct:
		b.WriteString("COUNT(DISTINCT ")
		printExpr(b, it.Expr)
		b.WriteString(")")
	case it.Agg != AggNone:
		b.WriteString(it.Agg.String())
		b.WriteString("(")
		printExpr(b, it.Expr)
		b.WriteString(")")
	default:
		printExpr(b, it.Expr)
	}
	if it.Alias != "" {
		fmt.Fprintf(b, " AS %s", it.Alias)
	}
}

// printExpr renders an expression fully parenthesized, so operator
// precedence never changes on reparse. Expr.String is close but not
// parseable for every node (dates print bare, integral floats lose their
// decimal point), hence a dedicated walker.
func printExpr(b *strings.Builder, e expr.Expr) {
	switch x := e.(type) {
	case *expr.Const:
		b.WriteString(FormatConst(x.Value))
	case *expr.Column:
		if x.Qualifier != "" {
			fmt.Fprintf(b, "%s.%s", x.Qualifier, x.Name)
		} else {
			b.WriteString(x.Name)
		}
	case *expr.Binary:
		b.WriteString("(")
		printExpr(b, x.L)
		fmt.Fprintf(b, " %s ", x.Op)
		printExpr(b, x.R)
		b.WriteString(")")
	case *expr.Unary:
		switch x.Op {
		case expr.OpIsNull, expr.OpIsNotNull:
			b.WriteString("(")
			printExpr(b, x.X)
			fmt.Fprintf(b, " %s)", x.Op)
		case expr.OpFloat:
			b.WriteString("CAST(")
			printExpr(b, x.X)
			b.WriteString(" AS FLOAT)")
		default: // NOT, unary minus
			fmt.Fprintf(b, "(%s ", x.Op)
			printExpr(b, x.X)
			b.WriteString(")")
		}
	case *expr.InList:
		b.WriteString("(")
		printExpr(b, x.X)
		b.WriteString(" IN (")
		for i, v := range x.List {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, v)
		}
		b.WriteString("))")
	case *expr.Like:
		b.WriteString("(")
		printExpr(b, x.X)
		if x.Negate {
			b.WriteString(" NOT LIKE ")
		} else {
			b.WriteString(" LIKE ")
		}
		printExpr(b, x.Pattern)
		b.WriteString(")")
	default:
		// Fall back to the display form; may not reparse, which the fuzz
		// round-trip will surface if such a node ever reaches a statement.
		b.WriteString(e.String())
	}
}

// FormatConst renders a datum as a SQL literal that reparses to the same
// value.
func FormatConst(v types.Datum) string {
	switch v.Kind() {
	case types.KindDate:
		// Datum.String renders the bare date; the grammar needs the
		// DATE 'YYYY-MM-DD' literal form.
		return "DATE '" + v.String() + "'"
	case types.KindFloat:
		return formatFloatLit(v.Float())
	default:
		// Ints, strings (quoted/escaped), bools, NULL round-trip as is.
		return v.String()
	}
}

// formatFloatLit renders a float so it re-lexes as a float: %g drops the
// decimal point from integral values ("5"), which would reparse as an INT.
func formatFloatLit(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}
