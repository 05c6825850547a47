package sql

import (
	"os"
	"strings"
	"testing"
)

// fuzzSeeds returns seed statements: every statement in examples/demo.sql
// plus hand-picked inputs covering grammar corners the demo script misses.
func fuzzSeeds(tb testing.TB) []string {
	seeds := []string{
		"SELECT 1",
		"SELECT DISTINCT a, t.b AS x, COUNT(*) AS n, COUNT(DISTINCT c), AVG(d) FROM t, u AS v WHERE a IN (1, 2, NULL) GROUP BY a, t.b HAVING n > 1 ORDER BY a DESC, x LIMIT 7",
		"SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b NOT IN (3) OR NOT c IS NULL",
		"SELECT t.*, u.* FROM t INNER JOIN u ON t.a = u.b WHERE name LIKE 'a%' AND name NOT LIKE '_b''c'",
		"SELECT a FROM t WHERE d = DATE '1999-12-15' AND f > 1.5 AND f < 2e10 AND g = -3.25 UNION ALL SELECT b FROM u LIMIT 2",
		"SELECT -a + 2 * (b - 1) / 4 FROM t WHERE x = TRUE AND y = FALSE",
		"CREATE TABLE t (a INT PRIMARY KEY, b FLOAT NOT NULL, c VARCHAR(30), d DATE, e BOOLEAN, CONSTRAINT ck CHECK (a > 0) SOFT STATISTICAL CONFIDENCE 0.95, UNIQUE (b, c), FOREIGN KEY (a) REFERENCES u (k) INFORMATIONAL)",
		"CREATE UNIQUE INDEX ix ON t (a, b)",
		"CREATE VIEW v AS SELECT a FROM t UNION ALL (SELECT b FROM u)",
		"CREATE INFORMATIONAL SUMMARY TABLE s AS (SELECT * FROM t WHERE a = 1)",
		"ALTER TABLE t ADD CONSTRAINT fk FOREIGN KEY (a) REFERENCES u (k) NOT ENFORCED",
		"INSERT INTO t (a, b) VALUES (1, 'x''y'), (NULL, DATE '2000-01-01')",
		"UPDATE t SET a = a + 1, b = NULL WHERE c <> 2",
		"DELETE FROM t WHERE a IS NOT NULL",
		"EXPLAIN SELECT a FROM t WHERE b >= 1e-9",
		"EXPLAIN ANALYZE SELECT a FROM t WHERE b >= 1e-9",
		"DROP TABLE t",
		"ANALYZE t",
		"SELECT SUM(CAST((a * 2) AS FLOAT)), CAST(d AS FLOAT) FROM t WHERE a = -9223372036854775808",
	}
	script, err := os.ReadFile("../../examples/demo.sql")
	if err != nil {
		tb.Logf("demo.sql seeds unavailable: %v", err)
		return seeds
	}
	for _, stmt := range strings.Split(string(script), ";") {
		if strings.TrimSpace(stmt) != "" {
			seeds = append(seeds, stmt)
		}
	}
	return seeds
}

// roundTrip enforces the printer/parser contract on one input: if the
// input parses, its printed form must reparse and print to the same text.
// Returning an error marks a real bug; unparseable inputs are skipped.
func roundTrip(input string) (skip bool, err error) {
	st, perr := Parse(input)
	if perr != nil {
		return true, nil
	}
	printed := Print(st)
	st2, perr := Parse(printed)
	if perr != nil {
		return false, &roundTripError{"printed form does not reparse", input, printed, perr.Error()}
	}
	printed2 := Print(st2)
	if printed2 != printed {
		return false, &roundTripError{"print is not a fixed point", input, printed + "\n  reprint: " + printed2, ""}
	}
	return false, nil
}

type roundTripError struct {
	msg, input, printed, cause string
}

func (e *roundTripError) Error() string {
	s := e.msg + ":\n  input:   " + e.input + "\n  printed: " + e.printed
	if e.cause != "" {
		s += "\n  cause:   " + e.cause
	}
	return s
}

// FuzzParser feeds arbitrary bytes through parse→print→reparse→reprint.
// The parser must never panic on any input, and on every statement it
// accepts the printer must produce an equivalent, stably-printing form.
func FuzzParser(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if _, err := roundTrip(input); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPrintRoundTripSeeds runs the fuzz property over the seed corpus in a
// plain test, so the contract is exercised on every `go test` run even
// without the fuzz engine.
func TestPrintRoundTripSeeds(t *testing.T) {
	parsed := 0
	for _, s := range fuzzSeeds(t) {
		skip, err := roundTrip(s)
		if err != nil {
			t.Error(err)
		}
		if !skip {
			parsed++
		}
	}
	// Most seeds must actually parse (comment-only demo.sql fragments are
	// the only legitimate skips), or the corpus has rotted.
	if parsed < 20 {
		t.Errorf("only %d seeds parsed; seed corpus has rotted", parsed)
	}
}
