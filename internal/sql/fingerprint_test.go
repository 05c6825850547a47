package sql

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"softdb/internal/expr"
	"softdb/internal/types"
)

// spell substitutes literals back into a shape, giving a text Fingerprint
// maps to the same (shape, literals).
func spell(shape string, lits []Literal) (string, error) {
	var b strings.Builder
	k := 0
	for i := 0; i < len(shape); i++ {
		c := shape[i]
		if c == '\'' { // a string kept in the shape: copy through its closing quote
			j := i + 1
			for j < len(shape) {
				if shape[j] == '\'' {
					if j+1 < len(shape) && shape[j+1] == '\'' {
						j += 2
						continue
					}
					break
				}
				j++
			}
			b.WriteString(shape[i : j+1])
			i = j
			continue
		}
		if c != '?' {
			b.WriteByte(c)
			continue
		}
		if k >= len(lits) || i+1 >= len(shape) {
			return "", fmt.Errorf("placeholder %d has no literal in %q", k, shape)
		}
		v := lits[k].Value
		switch class := shape[i+1]; {
		case class == 'i' && v.Kind() == types.KindInt:
			b.WriteString(strconv.FormatInt(v.Int(), 10))
		case class == 'f' && v.Kind() == types.KindFloat:
			s := strconv.FormatFloat(v.Float(), 'g', -1, 64)
			if !strings.ContainsAny(s, ".eE") {
				s += ".0"
			}
			b.WriteString(s)
		case class == 's' && v.Kind() == types.KindString:
			b.WriteString(v.String())
		case class == 'd' && v.Kind() == types.KindDate:
			b.WriteString("DATE '" + v.String() + "'")
		default:
			return "", fmt.Errorf("placeholder ?%c does not fit literal %s in %q", class, v, shape)
		}
		k++
		i++
	}
	if k != len(lits) {
		return "", fmt.Errorf("%d literals for %d placeholders in %q", len(lits), k, shape)
	}
	return b.String(), nil
}

// fingerprintContract checks one input: if it parses and fingerprints, the
// text spelled back from (shape, literals) must fingerprint to the same pair
// and parse to the same statement, and the tagged parse must be the plain
// parse with each literal's constant tagged by its slot.
func fingerprintContract(input string) error {
	shape, lits, ok := Fingerprint(input)
	if !ok {
		return nil
	}
	stmt, err := Parse(input)
	if err != nil {
		return nil
	}
	want := Print(stmt)
	respelled, err := spell(shape, lits)
	if err != nil {
		return err
	}
	shape2, lits2, ok := Fingerprint(respelled)
	if !ok || shape2 != shape || len(lits2) != len(lits) {
		return fmt.Errorf("respelled text fingerprints differently:\n  input:     %s\n  shape:     %s\n  respelled: %s\n  shape:     %s (ok=%v)", input, shape, respelled, shape2, ok)
	}
	for i := range lits {
		if a, b := lits[i].Value, lits2[i].Value; a.Kind() != b.Kind() || a.Compare(b) != 0 {
			return fmt.Errorf("literal %d changed from %s to %s respelling %s as %s", i, a, b, input, respelled)
		}
	}
	stmt2, err := Parse(respelled)
	if err != nil {
		return fmt.Errorf("respelled text does not parse: %s → %s: %v", input, respelled, err)
	}
	if got := Print(stmt2); got != want {
		return fmt.Errorf("same shape and literals, different statements:\n  input:     %s → %s\n  respelled: %s → %s", input, want, respelled, got)
	}
	sel, tagged, err := ParseFingerprinted(input, lits)
	if err != nil {
		return fmt.Errorf("fingerprinted parse failed where the plain one succeeded: %s: %v", input, err)
	}
	if got := Print(sel); got != want {
		return fmt.Errorf("fingerprinted parse differs: %s → %s, want %s", input, got, want)
	}
	if tagged {
		vals := make([]types.Datum, len(lits))
		for i, l := range lits {
			vals[i] = l.Value
		}
		if got := Print(BindLiterals(sel, vals)); got != want {
			return fmt.Errorf("binding a statement to its own literals changed it: %s → %s, want %s", input, got, want)
		}
	}
	return nil
}

// FuzzFingerprint: the fingerprint never panics on arbitrary bytes, and for
// every input the parser accepts it honours fingerprintContract — two texts
// with equal shape and equal literal vectors parse identically.
func FuzzFingerprint(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	for _, c := range fingerprintCases {
		f.Add(c.text)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if err := fingerprintContract(input); err != nil {
			t.Fatal(err)
		}
	})
}

var fingerprintCases = []struct {
	text  string
	shape string // "" = the fingerprint refuses the text
	lits  []string
}{
	{"SELECT * FROM purchase WHERE id = 42", "SELECT * FROM purchase WHERE id = ?i ", []string{"42"}},
	{"select  *\nfrom purchase -- c\nwhere order_date = DATE '1999-03-05';", "select * from purchase where order_date = ?d ; ", []string{"1999-03-05"}},
	{"SELECT a FROM t WHERE f > 1.5 AND g = -3.25 AND h = -2 AND s = 'x''y' AND k = - -7", "SELECT a FROM t WHERE f > ?f AND g = ?f AND h = ?i AND s = ?s AND k = - ?i ", []string{"1.5", "-3.25", "-2", "'x''y'", "-7"}},
	{"SELECT a - 5, 'lit' AS c FROM t WHERE a - 5 > b -3 AND c = (2)", "SELECT a - 5 , 'lit' AS c FROM t WHERE a - ?i > b - ?i AND c = ( ?i ) ", []string{"5", "3", "2"}},
	{"SELECT a FROM t WHERE a IN (1, 2) AND b NOT IN (3) AND c = 4 ORDER BY 1 LIMIT 10", "SELECT a FROM t WHERE a IN ( 1 , 2 ) AND b NOT IN ( 3 ) AND c = ?i ORDER BY 1 LIMIT 10 ", []string{"4"}},
	{"SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING n > 5", "SELECT a , COUNT ( * ) AS n FROM t GROUP BY a HAVING n > ?i ", []string{"5"}},
	{"SELECT t.a FROM t JOIN u ON t.a = u.a AND u.b = 1 WHERE t.c BETWEEN 2 AND 3 UNION ALL SELECT 9 FROM v WHERE d = 8",
		"SELECT t . a FROM t JOIN u ON t . a = u . a AND u . b = ?i WHERE t . c BETWEEN ?i AND ?i UNION ALL SELECT 9 FROM v WHERE d = ?i ", []string{"1", "2", "3", "8"}},
	{"SELECT a FROM t WHERE x = NULL AND y = TRUE AND date - 1 > 0 AND name LIKE 'a%'", "SELECT a FROM t WHERE x = NULL AND y = TRUE AND date - ?i > ?i AND name LIKE ?s ", []string{"1", "0", "'a%'"}},
	{"SELECT a FROM t WHERE a = 99999999999999999999", "", nil},
	{"SELECT a FROM t WHERE d = DATE 'soon'", "", nil},
	{"SELECT a FROM t WHERE s = 'open", "", nil},
	{"INSERT INTO t VALUES (1)", "", nil},
	{"EXPLAIN SELECT a FROM t WHERE a = 1", "", nil},
}

func TestFingerprint(t *testing.T) {
	for _, c := range fingerprintCases {
		shape, lits, ok := Fingerprint(c.text)
		if ok != (c.shape != "") {
			t.Errorf("%s: ok=%v", c.text, ok)
			continue
		}
		if !ok {
			continue
		}
		var got []string
		for _, l := range lits {
			got = append(got, l.Value.String())
		}
		if shape != c.shape || strings.Join(got, " ") != strings.Join(c.lits, " ") {
			t.Errorf("%s:\n got  %q %v\n want %q %v", c.text, shape, got, c.shape, c.lits)
		}
		if err := fingerprintContract(c.text); err != nil {
			t.Error(err)
		}
	}
	// The seed corpus of the parser fuzzer honours the contract too.
	for _, s := range fuzzSeeds(t) {
		if err := fingerprintContract(s); err != nil {
			t.Error(err)
		}
	}
}

// TestParseFingerprintedTags: every lifted literal comes back as exactly one
// constant tagged with its slot; a context the fingerprint misjudges falls
// back to an untagged parse instead of mis-tagging.
func TestParseFingerprintedTags(t *testing.T) {
	text := "SELECT a FROM t WHERE a = -5 AND b BETWEEN 1.5 AND 2.5 AND d = DATE '2000-01-02' AND s LIKE 'x%'"
	_, lits, ok := Fingerprint(text)
	if !ok || len(lits) != 5 {
		t.Fatalf("fingerprint: ok=%v lits=%v", ok, lits)
	}
	sel, tagged, err := ParseFingerprinted(text, lits)
	if err != nil || !tagged {
		t.Fatalf("tagged=%v err=%v", tagged, err)
	}
	var slots []string
	expr.Walk(sel.Where, func(n expr.Expr) bool {
		if c, ok := n.(*expr.Const); ok && c.From.Slot > 0 {
			slots = append(slots, fmt.Sprintf("%d=%s", c.From.Slot, c.Value))
		}
		return true
	})
	if got, want := strings.Join(slots, " "), "1=-5 2=1.5 3=2.5 4=2000-01-02 5='x%'"; got != want {
		t.Errorf("tags %s, want %s", got, want)
	}
	// Literals that do not belong to the text: nothing is tagged.
	if _, tagged, err := ParseFingerprinted("SELECT a FROM t WHERE a = 7", []Literal{{Value: types.NewInt(8), Pos: 26}}); err != nil || tagged {
		t.Errorf("mismatched literals must not tag: tagged=%v err=%v", tagged, err)
	}
}
