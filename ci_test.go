package softdb_test

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"softdb/internal/engine"
	"softdb/internal/sql"
)

// TestCISelectorsMatchTests keeps the CI workflow honest: every
// `go test ... -run '<regex>' <pkg>...` in .github/workflows/ci.yml must
// select at least one Test/Fuzz function in each package it names, and each
// top-level alternative of the regex must select one in some package.
// Without this, a selector naming a deleted or renamed test silently runs
// nothing and its CI step stays green.
func TestCISelectorsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	// Join backslash-continued shell lines so a command split across lines
	// is seen whole.
	text := strings.ReplaceAll(string(raw), "\\\n", " ")
	checked := 0
	for _, line := range strings.Split(text, "\n") {
		for _, cmd := range goTestCommands(line) {
			if cmd.run == "" {
				continue
			}
			// -run matches one slash-separated element per subtest level;
			// the first names top-level functions.
			top := strings.SplitN(cmd.run, "/", 2)[0]
			re, err := regexp.Compile(top)
			if err != nil {
				t.Errorf("%q: bad -run pattern: %v", cmd.line, err)
				continue
			}
			var all []string
			for _, pkg := range cmd.pkgs {
				if strings.Contains(pkg, "...") {
					t.Errorf("%q: -run over %s cannot be checked; name the packages", cmd.line, pkg)
					continue
				}
				names := testFuncs(t, pkg)
				if !anyMatch(re, names) {
					t.Errorf("%q: -run %q selects no Test/Fuzz function in %s", cmd.line, cmd.run, pkg)
				}
				all = append(all, names...)
				checked++
			}
			// Each alternative of an A|B|C selector must name something in
			// one of the packages too: a deleted name inside an alternation
			// is just as dead as a whole dead selector.
			for _, alt := range alternatives(top) {
				if are, err := regexp.Compile(alt); err == nil && !anyMatch(are, all) {
					t.Errorf("%q: alternative %q of -run selects no Test/Fuzz function", cmd.line, alt)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no go test -run selectors in ci.yml; the parser is broken")
	}
}

// goTestCmd is one `go test` invocation's -run pattern and package list.
type goTestCmd struct {
	line string
	run  string
	pkgs []string
}

// goTestCommands extracts every `go test` invocation on a shell line. Words
// are split shell-style (single and double quotes group); a command ends
// at a pipe, a redirect, `&`, `;` or the end of the line.
func goTestCommands(line string) []goTestCmd {
	words := shellWords(line)
	var out []goTestCmd
	for i := 0; i+1 < len(words); i++ {
		if words[i] != "go" || words[i+1] != "test" {
			continue
		}
		cmd := goTestCmd{line: strings.TrimSpace(line)}
		for j := i + 2; j < len(words); j++ {
			w := words[j]
			if strings.IndexAny(w, "|&;>") == 0 {
				break
			}
			switch {
			case w == "-run" && j+1 < len(words):
				j++
				cmd.run = words[j]
			case strings.HasPrefix(w, "-run="):
				cmd.run = strings.TrimPrefix(w, "-run=")
			case strings.HasPrefix(w, "./"):
				cmd.pkgs = append(cmd.pkgs, w)
			}
		}
		out = append(out, cmd)
	}
	return out
}

// shellWords splits s on unquoted blanks, removing the quotes.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// testFuncs lists the top-level Test*/Fuzz* functions in pkg's _test.go
// files.
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(filepath.FromSlash(pkg), "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// alternatives splits a regexp at its top-level '|' operators.
func alternatives(re string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, re[start:i])
				start = i + 1
			}
		}
	}
	return append(out, re[start:])
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

// TestObsSmokePlanCacheStatus replays CI's obs-smoke pipeline: it runs
// examples/obs_smoke.sql the way cmd/softdb runs a script — one session,
// each statement keyed by its sql.Print text — then the two statements the
// job pipes into the REPL, and requires the plan-cache status lines the
// job's "Plan-cache status in EXPLAIN" step greps for. A script statement
// placed before a later DDL or ANALYZE leaves a stale plan and a miss.
func TestObsSmokePlanCacheStatus(t *testing.T) {
	script, err := os.ReadFile(filepath.Join("examples", "obs_smoke.sql"))
	if err != nil {
		t.Fatal(err)
	}
	stmts, err := sql.ParseAll(string(script))
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open()
	db.SetTracing(true) // the job runs the shell with -trace
	ctx := context.Background()
	sess := db.NewSession("script")
	for _, s := range stmts {
		if _, err := sess.ExecStmtCtx(ctx, s, sql.Print(s)); err != nil {
			t.Fatalf("%s: %v", sql.Print(s), err)
		}
	}
	sess.Close()
	repl := db.NewSession("repl")
	defer repl.Close()
	for _, c := range []struct{ q, want string }{
		{"EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM purchase WHERE (order_date >= DATE '1999-01-15')",
			"plan cache: hit (literal-bound: access-path)"},
		{"EXPLAIN SELECT id FROM purchase WHERE (ship_date = DATE '1999-01-20')",
			"plan cache: hit (template, 1 slot, 0 guards)"},
	} {
		res, err := repl.ExecCtx(ctx, c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		var out strings.Builder
		for _, r := range res.Rows {
			out.WriteString(r[0].Str() + "\n")
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s lacks %q:\n%s", c.q, c.want, out.String())
		}
	}
}
