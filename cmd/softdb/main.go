// Command softdb is an interactive SQL shell over a softdb instance.
// Statements end with ';'. Besides SQL (CREATE TABLE with constraint modes,
// CREATE [INFORMATIONAL] SUMMARY TABLE, CREATE VIEW, INSERT/UPDATE/DELETE,
// SELECT, EXPLAIN, ANALYZE), the shell accepts backslash commands:
//
//	\d             list tables and views
//	\d NAME        describe a table (columns, constraints, indexes, stats)
//	\sc            list soft characterizations (correlations, holes)
//	\constraints   show the constraint economy ledger, net-benefit ranked
//	\discover T    run the miners over table T and report candidates
//	\metrics       dump the metrics registry in Prometheus text format
//	\trace on|off  toggle per-operator query tracing
//	\trace         show the most recent query's trace
//	\q             quit
//
// -debug-addr HOST:PORT starts an HTTP listener serving /metrics
// (Prometheus text format), /debug/queries (recent query traces),
// /debug/constraints (the economy ledger as JSON), /debug/wal (durability
// status) and /debug/pprof/* (live profiling).
// -slow-query D logs queries slower than duration D; -trace starts with
// per-operator tracing on. -no-prune disables synopsis-based page pruning
// (useful for measuring what the zone maps buy). -timeout D applies a
// per-statement deadline, -mem-budget N caps the bytes of rows a query may
// buffer, and -max-concurrent N gates statement admission. The first
// Ctrl-C cancels the running query through the context path; a second (or
// one at the prompt) exits cleanly. An optional file argument is executed
// as a script before the prompt.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"time"

	"softdb/internal/client"
	"softdb/internal/engine"
	"softdb/internal/sql"
	"softdb/internal/types"
	"softdb/internal/wal"
	"softdb/internal/wire"
)

// interruptState routes SIGINT: while a statement runs it holds that
// statement's cancel func; at the prompt it is empty and Ctrl-C exits.
type interruptState struct {
	cancel atomic.Pointer[context.CancelFunc]
}

// watch consumes SIGINT for the life of the process: the first Ctrl-C
// during a statement cancels it via the context path, a Ctrl-C with no
// statement running (including the second one, after the cancellation
// lands) exits cleanly.
func (is *interruptState) watch() {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt)
	go func() {
		for range ch {
			if cancel := is.cancel.Swap(nil); cancel != nil {
				(*cancel)()
				fmt.Fprintln(os.Stderr, "\ncanceling statement (Ctrl-C again to exit)")
				continue
			}
			fmt.Println()
			os.Exit(0)
		}
	}()
}

// begin installs a fresh statement context; the returned done must be
// called when the statement finishes.
func (is *interruptState) begin() (ctx context.Context, done func()) {
	ctx, cancel := context.WithCancel(context.Background())
	is.cancel.Store(&cancel)
	return ctx, func() {
		is.cancel.Store(nil)
		cancel()
	}
}

func main() {
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/queries on this address")
	slowQuery := flag.Duration("slow-query", 0, "log queries slower than this duration (0 = off)")
	trace := flag.Bool("trace", false, "start with per-operator query tracing on")
	noPrune := flag.Bool("no-prune", false, "disable synopsis-based page pruning (zone maps); scans read every page")
	timeout := flag.Duration("timeout", 0, "per-statement deadline (0 = none)")
	memBudget := flag.Int64("mem-budget", 0, "per-query budget in bytes for buffered rows (0 = unlimited)")
	maxConcurrent := flag.Int("max-concurrent", 0, "admission gate: maximum concurrently executing statements (0 = unlimited)")
	connect := flag.String("connect", "", "connect to a softdbd server at this address instead of running an embedded engine")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + checkpoints); empty = in-memory")
	checkpointEvery := flag.Int("checkpoint-every", 0, "statements between automatic checkpoints (0 = default, <0 = disabled)")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always, interval, or none")
	vacuumInterval := flag.Duration("vacuum-interval", 0, "run background vacuum on this period (0 = off)")
	flag.Parse()

	if *connect != "" {
		is := &interruptState{}
		is.watch()
		remoteMain(*connect, is, flag.Args())
		return
	}

	var db *engine.Database
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var rs *engine.RecoveryStats
		db, rs, err = engine.OpenDurable(*dataDir, engine.DurableOptions{
			SyncPolicy: policy, CheckpointEvery: *checkpointEvery,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "recovery-error: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("recovered %s (snapshot lsn %d, %d records replayed)\n",
			*dataDir, rs.SnapshotLSN, rs.RecordsReplayed)
		if rs.TailErr != nil {
			fmt.Fprintln(os.Stderr, "warning: torn log tail truncated:", rs.TailErr)
		}
	} else {
		db = engine.Open()
	}
	db.NoPrune = *noPrune
	db.StmtTimeout = *timeout
	db.MemBudget = *memBudget
	db.MaxConcurrent = *maxConcurrent
	db.SetTracing(*trace)
	db.SetSlowQueryThreshold(*slowQuery)
	db.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	stopVacuum := db.StartVacuum(*vacuumInterval)
	defer stopVacuum()
	if *debugAddr != "" {
		lis, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "debug listener:", err)
			os.Exit(1)
		}
		// Timeouts so a stalled or slow-loris peer cannot pin the listener's
		// goroutines forever; the handler only serves small GET responses.
		srv := &http.Server{
			Handler:           db.DebugHandler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			IdleTimeout:       120 * time.Second,
		}
		go func() {
			if err := srv.Serve(lis); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "debug listener:", err)
			}
		}()
		// lis.Addr, not *debugAddr: with ":0" this is the real port.
		fmt.Printf("debug listener on http://%s (/metrics, /debug/queries, /debug/constraints, /debug/wal, /debug/pprof/)\n", lis.Addr())
	}
	is := &interruptState{}
	is.watch()
	if args := flag.Args(); len(args) > 0 {
		script, err := os.ReadFile(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Statements run one by one with their printed text as the plan-cache
		// key, so repeated script queries exercise the cache like REPL input.
		stmts, err := sql.ParseAll(string(script))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sess := db.NewSession("script")
		for _, s := range stmts {
			ctx, done := is.begin()
			_, err := sess.ExecStmtCtx(ctx, s, sql.Print(s))
			done()
			if err != nil {
				sess.Close()
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		sess.Close()
		fmt.Printf("loaded %s\n", args[0])
	}
	repl(db, is)
	if db.Durable() {
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown checkpoint:", err)
			os.Exit(1)
		}
	}
}

func repl(db *engine.Database, is *interruptState) {
	// The REPL runs on a session so BEGIN/COMMIT/ROLLBACK work; Close
	// rolls back a transaction left open at exit.
	sess := db.NewSession("repl")
	defer sess.Close()
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		switch {
		case buf.Len() > 0:
			fmt.Print("   ...> ")
		case sess.InTxn():
			fmt.Print("softdb*> ")
		default:
			fmt.Print("softdb> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !command(db, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			run(sess, is, buf.String())
			buf.Reset()
		}
		prompt()
	}
}

func run(sess *engine.Session, is *interruptState, stmt string) {
	ctx, done := is.begin()
	res, err := sess.ExecCtx(ctx, strings.TrimSuffix(strings.TrimSpace(stmt), ";"))
	done()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, n := range res.Notices {
		fmt.Println("notice:", n)
	}
	if len(res.Columns) > 0 {
		printRows(res.Columns, res.Rows)
		fmt.Printf("(%d rows; %s)\n", len(res.Rows), res.Ctx.String())
	} else {
		fmt.Printf("ok (%d rows affected)\n", res.RowsAffected)
	}
}

func printRows(cols []string, rows []types.Row) {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(rows))
	for ri, r := range rows {
		cells[ri] = make([]string, len(r))
		for ci, d := range r {
			// Strings display raw (no SQL quoting) in the shell.
			var s string
			if d.Kind() == types.KindString {
				s = d.Str()
			} else {
				s = d.String()
			}
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	line := func(parts []string) {
		for i, p := range parts {
			if i > 0 {
				fmt.Print(" | ")
			}
			fmt.Printf("%-*s", widths[i], p)
		}
		fmt.Println()
	}
	line(cols)
	var sep []string
	for _, w := range widths {
		sep = append(sep, strings.Repeat("-", w))
	}
	line(sep)
	for _, r := range cells {
		line(r)
	}
}

func command(db *engine.Database, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q":
		return false
	case "\\d":
		if len(fields) == 1 {
			for _, t := range db.Catalog().TableNames() {
				fmt.Println(t)
			}
			return true
		}
		describe(db, fields[1])
	case "\\sc":
		cat := db.Catalog()
		for _, t := range cat.TableNames() {
			for _, lc := range cat.Correlations(t) {
				fmt.Println(lc.Describe())
			}
		}
		for _, jh := range cat.AllJoinHoles() {
			fmt.Println(jh.Describe())
		}
	case "\\constraints":
		res, err := db.Exec("SHOW CONSTRAINTS ECONOMY")
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		if len(res.Rows) == 0 {
			fmt.Println("no constraint economy recorded yet")
			return true
		}
		printRows(res.Columns, res.Rows)
		fmt.Printf("(%d constraints, net-benefit ranked)\n", len(res.Rows))
	case "\\metrics":
		if err := db.Metrics().WritePrometheus(os.Stdout); err != nil {
			fmt.Println("error:", err)
		}
	case "\\trace":
		if len(fields) == 1 {
			recent := db.QueryLog().Recent(1)
			if len(recent) == 0 {
				fmt.Println("no queries recorded yet")
				return true
			}
			fmt.Print(recent[0].Render())
			return true
		}
		switch fields[1] {
		case "on":
			db.SetTracing(true)
			fmt.Println("tracing on")
		case "off":
			db.SetTracing(false)
			fmt.Println("tracing off")
		default:
			fmt.Println("usage: \\trace [on|off]")
		}
	case "\\discover":
		if len(fields) < 2 {
			fmt.Println("usage: \\discover TABLE")
			return true
		}
		mgr := db.SoftcManager()
		c, err := mgr.DiscoverTable(fields[1])
		if err != nil {
			fmt.Println("error:", err)
			return true
		}
		for _, lc := range c.Correlations {
			fmt.Println("correlation:", lc.Describe())
		}
		for _, fd := range c.FDs {
			fmt.Printf("fd: %s -> %s @%.3f\n", strings.Join(fd.Det, ","), fd.Dep, fd.Confidence)
		}
		for _, rg := range c.Ranges {
			fmt.Println("range:", rg.Describe())
		}
	default:
		fmt.Println("unknown command; try \\d, \\sc, \\constraints, \\discover, \\metrics, \\trace, \\q")
	}
	return true
}

// remoteMain is the -connect mode: the same statement loop as the
// embedded REPL, but every statement travels the wire protocol to a
// softdbd server. Supported backslash commands are \set NAME VALUE
// (session settings; VALUE "default" clears an override) and \q. A broken
// connection (Ctrl-C mid-statement, server restart) reconnects
// automatically into a fresh session.
func remoteMain(addr string, is *interruptState, args []string) {
	c, err := client.Connect(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "connect:", err)
		os.Exit(1)
	}
	fmt.Printf("connected to %s (session %s)\n", addr, c.Session())

	// runOne executes one statement, reconnecting once if the connection
	// broke. It reports whether to keep the REPL alive.
	runOne := func(stmt string) bool {
		ctx, done := is.begin()
		res, err := c.Query(ctx, stmt)
		done()
		if err != nil {
			var we *wire.Error
			if errors.As(err, &we) {
				fmt.Println("error:", we)
				return true
			}
			// Transport-level failure: the stream is gone; reconnect.
			fmt.Fprintln(os.Stderr, "connection lost:", err)
			c.Close()
			if c, err = client.Connect(addr); err != nil {
				fmt.Fprintln(os.Stderr, "reconnect:", err)
				return false
			}
			fmt.Printf("reconnected (session %s; session settings reset)\n", c.Session())
			return true
		}
		for _, n := range res.Notices {
			fmt.Println("notice:", n)
		}
		if len(res.Columns) > 0 {
			printRows(res.Columns, res.Rows)
			fmt.Printf("(%d rows)\n", len(res.Rows))
		} else {
			fmt.Printf("ok (%d rows affected)\n", res.RowsAffected)
		}
		return true
	}

	if len(args) > 0 {
		script, err := os.ReadFile(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stmts, err := sql.ParseAll(string(script))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, s := range stmts {
			if !runOne(sql.Print(s)) {
				os.Exit(1)
			}
		}
		fmt.Printf("loaded %s\n", args[0])
	}

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Printf("softdb(%s)> ", addr)
		} else {
			fmt.Print("      ...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			fields := strings.Fields(trimmed)
			switch fields[0] {
			case "\\q":
				c.Close()
				return
			case "\\set":
				if len(fields) != 3 {
					fmt.Println("usage: \\set NAME VALUE   (VALUE \"default\" clears the override)")
					break
				}
				if err := c.Set(fields[1], fields[2]); err != nil {
					fmt.Println("error:", err)
				}
			case "\\constraints":
				// The ledger travels as an ordinary result set, so remote
				// inspection needs no wire-protocol extension.
				if !runOne("SHOW CONSTRAINTS ECONOMY") {
					return
				}
			default:
				fmt.Println("remote commands: \\set NAME VALUE, \\constraints, \\q")
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			stmt := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
			buf.Reset()
			if !runOne(stmt) {
				return
			}
		}
		prompt()
	}
}

func describe(db *engine.Database, table string) {
	te, err := db.Catalog().Table(table)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(te.Def.String())
	for _, con := range te.Constraints {
		fmt.Println("  constraint:", con.Describe())
	}
	for _, ix := range te.Indexes {
		u := ""
		if ix.Unique {
			u = "UNIQUE "
		}
		fmt.Printf("  index: %s%s (%s)\n", u, ix.Name, strings.Join(ix.Columns, ", "))
	}
	fmt.Printf("  rows: %d, pages: %d\n", te.Heap.RowCount(), te.Heap.PageCount())
	if te.Stats != nil {
		for _, col := range te.Def.Columns {
			if cs := te.Stats.Column(col.Name); cs != nil {
				fmt.Println("  stats:", cs.String())
			}
		}
	}
}
