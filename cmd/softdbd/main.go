// Command softdbd runs a softdb network server: one engine instance
// serving the wire protocol to many concurrent clients (see
// internal/server for the protocol and session model).
//
// An optional file argument is executed as a SQL script against the
// engine before the listener opens, so the daemon starts with schema and
// data loaded. -addr ":0" picks an ephemeral port; the actual bound
// address is printed on stdout (first line, "listening on ADDR") so
// scripts and CI can scrape it. -debug-addr serves /metrics,
// /debug/queries, /debug/constraints (the constraint-economy ledger as
// JSON), /debug/wal (durability status) and /debug/pprof/* the same way.
//
// SIGINT/SIGTERM drains gracefully: the listener closes, in-flight
// statements are canceled through the engine's context path (clients
// receive typed canceled errors), and the process exits once every
// connection is done or -drain-timeout lapses.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"softdb/internal/engine"
	"softdb/internal/server"
	"softdb/internal/sql"
	"softdb/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7654", "TCP listen address for the wire protocol (:0 = ephemeral)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/queries on this address")
	noPrune := flag.Bool("no-prune", false, "disable synopsis-based page pruning by default")
	timeout := flag.Duration("timeout", 0, "default per-statement deadline (0 = none)")
	memBudget := flag.Int64("mem-budget", 0, "default per-query budget in bytes for buffered rows (0 = unlimited)")
	maxConcurrent := flag.Int("max-concurrent", 0, "admission gate: maximum concurrently executing statements (0 = unlimited)")
	maxConns := flag.Int("max-conns", 0, "maximum concurrently served connections (0 = unlimited)")
	shedQueue := flag.Int("shed-queue", -1, "load shedding: reject statements once more than max-concurrent plus this many are pending (-1 = queue instead)")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "close connections idle this long (0 = never)")
	slowQuery := flag.Duration("slow-query", 0, "log queries slower than this duration (0 = off)")
	trace := flag.Bool("trace", false, "start with per-operator query tracing on")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight work on shutdown")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + checkpoints); empty = in-memory")
	checkpointEvery := flag.Int("checkpoint-every", 0, "statements between automatic checkpoints (0 = default, <0 = disabled)")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always, interval, or none")
	walSyncInterval := flag.Duration("wal-sync-interval", 100*time.Millisecond, "minimum gap between fsyncs under -wal-sync=interval")
	vacuumInterval := flag.Duration("vacuum-interval", 0, "run background vacuum on this period (0 = off)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	var db *engine.Database
	// preloaded is true when the data directory already held state; the
	// script argument is skipped then, so a restart against the same
	// directory recovers instead of double-loading.
	preloaded := false
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			fail(err)
		}
		if _, err := os.Stat(wal.SnapshotPath(*dataDir)); err == nil {
			preloaded = true
		}
		if fi, err := os.Stat(wal.LogPath(*dataDir)); err == nil && fi.Size() > 0 {
			preloaded = true
		}
		var rs *engine.RecoveryStats
		db, rs, err = engine.OpenDurable(*dataDir, engine.DurableOptions{
			SyncPolicy:      policy,
			SyncInterval:    *walSyncInterval,
			CheckpointEvery: *checkpointEvery,
		})
		if err != nil {
			// "recovery-error:" is the reserved stderr marker for a fatal
			// recovery divergence — CI greps for it.
			fmt.Fprintf(os.Stderr, "recovery-error: %v\n", err)
			os.Exit(1)
		}
		if rs.TailErr != nil {
			logger.Warn("recovery truncated torn log tail", "err", rs.TailErr)
		}
		logger.Info("recovery complete",
			"dir", *dataDir,
			"snapshot_lsn", rs.SnapshotLSN,
			"records_replayed", rs.RecordsReplayed,
			"statements_replayed", rs.StatementsReplayed,
			"tail_truncated", rs.TailTruncated,
			"soft_revalidated", rs.Revalidated,
			"soft_invalidated", rs.Invalidated)
	} else {
		db = engine.Open()
	}
	db.NoPrune = *noPrune
	db.StmtTimeout = *timeout
	db.MemBudget = *memBudget
	db.MaxConcurrent = *maxConcurrent
	db.SetTracing(*trace)
	db.SetSlowQueryThreshold(*slowQuery)
	db.SetLogger(logger)
	stopVacuum := db.StartVacuum(*vacuumInterval)
	defer stopVacuum()

	if args := flag.Args(); len(args) > 0 && preloaded {
		logger.Info("skipping preload script; data directory already holds state", "script", args[0])
	} else if len(args) > 0 {
		script, err := os.ReadFile(args[0])
		if err != nil {
			fail(err)
		}
		stmts, err := sql.ParseAll(string(script))
		if err != nil {
			fail(err)
		}
		for _, s := range stmts {
			if _, err := db.ExecStmtCtx(context.Background(), s, sql.Print(s)); err != nil {
				fail(fmt.Errorf("%s: %w", args[0], err))
			}
		}
		logger.Info("preload complete", "script", args[0], "statements", len(stmts))
	}

	srv := server.New(db, server.Config{
		Addr:           *addr,
		MaxConns:       *maxConns,
		Shed:           *shedQueue >= 0,
		ShedQueueDepth: max(*shedQueue, 0),
		IdleTimeout:    *idleTimeout,
		Logger:         logger,
	})
	bound, err := srv.Listen()
	if err != nil {
		fail(err)
	}
	// First line on stdout so wrappers can scrape the ephemeral port.
	fmt.Printf("listening on %s\n", bound)

	if *debugAddr != "" {
		lis, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fail(err)
		}
		dsrv := &http.Server{
			Handler:           db.DebugHandler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			IdleTimeout:       120 * time.Second,
		}
		go func() {
			if err := dsrv.Serve(lis); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener", "err", err)
			}
		}()
		fmt.Printf("debug listener on http://%s (/metrics, /debug/queries, /debug/constraints, /debug/wal, /debug/pprof/)\n", lis.Addr())
	}

	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		logger.Info("draining", "timeout", *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("drain incomplete; connections force-closed", "err", err)
		}
	}()

	if err := srv.Serve(); err != nil {
		fail(err)
	}
	// Clean shutdown: checkpoint so the next start recovers from the
	// snapshot alone, then release the log.
	if db.Durable() {
		if err := db.Close(); err != nil {
			logger.Error("shutdown checkpoint failed", "err", err)
		} else {
			logger.Info("shutdown checkpoint written", "dir", *dataDir)
		}
	}
	logger.Info("server stopped")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "softdbd:", err)
	os.Exit(1)
}
