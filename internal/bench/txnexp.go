package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"softdb/internal/engine"
	"softdb/internal/exec"
	"softdb/internal/fault"
	"softdb/internal/server"
	"softdb/internal/types"
	"softdb/internal/workload"
)

// T1Config sizes the transaction experiment.
type T1Config struct {
	// Rows in the scanned table.
	Rows int
	// Clients per driver (readers and writers each get this many).
	Clients int
	// ReadOps is how many SELECTs each reader issues per phase.
	ReadOps int
	// SlowPageUs stalls every page read, making scans long enough that a
	// scan-holds-the-lock regression shows up as multi-x reader p99.
	SlowPageUs int
	// TxnOps is how many wire-transaction cycles each client runs.
	TxnOps int
}

// DefaultT1 is the scbench-scale configuration.
var DefaultT1 = T1Config{Rows: 6000, Clients: 8, ReadOps: 30, SlowPageUs: 200, TxnOps: 12}

// t1Server builds a served database: a scannable table plus artificial
// per-page read latency, so reader latency is dominated by time spent
// inside operator execution — exactly where a scan must not hold the
// engine's shared lock.
func t1Server(cfg T1Config) (*engine.Database, *server.Server, string, error) {
	db := engine.Open()
	db.NoIndexes = true
	if _, err := db.Exec("CREATE TABLE t (a INT NOT NULL, b INT, c INT)"); err != nil {
		return nil, nil, "", err
	}
	te, err := db.Catalog().Table("t")
	if err != nil {
		return nil, nil, "", err
	}
	for i := 0; i < cfg.Rows; i++ {
		if err := db.InsertRows(te, []types.Row{{
			types.NewInt(int64(i)), types.NewInt(int64(i + i%4)), types.NewInt(int64(i % 10)),
		}}); err != nil {
			return nil, nil, "", err
		}
	}
	if _, err := db.Exec("ANALYZE t"); err != nil {
		return nil, nil, "", err
	}
	db.Fault = fault.New(fault.Config{SlowProb: 1, SlowDelay: time.Duration(cfg.SlowPageUs) * time.Microsecond})
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.Listen()
	if err != nil {
		return nil, nil, "", err
	}
	go srv.Serve()
	return db, srv, addr.String(), nil
}

func t1ReadStmt(rows int, r *rand.Rand) string {
	lo := r.Intn(rows - 60)
	return fmt.Sprintf("SELECT a, b, c FROM t WHERE a >= %d AND a <= %d", lo, lo+50)
}

// t1ReadLatencies measures reader latency twice over one served database:
// alone, then with a concurrent INSERT flood (50/50 connection mix). The
// ratio of the two p99s is the tentpole's headline number — before MVCC a
// writer serialized behind each materializing scan and every later reader
// queued behind the writer, so p99 under write load degraded multi-x.
func t1ReadLatencies(cfg T1Config) (ro, rw *workload.DriverReport, err error) {
	db, srv, addr, err := t1Server(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		db.Fault = nil
	}()

	ro, err = workload.RunDriver(workload.DriverConfig{
		Addr: addr, Clients: cfg.Clients, OpsPerClient: cfg.ReadOps, Seed: 11,
		Statement: func(c, op int, r *rand.Rand) string { return t1ReadStmt(cfg.Rows, r) },
	})
	if err != nil {
		return nil, nil, err
	}

	// Writer flood: short insert-only driver runs, repeated until the
	// measured reader driver finishes. Inserts read no pages, so the
	// injected page latency leaves them fast — pure lock pressure.
	var stop atomic.Bool
	var inserted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; !stop.Load(); round++ {
			rep, werr := workload.RunDriver(workload.DriverConfig{
				Addr: addr, Clients: cfg.Clients, OpsPerClient: 25, Seed: int64(1000 + round),
				Statement: func(c, op int, r *rand.Rand) string {
					a := 10_000_000 + round*1_000_000 + c*10_000 + op
					return fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 0)", a, a+1)
				},
			})
			if werr != nil {
				return
			}
			inserted.Add(int64(rep.Requests))
		}
	}()
	rw, err = workload.RunDriver(workload.DriverConfig{
		Addr: addr, Clients: cfg.Clients, OpsPerClient: cfg.ReadOps, Seed: 12,
		Statement: func(c, op int, r *rand.Rand) string { return t1ReadStmt(cfg.Rows, r) },
	})
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	if inserted.Load() == 0 {
		return nil, nil, fmt.Errorf("bench T1: writer flood inserted nothing; the mixed phase measured no contention")
	}
	return ro, rw, nil
}

// T1Txn is experiment T1: MVCC snapshot isolation under concurrent load.
//
//   - reader p99 with a 50/50 read/write connection mix stays within a
//     small factor of the read-only p99 (scans pin a snapshot and drop the
//     engine lock before materializing);
//   - multi-statement BEGIN/COMMIT/ROLLBACK cycles run over the wire
//     protocol, with rolled-back rows invisible afterwards;
//   - implicit writers racing on one row either win or lose with a typed
//     first-updater-wins conflict — never a silent lost update.
func T1Txn(cfg T1Config) (*Report, error) {
	rep := &Report{
		ID:     "T1",
		Title:  "transactions: snapshot readers under write load, wire-level txns",
		Claim:  "MVCC snapshot isolation keeps reader tail latency flat under a concurrent write flood, and wire-level transactions commit or vanish atomically",
		Header: []string{"measure", "config", "value", "detail"},
	}
	ro, rw, err := t1ReadLatencies(cfg)
	if err != nil {
		return nil, err
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000) }
	ratio := float64(rw.Accepted.P99) / float64(ro.Accepted.P99)
	rep.AddRow("read-p99", fmt.Sprintf("%d readers alone", cfg.Clients), ms(ro.Accepted.P99), ro.Accepted.String())
	rep.AddRow("read-p99", fmt.Sprintf("+%d-client insert flood", cfg.Clients), ms(rw.Accepted.P99),
		fmt.Sprintf("%.2fx read-only p99; %s", ratio, rw.Accepted.String()))

	// Wire transactions: each client runs BEGIN; 3 inserts; COMMIT or
	// ROLLBACK cycles; afterwards exactly the committed rows exist.
	db, srv, addr, err := t1Server(T1Config{Rows: 200, Clients: cfg.Clients})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	db.Fault = nil
	const cycle = 5 // BEGIN, INSERT x3, COMMIT|ROLLBACK
	txnRep, err := workload.RunDriver(workload.DriverConfig{
		Addr: addr, Clients: cfg.Clients, OpsPerClient: cfg.TxnOps * cycle, Seed: 21,
		Statement: func(c, op int, r *rand.Rand) string {
			switch op % cycle {
			case 0:
				return "BEGIN"
			case cycle - 1:
				if (op/cycle)%3 == 2 {
					return "ROLLBACK"
				}
				return "COMMIT"
			default:
				a := 1_000_000 + c*100_000 + op
				return fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 0)", a, a+1)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if len(txnRep.ErrKinds) > 0 {
		return nil, fmt.Errorf("bench T1: transaction cycles errored: %v", txnRep.ErrKinds)
	}
	perClient := cfg.TxnOps - (cfg.TxnOps+2)/3 // committed cycles
	wantRows := cfg.Clients * perClient * (cycle - 2)
	res, err := db.Exec("SELECT COUNT(*) AS n FROM t WHERE a >= 1000000")
	if err != nil {
		return nil, err
	}
	gotRows := int(res.Rows[0][0].Int())
	rep.AddRow("wire-txn", fmt.Sprintf("%d clients x %d cycles (1 in 3 rolls back)", cfg.Clients, cfg.TxnOps),
		fmt.Sprintf("%d rows", gotRows),
		fmt.Sprintf("want %d committed; match=%v; %.0f stmt/s", wantRows, gotRows == wantRows, txnRep.Throughput))
	if gotRows != wantRows {
		return nil, fmt.Errorf("bench T1: %d rows survived, want %d", gotRows, wantRows)
	}

	// Contention: implicit single-statement writers race on one row; every
	// loser gets the typed conflict, and the final value equals the number
	// of winners.
	if _, err := db.Exec("INSERT INTO t VALUES (-1, 0, 0)"); err != nil {
		return nil, err
	}
	conRep, err := workload.RunDriver(workload.DriverConfig{
		Addr: addr, Clients: cfg.Clients, OpsPerClient: cfg.TxnOps, Seed: 31,
		Statement: func(c, op int, r *rand.Rand) string {
			return "UPDATE t SET b = b + 1 WHERE a = -1"
		},
	})
	if err != nil {
		return nil, err
	}
	conflicts := conRep.ErrKinds[string(exec.KindConflict)]
	for kind, n := range conRep.ErrKinds {
		if kind != string(exec.KindConflict) {
			return nil, fmt.Errorf("bench T1: contention phase saw %d %q errors", n, kind)
		}
	}
	res, err = db.Exec("SELECT b FROM t WHERE a = -1")
	if err != nil {
		return nil, err
	}
	wins := int(res.Rows[0][0].Int())
	total := cfg.Clients * cfg.TxnOps
	rep.AddRow("contention", fmt.Sprintf("%d implicit updates, one row", total),
		fmt.Sprintf("%d won, %d conflicted", wins, conflicts),
		fmt.Sprintf("accounted=%v (first-updater-wins, no lost updates)", wins+conflicts == total))
	if wins+conflicts != total {
		return nil, fmt.Errorf("bench T1: %d wins + %d conflicts != %d statements", wins, conflicts, total)
	}
	rep.Notef("reads stalled %dµs/page; writer flood ran for the whole mixed read phase", cfg.SlowPageUs)
	return rep, nil
}
