package bench

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"time"

	"softdb/internal/client"
	"softdb/internal/engine"
	"softdb/internal/fault"
	"softdb/internal/server"
	"softdb/internal/softc"
	"softdb/internal/types"
	"softdb/internal/workload"
)

// S1Config sizes the server experiment.
type S1Config struct {
	Rows        int // rows in the scanned table
	Clients     int // concurrent client connections (the ISSUE bar is >= 32)
	ParityOps   int // read statements per client in the parity phase
	MixedOps    int // statements per client in the throughput phase
	OverloadOps int // statements per client in the overload phases
	BaselineOps int // statements for the unloaded-latency baseline
	SlowPageUs  int // injected per-page stall during overload, microseconds
	ShedDepth   int // shed-mode queue depth beyond the admission gate
	MaxConc     int // the engine admission gate during overload
}

// DefaultS1 is the scbench-scale configuration.
var DefaultS1 = S1Config{
	Rows: 20000, Clients: 32, ParityOps: 8, MixedOps: 25,
	OverloadOps: 2, BaselineOps: 6, SlowPageUs: 1000, ShedDepth: 0, MaxConc: 4,
}

// s1DB builds the clustered-correlation table from the pruning
// experiments (b tracks a, minable as an absolute linear correlation) and
// installs the mined ASC — the object whose cross-session invalidation
// phase (b) demonstrates.
func s1DB(rows, maxConc int) (*engine.Database, error) {
	db := engine.Open()
	db.NoIndexes = true
	// The engine latches MaxConcurrent into its admission gate at the
	// first statement, so the overload phases' gate must be set before
	// the schema statements below run.
	db.MaxConcurrent = maxConc
	if _, err := db.Exec("CREATE TABLE t (a INT NOT NULL, b INT, c INT)"); err != nil {
		return nil, err
	}
	te, err := db.Catalog().Table("t")
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		b := types.Datum(types.NewInt(int64(i + i%4)))
		if i%97 == 0 {
			b = types.Null
		}
		if err := db.InsertRows(te, []types.Row{{
			types.NewInt(int64(i)), b, types.NewInt(int64(i % 10))}}); err != nil {
			return nil, err
		}
	}
	if _, err := db.Exec("ANALYZE t"); err != nil {
		return nil, err
	}
	mgr := softc.NewManager(db.Catalog())
	cands, err := mgr.DiscoverTable("t")
	if err != nil {
		return nil, err
	}
	return db, mgr.InstallCorrelations(mgr.SelectCorrelations(cands.Correlations, 4))
}

// s1ReadStmt is the deterministic parity/throughput read: a selective
// range on the clustered column.
func s1ReadStmt(rows int, r *rand.Rand) string {
	lo := r.Intn(rows - 50)
	return fmt.Sprintf("SELECT a, b, c FROM t WHERE a >= %d AND a <= %d", lo, lo+40)
}

// hashResult folds a statement's rows into a running FNV-64 hash. Row
// order matters; serial plans return heap order, so remote and local
// executions of the same statement hash identically.
func hashResult(h interface{ Write([]byte) (int, error) }, cols []string, rows []types.Row) {
	for _, c := range cols {
		h.Write([]byte(c))
	}
	for _, row := range rows {
		for _, d := range row {
			h.Write([]byte(d.String()))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
}

// S1Server runs the network-server experiment:
//
//	(a) parity: every client's read stream, executed concurrently over the
//	    wire, hashes identically to the same stream executed in-process;
//	(b) cross-session ASC invalidation: one session's violating write
//	    deactivates the mined correlation for every other session's
//	    planner, observed through EXPLAIN over the wire;
//	(c) throughput: mixed read/DML traffic from all clients, reported as
//	    stmt/s with p50/p95/p99 latency;
//	(d) overload: with slow pages injected and the admission gate at
//	    MaxConc, queueing (shed off) lets latency grow with the backlog
//	    while shedding converts the excess into fast typed busy errors and
//	    keeps accepted-statement p99 near the unloaded baseline.
func S1Server(cfg S1Config) (*Report, error) {
	rep := &Report{
		ID:     "S1",
		Title:  "network server: concurrent clients, parity, shedding",
		Claim:  "a wire-protocol front end preserves engine semantics exactly (results, typed errors, cross-session invalidation) while load shedding bounds accepted-request latency under overload",
		Header: []string{"phase", "config", "result", "detail"},
	}
	db, err := s1DB(cfg.Rows, cfg.MaxConc)
	if err != nil {
		return nil, err
	}

	// Queue-mode server (no shedding) and shed-mode server over one db.
	queueSrv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	queueAddr, err := queueSrv.Listen()
	if err != nil {
		return nil, err
	}
	go queueSrv.Serve()
	shedSrv := server.New(db, server.Config{Addr: "127.0.0.1:0", Shed: true, ShedQueueDepth: cfg.ShedDepth})
	shedAddr, err := shedSrv.Listen()
	if err != nil {
		return nil, err
	}
	go shedSrv.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		queueSrv.Shutdown(ctx)
		shedSrv.Shutdown(ctx)
	}()

	// (a) Parity: concurrent remote streams vs serial in-process replay.
	remoteHashes := make([]uint64, cfg.Clients)
	var wg sync.WaitGroup
	errs := make([]error, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Connect(queueAddr.String())
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			h := fnv.New64a()
			r := rand.New(rand.NewSource(1000 + int64(i)))
			for op := 0; op < cfg.ParityOps; op++ {
				res, err := c.Query(context.Background(), s1ReadStmt(cfg.Rows, r))
				if err != nil {
					errs[i] = err
					return
				}
				hashResult(h, res.Columns, res.Rows)
			}
			remoteHashes[i] = h.Sum64()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("parity client %d: %w", i, err)
		}
	}
	parity := true
	for i := 0; i < cfg.Clients; i++ {
		h := fnv.New64a()
		r := rand.New(rand.NewSource(1000 + int64(i)))
		for op := 0; op < cfg.ParityOps; op++ {
			res, err := db.ExecCtx(context.Background(), s1ReadStmt(cfg.Rows, r))
			if err != nil {
				return nil, err
			}
			hashResult(h, res.Columns, res.Rows)
		}
		if h.Sum64() != remoteHashes[i] {
			parity = false
		}
	}
	rep.AddRow("parity", fmt.Sprintf("%d clients x %d reads", cfg.Clients, cfg.ParityOps),
		fmt.Sprintf("match=%v", parity), "fnv64(result stream) remote == in-process, per client")

	// (c) Throughput: mixed read/DML through the queue-mode server.
	nextKey := cfg.Rows * 10
	mixed, err := workload.RunDriver(workload.DriverConfig{
		Addr: queueAddr.String(), Clients: cfg.Clients, OpsPerClient: cfg.MixedOps, Seed: 7,
		Statement: func(c, op int, r *rand.Rand) string {
			if op%10 == 9 {
				// Non-violating insert: b stays inside the mined band.
				a := nextKey + c*10000 + op
				return fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 0)", a, a+1)
			}
			return s1ReadStmt(cfg.Rows, r)
		},
	})
	if err != nil {
		return nil, err
	}
	if len(mixed.ErrKinds) > 0 || mixed.Shed > 0 {
		return nil, fmt.Errorf("throughput phase saw failures: %+v", mixed)
	}
	rep.AddRow("throughput", fmt.Sprintf("%d clients, 10%% DML", cfg.Clients),
		fmt.Sprintf("%.0f stmt/s", mixed.Throughput), mixed.Accepted.String())

	// (b) Cross-session ASC invalidation through the wire.
	reader, err := client.Connect(queueAddr.String())
	if err != nil {
		return nil, err
	}
	defer reader.Close()
	writer, err := client.Connect(queueAddr.String())
	if err != nil {
		return nil, err
	}
	defer writer.Close()
	explainQ := "EXPLAIN SELECT a FROM t WHERE b >= 200 AND b <= 240"
	hasPrune := func(res *client.Result) bool {
		for _, row := range res.Rows {
			if strings.Contains(row[0].Str(), "prune-introduction applied") {
				return true
			}
		}
		return false
	}
	before, err := reader.Query(context.Background(), explainQ)
	if err != nil {
		return nil, err
	}
	vres, err := writer.Query(context.Background(), fmt.Sprintf("INSERT INTO t VALUES (%d, 999999, 0)", cfg.Rows*100))
	if err != nil {
		return nil, err
	}
	noticed := false
	for _, n := range vres.Notices {
		if strings.Contains(n, "deactivated by violating write") {
			noticed = true
		}
	}
	after, err := reader.Query(context.Background(), explainQ)
	if err != nil {
		return nil, err
	}
	rep.AddRow("asc-invalidation",
		fmt.Sprintf("write on %s, explain on %s", writer.Session(), reader.Session()),
		fmt.Sprintf("before=%v notice=%v after=%v", hasPrune(before), noticed, !hasPrune(after)),
		"violating INSERT deactivates the ASC for every session")

	// (d) Overload: slow pages against the admission gate, queue vs shed.
	// Only an admitted statement reads pages, so the peak number of
	// concurrent page stalls counts admitted statements running at once.
	db.Fault = fault.New(fault.Config{SlowProb: 1, SlowDelay: time.Duration(cfg.SlowPageUs) * time.Microsecond})
	defer func() { db.Fault = nil }()
	var stalls struct {
		sync.Mutex
		now, peak int
	}
	db.Fault.SetSleep(func(d time.Duration) {
		stalls.Lock()
		stalls.now++
		stalls.peak = max(stalls.peak, stalls.now)
		stalls.Unlock()
		time.Sleep(d)
		stalls.Lock()
		stalls.now--
		stalls.Unlock()
	})
	slowQ := func(c, op int, r *rand.Rand) string {
		return "SELECT COUNT(*) AS n FROM t WHERE c >= 0"
	}
	baseline, err := workload.RunDriver(workload.DriverConfig{
		Addr: queueAddr.String(), Clients: 1, OpsPerClient: cfg.BaselineOps, Seed: 3, Statement: slowQ,
	})
	if err != nil {
		return nil, err
	}
	queued, err := workload.RunDriver(workload.DriverConfig{
		Addr: queueAddr.String(), Clients: cfg.Clients, OpsPerClient: cfg.OverloadOps, Seed: 4, Statement: slowQ,
	})
	if err != nil {
		return nil, err
	}
	shed, err := workload.RunDriver(workload.DriverConfig{
		Addr: shedAddr.String(), Clients: cfg.Clients, OpsPerClient: cfg.OverloadOps, Seed: 5, Statement: slowQ,
	})
	if err != nil {
		return nil, err
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000) }
	rep.AddRow("overload", "unloaded (1 client)", "p99 "+ms(baseline.Accepted.P99), baseline.Accepted.String())
	rep.AddRow("overload", fmt.Sprintf("queue (%d clients, gate %d)", cfg.Clients, cfg.MaxConc),
		"p99 "+ms(queued.Accepted.P99),
		fmt.Sprintf("%s; shed=%d", queued.Accepted.String(), queued.Shed))
	withinBar := shed.Accepted.P99 <= 2*baseline.Accepted.P99
	rep.AddRow("overload", fmt.Sprintf("shed (%d clients, depth %d) accepted", cfg.Clients, cfg.ShedDepth),
		"p99 "+ms(shed.Accepted.P99),
		fmt.Sprintf("%s; within 2x unloaded p99: %v", shed.Accepted.String(), withinBar))
	rep.AddRow("overload", "shed rejections",
		fmt.Sprintf("%d of %d", shed.Shed, shed.Requests),
		fmt.Sprintf("fail-fast %s", shed.ShedLat.String()))
	rep.AddRow("overload", "admitted concurrency",
		fmt.Sprintf("peak %d of gate %d", stalls.peak, cfg.MaxConc),
		"most statements stalled in page reads at once, queue and shed phases")
	rep.Notef("queue server %s, shed server %s; overload pages stalled %dµs each",
		queueAddr, shedAddr, cfg.SlowPageUs)
	if queued.Shed != 0 {
		return nil, fmt.Errorf("queue-mode server shed %d statements", queued.Shed)
	}
	if shed.Shed == 0 {
		rep.Notef("WARNING: shed-mode server shed nothing; overload too light for the gate")
	}
	return rep, nil
}
