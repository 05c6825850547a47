package bench

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"softdb/internal/engine"
	"softdb/internal/server"
	"softdb/internal/shard"
)

// S2Config sizes the shard-router experiment.
type S2Config struct {
	Rows       int     // total rows across the fleet (identical at every fleet size)
	Ops        int     // routed statements per measured phase
	Shards     []int   // fleet sizes for the scaling sweep; must start at 1
	MinSpeedup float64 // scaling bar from 1 shard to the largest fleet; 0 reports without gating (smoke scale)
}

// DefaultS2 is the scbench-scale configuration.
var DefaultS2 = S2Config{Rows: 40000, Ops: 60, Shards: []int{1, 2, 4}, MinSpeedup: 1.5}

// S2Fleet is one router-fronted shard fleet plus the single-node twin
// that receives every statement the router does (the parity oracle).
type S2Fleet struct {
	Router  *shard.Router
	Session *shard.Session
	single  *engine.Database
	close   []func()
}

func (f *S2Fleet) Close() {
	f.Session.Close()
	f.Router.Close()
	for _, fn := range f.close {
		fn()
	}
}

// exec applies a statement to the router AND the twin.
func (f *S2Fleet) exec(stmt string) error {
	if _, err := f.Session.Exec(context.Background(), stmt); err != nil {
		return fmt.Errorf("router %q: %w", stmt, err)
	}
	if _, err := f.single.Exec(stmt); err != nil {
		return fmt.Errorf("single %q: %w", stmt, err)
	}
	return nil
}

// s2Spec partitions the event table by equal ranges of the key space; a
// single shard hashes (everything routes to shard 0 either way).
func s2Spec(n, rows int) (shard.Spec, error) {
	if n == 1 {
		return shard.ParseSpec("events=hash(k)")
	}
	var bounds []string
	for i := 1; i < n; i++ {
		bounds = append(bounds, fmt.Sprintf("%d", i*rows/n))
	}
	return shard.ParseSpec(fmt.Sprintf("events=range(k:%s)", strings.Join(bounds, ",")))
}

// NewS2Fleet starts n engine servers on loopback, fronts them with a
// router, and loads rows spread over the key space: k is the partition
// key, v tracks k (so synced per-shard value ranges are disjoint and the
// registry can prune like a zone map), grp is a 10-way group column.
func NewS2Fleet(n, rows int) (*S2Fleet, error) {
	f := &S2Fleet{single: engine.Open()}
	f.single.NoIndexes = true
	cfg := shard.Config{DialTimeout: 5 * time.Second, DialAttempts: 3, TrackCols: []string{"events.v"}}
	for i := 0; i < n; i++ {
		db := engine.Open()
		db.NoIndexes = true
		srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
		addr, err := srv.Listen()
		if err != nil {
			f.Close()
			return nil, err
		}
		go srv.Serve()
		f.close = append(f.close, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		cfg.Addrs = append(cfg.Addrs, addr.String())
	}
	spec, err := s2Spec(n, rows)
	if err != nil {
		f.Close()
		return nil, err
	}
	cfg.Specs = []shard.Spec{spec}
	if f.Router, err = shard.New(cfg); err != nil {
		f.Close()
		return nil, err
	}
	f.Session = f.Router.NewSession()
	if err := f.exec("CREATE TABLE events (k INT NOT NULL, v INT, grp INT)"); err != nil {
		f.Close()
		return nil, err
	}
	// Insert keys in a scattered order (a fixed coprime stride walks the
	// whole key space) so every heap page's key synopsis spans nearly the
	// full range: the engines' own zone-map pruning then cannot shortcut
	// the range scans, and the scaling phase measures the router's
	// data-parallel split rather than page-synopsis luck.
	var vals []string
	for i := 0; i < rows; i++ {
		k := (i * 10007) % rows
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", k, k, k%10))
		if len(vals) == 200 || i == rows-1 {
			if err := f.exec("INSERT INTO events VALUES " + strings.Join(vals, ", ")); err != nil {
				f.Close()
				return nil, err
			}
			vals = vals[:0]
		}
	}
	return f, nil
}

// s2RangeStmt is the routed workload statement: an unindexed aggregate
// over a narrow partition-key band. The range spec narrows it to one
// shard, which then scans only its slice of the data — the throughput
// gain under scaling is data-parallel (each shard holds rows/n rows), not
// core-parallel.
func s2RangeStmt(rows int, r *rand.Rand) string {
	width := rows / 50
	lo := r.Intn(rows - width)
	return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(v) AS s FROM events WHERE k >= %d AND k < %d", lo, lo+width)
}

// s2Parity is the mixed read set hashed against the single-node twin.
func s2Parity(rows int) []string {
	return []string{
		"SELECT COUNT(*) AS n FROM events",
		"SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS mean FROM events",
		"SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM events GROUP BY grp ORDER BY grp",
		fmt.Sprintf("SELECT k, v FROM events WHERE k >= %d AND k < %d ORDER BY k", rows/3, rows/3+25),
		fmt.Sprintf("SELECT k FROM events WHERE v >= %d AND v <= %d ORDER BY k", rows-10, rows+100),
		"SELECT DISTINCT grp FROM events WHERE k < 500 ORDER BY grp",
	}
}

// S2Router runs the constraint-aware shard-router experiment:
//
//	(a) scaling: the same total data and the same routed range-aggregate
//	    workload at 1, 2, and 4 shards; shard-local scans shrink with the
//	    fleet, so routed throughput must grow >= 1.5x from 1 to 4;
//	(b) shard pruning: after ROUTER SYNC installs per-shard value-range
//	    characterizations (backed by shard-side soft CHECKs), a predicate
//	    on the tracked column that excludes every shard but one contacts
//	    exactly 1 of 4, with results hash-identical to the same query
//	    broadcast with pruning off;
//	(c) invalidation: a write violating a shard's characterization
//	    deactivates the backing constraint on the shard; the notice rides
//	    the write's response and retires the router's registry entry
//	    before the write returns, so the very next query sees the row.
//
// Every routed statement is replayed on a single-node twin engine and the
// result streams are FNV-64 hashed for parity.
func S2Router(cfg S2Config) (*Report, error) {
	rep := &Report{
		ID:     "S2",
		Title:  "constraint-aware sharded serving: router scaling, shard pruning, invalidation",
		Claim:  "per-shard soft-constraint characterizations prune whole shards the way zone maps prune pages (paper §4.1 violation handling extended across the wire), while partition routing yields data-parallel scaling",
		Header: []string{"phase", "config", "result", "detail"},
	}
	if len(cfg.Shards) == 0 || cfg.Shards[0] != 1 {
		return nil, fmt.Errorf("S2: cfg.Shards must start at 1, got %v", cfg.Shards)
	}

	// (a) scaling sweep. Same rows, same statements, bigger fleet.
	qps := map[int]float64{}
	for _, n := range cfg.Shards {
		f, err := NewS2Fleet(n, cfg.Rows)
		if err != nil {
			return nil, fmt.Errorf("S2 fleet n=%d: %w", n, err)
		}
		r := rand.New(rand.NewSource(7))
		start := time.Now()
		for i := 0; i < cfg.Ops; i++ {
			if _, err := f.Session.Exec(context.Background(), s2RangeStmt(cfg.Rows, r)); err != nil {
				f.Close()
				return nil, fmt.Errorf("S2 scaling n=%d: %w", n, err)
			}
		}
		took := time.Since(start)
		qps[n] = float64(cfg.Ops) / took.Seconds()
		rep.AddRow("scaling", fmt.Sprintf("shards=%d rows=%d", n, cfg.Rows),
			fmt.Sprintf("%.0f stmt/s", qps[n]),
			fmt.Sprintf("%d routed range aggregates in %.2fs", cfg.Ops, took.Seconds()))

		// Parity on every fleet size: the routed stream hashes identically
		// to the single-node twin.
		hr, hs := fnv.New64a(), fnv.New64a()
		for _, q := range s2Parity(cfg.Rows) {
			res, err := f.Session.Exec(context.Background(), q)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("S2 parity router %q: %w", q, err)
			}
			hashResult(hr, res.Columns, res.Rows)
			sres, err := f.single.Exec(q)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("S2 parity single %q: %w", q, err)
			}
			hashResult(hs, sres.Columns, sres.Rows)
		}
		match := hr.Sum64() == hs.Sum64()
		rep.AddRow("parity", fmt.Sprintf("shards=%d", n), fmt.Sprintf("match=%v", match),
			fmt.Sprintf("%d mixed statements, FNV-64 vs single-node twin", len(s2Parity(cfg.Rows))))
		if !match {
			f.Close()
			return nil, fmt.Errorf("S2: routed results diverged from the single-node twin at n=%d", n)
		}
		if n != cfg.Shards[len(cfg.Shards)-1] {
			f.Close()
		} else {
			// The largest fleet carries the pruning and invalidation phases.
			defer f.Close()
			if err := s2PrunePhases(rep, f, cfg, n); err != nil {
				return nil, err
			}
		}
	}
	n1, nMax := cfg.Shards[0], cfg.Shards[len(cfg.Shards)-1]
	speedup := qps[nMax] / qps[n1]
	bar := "informational at smoke scale"
	if cfg.MinSpeedup > 0 {
		bar = fmt.Sprintf("bar: >= %.1fx (data-parallel shard-local scans)", cfg.MinSpeedup)
	}
	rep.AddRow("scaling", fmt.Sprintf("speedup %d->%d shards", n1, nMax),
		fmt.Sprintf("%.2fx", speedup), bar)
	if cfg.MinSpeedup > 0 && speedup < cfg.MinSpeedup {
		return nil, fmt.Errorf("S2: routed throughput speedup %d->%d shards is %.2fx, want >= %.1fx", n1, nMax, speedup, cfg.MinSpeedup)
	}
	return rep, nil
}

// s2PrunePhases runs phases (b) and (c) on the largest fleet.
func s2PrunePhases(rep *Report, f *S2Fleet, cfg S2Config, n int) error {
	ctx := context.Background()
	if _, err := f.Session.Exec(ctx, "ROUTER SYNC"); err != nil {
		return fmt.Errorf("S2 sync: %w", err)
	}
	// A band of the tracked (non-partition) column v that only the last
	// shard's synced range covers. With pruning on, the registry excludes
	// the other n-1 shards without contacting them.
	lo, hi := cfg.Rows-cfg.Rows/(2*n), cfg.Rows-1
	q := fmt.Sprintf("SELECT COUNT(*) AS n, SUM(v) AS s FROM events WHERE v >= %d AND v <= %d", lo, hi)

	before := f.Router.ShardQueryCounts()
	pruned, err := f.Session.Exec(ctx, q)
	if err != nil {
		return fmt.Errorf("S2 pruned query: %w", err)
	}
	contacted := 0
	for i, c := range f.Router.ShardQueryCounts() {
		if c > before[i] {
			contacted++
		}
	}
	if err := f.Session.Set("shard_prune", "off"); err != nil {
		return err
	}
	before = f.Router.ShardQueryCounts()
	broadcast, err := f.Session.Exec(ctx, q)
	if err != nil {
		return fmt.Errorf("S2 broadcast query: %w", err)
	}
	bContacted := 0
	for i, c := range f.Router.ShardQueryCounts() {
		if c > before[i] {
			bContacted++
		}
	}
	if err := f.Session.Set("shard_prune", "on"); err != nil {
		return err
	}
	hp, hb := fnv.New64a(), fnv.New64a()
	hashResult(hp, pruned.Columns, pruned.Rows)
	hashResult(hb, broadcast.Columns, broadcast.Rows)
	rep.AddRow("shard-prune", fmt.Sprintf("shards=%d v in [%d,%d]", n, lo, hi),
		fmt.Sprintf("contacted %d pruned vs %d broadcast", contacted, bContacted),
		fmt.Sprintf("hash match=%v", hp.Sum64() == hb.Sum64()))
	if contacted != 1 {
		return fmt.Errorf("S2: pruned query contacted %d shards, want exactly 1", contacted)
	}
	if bContacted != n {
		return fmt.Errorf("S2: broadcast query contacted %d shards, want %d", bContacted, n)
	}
	if hp.Sum64() != hb.Sum64() {
		return fmt.Errorf("S2: pruned and broadcast results diverged")
	}

	// (c) invalidation: write a row whose v violates shard 0's synced
	// range. The deactivation notice must retire the registry entry before
	// the write returns, and the next query must see the row.
	outside := cfg.Rows + 1000
	probe := fmt.Sprintf("SELECT COUNT(*) AS n FROM events WHERE v = %d", outside)
	res, err := f.Session.Exec(ctx, probe)
	if err != nil {
		return err
	}
	if res.Rows[0][0].Int() != 0 {
		return fmt.Errorf("S2: probe row exists before the violating write")
	}
	retiredBefore := f.Router.Registry().Retired()
	// k=1 routes to shard 0; v far outside shard 0's synced v-range.
	if err := f.exec(fmt.Sprintf("INSERT INTO events VALUES (1, %d, 0)", outside)); err != nil {
		return err
	}
	retired := f.Router.Registry().Retired() - retiredBefore
	res, err = f.Session.Exec(ctx, probe)
	if err != nil {
		return err
	}
	visible := res.Rows[0][0].Int() == 1
	rep.AddRow("invalidation", fmt.Sprintf("shards=%d violating write", n),
		fmt.Sprintf("retired=%d visible=%v", retired, visible),
		"deactivation notice rides the write's own response")
	if retired == 0 {
		return fmt.Errorf("S2: violating write retired no registry entries")
	}
	if !visible {
		return fmt.Errorf("S2: row invisible after invalidation (stale shard prune)")
	}
	return nil
}
