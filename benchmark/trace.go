package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"softdb/internal/client"
	"softdb/internal/engine"
	"softdb/internal/opt"
	"softdb/internal/plan"
	"softdb/internal/rewrite"
	"softdb/internal/sql"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the run began; Parent indexes the owning list (-1 for a root);
// spans of one statement share Stmt.
type span struct {
	Name       string
	Start, End int64
	Parent     int32
	Stmt       int32
}

// spanList is an in-memory span list; times count from began.
type spanList struct {
	began time.Time
	spans []span
}

// add appends a span and returns its index, for children to name as parent.
func (l *spanList) add(name string, parent int, stmtID int32, start, end time.Time) int {
	l.spans = append(l.spans, span{
		Name: name, Parent: int32(parent), Stmt: stmtID,
		Start: start.Sub(l.began).Nanoseconds(), End: end.Sub(l.began).Nanoseconds(),
	})
	return len(l.spans) - 1
}

// layerTrace is what the post-window pass of a traced run measured. The
// layers are timed from outside, around calls into their exported
// functions, with every output discarded.
type layerTrace struct {
	spanList
	// Per decomposed SELECT.
	parse, build, rewrite, optimize, exec []time.Duration
	wireOver                              []time.Duration // in-window round trip − engine.exec, per statement
	fires                                 []float64       // rewrite-rule firings
	qerr                                  []float64       // root estimate vs actual rows
	stmts                                 int
	pagesRead, pagesSkipped               int64
	rowsRead, rowsOut                     int64
	shortCircuits, comparisons, probes    int64
	// sharded_mixed: frontend round trip − direct round trip to the owning
	// shard, per single-shard statement.
	routeOver []time.Duration
}

// decompose replays the sampled statements after the window, one at a
// time with no traffic in flight, against the live engine that served
// them: sql.Parse, plan.Builder.BuildSelect, rewrite.Rewriter.Rewrite,
// opt.Optimizer.Optimize with outputs discarded, then db.ExecCtx, whose
// Result.Ctx supplies the counters. Replaying inside the window would race
// the catalog against the writer (the catalog is guarded by the engine's
// own lock, which outside callers cannot take) and would add plan-cache
// hits of its own. Sampled writes are parsed only.
func decompose(r *run, sys *system, logs []*clientLog) (*layerTrace, error) {
	lt := &layerTrace{spanList: spanList{began: r.began}}
	var reqs []shadowReq
	trips := map[int32]time.Duration{}
	for _, log := range logs {
		reqs = append(reqs, log.shadows...)
		for _, sp := range log.spans {
			if sp.Name == "client.roundtrip" {
				trips[sp.Stmt] = time.Duration(sp.End - sp.Start)
			}
		}
	}
	stride := (len(reqs) + maxShadows - 1) / maxShadows
	var direct []*client.Conn
	var front *client.Conn
	if sys.router != nil {
		var err error
		if front, err = client.Connect(sys.addr); err != nil {
			return nil, err
		}
		defer front.Close()
		for _, addr := range sys.shardAddrs {
			c, err := client.Connect(addr)
			if err != nil {
				return nil, err
			}
			defer c.Close()
			direct = append(direct, c)
		}
	}
	ctx := context.Background()
	for i := 0; i < len(reqs); i += stride {
		req := reqs[i]
		t0 := time.Now()
		parsed, err := sql.Parse(req.s.text)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("shadow parse %q: %w", req.s.text, err)
		}
		root := lt.add("shadow", -1, req.stmtID, t0, t0)
		lt.add("sql.parse", root, req.stmtID, t0, t1)
		lt.parse = append(lt.parse, t1.Sub(t0))
		end := t1
		sel, isSelect := parsed.(*sql.Select)
		// A broadcast statement has no single engine that sees all its
		// rows; only its parse is attributed.
		if isSelect && (sys.router == nil || req.s.shard >= 0) {
			db := sys.dbs[0]
			if req.s.shard >= 0 {
				db = sys.dbs[req.s.shard]
			}
			if end, err = lt.shadowSelect(db, sel, req, root, t1); err != nil {
				return nil, err
			}
			lt.wireOver = append(lt.wireOver, trips[req.stmtID]-lt.exec[len(lt.exec)-1])
		}
		if isSelect && req.s.shard >= 0 {
			// router overhead: frontend round trip vs the owning shard's.
			a := time.Now()
			if _, err := front.Query(ctx, req.s.text); err != nil {
				return nil, err
			}
			b := time.Now()
			if _, err := direct[req.s.shard].Query(ctx, req.s.text); err != nil {
				return nil, err
			}
			end = time.Now()
			lt.add("shard.route", root, req.stmtID, a, b)
			lt.add("shard.direct", root, req.stmtID, b, end)
			lt.routeOver = append(lt.routeOver, b.Sub(a)-end.Sub(b))
		}
		lt.spans[root].End = end.Sub(lt.began).Nanoseconds()
	}
	return lt, nil
}

func (lt *layerTrace) shadowSelect(db *engine.Database, sel *sql.Select, req shadowReq, root int, t1 time.Time) (time.Time, error) {
	logical, err := (&plan.Builder{Catalog: db.Catalog()}).BuildSelect(sel)
	t2 := time.Now()
	if err != nil {
		return t2, fmt.Errorf("shadow build %q: %w", req.s.text, err)
	}
	rw := &rewrite.Rewriter{Cat: db.Catalog(), Opt: db.RewriteOpts}
	logical = rw.Rewrite(logical)
	t3 := time.Now()
	_, err = (&opt.Optimizer{Cat: db.Catalog()}).Optimize(logical)
	t4 := time.Now()
	if err != nil {
		return t4, fmt.Errorf("shadow optimize %q: %w", req.s.text, err)
	}
	res, err := db.ExecCtx(context.Background(), req.s.text)
	t5 := time.Now()
	if err != nil {
		return t5, fmt.Errorf("shadow exec %q: %w", req.s.text, err)
	}
	lt.add("plan.build", root, req.stmtID, t1, t2)
	lt.add("rewrite.rewrite", root, req.stmtID, t2, t3)
	lt.add("opt.optimize", root, req.stmtID, t3, t4)
	lt.add("engine.exec", root, req.stmtID, t4, t5)
	lt.build = append(lt.build, t2.Sub(t1))
	lt.rewrite = append(lt.rewrite, t3.Sub(t2))
	lt.optimize = append(lt.optimize, t4.Sub(t3))
	lt.exec = append(lt.exec, t5.Sub(t4))
	lt.fires = append(lt.fires, float64(len(rw.Trace)))
	est, act := res.EstRows, float64(len(res.Rows))
	if est < 1 {
		est = 1
	}
	if act < 1 {
		act = 1
	}
	if est < act {
		est, act = act, est
	}
	lt.qerr = append(lt.qerr, est/act)
	lt.stmts++
	io := res.Ctx.IO
	lt.pagesRead += io.PagesRead
	lt.pagesSkipped += io.PagesSkipped
	lt.rowsRead += io.RowsRead
	lt.rowsOut += int64(len(res.Rows))
	lt.shortCircuits += res.Ctx.ShortCircuits
	lt.comparisons += res.Ctx.Comparisons
	lt.probes += res.Ctx.HashProbes
	return t5, nil
}

// timed records fn as a one-off root span and returns how long it took.
func (lt *layerTrace) timed(name string, fn func()) time.Duration {
	a := time.Now()
	fn()
	b := time.Now()
	lt.add(name, -1, -1, a, b)
	return b.Sub(a)
}

func p50(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.5)
}

// selfTimes totals each span name's self time: its duration minus the part
// its child spans cover. Children of one parent run one after another, so
// their durations add.
func selfTimes(lists ...[]span) map[string]int64 {
	self := map[string]int64{}
	for _, spans := range lists {
		covered := make([]int64, len(spans))
		for _, sp := range spans {
			if sp.Parent >= 0 {
				covered[sp.Parent] += sp.End - sp.Start
			}
		}
		for i, sp := range spans {
			self[sp.Name] += sp.End - sp.Start - covered[i]
		}
	}
	return self
}

// writeTrace writes every span kept in memory to
// <outDir>/trace-<workload>.json. Parent indexes are local to each
// list, so each list is written as its own array.
func writeTrace(r *run, lists ...[]span) (string, error) {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(r.outDir, "trace-"+r.wl.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"stmt\"],\"self_ns\":{", r.wl.name, r.seed)
	self := selfTimes(lists...)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q:%d", n, self[n])
	}
	w.WriteString("},\"span_lists\":[")
	for li, spans := range lists {
		if li > 0 {
			w.WriteByte(',')
		}
		w.WriteByte('[')
		for i, sp := range spans {
			if i > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "[%q,%d,%d,%d,%d]", sp.Name, sp.Start, sp.End, sp.Parent, sp.Stmt)
		}
		w.WriteByte(']')
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
