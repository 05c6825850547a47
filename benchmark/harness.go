package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"softdb/internal/client"
	"softdb/internal/exec"
)

// The load model is fixed: every workload is a closed loop of nClients
// wire connections (= nproc of the reference sandbox), one goroutine each,
// generated from this process. A client sends its next statement only when
// the previous reply has arrived.
const (
	nClients = 2
	// setupReps is how many times a run sets the system up; setup_s is the
	// median, so one slow load does not decide it.
	setupReps = 5
	// Every timing is a median over equal sub-windows of the measured
	// window, so a burst of interference costs one sub-window, not the run.
	// subWindows is how many throughput_ops_s and read_p50_ms use, and
	// read_p99_ms too unless one of them would hold under minP99Samples
	// reads — a p99 needs ten samples beyond it — when it uses fewer.
	subWindows    = 10
	minP99Samples = 1000
	// maxChecks caps the distinct SELECT texts the correctness gate
	// re-executes: the reference plans are full scans.
	maxChecks = 96
	// traceEvery is the share of statements the traced run decomposes;
	// maxShadows caps how many of them the post-window pass replays.
	traceEvery = 16
	maxShadows = 2048
)

type stmtKind uint8

const (
	kindRead  stmtKind = iota // SELECT: counts into read_*
	kindWrite                 // INSERT/UPDATE/COMMIT: counts into write_*
	kindBegin                 // BEGIN: answered and counted, excluded from write_*
)

// stmt is one generated statement. The system under test only ever sees
// text.
type stmt struct {
	text string
	kind stmtKind
	// shard is the owning shard of a single-shard statement on
	// sharded_mixed (where the direct-connection probe sends it); -1
	// otherwise.
	shard int
	// check marks a SELECT whose answer the correctness gate may verify.
	check bool
	// key and val are what a write makes durable once acknowledged: the
	// row id (or shard key) and, for an UPDATE, the new amount.
	key int64
	val float64
}

// stream is one client's statement sequence: a pure function of (seed,
// workload, client). acked is told of every statement the server
// acknowledged, in order, so write workloads can track what must be
// durable or replayed into the twin.
type stream interface {
	next() stmt
	acked(s stmt)
	// inTxn reports whether the last statement left a transaction open;
	// the window never ends inside one.
	inTxn() bool
}

// readOnly is the stream bookkeeping of workloads that never write.
type readOnly struct{}

func (readOnly) acked(stmt)  {}
func (readOnly) inTxn() bool { return false }

type sample struct {
	at   time.Duration // start, as an offset into the measured window
	dur  time.Duration
	kind stmtKind
}

// clientLog is what one client goroutine observed. Only that goroutine
// writes it until the window ends.
type clientLog struct {
	samples   []sample // every statement answered without error inside the window
	attempted int64
	failed    int64
	conflicts int64
	commits   int64 // acknowledged autocommit writes and COMMITs inside the window
	done      int64 // statements answered without error inside the window
	firstErr  error
	lastEnd   time.Duration // completion of the last in-window statement
	// seen holds the distinct check-marked SELECT texts and, on read-only
	// workloads, the hash of the first in-window answer to each.
	seen map[string]uint64
	// traced run only.
	spanList
	shadows []shadowReq
}

// shadowReq is a sampled statement queued for post-window decomposition.
type shadowReq struct {
	s      stmt
	stmtID int32
}

// drive runs the closed loop: warm-up, then the measured window, on
// nClients connections to addr. Statements that start inside
// [t0, t0+window) are measured; a client finishes an open transaction
// before it stops.
func drive(r *run, sys *system, streams []stream) ([]*clientLog, error) {
	conns := make([]*client.Conn, nClients)
	for c := range conns {
		conn, err := client.Connect(sys.addr)
		if err != nil {
			return nil, fmt.Errorf("connect client %d: %w", c, err)
		}
		defer conn.Close()
		conns[c] = conn
	}
	// Prime the fixed-text pools so the warm-up starts from compiled plans.
	for _, text := range sys.pool {
		if _, err := conns[0].Query(context.Background(), text); err != nil {
			return nil, fmt.Errorf("prime %q: %w", text, err)
		}
	}

	logs := make([]*clientLog, nClients)
	t0 := time.Now().Add(r.warm)
	// The first client to reach the window snapshots the layer counters.
	var startOnce sync.Once
	snapshot := func() { sys.before = sys.counters() }
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		// Sized for the fastest workload so appends never reallocate inside
		// the window; the slack is the same on every commit.
		log := &clientLog{seen: map[string]uint64{}, spanList: spanList{began: r.began}}
		log.samples = make([]sample, 0, int(r.window.Seconds()+1)*40000)
		logs[c] = log
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := streams[c]
			for n := int32(0); ; n++ {
				genStart := time.Now()
				if !genStart.Before(t0.Add(r.window)) && !st.inTxn() {
					return
				}
				s := st.next()
				if !genStart.Before(t0) {
					startOnce.Do(snapshot)
				}
				start := time.Now()
				inWindow := !start.Before(t0) && start.Before(t0.Add(r.window))
				res, err := conns[c].Query(context.Background(), s.text)
				end := time.Now()
				if err == nil {
					st.acked(s)
				}
				if !inWindow {
					if err != nil && log.firstErr == nil {
						log.firstErr = fmt.Errorf("outside window: %q: %w", s.text, err)
					}
					continue
				}
				log.attempted++
				if err != nil {
					log.failed++
					if client.Kind(err) == exec.KindConflict {
						log.conflicts++
					}
					if log.firstErr == nil {
						log.firstErr = fmt.Errorf("%q: %w", s.text, err)
					}
					if errors.Is(err, client.ErrConnBroken) {
						return
					}
					continue
				}
				log.done++
				if s.kind == kindWrite && !st.inTxn() {
					log.commits++
				}
				log.lastEnd = end.Sub(t0)
				log.samples = append(log.samples, sample{at: start.Sub(t0), dur: end.Sub(start), kind: s.kind})
				if s.check {
					if _, ok := log.seen[s.text]; !ok {
						h := uint64(0)
						if sys.readOnly {
							h = answerHash(s.text, res.Columns, res.Rows)
						}
						log.seen[s.text] = h
					}
				}
				if r.traced {
					id := int32(c)<<24 | n
					if n%traceEvery == 0 {
						log.shadows = append(log.shadows, shadowReq{s: s, stmtID: id})
					}
					root := log.add("stmt", -1, id, genStart, time.Now())
					log.add("client.roundtrip", root, id, start, end)
				}
			}
		}(c)
	}
	wg.Wait()
	sys.after = sys.counters()
	for c, log := range logs {
		if log.attempted == 0 {
			return nil, fmt.Errorf("client %d measured nothing (first error: %v)", c, log.firstErr)
		}
	}
	return logs, nil
}

// --- statistics ---

func durations(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.dur
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile reads the q-quantile off an ascending slice (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// split cuts the samples into n equal sub-windows of the measured window
// by start time.
func split(ss []sample, window time.Duration, n int) [][]sample {
	buckets := make([][]sample, n)
	for _, s := range ss {
		i := int(int64(s.at) * int64(n) / int64(window))
		if i >= n {
			i = n - 1
		}
		buckets[i] = append(buckets[i], s)
	}
	return buckets
}

// windowedQuantile is the median of the per-sub-window q-quantiles over n
// sub-windows.
func windowedQuantile(ss []sample, window time.Duration, n int, q float64) time.Duration {
	qs := make([]float64, 0, n)
	for _, b := range split(ss, window, n) {
		if len(b) > 0 {
			qs = append(qs, float64(quantile(durations(b), q)))
		}
	}
	return time.Duration(median(qs))
}

// windowedRate is the median of the per-sub-window statement rates, in
// statements per second.
func windowedRate(ss []sample, window time.Duration, n int) float64 {
	rates := make([]float64, n)
	for i, b := range split(ss, window, n) {
		rates[i] = float64(len(b)) / (window.Seconds() / float64(n))
	}
	return median(rates)
}

// windowedP99 is the median of per-sub-window p99s, over the most
// sub-windows (10, 5, 3 or 1) that each hold minN samples. It reports how
// many sub-windows it used and the smallest sample count among them; zero
// sub-windows means the run was undersized.
func windowedP99(ss []sample, window time.Duration, minN int) (p99 time.Duration, windows, fewest int) {
	for _, n := range []int{subWindows, 5, 3, 1} {
		fewest = len(ss)
		for _, b := range split(ss, window, n) {
			if len(b) < fewest {
				fewest = len(b)
			}
		}
		if fewest >= minN {
			return windowedQuantile(ss, window, n, 0.99), n, fewest
		}
	}
	return 0, 0, fewest
}

func ofKind(ss []sample, k stmtKind) []sample {
	var out []sample
	for _, s := range ss {
		if s.kind == k {
			out = append(out, s)
		}
	}
	return out
}

// liveHeapMB is HeapInuse after a forced collection: what the process
// keeps, not what it churned through.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}
