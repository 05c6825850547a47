package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// smokeRun runs one workload at 1/20 data with a 1 s window.
func smokeRun(t *testing.T, wl *workload, traced bool) *report {
	t.Helper()
	r := &run{
		wl: wl, seed: 7, window: time.Second, warm: 200 * time.Millisecond,
		traced: traced, smoke: true, workDir: t.TempDir(), outDir: t.TempDir(),
	}
	rep, err := r.execute()
	if err != nil {
		t.Fatalf("%s traced=%v: %v (notes: %v)", wl.name, traced, err, r.notes)
	}
	return rep
}

// TestSmoke asserts every metric is present, finite and non-negative on
// the workloads that define it, and that every workload checks answers.
func TestSmoke(t *testing.T) {
	// Which workloads produce the end-to-end metrics not all of them have.
	extras := map[string][]string{
		"point_lookup":     {"failed_frac"},
		"analytic_sqo":     {"failed_frac"},
		"mixed_rw_durable": {"failed_frac", "write_p50_ms", "write_p99_ms", "recovery_s"},
		"sharded_mixed":    {"failed_frac", "write_p50_ms", "write_p99_ms"},
	}
	// Differences of two measurements: finite, but noise can push a small
	// one below zero.
	signed := map[string]bool{"server.wire_overhead_us": true, "shard.router_overhead_us": true}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			rep := smokeRun(t, wl, traced)
			if !rep.Correct || rep.Failed != 0 || rep.Checked < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d checked=%d", wl.name, traced, rep.Correct, rep.Failed, rep.Checked)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", wl.name, traced, d.name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (m.Value < 0 && !signed[d.name]):
					t.Errorf("%s traced=%v: %s = %v", wl.name, traced, d.name, m.Value)
				case m.Unit != d.unit:
					t.Errorf("%s: %s unit %q, want %q", wl.name, d.name, m.Unit, d.unit)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", wl.name, d.name)
				}
			}
			if traced {
				if _, err := os.Stat(rep.TraceFile); err != nil {
					t.Errorf("%s: span file: %v", wl.name, err)
				}
				continue
			}
			want := extras[wl.name]
			if len(rep.Extra) != len(want) {
				t.Errorf("%s: extra metrics %v, want %v", wl.name, rep.Extra, want)
			}
			for _, name := range want {
				if m, ok := rep.Extra[name]; !ok || math.IsNaN(m.Value) || m.Value < 0 {
					t.Errorf("%s: extra metric %s = %v (present %v)", wl.name, name, m.Value, ok)
				}
			}
		}
	}
}

// streamHash hashes the first n statements of every client's stream.
func streamHash(wl *workload, seed int64, n int) []uint64 {
	r := &run{wl: wl, seed: seed, smoke: true}
	sizes := map[string]int{
		"purchase": 10000, "fact": 5000, "orders": 1000, "orders_wide": 2500, "events": 4000,
	}
	sys := &system{sizes: sizes, nextID: 10000}
	switch wl.name {
	case "analytic_sqo":
		sys.pool = analyticPool(sizes)
	case "mixed_rw_durable":
		sys.pool = durableReadPool(sizes["purchase"])
	case "sharded_mixed":
		sys.pool = []string{"SELECT 1", "SELECT 2"}
	}
	var out []uint64
	for _, st := range wl.streams(r, sys) {
		h := fnv.New64a()
		for i := 0; i < n; i++ {
			s := st.next()
			st.acked(s)
			h.Write([]byte(s.text))
			h.Write([]byte{byte(s.kind)})
		}
		out = append(out, h.Sum64())
	}
	return out
}

// TestStreamsDeterministic: the same seed gives every client the same
// statements; another seed gives other ones; two clients differ.
func TestStreamsDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := streamHash(wl, 1, 2000), streamHash(wl, 1, 2000), streamHash(wl, 2, 2000)
		if len(a) != nClients {
			t.Fatalf("%s: %d streams, want %d", wl.name, len(a), nClients)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different streams", wl.name)
		}
		for i := range a {
			if a[i] == c[i] {
				t.Errorf("%s: client %d: seeds 1 and 2 give the same stream", wl.name, i)
			}
		}
		if a[0] == a[1] {
			t.Errorf("%s: both clients send the same stream", wl.name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in main.go in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name, Unit, Why string
		Bound           float64
	}
	var bf struct {
		Command    []string
		Paths      []string
		Workloads  []named
		EndToEnd   []named `json:"end_to_end"`
		PerLayer   []named `json:"per_layer"`
		RunSeconds int     `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"benchmark"}) || !reflect.DeepEqual(bf.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("paths %v command %v", bf.Paths, bf.Command)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || len(bf.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars)", i, bf.Workloads[i].Name, len(bf.Workloads[i].Why))
		}
	}
	for _, c := range []struct {
		got  []named
		want []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%d metrics, want %d", len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit || c.got[i].Bound > 0.25 {
				t.Errorf("metric %d: %+v, want %+v", i, c.got[i], d)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("got %v %v %v", q1, med, q3)
	}
}

func TestWindowedP99(t *testing.T) {
	var ss []sample
	for i := 0; i < 10000; i++ { // 1000 per tenth of a 10 s window; two slow tenths
		d := time.Millisecond
		if i >= 8000 {
			d = 10 * time.Millisecond
		}
		ss = append(ss, sample{at: time.Duration(i) * time.Millisecond, dur: d})
	}
	p99, windows, fewest := windowedP99(ss, 10*time.Second, 1000)
	if p99 != time.Millisecond || windows != 10 || fewest != 1000 {
		t.Errorf("p99 %v over %d windows (fewest %d)", p99, windows, fewest)
	}
	if _, windows, _ = windowedP99(ss, 10*time.Second, 1500); windows != 5 {
		t.Errorf("fell back to %d windows, want 5", windows)
	}
	if _, windows, _ = windowedP99(ss, 10*time.Second, 20000); windows != 0 {
		t.Errorf("undersized run used %d windows", windows)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "stmt", Start: 0, End: 100, Parent: -1},
		{Name: "client.roundtrip", Start: 10, End: 90, Parent: 0},
	}
	self := selfTimes(spans)
	if self["stmt"] != 20 || self["client.roundtrip"] != 80 {
		t.Errorf("self times %v", self)
	}
}
