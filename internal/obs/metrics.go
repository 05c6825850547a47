// Package obs is softdb's observability layer: a process-wide lock-free
// metrics registry with Prometheus text exposition, a per-query trace model
// (span tree plus optimizer decision events), a recent-queries ring buffer,
// and the debug HTTP surface that serves them. The package is a leaf — it
// imports nothing from the rest of softdb — so every layer (engine,
// optimizer, rewriter, executor, soft-constraint manager) can emit into it
// without dependency cycles.
//
// Every metric type is nil-receiver safe: a nil *Counter, *Gauge,
// *Histogram or *Registry turns the operation into a no-op, so callers can
// disable metrics wholesale by wiring a nil registry instead of branching
// at every update site.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Updates are single atomic
// adds — safe from any goroutine, no locks.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket latency/size histogram. Observe is lock-free:
// one binary search, two atomic adds and a compare-and-swap on the sum. The
// sum is kept as float64 bits, so sub-microsecond values (an engine lock
// wait) add up exactly instead of truncating to zero.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// DefLatencyBuckets are the default duration buckets, in seconds.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// family groups the series of one metric name for exposition.
type family struct {
	name, typ, help string
	counters        map[string]*Counter // series key (name with labels) → metric
	gauges          map[string]*Gauge
	hists           map[string]*Histogram
}

// Registry holds named metrics. Registration (first lookup of a new series)
// takes a write lock; steady-state lookups take a read lock, and the
// returned metric pointers update lock-free — hot paths should resolve
// their metrics once and hold the pointers.
type Registry struct {
	mu    sync.RWMutex
	fams  map[string]*family
	order []string // family registration order, for stable exposition
	// collectors run at the start of every exposition (see OnCollect).
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// seriesName renders name plus label pairs as a Prometheus series id.
func seriesName(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) fam(name, typ string) *family {
	f := r.fams[name]
	if f == nil {
		f = &family{
			name: name, typ: typ,
			counters: map[string]*Counter{},
			gauges:   map[string]*Gauge{},
			hists:    map[string]*Histogram{},
		}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	return f
}

// Describe pre-registers a metric family with its type and help text, so
// exposition lists it (and scrapers can discover it) before any series has
// been touched.
func (r *Registry) Describe(name, typ, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, typ)
	f.help = help
}

// Counter returns (creating on first use) the counter series for name with
// optional label key/value pairs: Counter("fires_total", "kind", "elim").
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	key := seriesName(name, labels)
	r.mu.RLock()
	if f, ok := r.fams[name]; ok {
		if c, ok := f.counters[key]; ok {
			r.mu.RUnlock()
			return c
		}
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, "counter")
	c, ok := f.counters[key]
	if !ok {
		c = &Counter{}
		f.counters[key] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge series for name.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	key := seriesName(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, "gauge")
	g, ok := f.gauges[key]
	if !ok {
		g = &Gauge{}
		f.gauges[key] = g
	}
	return g
}

// Histogram returns (creating on first use) the histogram series for name
// with optional label key/value pairs. bounds are only applied on creation.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	key := seriesName(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, "histogram")
	h, ok := f.hists[key]
	if !ok {
		h = newHistogram(bounds)
		f.hists[key] = h
	}
	return h
}

// OnCollect registers fn to run at the start of every WritePrometheus,
// before any series is rendered: the place to refresh metrics whose value
// is cheaper to compute when asked than to maintain on every change.
func (r *Registry) OnCollect(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4). Families appear in registration order;
// series within a family are sorted, so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	collectors := r.collectors
	r.mu.RUnlock()
	for _, fn := range collectors {
		fn()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.order {
		f := r.fams[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, key := range sortedKeys(f.counters) {
			if _, err := fmt.Fprintf(w, "%s %d\n", key, f.counters[key].Value()); err != nil {
				return err
			}
		}
		for _, key := range sortedKeys(f.gauges) {
			if _, err := fmt.Fprintf(w, "%s %d\n", key, f.gauges[key].Value()); err != nil {
				return err
			}
		}
		for _, key := range sortedKeys(f.hists) {
			h := f.hists[key]
			// A labeled series renders its labels on every line, with le
			// appended to them on the bucket lines.
			labels := strings.TrimSuffix(strings.TrimPrefix(key[len(f.name):], "{"), "}")
			set, le := "", "{le="
			if labels != "" {
				set, le = "{"+labels+"}", "{"+labels+",le="
			}
			cum := int64(0)
			for i, bound := range h.bounds {
				cum += h.buckets[i].Load()
				if _, err := fmt.Fprintf(w, "%s_bucket%s%q} %d\n", f.name, le, trimFloat(bound), cum); err != nil {
					return err
				}
			}
			cum += h.buckets[len(h.bounds)].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s\"+Inf\"} %d\n", f.name, le, cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", f.name, set, h.Sum(), f.name, set, h.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", f), "0"), ".")
}
