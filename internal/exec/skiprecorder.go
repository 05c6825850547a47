package exec

import "sync"

// SkipRecorder attributes pruned pages to the prune-predicate source that
// proved them skippable — "filter" for the query's own sargable conjuncts,
// or a constraint/correlation/hole-set catalog name. One recorder serves a
// whole query — every scan and every nested-loop re-run shares it — so the
// engine can flush exact per-constraint totals into the economy ledger
// after the query quiesces.
//
// A nil *SkipRecorder ignores adds and reports nothing, matching the obs
// package's disable-by-nil convention: scans outside an economy-tracked
// query pay only a nil check per skipped page.
type SkipRecorder struct {
	mu       sync.Mutex
	bySource map[string]int64
}

// NewSkipRecorder returns an empty recorder.
func NewSkipRecorder() *SkipRecorder {
	return &SkipRecorder{bySource: map[string]int64{}}
}

// Add credits one skipped page to the named source.
func (r *SkipRecorder) Add(source string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.bySource[source]++
	r.mu.Unlock()
}

// AddN credits n events (e.g. every row of a short-circuited page) to
// source at once. Nil-safe like Add.
func (r *SkipRecorder) AddN(source string, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.bySource[source] += n
	r.mu.Unlock()
}

// merge credits r with every total of from. Nil-safe on both sides.
func (r *SkipRecorder) merge(from *SkipRecorder) {
	if r == nil || from == nil {
		return
	}
	for source, n := range from.Counts() {
		r.AddN(source, n)
	}
}

// Counts returns a copy of the per-source skip totals.
func (r *SkipRecorder) Counts() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.bySource))
	for k, v := range r.bySource {
		out[k] = v
	}
	return out
}

// Total returns the sum over all sources.
func (r *SkipRecorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, v := range r.bySource {
		n += v
	}
	return n
}
