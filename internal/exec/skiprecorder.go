package exec

import "sync"

// SkipRecorder attributes pruned pages to the prune-predicate source that
// proved them skippable — "filter" for the query's own sargable conjuncts,
// or a constraint/correlation/hole-set catalog name. One recorder serves a
// whole query — every scan and every nested-loop re-run shares it — so the
// engine can flush exact per-constraint totals into the economy ledger
// after the query quiesces.
//
// Scans credit a recorder once per predicate per execution (the prune pass
// tallies pages locally), and once per short-circuited page.
//
// A nil *SkipRecorder ignores adds and reports nothing, matching the obs
// package's disable-by-nil convention.
type SkipRecorder struct {
	mu       sync.Mutex
	bySource map[string]int64
}

// NewSkipRecorder returns an empty recorder.
func NewSkipRecorder() *SkipRecorder {
	return &SkipRecorder{bySource: map[string]int64{}}
}

// AddN credits n events (pages one predicate skipped in a scan, or every row
// of a short-circuited page) to source at once.
func (r *SkipRecorder) AddN(source string, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.bySource[source] += n
	r.mu.Unlock()
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
