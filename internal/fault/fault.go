// Package fault is a deterministic fault-injection harness for softdb's
// robustness testing. An Injector is configured with a seed and per-site
// probabilities; the executor consults it at every simulated page read and
// the engine's maintenance paths consult it per refresh attempt. Injected
// faults come in three flavors:
//
//   - storage read errors (a page read fails with an error wrapping
//     ErrInjected),
//   - operator panics (the read site panics with an *InjectedPanic value,
//     exercising every recover() boundary), and
//   - artificial slow pages (the read site sleeps, exercising deadlines
//     and cancellation).
//
// Decisions are drawn from a single seeded PRNG behind a mutex, so a given
// seed produces the same decision sequence run over run. When concurrent
// queries share an injector, which query draws which decision depends on
// scheduling, but the differential property the test suite checks — a
// query either returns correct rows or a typed error, never wrong rows —
// holds for any interleaving.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is wrapped by every injected storage read error, so callers
// can classify injected faults with errors.Is (e.g. the softc retry path
// treats them as transient).
var ErrInjected = errors.New("injected storage fault")

// InjectedPanic is the value an injected operator panic carries; recover
// sites surface it inside a QueryError, and tests assert on the type to
// distinguish injected panics from real bugs.
type InjectedPanic struct {
	// Site is the operator or subsystem label active when the panic fired.
	Site string
	// N is the 1-based ordinal of this panic within the injector's run.
	N int64
}

// String renders the panic value.
func (p *InjectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic #%d at %s", p.N, p.Site)
}

// Config sets the fault mix. Probabilities are per page-read decision in
// [0,1]; zero disables that fault flavor.
type Config struct {
	// Seed seeds the decision PRNG.
	Seed int64
	// ReadErrProb is the probability a page read returns an error.
	ReadErrProb float64
	// PanicProb is the probability a page read panics instead of
	// returning, simulating a poisoned operator.
	PanicProb float64
	// SlowProb is the probability a page read sleeps for SlowDelay,
	// simulating a stalled I/O.
	SlowProb float64
	// SlowDelay is how long a slow page stalls.
	SlowDelay time.Duration

	// The WAL sites below are deterministic (byte/ordinal triggers, not
	// probabilities) so every durability failure mode is reachable at an
	// exact point, run over run.

	// WALTornAfter, when > 0, tears the WAL: once the injector has allowed
	// this many cumulative log bytes, the write that crosses the boundary
	// persists only the bytes up to it and fails — simulating a crash
	// mid-append. Later writes fail with zero bytes allowed.
	WALTornAfter int64
	// WALSyncFailAt, when > 0, fails the Nth WAL fsync (1-based) and every
	// fsync after it, simulating a dying device.
	WALSyncFailAt int64
	// WALSnapTornAfter, when > 0, tears the checkpoint snapshot temp file
	// after this many cumulative snapshot bytes — simulating a crash
	// mid-checkpoint.
	WALSnapTornAfter int64
	// WALReadLimit, when > 0, caps how many bytes of the log recovery may
	// read, simulating a short read of the tail.
	WALReadLimit int64
}

// Stats counts what the injector did.
type Stats struct {
	Decisions  int64 // page-read decisions taken
	ReadErrors int64 // injected read errors
	Panics     int64 // injected panics
	Slowdowns  int64 // injected slow pages

	WALTornWrites   int64 // torn WAL appends
	WALSyncFailures int64 // failed WAL fsyncs
	WALSnapTorn     int64 // torn checkpoint snapshot writes
	WALShortReads   int64 // recovery reads capped short
}

// Injector draws deterministic fault decisions. Safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	cfg   Config
	stats Stats
	// sleep is swappable for tests.
	sleep func(time.Duration)

	walBytes  int64 // cumulative WAL bytes allowed through WALWriteAllow
	walSyncs  int64 // WAL fsyncs attempted
	snapBytes int64 // cumulative snapshot bytes allowed through WALSnapAllow
}

// New returns an injector for the given config.
func New(cfg Config) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		cfg:   cfg,
		sleep: time.Sleep,
	}
}

// PageRead is the storage-read fault site: the executor calls it once per
// simulated page touch with the active operator's label. It may sleep (slow
// page), return an error (read error), or panic (poisoned operator). A nil
// injector is a no-op so call sites need no guard.
func (i *Injector) PageRead(site string) error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	i.stats.Decisions++
	c := i.cfg
	r := i.rng.Float64()
	var (
		slow   bool
		fail   bool
		blow   bool
		panicN int64
	)
	// One draw decides the flavor: disjoint probability bands keep the
	// per-decision cost at a single Float64 call.
	switch {
	case r < c.ReadErrProb:
		fail = true
		i.stats.ReadErrors++
	case r < c.ReadErrProb+c.PanicProb:
		blow = true
		i.stats.Panics++
		panicN = i.stats.Panics
	case r < c.ReadErrProb+c.PanicProb+c.SlowProb:
		slow = true
		i.stats.Slowdowns++
	}
	sleep := i.sleep
	i.mu.Unlock()

	if slow {
		sleep(c.SlowDelay)
	}
	if blow {
		panic(&InjectedPanic{Site: site, N: panicN})
	}
	if fail {
		return fmt.Errorf("fault: page read at %s: %w", site, ErrInjected)
	}
	return nil
}

// Attempt is the maintenance-path fault site: async refresh attempts call
// it once per attempt and retry on the injected (transient) error. It never
// panics or sleeps. A nil injector is a no-op.
func (i *Injector) Attempt(site string) error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.stats.Decisions++
	if i.rng.Float64() < i.cfg.ReadErrProb {
		i.stats.ReadErrors++
		return fmt.Errorf("fault: refresh attempt at %s: %w", site, ErrInjected)
	}
	return nil
}

// WALWriteAllow is the WAL-append fault site: the log writer asks how many
// of the next n bytes may reach the file. Without a configured tear it
// returns (n, nil). When the cumulative allowance crosses WALTornAfter it
// returns the partial count up to the boundary plus an error wrapping
// ErrInjected — the writer persists exactly that prefix, simulating a torn
// write. A nil injector allows everything.
func (i *Injector) WALWriteAllow(n int) (int, error) {
	if i == nil {
		return n, nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.cfg.WALTornAfter <= 0 {
		i.walBytes += int64(n)
		return n, nil
	}
	remaining := i.cfg.WALTornAfter - i.walBytes
	if remaining >= int64(n) {
		i.walBytes += int64(n)
		return n, nil
	}
	if remaining < 0 {
		remaining = 0
	}
	i.walBytes += remaining
	i.stats.WALTornWrites++
	return int(remaining), fmt.Errorf("fault: torn WAL write after %d bytes: %w", i.cfg.WALTornAfter, ErrInjected)
}

// WALSync is the WAL-fsync fault site: the Nth fsync (and every one after)
// fails when WALSyncFailAt is set. A nil injector is a no-op.
func (i *Injector) WALSync() error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.walSyncs++
	if i.cfg.WALSyncFailAt > 0 && i.walSyncs >= i.cfg.WALSyncFailAt {
		i.stats.WALSyncFailures++
		return fmt.Errorf("fault: WAL fsync #%d failed: %w", i.walSyncs, ErrInjected)
	}
	return nil
}

// WALSnapAllow is the checkpoint-snapshot fault site, mirroring
// WALWriteAllow for the snapshot temp file.
func (i *Injector) WALSnapAllow(n int) (int, error) {
	if i == nil {
		return n, nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.cfg.WALSnapTornAfter <= 0 {
		i.snapBytes += int64(n)
		return n, nil
	}
	remaining := i.cfg.WALSnapTornAfter - i.snapBytes
	if remaining >= int64(n) {
		i.snapBytes += int64(n)
		return n, nil
	}
	if remaining < 0 {
		remaining = 0
	}
	i.snapBytes += remaining
	i.stats.WALSnapTorn++
	return int(remaining), fmt.Errorf("fault: torn snapshot write after %d bytes: %w", i.cfg.WALSnapTornAfter, ErrInjected)
}

// WALReadCap is the short-read fault site: recovery asks how much of a
// size-byte log it may read and gets min(size, WALReadLimit). A nil
// injector (or an unset limit) allows the full size.
func (i *Injector) WALReadCap(size int64) int64 {
	if i == nil {
		return size
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.cfg.WALReadLimit <= 0 || size <= i.cfg.WALReadLimit {
		return size
	}
	i.stats.WALShortReads++
	return i.cfg.WALReadLimit
}

// Stats returns a snapshot of the injector's activity.
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

// SetSleep overrides the slow-page sleep function (tests).
func (i *Injector) SetSleep(f func(time.Duration)) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.sleep = f
}
