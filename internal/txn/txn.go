// Package txn implements softdb's transaction manager: a monotonic commit
// clock, snapshot handout, and the bookkeeping MVCC needs around it (which
// transactions hold write intents, and what the oldest snapshot any reader
// still holds is, so vacuum and synopsis maintenance know which dead
// versions are truly dead).
//
// The concurrency model is single-writer MVCC: the engine serializes the
// apply and commit phases of write transactions under its write lock, so
// the manager itself only needs to be safe for the lock-free parts —
// snapshot handout to readers and horizon queries.
//
// Timestamps are a single int64 space shared with internal/storage's
// begin/end stamps: Snapshot() returns the current clock value, a commit
// takes clock+1, and the clock publishes only after the commit is durable
// and its versions are stamped, so no snapshot handed out can ever include
// a half-visible transaction.
package txn

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Txn is one open transaction.
type Txn struct {
	// ID is the transaction's unique positive identifier; storage encodes
	// write intents as -ID stamps.
	ID int64
	// Snap is the snapshot timestamp every read in the transaction uses:
	// the transaction sees versions committed at or before Snap, plus its
	// own writes.
	Snap int64
}

// Manager hands out transaction IDs, snapshots, and commit timestamps.
type Manager struct {
	clock  atomic.Int64 // last published commit timestamp
	lastID atomic.Int64 // last transaction ID handed out

	mu     sync.Mutex
	writes map[int64][]string // open write transactions: ID -> tables written
	pins   map[int64]int      // pinned snapshots: timestamp -> refcount
}

// NewManager returns a manager whose clock starts at storage.CommittedMin:
// rows installed by the legacy non-transactional path carry that stamp, so
// the very first snapshot already sees them.
func NewManager() *Manager {
	m := &Manager{writes: map[int64][]string{}, pins: map[int64]int{}}
	m.clock.Store(1)
	return m
}

// Snapshot returns a snapshot of the current committed state. Lock-free.
func (m *Manager) Snapshot() int64 { return m.clock.Load() }

// SeedIDs advances the transaction-ID allocator past id. Recovery calls it
// with the highest transaction ID seen in the WAL so a fresh transaction
// can never share an ID with an unterminated group orphaned in the log.
func (m *Manager) SeedIDs(id int64) {
	for {
		cur := m.lastID.Load()
		if cur >= id || m.lastID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// Begin opens a transaction at the current committed state.
func (m *Manager) Begin() *Txn {
	t := &Txn{ID: m.lastID.Add(1)}
	m.mu.Lock()
	// Snapshot under the lock so Horizon can never miss a transaction
	// whose snapshot predates its registration.
	t.Snap = m.clock.Load()
	m.writes[t.ID] = nil
	m.pins[t.Snap]++
	m.mu.Unlock()
	return t
}

// PrepareCommit reserves the next commit timestamp without publishing it:
// versions stamped with it stay invisible to every snapshot handed out
// until Publish. The engine calls this with writers serialized, so two
// in-flight commits never share a timestamp.
func (m *Manager) PrepareCommit() int64 { return m.clock.Load() + 1 }

// Publish advances the clock to ts, making every version stamped with ts
// visible to subsequent snapshots. Must be called with writers serialized
// and ts == PrepareCommit's return.
func (m *Manager) Publish(ts int64) { m.clock.Store(ts) }

// Finish closes a transaction opened with Begin (after commit or
// rollback), releasing its snapshot pin.
func (m *Manager) Finish(t *Txn) {
	if t == nil {
		return
	}
	m.mu.Lock()
	delete(m.writes, t.ID)
	m.unpinLocked(t.Snap)
	m.mu.Unlock()
}

// Pin records that a reader holds snap until Unpin — scans running outside
// the engine locks pin their snapshot so Horizon accounts for them.
func (m *Manager) Pin(snap int64) {
	m.mu.Lock()
	m.pins[snap]++
	m.mu.Unlock()
}

// Unpin releases one Pin of snap.
func (m *Manager) Unpin(snap int64) {
	m.mu.Lock()
	m.unpinLocked(snap)
	m.mu.Unlock()
}

func (m *Manager) unpinLocked(snap int64) {
	if n := m.pins[snap]; n <= 1 {
		delete(m.pins, snap)
	} else {
		m.pins[snap] = n - 1
	}
}

// ActiveWrites reports how many write transactions are open. Checkpoints
// require zero — a snapshot must not capture uncommitted versions.
func (m *Manager) ActiveWrites() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.writes)
}

// Touch records that the open transaction t has written to table.
func (m *Manager) Touch(t *Txn, table string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tables, open := m.writes[t.ID]
	if !open {
		return
	}
	for _, name := range tables {
		if strings.EqualFold(name, table) {
			return
		}
	}
	m.writes[t.ID] = append(tables, table)
}

// ActiveWritesOn reports how many open transactions have written to table.
// CREATE INDEX requires zero: it builds from the committed view, and an
// uncommitted version of the table would be missing from the new index.
func (m *Manager) ActiveWritesOn(table string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, tables := range m.writes {
		for _, name := range tables {
			if strings.EqualFold(name, table) {
				n++
				break
			}
		}
	}
	return n
}

// Horizon returns the oldest snapshot any reader or open transaction still
// holds (the current clock when none do): versions ended at or before the
// horizon are invisible to every present and future snapshot and may be
// vacuumed.
func (m *Manager) Horizon() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.clock.Load()
	for snap := range m.pins {
		if snap < h {
			h = snap
		}
	}
	return h
}
