package engine

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"softdb/internal/sql"
)

// Settings are the per-statement execution knobs a session may override.
// Zero values mean what they mean on Database (pruning on, unlimited
// budget, no deadline). Settings participate in the plan-cache key only
// where they shape the compiled plan (NoPrune); the lifecycle knobs
// (MemBudget, StmtTimeout) act at run time on any compiled plan.
type Settings struct {
	// NoPrune disables synopsis-based page pruning end to end.
	NoPrune bool
	// MemBudget caps the bytes of rows a query's blocking operators may
	// buffer; 0 means unlimited.
	MemBudget int64
	// StmtTimeout is the default per-statement deadline applied when the
	// caller's context carries none; 0 means no default deadline.
	StmtTimeout time.Duration
}

// defaultSettings snapshots the Database-level knobs. Like direct field
// access, this reads the config fields without synchronization — set them
// before sharing the database across goroutines.
func (db *Database) defaultSettings() Settings {
	return Settings{
		NoPrune:     db.NoPrune,
		MemBudget:   db.MemBudget,
		StmtTimeout: db.StmtTimeout,
	}
}

// Session is one client's view of the database: a label that tags the
// session's traces and log lines, plus execution-knob overrides layered
// over the Database defaults. Unset knobs follow the engine default at
// statement time, so a server-wide reconfiguration reaches every session
// that has not pinned its own value. A Session is safe for concurrent use,
// though the network protocol drives it one statement at a time.
//
// In-process callers that use Database.Exec/ExecCtx directly are
// unaffected by sessions: those paths run with the Database defaults.
type Session struct {
	db    *Database
	label string

	mu sync.Mutex
	// cur is the open explicit transaction (BEGIN..COMMIT/ROLLBACK), nil
	// between transactions. Statements on the session read from its
	// snapshot and stage writes into it.
	cur *Tx
	// Overrides; nil means "inherit the database default".
	noPrune     *bool
	memBudget   *int64
	stmtTimeout *time.Duration
}

// NewSession returns a session labeled label (e.g. "conn-3") with no
// overrides.
func (db *Database) NewSession(label string) *Session {
	return &Session{db: db, label: label}
}

// Label returns the session's trace/log tag.
func (s *Session) Label() string { return s.label }

// Database returns the underlying database.
func (s *Session) Database() *Database { return s.db }

// current returns the session's open explicit transaction, or nil.
func (s *Session) current() *Tx {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// takeCurrent detaches and returns the open transaction (nil when none):
// COMMIT/ROLLBACK claim it so the session is immediately reusable even if
// finishing the transaction errors.
func (s *Session) takeCurrent() *Tx {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx := s.cur
	s.cur = nil
	return tx
}

// InTxn reports whether an explicit transaction is open on the session.
func (s *Session) InTxn() bool { return s.current() != nil }

// Close releases the session, rolling back any transaction left open — a
// dropped connection must not leave write intents behind. Idempotent.
func (s *Session) Close() {
	if tx := s.takeCurrent(); tx != nil {
		s.db.rollbackTx(tx)
	}
}

// Settings resolves the session's effective settings: the database
// defaults with this session's overrides applied.
func (s *Session) Settings() Settings {
	st := s.db.defaultSettings()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.noPrune != nil {
		st.NoPrune = *s.noPrune
	}
	if s.memBudget != nil {
		st.MemBudget = *s.memBudget
	}
	if s.stmtTimeout != nil {
		st.StmtTimeout = *s.stmtTimeout
	}
	return st
}

// parseOnOff reads a boolean setting value.
func parseOnOff(value string) (bool, error) {
	switch value {
	case "on", "true", "1":
		return true, nil
	case "off", "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("engine: boolean setting wants on/off, got %q", value)
}

// Set assigns one session setting by name. The names mirror the CLI flags:
//
//	prune       on|off     synopsis-based page pruning
//	mem_budget  BYTES      per-query buffered-row budget (0 = unlimited)
//	timeout     DURATION   per-statement deadline (0 = none)
//
// The special value "default" clears the override so the knob follows the
// database default again. Unknown names and unparseable values error
// without changing anything.
func (s *Session) Set(name, value string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	reset := value == "default"
	switch name {
	case "prune":
		if reset {
			s.noPrune = nil
			return nil
		}
		on, err := parseOnOff(value)
		if err != nil {
			return err
		}
		off := !on
		s.noPrune = &off
	case "mem_budget":
		if reset {
			s.memBudget = nil
			return nil
		}
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("engine: setting mem_budget wants bytes, got %q", value)
		}
		s.memBudget = &n
	case "timeout":
		if reset {
			s.stmtTimeout = nil
			return nil
		}
		d, err := time.ParseDuration(value)
		if err != nil || d < 0 {
			return fmt.Errorf("engine: setting timeout wants a duration like 500ms, got %q", value)
		}
		s.stmtTimeout = &d
	default:
		return fmt.Errorf("engine: unknown setting %q (want prune, mem_budget, timeout)", name)
	}
	return nil
}

// Describe renders the effective settings, marking overridden knobs, for
// the shell's \set display and for tests.
func (s *Session) Describe() []string {
	st := s.Settings()
	s.mu.Lock()
	defer s.mu.Unlock()
	mark := func(overridden bool) string {
		if overridden {
			return " (session)"
		}
		return ""
	}
	onOff := func(off bool) string {
		if off {
			return "off"
		}
		return "on"
	}
	return []string{
		fmt.Sprintf("prune = %s%s", onOff(st.NoPrune), mark(s.noPrune != nil)),
		fmt.Sprintf("mem_budget = %d%s", st.MemBudget, mark(s.memBudget != nil)),
		fmt.Sprintf("timeout = %s%s", st.StmtTimeout, mark(s.stmtTimeout != nil)),
	}
}

// ExecCtx parses and executes one statement under the session's effective
// settings, with the statement text as the plan-cache key (repeated
// session statements exercise the cache like REPL input).
func (s *Session) ExecCtx(ctx context.Context, query string) (*Result, error) {
	return s.db.execText(ctx, query, s.Settings(), s)
}

// ExecStmtCtx executes a parsed statement under the session's effective
// settings; see Database.ExecStmtCtx for the locking and lifecycle rules.
func (s *Session) ExecStmtCtx(ctx context.Context, stmt sql.Statement, cacheKey string) (*Result, error) {
	return s.db.execStmtCtx(ctx, stmt, cacheKey, s.Settings(), s)
}
