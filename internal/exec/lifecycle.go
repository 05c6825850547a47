package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"softdb/internal/fault"
	"softdb/internal/vec"
)

// ErrKind classifies a QueryError's terminal state. The values double as
// the state labels traces and EXPLAIN ANALYZE print.
type ErrKind string

const (
	// KindCanceled: the query's context was canceled.
	KindCanceled ErrKind = "canceled"
	// KindTimeout: the query's context deadline expired.
	KindTimeout ErrKind = "timeout"
	// KindMemBudget: the query exceeded its buffered-row memory budget.
	KindMemBudget ErrKind = "oom"
	// KindPanic: a panicking operator was recovered.
	KindPanic ErrKind = "panic"
	// KindError: an ordinary runtime error (type error, injected storage
	// fault, ...).
	KindError ErrKind = "error"
	// KindBusy: the statement was rejected by the network server's load
	// shedder before reaching the engine. Defined here so local and remote
	// callers classify outcomes from one kind space; the engine itself
	// never produces it (admission-gate waits surface as canceled/timeout).
	KindBusy ErrKind = "busy"
	// KindRecovery: crash recovery could not reconstruct committed state —
	// a corrupt snapshot, a torn WAL tail, or replay divergence. Fatal
	// recovery errors abort OpenDurable; a truncated-but-consistent tail is
	// reported non-fatally in RecoveryStats with this kind.
	KindRecovery ErrKind = "recovery"
	// KindConflict: a first-updater-wins write-write conflict — the
	// statement tried to update or delete a row version another transaction
	// already ended (committed after this transaction's snapshot, or still
	// in flight). The losing transaction must roll back and retry.
	KindConflict ErrKind = "conflict"
	// KindWrongShard: a statement inside an open transaction routed to a
	// different shard than the one the transaction is pinned to. Like
	// KindBusy, the engine never produces it; the shard router does, and
	// defining it here keeps local and remote callers in one kind space.
	KindWrongShard ErrKind = "wrong-shard"
	// KindMultiShardTxn: a write (or a statement inside a transaction)
	// that would have to touch more than one shard. The router rejects
	// these rather than faking cross-shard atomicity.
	KindMultiShardTxn ErrKind = "multi-shard-txn"
	// KindShardUnreachable: the router could not reach a shard the
	// statement needs — dial (with backoff) failed or the shard connection
	// broke mid-statement.
	KindShardUnreachable ErrKind = "shard-unreachable"
)

// ErrMemBudget is wrapped by every budget-exceeded QueryError so callers
// can classify with errors.Is.
var ErrMemBudget = errors.New("exec: query memory budget exceeded")

// QueryError is the structured error the query lifecycle produces: every
// cancellation, timeout, budget rejection, and recovered panic surfaces as
// one, carrying the operator span it fired in. One poisoned query degrades
// to a QueryError; it never crashes the process.
type QueryError struct {
	// Op is the operator (Describe() line) or engine boundary the error
	// is attributed to.
	Op string
	// Kind is the terminal state.
	Kind ErrKind
	// Err is the underlying cause.
	Err error
	// Stack is the recovering goroutine's stack for KindPanic (truncated);
	// empty otherwise.
	Stack string
}

// Error implements error.
func (e *QueryError) Error() string {
	if e.Op != "" {
		return fmt.Sprintf("query %s in [%s]: %v", e.Kind, e.Op, e.Err)
	}
	return fmt.Sprintf("query %s: %v", e.Kind, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *QueryError) Unwrap() error { return e.Err }

// AsQueryError extracts a *QueryError from an error chain.
func AsQueryError(err error) (*QueryError, bool) {
	var qe *QueryError
	if errors.As(err, &qe) {
		return qe, true
	}
	return nil, false
}

// CancelError builds the QueryError for a fired context, classifying
// deadline expiry as a timeout and everything else as a cancellation.
func CancelError(op string, cause error) *QueryError {
	kind := KindCanceled
	if errors.Is(cause, context.DeadlineExceeded) {
		kind = KindTimeout
	}
	if cause == nil {
		cause = context.Canceled
	}
	return &QueryError{Op: op, Kind: kind, Err: cause}
}

// panicStackLimit bounds the stack captured into a QueryError so a hostile
// deeply-recursive query cannot blow up logs.
const panicStackLimit = 4096

// checkpointRows is how often (in rows) operators without natural page
// granularity — index scans, sorts, materializing joins — observe
// cancellation. Chosen so a canceled query stops within microseconds while
// the steady-state cost stays far below the R1 5% overhead budget.
const checkpointRows = 256

// PanicError converts a recovered panic value into a QueryError.
func PanicError(op string, r any) *QueryError {
	buf := make([]byte, panicStackLimit)
	n := runtime.Stack(buf, false)
	err, ok := r.(error)
	if !ok {
		err = fmt.Errorf("panic: %v", r)
	} else {
		err = fmt.Errorf("panic: %w", err)
	}
	return &QueryError{Op: op, Kind: KindPanic, Err: err, Stack: string(buf[:n])}
}

// lifecycle is the shared, per-query lifecycle state: the cancellation
// signal, the buffered-row memory budget, the panic-recovery hook, and the
// fault injector. It lives behind a pointer so a quiesced Ctx stays
// copyable.
type lifecycle struct {
	done    <-chan struct{}
	cause   func() error
	budget  int64
	used    atomic.Int64
	onPanic func(op string)
	fault   *fault.Injector
}

// CtxOptions configures a query's lifecycle.
type CtxOptions struct {
	// MemBudget caps the bytes of rows the query's blocking operators
	// (Sort, hash join builds, hash aggregation, Distinct) may buffer; 0
	// means unlimited.
	MemBudget int64
	// OnPanic, when set, is invoked (with the attributed operator) every
	// time a recover() boundary converts a panic; the engine counts these.
	OnPanic func(op string)
	// Fault, when set, injects deterministic storage faults at every page
	// checkpoint.
	Fault *fault.Injector
	// Snap is the MVCC snapshot timestamp every scan in the query reads at;
	// 0 means the latest committed state (storage.SnapLatest).
	Snap int64
	// TID is the reading transaction's ID (its own uncommitted writes are
	// visible); 0 for none.
	TID int64
}

// NewCtx returns a Ctx carrying the lifecycle derived from ctx and opts.
// A background context with no budget and no fault injector yields a bare
// Ctx whose per-page checkpoint is a single nil check — the ctx=off
// configuration experiment R1 times.
func NewCtx(ctx context.Context, o CtxOptions) *Ctx {
	c := &Ctx{Snap: o.Snap, TID: o.TID}
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil && o.MemBudget <= 0 && o.Fault == nil && o.OnPanic == nil {
		return c
	}
	c.life = &lifecycle{
		done:    ctx.Done(),
		cause:   ctx.Err,
		budget:  o.MemBudget,
		onPanic: o.OnPanic,
		fault:   o.Fault,
	}
	return c
}

// checkpoint is the per-page (or per-batch) lifecycle check every data
// source runs: it observes cancellation and consults the fault injector.
// The no-lifecycle fast path is a single pointer test, keeping the
// steady-state overhead within the R1 budget (<5%).
func (c *Ctx) checkpoint(op string) error {
	l := c.life
	if l == nil {
		return nil
	}
	if l.done != nil {
		select {
		case <-l.done:
			return CancelError(op, l.cause())
		default:
		}
	}
	if l.fault != nil {
		if err := l.fault.PageRead(op); err != nil {
			return &QueryError{Op: op, Kind: KindError, Err: err}
		}
	}
	return nil
}

// Reserve charges n bytes of buffered-row memory against the query's
// budget, returning a KindMemBudget QueryError once the query-global total
// exceeds it. Reservations are never released: the budget bounds the
// cumulative bytes a query materializes, which dominates its peak for the
// one-shot blocking operators that call this.
func (c *Ctx) Reserve(op string, n int64) error {
	l := c.life
	if l == nil || l.budget <= 0 {
		return nil
	}
	if l.used.Add(n) > l.budget {
		return &QueryError{Op: op, Kind: KindMemBudget,
			Err: fmt.Errorf("%w (budget %d bytes)", ErrMemBudget, l.budget)}
	}
	return nil
}

// MemReserved reports the bytes of buffered-row memory charged so far.
func (c *Ctx) MemReserved() int64 {
	if c.life == nil {
		return 0
	}
	return c.life.used.Load()
}

// recoverPanic converts a panic on the calling goroutine into a
// KindPanic QueryError written to *errp, and fires the OnPanic hook.
// Intended as `defer ctx.recoverPanic(op, &err)` at a recover() boundary;
// when no panic is in flight it leaves *errp untouched.
func (c *Ctx) recoverPanic(op string, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	*errp = PanicError(op, r)
	if l := c.life; l != nil && l.onPanic != nil {
		l.onPanic(op)
	}
}

// Guard runs f, converting a panic into a QueryError attributed to op —
// the engine-boundary recover() that keeps a poisoned serial plan from
// crashing the process. Plans run on the calling goroutine, so one Guard
// at the engine boundary covers every operator.
func Guard(c *Ctx, op string, f func() error) (err error) {
	defer c.recoverPanic(op, &err)
	return f()
}

// reserveAt is Reserve for retaining the row at b's window position idx,
// sized as its types.Row.MemSize whatever the join keeps of it; without a
// budget the row is not even sized.
func (c *Ctx) reserveAt(op string, b *vec.Batch, idx int) error {
	if c.life == nil || c.life.budget <= 0 {
		return nil
	}
	return c.Reserve(op, b.RowMemSize(idx))
}
