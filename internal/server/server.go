// Package server is softdb's network front end: a TCP listener that
// multiplexes many concurrent client connections onto one backend.
//
// The backend is an engine.Database (New) or anything else that opens one
// Session per connection (Over) — the shard router serves its clients
// through this same server. Each accepted connection gets its own session
// ("conn-N" on an engine), so a client's SET statements — pruning, memory
// budget, statement timeout — are layered over the backend's defaults
// without affecting any other connection, and the session label tags the
// connection's traces and log lines.
//
// Requests and responses travel over the internal/wire framing. Errors
// keep their engine classification end to end: a *exec.QueryError's kind
// and op are serialized into the FrameError, so a remote client
// distinguishes canceled/timeout/oom/panic outcomes exactly like a local
// caller — plus KindBusy for rejections the server itself issues.
//
// Two overload mechanisms compose:
//
//   - MaxConns caps accepted connections; extras are turned away at
//     accept time with a busy error before any session is created.
//   - Load shedding converts admission-gate queueing into fast failures.
//     The engine's MaxConcurrent gate makes excess statements wait; with
//     ShedQueueDepth > 0 the server instead rejects a statement up front
//     when more than MaxConcurrent+ShedQueueDepth statements are already
//     pending, so overload surfaces as immediate typed "busy" errors
//     rather than unbounded queueing delay. A backend without a gate
//     (the router) never sheds.
//
// Shutdown drains gracefully: stop accepting (connections arriving while
// draining get a typed busy error), cancel in-flight statements through
// the backend's context path (clients receive typed canceled errors,
// flushed before the connection closes), then close connections.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"softdb/internal/client"
	"softdb/internal/engine"
	"softdb/internal/exec"
	"softdb/internal/obs"
	"softdb/internal/wire"
)

// Metric family names the server exports on its database's registry.
const (
	mConns        = "softdb_server_connections"
	mConnsTotal   = "softdb_server_connections_total"
	mConnRejected = "softdb_server_conn_rejected_total"
	mRequests     = "softdb_server_requests_total"
	mShed         = "softdb_server_shed_total"
	mReqDuration  = "softdb_server_request_duration_seconds"
)

// Config tunes one Server.
type Config struct {
	// Addr is the TCP listen address; ":0" picks an ephemeral port
	// (read the actual one from Listen's return value).
	Addr string
	// MaxConns caps concurrently served connections; 0 means unlimited.
	// Excess connections receive a busy error and are closed.
	MaxConns int
	// Shed enables load shedding (the database must also have an
	// admission gate, MaxConcurrent > 0): a statement is rejected with a
	// typed busy error when more than MaxConcurrent+ShedQueueDepth
	// statements are already pending server-wide. With Shed false (the
	// default) excess statements queue on the engine's gate instead.
	Shed bool
	// ShedQueueDepth is how many statements beyond the admission gate may
	// queue before the shedder rejects; 0 sheds anything that cannot
	// start immediately.
	ShedQueueDepth int
	// IdleTimeout closes a connection that sends no request for this
	// long; 0 means never.
	IdleTimeout time.Duration
	// Logger, when non-nil, receives connection lifecycle logs.
	Logger *slog.Logger
}

// Session is one connection's state on the backend a Server fronts.
type Session interface {
	// Set applies one SET frame.
	Set(name, value string) error
	// Exec runs one statement; the result is exactly what the response
	// frames carry.
	Exec(ctx context.Context, sql string) (*client.Result, error)
	// Close ends the session, rolling back any transaction it left open.
	Close()
}

// Backend is what a Server fronts.
type Backend interface {
	// Open starts the session behind one accepted connection; label names
	// it in the welcome frame and the connection's log lines.
	Open() (sess Session, label string)
	// Gate is how many statements the backend runs at once, 0 for no
	// limit; the shedder only acts above a gate.
	Gate() int
	// Metrics is the registry the server counts connections, requests
	// and rejections on, or nil when the backend counts its own sessions
	// and statements.
	Metrics() *obs.Registry
}

// Server serves the softdb wire protocol over TCP.
type Server struct {
	b   Backend
	cfg Config

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu    sync.Mutex
	lis   net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	draining atomic.Bool
	// pending counts statements accepted but not yet finished (including
	// those waiting on the engine's admission gate) — the shed signal.
	pending atomic.Int64

	gConns        *obs.Gauge
	cConnsTotal   *obs.Counter
	cConnRejected *obs.Counter
	cRequests     *obs.Counter
	cShed         *obs.Counter
	hReqDuration  *obs.Histogram
}

// New builds a server over db and registers the server metric families on
// db's registry.
func New(db *engine.Database, cfg Config) *Server {
	return Over(&engineBackend{db: db}, cfg)
}

// Over builds a server over b, registering the server metric families on
// b's registry when it has one.
func Over(b Backend, cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		b:          b,
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		conns:      map[net.Conn]struct{}{},
	}
	r := b.Metrics() // a nil registry hands out nil, inert metrics
	r.Describe(mConns, "gauge", "Connections currently served.")
	r.Describe(mConnsTotal, "counter", "Connections accepted.")
	r.Describe(mConnRejected, "counter", "Connections turned away at the MaxConns cap.")
	r.Describe(mRequests, "counter", "Wire requests received, by type.")
	r.Describe(mShed, "counter", "Statements rejected by the load shedder.")
	r.Describe(mReqDuration, "histogram", "Wire request latency in seconds.")
	s.gConns = r.Gauge(mConns)
	s.cConnsTotal = r.Counter(mConnsTotal)
	s.cConnRejected = r.Counter(mConnRejected)
	s.cRequests = r.Counter(mRequests, "type", "query")
	s.cShed = r.Counter(mShed)
	s.hReqDuration = r.Histogram(mReqDuration, obs.DefLatencyBuckets)
	return s
}

// engineBackend serves an engine.Database: connection N gets the engine
// session "conn-N".
type engineBackend struct {
	db  *engine.Database
	seq atomic.Int64
}

func (b *engineBackend) Open() (Session, string) {
	label := fmt.Sprintf("conn-%d", b.seq.Add(1))
	return engineSession{b.db.NewSession(label)}, label
}

func (b *engineBackend) Gate() int { return b.db.MaxConcurrent }

func (b *engineBackend) Metrics() *obs.Registry { return b.db.Metrics() }

// engineSession gives an engine session the wire's result shape.
type engineSession struct{ *engine.Session }

func (s engineSession) Exec(ctx context.Context, sql string) (*client.Result, error) {
	res, err := s.ExecCtx(ctx, sql)
	if err != nil {
		return nil, err
	}
	return &client.Result{Columns: res.Columns, Rows: res.Rows, Notices: res.Notices, RowsAffected: res.RowsAffected}, nil
}

// Listen binds the configured address and returns the actual bound
// address (useful with ":0").
func (s *Server) Listen() (net.Addr, error) {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	return lis.Addr(), nil
}

// Serve accepts connections until Shutdown. Call Listen first.
func (s *Server) Serve() error {
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		c, err := lis.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		if !s.admitConn(c) {
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(c)
		}()
	}
}

// admitConn registers c against the MaxConns cap. A rejected connection
// receives a welcome (so the client can still parse frames) followed by a
// typed busy error, and is closed.
func (s *Server) admitConn(c net.Conn) bool {
	s.mu.Lock()
	if s.draining.Load() || (s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns) {
		s.mu.Unlock()
		s.cConnRejected.Inc()
		bw := bufio.NewWriter(c)
		_ = wire.WriteFrame(bw, wire.FrameWelcome, wire.AppendWelcome(nil, wire.Welcome{Proto: wire.ProtoVersion, Session: ""}))
		e := &wire.Error{Kind: exec.KindBusy, Op: "server.accept", Msg: "connection limit reached"}
		_ = wire.WriteFrame(bw, wire.FrameError, wire.AppendError(nil, e))
		_ = bw.Flush()
		_ = c.Close()
		return false
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.cConnsTotal.Inc()
	s.gConns.Add(1)
	return true
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.gConns.Add(-1)
	_ = c.Close()
}

func (s *Server) logf(level slog.Level, msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Log(context.Background(), level, msg, args...)
	}
}

// handleConn runs one connection's request loop: welcome, then one
// response sequence per FrameQuery/FrameSet until the client goes away,
// the idle timeout fires, or the server drains.
func (s *Server) handleConn(c net.Conn) {
	defer s.dropConn(c)
	sess, label := s.b.Open()
	// A dropped connection must not leave a transaction's write intents
	// behind: Close rolls back whatever BEGIN left open.
	defer sess.Close()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	if err := wire.WriteFrame(bw, wire.FrameWelcome, wire.AppendWelcome(nil, wire.Welcome{Proto: wire.ProtoVersion, Session: label})); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	s.logf(slog.LevelInfo, "connection open", "session", label, "remote", c.RemoteAddr().String())
	defer s.logf(slog.LevelInfo, "connection closed", "session", label)
	for {
		// Deadline before the drain check: Shutdown sets the flag first and
		// stamps deadlines second, so either we see the flag here or its
		// past deadline wakes the ReadFrame below.
		if s.cfg.IdleTimeout > 0 {
			_ = c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		} else {
			_ = c.SetReadDeadline(time.Time{})
		}
		if s.draining.Load() {
			return
		}
		t, payload, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		switch t {
		case wire.FrameSet:
			set, err := wire.ParseSet(payload)
			if err == nil {
				err = sess.Set(set.Name, set.Value)
			}
			if err != nil {
				if !s.writeError(bw, err) {
					return
				}
				continue
			}
			if wire.WriteFrame(bw, wire.FrameOK, nil) != nil || bw.Flush() != nil {
				return
			}
		case wire.FrameQuery:
			q, err := wire.ParseQuery(payload)
			if err != nil {
				s.writeError(bw, err)
				return // framing is broken; don't trust the stream
			}
			if !s.handleQuery(sess, q, bw) {
				return
			}
		default:
			s.writeError(bw, fmt.Errorf("server: unexpected frame type 0x%02x", byte(t)))
			return
		}
	}
}

// shedCheck admits one statement into the pending count, or rejects it
// when the shedder is active and the backlog is past the threshold. The
// caller must release() iff admitted.
func (s *Server) shedCheck() (release func(), err error) {
	n := s.pending.Add(1)
	release = func() { s.pending.Add(-1) }
	mc := s.b.Gate()
	if s.cfg.Shed && mc > 0 && n > int64(mc+s.cfg.ShedQueueDepth) {
		release()
		s.cShed.Inc()
		return nil, &exec.QueryError{
			Op:   "server.admission",
			Kind: exec.KindBusy,
			Err:  fmt.Errorf("server busy: %d statements pending (gate %d, queue depth %d)", n, mc, s.cfg.ShedQueueDepth),
		}
	}
	return release, nil
}

// handleQuery executes one statement on sess and streams the response.
// It reports whether the connection is still usable.
func (s *Server) handleQuery(sess Session, q wire.Query, bw *bufio.Writer) bool {
	s.cRequests.Inc()
	start := time.Now()
	release, err := s.shedCheck()
	if err != nil {
		return s.writeError(bw, err)
	}
	ctx := s.baseCtx
	if q.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(q.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}
	res, err := sess.Exec(ctx, q.SQL)
	release()
	s.hReqDuration.Observe(time.Since(start).Seconds())
	if err != nil {
		return s.writeError(bw, err)
	}
	if wire.WriteResponse(bw, res.Columns, res.Rows, res.Notices, res.RowsAffected) != nil {
		return false
	}
	return bw.Flush() == nil
}

// writeError sends err as a FrameError and flushes; it reports whether
// the connection is still usable.
func (s *Server) writeError(bw *bufio.Writer, err error) bool {
	if wire.WriteFrame(bw, wire.FrameError, wire.AppendError(nil, wire.ErrorFrom(err))) != nil {
		return false
	}
	return bw.Flush() == nil
}

// Shutdown drains the server: stop accepting, cancel in-flight statements
// through the backend's context path (their typed errors are flushed to
// clients), wake idle readers, and wait for every connection handler to
// finish. When ctx expires first, remaining connections are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.Lock()
	if s.lis != nil {
		_ = s.lis.Close()
	}
	// Cancel running statements, then wake idle readers with a past
	// deadline (the handler loop re-checks the drain flag on wake).
	s.baseCancel()
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
