package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"softdb/internal/client"
	"softdb/internal/engine"
	"softdb/internal/exec"
	"softdb/internal/fault"
	"softdb/internal/server"
	"softdb/internal/types"
	"softdb/internal/wire"
)

// slowDB builds a table wide enough that the injected per-page stall
// keeps a full scan running for hundreds of milliseconds.
func slowDB(t *testing.T) *engine.Database {
	t.Helper()
	db := engine.Open()
	db.NoIndexes = true
	db.MustExec("CREATE TABLE x (a INT NOT NULL)")
	te, err := db.Catalog().Table("x")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if err := db.InsertRows(te, []types.Row{{types.NewInt(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	db.Fault = fault.New(fault.Config{SlowProb: 1, SlowDelay: 5 * time.Millisecond})
	return db
}

func startServer(t *testing.T, db *engine.Database) string {
	t.Helper()
	s := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return addr.String()
}

// TestClientDeadlineKeepsConn: a context deadline travels to the server,
// comes back as a typed timeout, and the connection stays usable.
func TestClientDeadlineKeepsConn(t *testing.T) {
	db := slowDB(t)
	addr := startServer(t, db)
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = c.Query(ctx, "SELECT COUNT(*) AS n FROM x WHERE a >= 0")
	if client.Kind(err) != exec.KindTimeout {
		t.Fatalf("deadline should come back as a typed timeout, got %v", err)
	}
	db.Fault = nil
	if _, err := c.Query(context.Background(), "SELECT COUNT(*) AS n FROM x WHERE a >= 0"); err != nil {
		t.Fatalf("connection should survive a server-side timeout: %v", err)
	}
}

// TestClientCancelBreaksConn: plain cancellation (no deadline) trips the
// watchdog; the connection is reported broken and later calls fail fast.
func TestClientCancelBreaksConn(t *testing.T) {
	db := slowDB(t)
	addr := startServer(t, db)
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err = c.Query(ctx, "SELECT COUNT(*) AS n FROM x WHERE a >= 0")
	if !errors.Is(err, context.Canceled) || !errors.Is(err, client.ErrConnBroken) {
		t.Fatalf("canceled query should report the broken conn: %v", err)
	}
	if _, err := c.Query(context.Background(), "SELECT 1 AS one FROM x WHERE a >= 0"); !errors.Is(err, client.ErrConnBroken) {
		t.Fatalf("later calls must fail fast on a broken conn: %v", err)
	}
}

// TestClientKind covers the error classifier over local and remote error
// shapes.
func TestClientKind(t *testing.T) {
	if client.Kind(errors.New("plain")) != exec.KindError {
		t.Fatal("plain errors classify as error")
	}
	qe := &exec.QueryError{Op: "scan", Kind: exec.KindMemBudget, Err: errors.New("over budget")}
	if client.Kind(qe) != exec.KindMemBudget {
		t.Fatal("local QueryError kinds pass through")
	}
}

// TestClientKindShardErrors: the three router-originated kinds classify
// identically whether they arrive as local QueryErrors (embedded router)
// or as wire errors (router behind the TCP front end).
func TestClientKindShardErrors(t *testing.T) {
	kinds := []exec.ErrKind{exec.KindWrongShard, exec.KindMultiShardTxn, exec.KindShardUnreachable}
	for _, k := range kinds {
		local := &exec.QueryError{Op: "router", Kind: k, Err: errors.New("boom")}
		if got := client.Kind(local); got != k {
			t.Errorf("QueryError %s classified as %s", k, got)
		}
		remote := wire.ErrorFrom(local)
		if got := client.Kind(remote); got != k {
			t.Errorf("wire.Error %s classified as %s", k, got)
		}
		// Wrapped once more (fmt.Errorf with %w), still classifies.
		if got := client.Kind(fmt.Errorf("fan-out: %w", remote)); got != k {
			t.Errorf("wrapped wire.Error %s classified as %s", k, got)
		}
	}
}

// TestDialerRetriesUntilServerUp: a Dialer pointed at a listener that
// starts accepting after the first attempt eventually connects.
func TestDialerRetriesUntilServerUp(t *testing.T) {
	// Reserve a port, then close the listener so the first dial fails.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	db := engine.Open()
	started := make(chan struct{})
	go func() {
		time.Sleep(60 * time.Millisecond)
		s := server.New(db, server.Config{Addr: addr})
		if _, err := s.Listen(); err != nil {
			close(started)
			return
		}
		go s.Serve()
		close(started)
	}()
	d := client.Dialer{Addr: addr, BaseBackoff: 30 * time.Millisecond, MaxAttempts: 10}
	c, err := d.Dial(context.Background())
	if err != nil {
		t.Fatalf("dial with retries: %v", err)
	}
	defer c.Close()
	<-started
	if _, err := c.Query(context.Background(), "CREATE TABLE dial_t (a INT)"); err != nil {
		t.Fatalf("query over retried conn: %v", err)
	}
}

// TestDialerAttemptsExhausted: a dead address fails after MaxAttempts
// with the last dial error wrapped.
func TestDialerAttemptsExhausted(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	d := client.Dialer{Addr: addr, MaxAttempts: 2, BaseBackoff: time.Millisecond}
	start := time.Now()
	if _, err := d.Dial(context.Background()); err == nil {
		t.Fatal("dial of a dead address should fail")
	} else if !strings.Contains(err.Error(), "attempts exhausted") {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("exhausting 2 attempts should be quick")
	}
}

// TestDialerContextCancel: cancellation interrupts the backoff sleep.
func TestDialerContextCancel(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	d := client.Dialer{Addr: addr, MaxAttempts: 100, BaseBackoff: 50 * time.Millisecond}
	_, err = d.Dial(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled dial should surface context.Canceled: %v", err)
	}
}
