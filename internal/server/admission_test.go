package server

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"onlinetuner/internal/engine"
	"onlinetuner/internal/obs"
)

// TestAdmissionGate unit-tests the token semaphore: slot exhaustion,
// bounded queue, queue timeout, and drain cancellation all produce
// typed errors; nothing blocks unboundedly.
func TestAdmissionGate(t *testing.T) {
	reg := obs.NewRegistry()
	a := newAdmission(1, 1, 80*time.Millisecond, reg)

	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// One waiter fits in the queue; it should win the slot on release.
	got := make(chan error, 1)
	go func() {
		r, err := a.acquire(context.Background())
		if err == nil {
			r()
		}
		got <- err
	}()
	// Wait until the waiter has actually queued before filling the queue.
	for i := 0; a.queued.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if a.queued.Load() != 1 {
		t.Fatal("waiter never joined the queue")
	}

	// The queue is full: the next acquire is rejected immediately, typed.
	start := time.Now()
	if _, err := a.acquire(context.Background()); !IsOverload(err) {
		t.Fatalf("queue-full acquire: got %v, want overload", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("queue-full rejection took %v; must be immediate", d)
	}

	release()
	if err := <-got; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}

	// Queue timeout: hold the slot past the waiter's patience.
	release, err = a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.acquire(context.Background()); !IsOverload(err) {
		t.Fatalf("timed-out acquire: got %v, want overload", err)
	}

	// Drain cancellation fails waiters fast with the shutdown code.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx)
		errc <- err
	}()
	for i := 0; a.queued.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !IsShuttingDown(err) {
		t.Fatalf("drained waiter: got %v, want shutting_down", err)
	}
	release()

	snap := reg.Snapshot()
	if n := snap["server.admitted"].(int64); n != 3 {
		t.Fatalf("admitted = %d, want 3", n)
	}
	if n := snap["server.rejected"].(int64); n != 3 {
		t.Fatalf("rejected = %d, want 3", n)
	}
	if h := snap["server.queue_wait_ns"].(obs.HistogramSnapshot); h.Count != 1 {
		t.Fatalf("queue wait observations = %d, want 1", h.Count)
	}
}

// TestServeBackpressureTyped proves overload end to end over TCP: with
// the only admission slot held and the one queue seat taken, a client's
// statement is rejected immediately with the typed backpressure error —
// it does not queue unboundedly, and the session survives to run the
// statement once capacity returns.
func TestServeBackpressureTyped(t *testing.T) {
	db := engine.Open()
	db.MustExec("CREATE TABLE t (a INT, PRIMARY KEY (a))")
	db.MustExec("INSERT INTO t VALUES (1)")
	srv, addr := startServer(t, db, Config{
		AdmitSlots:   1,
		MaxQueue:     1,
		queueTimeout: 150 * time.Millisecond,
	})

	// Hold the only execution slot (white box: same gate the sessions
	// use).
	release, err := srv.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	waiter := dial(t, addr)
	wret := make(chan error, 1)
	go func() {
		_, err := waiter.Query("SELECT a FROM t")
		wret <- err
	}()
	for i := 0; srv.adm.queued.Load() == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if srv.adm.queued.Load() != 1 {
		t.Fatal("wire statement never joined the admission queue")
	}

	// The queue seat is taken: this client is bounced now, typed.
	bounced := dial(t, addr)
	start := time.Now()
	_, err = bounced.Query("SELECT a FROM t")
	if !IsOverload(err) {
		t.Fatalf("overloaded query: got %v, want overload", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("overload rejection took %v; must not wait out the queue timeout", d)
	}

	// Capacity returns; the queued statement completes.
	release()
	if err := <-wret; err != nil {
		t.Fatalf("queued statement after release: %v", err)
	}

	// The bounced session was told to back off, not hung up on: the same
	// connection works once load clears.
	if res, err := bounced.Query("SELECT a FROM t"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("retry after backpressure: %v %v", err, res)
	}

	snap := db.Observability().Reg.Snapshot()
	if n := snap["server.rejected"].(int64); n < 1 {
		t.Fatalf("server.rejected = %d, want >= 1", n)
	}
	if h := snap["server.queue_wait_ns"].(obs.HistogramSnapshot); h.Count < 1 {
		t.Fatal("queue wait histogram recorded nothing")
	}
}

// TestServeConnLimit: connections past MaxConns receive the typed
// too_many_connections frame and a close; a freed slot readmits.
func TestServeConnLimit(t *testing.T) {
	db := engine.Open()
	db.MustExec("CREATE TABLE t (a INT, PRIMARY KEY (a))")
	_, addr := startServer(t, db, Config{MaxConns: 2})

	c1 := dial(t, addr)
	c2 := dial(t, addr)
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}

	c3, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c3.Timeout = 10 * time.Second
	err = c3.Ping()
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeTooManyConns {
		t.Fatalf("third connection: got %v, want too_many_connections", err)
	}
	_ = c3.Close()

	// Freeing a session reopens the door (teardown is asynchronous;
	// retry briefly).
	_ = c1.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c4, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		c4.Timeout = 10 * time.Second
		if err := c4.Ping(); err == nil {
			_ = c4.Close()
			break
		}
		_ = c4.Close()
		if time.Now().After(deadline) {
			t.Fatal("connection slot never freed after close")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if n := db.Observability().Reg.Snapshot()["server.conns_rejected"].(int64); n < 1 {
		t.Fatalf("server.conns_rejected = %d, want >= 1", n)
	}
}

// TestServeIdleTimeout: a session that goes quiet is told why (typed
// idle_timeout frame) before the server hangs up.
func TestServeIdleTimeout(t *testing.T) {
	db := engine.Open()
	_, addr := startServer(t, db, Config{idleTimeout: 100 * time.Millisecond})

	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// Go quiet and read the unsolicited close notice off the wire.
	_ = c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	body, err := ReadFrame(c.br, c.maxFrame)
	if err != nil {
		t.Fatalf("reading idle notice: %v", err)
	}
	resp, err := DecodeResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 0 || resp.Error == nil || resp.Error.Code != CodeIdleTimeout {
		t.Fatalf("idle notice: %+v", resp)
	}
	if n := db.Observability().Reg.Snapshot()["server.idle_closes"].(int64); n < 1 {
		t.Fatalf("server.idle_closes = %d, want >= 1", n)
	}
}

// TestServeFrameTooLargeTyped: a request frame over the server's cap
// gets the typed frame_too_large response, not a silent hangup.
func TestServeFrameTooLargeTyped(t *testing.T) {
	db := engine.Open()
	_, addr := startServer(t, db, Config{maxFrame: 512})

	c := dial(t, addr)
	_, err := c.Query("SELECT '" + strings.Repeat("x", 2048) + "'")
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeFrameTooLarge {
		t.Fatalf("oversized request: got %v, want frame_too_large", err)
	}
}
