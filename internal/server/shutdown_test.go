package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"onlinetuner/internal/engine"
	"onlinetuner/internal/wal"
)

// admittedCount reads the server.admitted counter.
func admittedCount(db *engine.DB) int64 {
	return db.Observability().Reg.Snapshot()["server.admitted"].(int64)
}

// TestServeGracefulShutdownOrdering proves the drain sequence end to
// end on a durable database:
//
//  1. a statement in flight when Shutdown begins completes and its
//     response reaches the client;
//  2. connections arriving during the drain get the typed
//     shutting_down error frame (not a bare connection refusal), as do
//     new statements on existing sessions;
//  3. the WAL checkpoint runs after the drain — a reopen restores from
//     the snapshot with zero records to replay.
func TestServeGracefulShutdownOrdering(t *testing.T) {
	dir := t.TempDir()
	db, err := engine.OpenDurable(engine.Config{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE ledger (id INT, v INT, PRIMARY KEY (id))")
	srv, addr := startServer(t, db, Config{})

	c := dial(t, addr)
	for i := 0; i < 50; i++ {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO ledger VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}

	// Keep the drain open deterministically: the test itself joins the
	// in-flight group, so Shutdown cannot finish until we let go.
	if !srv.beginStmt() {
		t.Fatal("beginStmt refused while running")
	}

	// Launch a real statement and wait until it is admitted (in flight),
	// so the drain flip provably lands while it executes: a COMMIT of a
	// 300-insert transaction scope.
	committer := dial(t, addr)
	if err := committer.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := committer.Exec(fmt.Sprintf("INSERT INTO ledger VALUES (%d, %d)", 1000+i, i)); err != nil {
			t.Fatal(err)
		}
	}
	before := admittedCount(db)
	type commitRet struct {
		results []StmtResult
		err     error
	}
	committed := make(chan commitRet, 1)
	go func() {
		res, err := committer.Commit()
		committed <- commitRet{res, err}
	}()
	for i := 0; admittedCount(db) == before; i++ {
		if i > 5000 {
			t.Fatal("commit was never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownRet := make(chan error, 1)
	go func() { shutdownRet <- srv.Shutdown(context.Background()) }()
	for i := 0; !srv.draining(); i++ {
		if i > 5000 {
			t.Fatal("shutdown never flipped to draining")
		}
		time.Sleep(time.Millisecond)
	}

	// (1) The in-flight commit completes and the client has its results.
	ret := <-committed
	if ret.err != nil {
		t.Fatalf("in-flight commit during drain: %v", ret.err)
	}
	if len(ret.results) != 300 {
		t.Fatalf("in-flight commit returned %d results, want 300", len(ret.results))
	}

	// (2) A late connect is refused with the typed error, over the wire.
	late, err := Dial(addr)
	if err != nil {
		t.Fatalf("late dial should connect (typed refusal, not closed port): %v", err)
	}
	late.Timeout = 10 * time.Second
	if err := late.Ping(); !IsShuttingDown(err) {
		t.Fatalf("late connect: got %v, want shutting_down", err)
	}
	_ = late.Close()
	// A new statement on the established session is refused the same way.
	if _, err := c.Query("SELECT COUNT(*) AS n FROM ledger"); !IsShuttingDown(err) {
		t.Fatalf("statement during drain: got %v, want shutting_down", err)
	}

	// Release the drain; Shutdown must now finish cleanly, checkpoint
	// included.
	srv.endStmt()
	select {
	case err := <-shutdownRet:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown did not complete after drain released")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// (3) Reopen: the checkpoint means recovery restores a snapshot and
	// replays nothing.
	rdb, err := engine.OpenDurable(engine.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	rec := rdb.Recovery()
	if rec.SnapshotSeq == 0 {
		t.Fatal("recovery found no checkpoint snapshot; shutdown did not checkpoint")
	}
	if rec.ReplayedRecords != 0 {
		t.Fatalf("recovery replayed %d records; shutdown checkpoint should leave none", rec.ReplayedRecords)
	}
	rs, _, err := rdb.Exec("SELECT COUNT(*) AS n FROM ledger")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Rows[0][0].String(); got != "350" {
		t.Fatalf("ledger has %s rows after restart, want 350", got)
	}
}

// TestServeShutdownIdempotent: a second Shutdown (or a racing Abort)
// reports cleanly instead of double-draining.
func TestServeShutdownIdempotent(t *testing.T) {
	db := engine.Open()
	srv, _ := startServer(t, db, Config{})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err == nil {
		t.Fatal("second shutdown should report already shut down")
	}
	srv.Abort() // must not panic after shutdown
}

// TestServeShutdownDeadline: Shutdown's context is the only bound on
// the drain. When it expires with a statement still in flight, Shutdown
// returns the context's error, skips the checkpoint (the statement may
// not have finished) and still closes every session.
func TestServeShutdownDeadline(t *testing.T) {
	dir := t.TempDir()
	db, err := engine.OpenDurable(engine.Config{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE ledger (id INT, PRIMARY KEY (id))")
	srv, addr := startServer(t, db, Config{})
	c := dial(t, addr)
	if _, err := c.Exec("INSERT INTO ledger VALUES (1)"); err != nil {
		t.Fatal(err)
	}

	// The test joins the in-flight group and never leaves it before
	// the deadline, so the drain cannot complete.
	if !srv.beginStmt() {
		t.Fatal("beginStmt refused while running")
	}
	defer srv.endStmt()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown past its deadline: got %v, want %v", err, context.DeadlineExceeded)
	}

	if err := c.Ping(); err == nil || IsShuttingDown(err) {
		t.Fatalf("ping after shutdown: got %v, want a closed connection", err)
	}
	for i := 0; db.Observability().Reg.Snapshot()["server.sessions_open"].(int64) != 0; i++ {
		if i > 5000 {
			t.Fatal("session still open after shutdown")
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if snap, err := wal.LoadNewestSnapshot(dir); err != nil || snap != nil {
		t.Fatalf("shutdown past its deadline wrote a checkpoint (snapshot %v, err %v)", snap != nil, err)
	}
}

// TestServeAbruptKillRecovery is the satellite to the graceful path: no
// drain, no checkpoint — the server is torn down mid-life with Abort +
// Crash, and OpenDurable must still recover every acknowledged write
// from the WAL alone.
func TestServeAbruptKillRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := engine.OpenDurable(engine.Config{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE acked (id INT, PRIMARY KEY (id))")
	srv, addr := startServer(t, db, Config{})

	c := dial(t, addr)
	const rows = 120
	for i := 0; i < rows; i++ {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO acked VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}

	// Kill without ceremony: server first, then the engine's simulated
	// process death.
	srv.Abort()
	db.Crash()

	rdb, err := engine.OpenDurable(engine.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if rec := rdb.Recovery(); rec.ReplayedRecords == 0 {
		t.Fatal("abrupt kill should recover by WAL replay, not a snapshot")
	}
	rs, _, err := rdb.Exec("SELECT COUNT(*) AS n FROM acked")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Rows[0][0].String(); got != fmt.Sprint(rows) {
		t.Fatalf("acked has %s rows after crash recovery, want %d", got, rows)
	}
}
