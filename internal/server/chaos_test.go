package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"onlinetuner/internal/engine"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/wal"
)

// ackRecord is one client's ledger of writes the server acknowledged.
type ackRecord struct {
	mu  sync.Mutex
	ids []int
}

func (a *ackRecord) add(id int) {
	a.mu.Lock()
	a.ids = append(a.ids, id)
	a.mu.Unlock()
}

func (a *ackRecord) all() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int(nil), a.ids...)
}

// recoveredIDs reopens dir and returns the set of ids in acked plus the
// recovered DB's row count.
func recoveredIDs(t *testing.T, dir string) map[int]bool {
	t.Helper()
	rdb, err := engine.OpenDurable(engine.Config{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer rdb.Close()
	rs, _, err := rdb.Exec("SELECT id FROM acked")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int]bool, len(rs.Rows))
	for _, row := range rs.Rows {
		var id int
		fmt.Sscan(row[0].String(), &id)
		got[id] = true
	}
	return got
}

// TestServeChaosCrashDurability is the serving half of the durability
// contract: clients hammer a durable daemon over TCP, the engine
// "dies" mid-traffic (DB.Crash — the log file is cut off exactly as a
// process death would), the server is torn down with Abort, and the
// directory is reopened. Every INSERT a client saw acknowledged must be
// present after recovery; writes that were in flight (never answered)
// may land or not, but answered means durable.
func TestServeChaosCrashDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := engine.OpenDurable(engine.Config{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE acked (id INT, client INT, PRIMARY KEY (id))")
	srv, addr := startServer(t, db, Config{})

	const clients = 6
	var (
		acks [clients]ackRecord
		wg   sync.WaitGroup
	)
	// Every client connects before any traffic starts: on a fast host the
	// first clients reach minAcks, and the crash lands, while the last are
	// still dialing — a refused connection is not what is under test.
	var conns [clients]*Client
	for ci := range conns {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		c.Timeout = 30 * time.Second
		conns[ci] = c
	}
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *Client) {
			defer wg.Done()
			defer c.conn.Close()
			// Insert unique ids until the crash kills the run; only a
			// successful response records an ack.
			for seq := 0; ; seq++ {
				id := ci*1_000_000 + seq
				_, err := c.Exec(fmt.Sprintf("INSERT INTO acked VALUES (%d, %d)", id, ci))
				if err != nil {
					return // crash reached this client; its ledger is final
				}
				acks[ci].add(id)
			}
		}(ci, c)
	}

	// Let traffic build, then kill mid-flight: engine first (in-flight
	// statements now fail exactly as if the process died), server after.
	minAcks := 40
	for deadline := time.Now().Add(30 * time.Second); ; {
		n := 0
		for i := range acks {
			n += len(acks[i].all())
		}
		if n >= minAcks {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("traffic never built up: %d acks", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	db.Crash()
	srv.Abort()
	wg.Wait()

	var ackedAll []int
	for i := range acks {
		ackedAll = append(ackedAll, acks[i].all()...)
	}
	got := recoveredIDs(t, dir)
	missing := 0
	for _, id := range ackedAll {
		if !got[id] {
			missing++
			if missing <= 5 {
				t.Errorf("acknowledged id %d lost by the crash", id)
			}
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d acknowledged writes lost", missing, len(ackedAll))
	}
	t.Logf("acked %d writes across %d clients; %d rows recovered", len(ackedAll), clients, len(got))
}

// TestServeChaosInjectedFaults runs the daemon with a seeded fault
// injector firing at the statement boundary. Faulted statements must
// come back as clean typed SQL errors — the session, the connection,
// and the server all survive — and after a graceful shutdown every
// acknowledged write is still durable.
func TestServeChaosInjectedFaults(t *testing.T) {
	dir := t.TempDir()
	db, err := engine.OpenDurable(engine.Config{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE acked (id INT, client INT, PRIMARY KEY (id))")
	inj := fault.New(7).Plan(fault.ExecStmt, fault.Rule{Prob: 0.25})
	db.SetFaults(inj)
	inj.Arm()
	srv, addr := startServer(t, db, Config{})

	const clients, perClient = 4, 60
	var (
		acks    [clients]ackRecord
		faulted [clients]int
		wg      sync.WaitGroup
	)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := dial(t, addr)
			for seq := 0; seq < perClient; seq++ {
				id := ci*1_000_000 + seq
				_, err := c.Exec(fmt.Sprintf("INSERT INTO acked VALUES (%d, %d)", id, ci))
				if err != nil {
					// Injected faults must arrive as typed SQL errors, not
					// dropped connections or panics.
					var we *WireError
					if !errors.As(err, &we) || we.Code != CodeSQL {
						t.Errorf("client %d: fault surfaced as %v, want typed sql error", ci, err)
						return
					}
					faulted[ci]++
					continue
				}
				acks[ci].add(id)
				// The session keeps working between faults: a read on the
				// row just acked.
				if res, err := c.Query(fmt.Sprintf("SELECT client FROM acked WHERE id = %d", id)); err == nil {
					if len(res.Rows) != 1 || res.Rows[0][0] != fmt.Sprint(ci) {
						t.Errorf("client %d: readback of acked id %d got %v", ci, id, res.Rows)
						return
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	inj.Disarm()
	if inj.FiredTotal() == 0 {
		t.Fatal("the fault injector never fired; the run proved nothing")
	}

	// Graceful exit under the same roof: drain, checkpoint, close.
	shutdownAndClose(t, srv, db)

	var ackedAll []int
	for i := range acks {
		ackedAll = append(ackedAll, acks[i].all()...)
	}
	got := recoveredIDs(t, dir)
	for _, id := range ackedAll {
		if !got[id] {
			t.Fatalf("acknowledged id %d lost (with %d faults injected)", id, inj.FiredTotal())
		}
	}
	totalFaults := 0
	for _, f := range faulted {
		totalFaults += f
	}
	t.Logf("acked %d, faulted %d (injector fired %d); all acked rows recovered",
		len(ackedAll), totalFaults, inj.FiredTotal())
}
