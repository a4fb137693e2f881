package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"onlinetuner/internal/fault"
	"onlinetuner/internal/obs"
)

// The tests in this file pin the commit contract of the engine's locked
// section (DB.locked): the append under the table lock is the commit
// point, the durability wait follows the unlock, and no reply — read or
// write — depends on a commit that is not on disk.

// openOrdersLineitem opens a durable database with two small tables.
func openOrdersLineitem(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := OpenDurable(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE orders (id INT, v INT, PRIMARY KEY (id))")
	db.MustExec("CREATE TABLE lineitem (id INT, v INT, PRIMARY KEY (id))")
	for i := 0; i < 8; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO orders VALUES (%d, 0)", i))
		db.MustExec(fmt.Sprintf("INSERT INTO lineitem VALUES (%d, 0)", i))
	}
	return db
}

func TestBatchCommitWaitsOncePerBatch(t *testing.T) {
	db := openOrdersLineitem(t, t.TempDir())
	defer db.Close()
	w := db.WAL()
	appends, fsyncs := w.Appends(), w.Fsyncs()
	_, _, applied, err := db.ExecBatch(context.Background(), []string{
		"UPDATE orders SET v = 1 WHERE id = 1",
		"UPDATE orders SET v = 2 WHERE id = 2",
		"UPDATE lineitem SET v = 3 WHERE id = 3",
		"UPDATE orders SET v = v + 4 WHERE id = 1",
	})
	if err != nil || applied != 4 {
		t.Fatalf("applied %d, err %v", applied, err)
	}
	if a, f := w.Appends()-appends, w.Fsyncs()-fsyncs; a != 4 || f != 1 {
		t.Fatalf("four-update batch: %d appends, %d fsyncs; want 4 and 1", a, f)
	}
	if w.Durable() != w.Seq() {
		t.Fatalf("batch acknowledged at durable seq %d, log at %d", w.Durable(), w.Seq())
	}
}

// EXPLAIN ANALYZE really runs DML, so it must acknowledge like Exec does.
func TestExplainAnalyzeCommitIsDurable(t *testing.T) {
	db := openOrdersLineitem(t, t.TempDir())
	defer db.Close()
	w := db.WAL()
	appends := w.Appends()
	a, err := db.ExplainAnalyze("UPDATE orders SET v = 9 WHERE id = 5")
	if err != nil || a.Result.Affected != 1 {
		t.Fatalf("analysis %+v, err %v", a, err)
	}
	if w.Appends() != appends+1 || w.Durable() != w.Seq() {
		t.Fatalf("analyzed UPDATE returned with %d appends, durable seq %d of %d", w.Appends()-appends, w.Durable(), w.Seq())
	}
}

// A failed flush is fail-stop. The statement that was waiting fails; its
// effects stay in memory (its lock is long gone) but can never be read
// through the engine again; untouched tables keep answering; no write is
// acknowledged afterwards; recovery restores the pre-statement table.
func TestFsyncFaultStopsAcknowledging(t *testing.T) {
	dir := t.TempDir()
	db := openOrdersLineitem(t, dir)
	want := stateDigest(t, db)

	inj := fault.New(3).Plan(fault.WALFsync, fault.Rule{Prob: 1, Count: 1})
	db.SetFaults(inj)
	inj.Arm()
	if _, _, err := db.Exec("UPDATE orders SET v = 7 WHERE id = 1"); !fault.Is(err) {
		t.Fatalf("UPDATE under a failing flush: %v", err)
	}
	if inj.FiredTotal() != 1 {
		t.Fatalf("%d faults fired, want the one flush", inj.FiredTotal())
	}
	// The reader barrier's negative case: orders now holds a row the log
	// lost, and no reply may be built on it.
	if _, err := db.Query("SELECT v FROM orders WHERE id = 2"); !fault.Is(err) {
		t.Fatalf("SELECT on the affected table: %v, want the flush's error", err)
	}
	if rs, err := db.Query("SELECT COUNT(*) FROM lineitem"); err != nil || rs.Rows[0][0].Int() != 8 {
		t.Fatalf("SELECT on an unaffected table: %v, %v", rs, err)
	}
	for _, q := range []string{
		"UPDATE orders SET v = 1 WHERE id = 3",
		"UPDATE lineitem SET v = 1 WHERE id = 3",
		"INSERT INTO lineitem VALUES (100, 1)",
	} {
		if _, _, err := db.Exec(q); !fault.Is(err) {
			t.Fatalf("%q after the failed flush: %v, want the flush's error", q, err)
		}
	}
	if _, _, _, err := db.ExecBatch(context.Background(), []string{"UPDATE lineitem SET v = 2 WHERE id = 4"}); !fault.Is(err) {
		t.Fatalf("batch after the failed flush: %v", err)
	}
	// Failed appends unwound under the lock, so lineitem is still readable
	// and unchanged.
	if rs, err := db.Query("SELECT COUNT(*), SUM(v) FROM lineitem"); err != nil || rs.Rows[0][0].Int() != 8 || rs.Rows[0][1].Int() != 0 {
		t.Fatalf("a write that failed at its append left rows behind: %v, %v", rs, err)
	}
	db.Crash()

	db2, err := OpenDurable(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkConsistent(t, db2)
	if got := stateDigest(t, db2); got != want {
		t.Fatal("recovered state differs from the state before the failed statement")
	}
}

// The reader barrier's positive case. Each UPDATE below is exactly one
// log append, serialized by the orders lock, so the commit that made
// orders.v equal n holds ticket base+n. A read that returns n must find
// that ticket durable; reads of lineitem, which nobody writes, must keep
// succeeding beside them.
func TestBarrierReadsNeverAheadOfDurableLog(t *testing.T) {
	db := openOrdersLineitem(t, t.TempDir())
	defer db.Close()
	w := db.WAL()
	base := w.Seq()
	const writers, updates = 2, 60

	var wg sync.WaitGroup
	var done atomic.Bool
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < updates; n++ {
				if _, _, err := db.Exec("UPDATE orders SET v = v + 1 WHERE id = 1"); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}()
	}
	var readers sync.WaitGroup
	for _, table := range []string{"orders", "orders", "lineitem"} {
		readers.Add(1)
		go func(table string) {
			defer readers.Done()
			for !done.Load() {
				rs, err := db.Query("SELECT v FROM " + table + " WHERE id = 1")
				if err != nil || len(rs.Rows) != 1 {
					t.Errorf("read of %s: %v, %v", table, rs, err)
					return
				}
				if v := uint64(rs.Rows[0][0].Int()); table == "orders" && w.Durable() < base+v {
					t.Errorf("read returned orders.v = %d (ticket %d) with the log durable to %d", v, base+v, w.Durable())
					return
				}
			}
		}(table)
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()
	if rs := db.MustExec("SELECT v FROM orders WHERE id = 1"); rs.Rows[0][0].Int() != writers*updates {
		t.Fatalf("lost updates: v = %v", rs.Rows[0][0])
	}
	if got := w.Appends() - int64(base); got != writers*updates {
		t.Fatalf("%d appends for %d updates", got, writers*updates)
	}
}

// A panic inside the locked section must not strand its table locks.
func TestLockedSectionReleasesOnPanic(t *testing.T) {
	db := openRS(t, 10)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		_ = db.locked(nil, []string{"S"}, []string{"R"}, func() { panic("boom") })
	}()
	ok := make(chan struct{})
	go func() {
		defer close(ok)
		db.MustExec("UPDATE R SET b = 1 WHERE id = 1")
		db.MustExec("UPDATE S SET y = 1 WHERE id = 1")
	}()
	select {
	case <-ok:
	case <-time.After(5 * time.Second):
		t.Fatal("table locks still held after a panic in the locked section")
	}
}

func TestLockSetOrderAndAllocations(t *testing.T) {
	tl := newTableLocks()
	names := func(ls lockSet) (out []string) {
		for _, h := range ls {
			mode := "r"
			if h.excl {
				mode = "w"
			}
			out = append(out, h.table+":"+mode)
		}
		return out
	}
	for _, tc := range []struct {
		reads, writes []string
		want          string
	}{
		{[]string{"orders"}, nil, "[orders:r]"},
		{[]string{"b", "a", "B"}, []string{"A", "c"}, "[a:w b:r c:w]"},
		{[]string{"f", "e", "d", "c", "b", "a", "d"}, []string{"e"}, "[a:r b:r c:r d:r e:w f:r]"},
	} {
		ls := tl.acquire(nil, tc.reads, tc.writes)
		got := fmt.Sprint(names(ls))
		ls.release()
		if got != tc.want {
			t.Errorf("acquire(%v, %v) held %s, want %s", tc.reads, tc.writes, got, tc.want)
		}
	}
	// Everything above was released: an exclusive pass over the same
	// tables must not block.
	all := tl.acquire(nil, nil, []string{"a", "b", "c", "d", "e", "f", "orders"})
	all.release()

	reads, writes := []string{"lineitem", "orders", "customer"}, []string{"orders", "nation"}
	if n := testing.AllocsPerRun(200, func() {
		var buf [4]heldLock
		ls := tl.acquire(buf[:0], reads, writes)
		ls.release()
	}); n != 0 {
		t.Errorf("locking four tables allocates %.0f objects, want 0", n)
	}
}

// In durable mode a traced write shows where it waited for the disk.
func TestTraceRecordsDurableWait(t *testing.T) {
	db := openOrdersLineitem(t, t.TempDir())
	defer db.Close()
	tr := obs.NewTrace("update")
	if _, _, err := db.ExecContext(obs.WithTrace(context.Background(), tr), "UPDATE orders SET v = 5 WHERE id = 5"); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	exec, wait := tr.FindSpan("execute"), tr.FindSpan("durable-wait")
	if exec == nil || wait == nil || wait.Start < exec.End || wait.Duration() <= 0 {
		t.Fatalf("no durable-wait phase after execute:\n%s", tr)
	}
	if ns := counterVal(t, db, "engine.durable_wait_ns"); ns <= 0 {
		t.Fatalf("engine.durable_wait_ns = %d after a traced durable write", ns)
	}
}
