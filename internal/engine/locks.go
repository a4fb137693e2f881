package engine

import (
	"strings"
	"sync"
	"time"

	"onlinetuner/internal/obs"
	"onlinetuner/internal/sql"
)

// tableLocks is the engine's sharded statement-level lock registry: one
// reader-writer lock per table, created on demand. A statement acquires
// shared locks on the tables it reads and exclusive locks on the tables
// it writes, so:
//
//   - any number of read statements over the same tables run in
//     parallel;
//   - DML is exclusive per table — read-modify-write statements like
//     UPDATE t SET v = v + 1 can never lose updates to a concurrent
//     writer;
//   - statements over disjoint tables never contend at all (the
//     "sharding" — the lock space is partitioned by table).
//
// All tables are locked up front in sorted name order, which makes
// deadlock impossible: every statement acquires locks along the same
// global order and never picks up another one mid-flight.
//
// Under the locks: optimize, execute, the WAL append that is the
// statement's commit point (or its unwinding, if the append fails) and
// the tuner's observation. NOT under them: the wait for that append to
// become durable — see DB.locked.
type tableLocks struct {
	mu sync.Mutex
	m  map[string]*sync.RWMutex
}

func newTableLocks() *tableLocks {
	return &tableLocks{m: make(map[string]*sync.RWMutex)}
}

func (tl *tableLocks) lockFor(name string) *sync.RWMutex {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	lk := tl.m[name]
	if lk == nil {
		lk = &sync.RWMutex{}
		tl.m[name] = lk
	}
	return lk
}

// heldLock is one table lock a statement holds.
type heldLock struct {
	table string // lower-cased
	mu    *sync.RWMutex
	excl  bool
}

// lockSet is the locks one statement holds, in acquisition (sorted name)
// order.
type lockSet []heldLock

// add inserts a table, keeping the set sorted by name. A table named
// twice is held once, exclusively if either mention asked for that.
func (ls lockSet) add(table string, excl bool) lockSet {
	table = strings.ToLower(table)
	i := 0
	for i < len(ls) && ls[i].table < table {
		i++
	}
	if i < len(ls) && ls[i].table == table {
		ls[i].excl = ls[i].excl || excl
		return ls
	}
	ls = append(ls, heldLock{})
	copy(ls[i+1:], ls[i:])
	ls[i] = heldLock{table: table, excl: excl}
	return ls
}

// acquire locks the given tables for one statement, appending to buf —
// callers pass a small array from their own frame, so the common
// statement allocates nothing — and returns the set for the caller to
// release.
func (tl *tableLocks) acquire(buf lockSet, reads, writes []string) lockSet {
	for _, w := range writes {
		buf = buf.add(w, true)
	}
	for _, r := range reads {
		buf = buf.add(r, false)
	}
	for i := range buf {
		h := &buf[i]
		h.mu = tl.lockFor(h.table)
		if h.excl {
			h.mu.Lock()
		} else {
			h.mu.RLock()
		}
	}
	return buf
}

// release unlocks the set in reverse acquisition order.
func (ls lockSet) release() {
	for i := len(ls) - 1; i >= 0; i-- {
		if ls[i].excl {
			ls[i].mu.Unlock()
		} else {
			ls[i].mu.RUnlock()
		}
	}
}

// locked is the engine's one locked section, used by every path that
// executes a statement: acquire the table locks, run, read the barrier —
// the newest commit ticket among the tables held, read or written —
// release the locks (also when run panics), and only then wait for the
// barrier to be durable, so the next writer on a table appends behind
// this one and both share a flush. A nil return is the acknowledgement:
// whatever run read or committed is on disk, and no reply, read or write,
// ever depends on a write that is not. An error means the log has stopped
// (wal.Writer) and nothing of run's may be acknowledged, whatever run
// itself reported. An in-memory database has no barrier to wait for.
//
// With a trace, the two waits are its lock-wait and durable-wait phases.
func (db *DB) locked(tr *obs.Trace, reads, writes []string, run func()) error {
	var t0 time.Time
	if tr != nil {
		tr.Phase("lock-wait")
		t0 = time.Now()
	}
	var barrier uint64
	func() {
		var buf [4]heldLock
		ls := db.locks.acquire(buf[:0], reads, writes)
		defer ls.release()
		if tr != nil {
			db.lockWaitNS.Add(time.Since(t0).Nanoseconds())
		}
		run()
		if db.wal != nil {
			for _, h := range ls {
				barrier = max(barrier, db.Mgr.Barrier(h.table))
			}
		}
	}()
	if barrier == 0 {
		return nil
	}
	if tr != nil {
		tr.Phase("durable-wait")
		t0 = time.Now()
	}
	err := db.wal.Wait(barrier)
	if tr != nil {
		db.durableWaitNS.Add(time.Since(t0).Nanoseconds())
		tr.EndPhase()
	}
	if err != nil {
		db.noteErr(tr, err)
	}
	return err
}

// lockTablesFor classifies which tables a statement reads and writes.
// DROP INDEX resolves its table through the catalog; an unknown index
// yields no lock and the execution path reports the error.
func (db *DB) lockTablesFor(stmt sql.Statement) (reads, writes []string) {
	switch s := stmt.(type) {
	case *sql.Select:
		return selectTables(s), nil
	case *sql.Insert:
		if s.Query != nil {
			reads = selectTables(s.Query)
		}
		return reads, []string{s.Table}
	case *sql.Update:
		return nil, []string{s.Table}
	case *sql.Delete:
		return nil, []string{s.Table}
	case *sql.CreateTable:
		return nil, []string{s.Table}
	case *sql.CreateIndex:
		return nil, []string{s.Table}
	case *sql.DropIndex:
		if ix := db.Cat.Index(s.Name); ix != nil {
			return nil, []string{ix.Table}
		}
		return nil, nil
	case *sql.Explain:
		// EXPLAIN only optimizes; it still reads catalog/statistics state
		// of the referenced tables.
		r, w := db.lockTablesFor(s.Stmt)
		return append(r, w...), nil
	}
	return nil, nil
}

// selectTables lists every table referenced by a SELECT, including those
// of its WHERE clause's subqueries: the optimizer unnests them into
// semi-joins that scan those tables, and an index scan must not run
// under a concurrent writer.
func selectTables(s *sql.Select) []string {
	out := []string{s.From.Table}
	for _, j := range s.Joins {
		out = append(out, j.Right.Table)
	}
	var walk func(sql.Expr)
	walk = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *sql.NotExpr:
			walk(x.Inner)
		case *sql.InSubquery:
			out = append(out, selectTables(x.Query)...)
		case *sql.ExistsExpr:
			out = append(out, selectTables(x.Query)...)
		}
	}
	walk(s.Where)
	return out
}
