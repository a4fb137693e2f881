package storage

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/wal"
)

// This file holds the statement frame and threads the write-ahead log
// through the storage manager. Logging is commit-time and logical.
//
// One frame serves every DML statement, with or without a log. It owns
// both halves of the statement: redo — one WAL record per applied row,
// buffered until commit — and undo — the same rows with their
// before-images (rowChange). The executor brackets a statement with
// BeginStmt / CommitStmt / AbortStmt on the written table and applies
// rows through Insert/Update/Delete in between; the engine's per-table
// write locks guarantee one writer statement per table, so the open frame
// lives on the tableStore.
//
// The append is the frame's commit point, not the fsync. CommitStmt
// submits the redo half OUTSIDE the manager lock and does not wait for
// the disk: its nil means appended. The acknowledgement is the engine's
// epilogue (DB.locked), which reads the table's barrier under the table
// lock and waits on it after the unlock, so a second writer can append
// behind this one and share its flush. AbortStmt, or a commit whose
// append fails, unwinds the undo half newest-first, still under the table
// lock: each row's inverse goes through the same per-index-state routine
// as the row did (the comment on maintain in manager.go states the
// rule). Past the commit point a statement is never unwound — a failed
// flush stops the log for good (wal.Writer). A direct Manager DML call
// with no frame open (the bulk loader, recovery replay, tests) is a frame
// of one operation that appends AND waits before it returns.
//
// Lifecycle records are not framed: a table or index transition logs a
// single-record batch under the manager lock, ordered validate → append
// → apply, so once the record is durable the in-memory transition cannot
// fail.
//
// With no writer installed (Durable=false, or during recovery replay)
// the redo half stays empty and commit appends nothing.

// SetWAL installs the write-ahead log writer. Pass nil to detach (the
// in-memory mode). Installed after recovery replay, so replayed
// operations are never re-logged.
func (m *Manager) SetWAL(w *wal.Writer) {
	if w == nil {
		m.wal.Store(nil)
		return
	}
	m.wal.Store(&walRef{w: w})
}

// WAL returns the installed writer, or nil.
func (m *Manager) WAL() *wal.Writer {
	if ref := m.wal.Load(); ref != nil {
		return ref.w
	}
	return nil
}

// walRef wraps the writer for atomic.Pointer storage.
type walRef struct{ w *wal.Writer }

// stmtFrame is one open DML statement on its table.
type stmtFrame struct {
	ts   *tableStore
	recs []*wal.Record // redo, in application order; empty without a log
	undo []rowChange   // undo, in application order
}

// BeginStmt opens a statement frame on a table. The caller must hold the
// table's write lock (the executor does, for the whole statement
// including CommitStmt).
func (m *Manager) BeginStmt(table string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts := m.tables[strings.ToLower(table)]; ts != nil {
		ts.stmt = &stmtFrame{ts: ts}
	}
}

// CommitStmt closes the table's statement frame and appends its records
// to the log as one commit unit. A nil return means appended, not
// durable: the caller owes a wait on the table's Barrier before it
// acknowledges the statement. On error the statement has been rolled
// back in memory and nothing of it is in the log.
func (m *Manager) CommitStmt(table string) error {
	m.mu.Lock()
	var f *stmtFrame
	if ts := m.tables[strings.ToLower(table)]; ts != nil {
		f, ts.stmt = ts.stmt, nil
	}
	m.mu.Unlock()
	if f == nil {
		return nil
	}
	return m.commit(f, false)
}

// commit appends a closed frame's records, outside the manager lock, and
// unwinds the frame if that fails. A statement's frame is only
// submitted — the table's barrier is raised to the commit's ticket for
// the engine to wait on; an autocommit frame (wait) is appended and
// waited for in one step. A frame with no records (no log, or a
// statement that matched no rows) skips the log entirely.
func (m *Manager) commit(f *stmtFrame, wait bool) error {
	w := m.WAL()
	if w == nil || len(f.recs) == 0 {
		return nil
	}
	var ticket uint64
	var err error
	if wait {
		ticket, err = w.Append(f.recs)
	} else {
		ticket, err = w.Submit(f.recs)
	}
	if err != nil {
		m.mu.Lock()
		m.unwindLocked(f)
		m.mu.Unlock()
		return err
	}
	f.ts.barrier.Store(ticket)
	return nil
}

// Barrier returns the ticket of the newest statement commit appended for
// a table: what must be durable before anything read from the table, or
// written to it by the caller, may be acknowledged. The caller holds the
// table's lock, so no statement commit on it is in flight.
func (m *Manager) Barrier(table string) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if ts := m.tables[strings.ToLower(table)]; ts != nil {
		return ts.barrier.Load()
	}
	return 0
}

// AbortStmt rolls the table's open statement back and discards its
// frame; the log never sees it.
func (m *Manager) AbortStmt(table string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts := m.tables[strings.ToLower(table)]; ts != nil && ts.stmt != nil {
		m.unwindLocked(ts.stmt)
		ts.stmt = nil
	}
}

// unwindLocked undoes a frame's applied rows, newest first.
func (m *Manager) unwindLocked(f *stmtFrame) {
	for i := len(f.undo) - 1; i >= 0; i-- {
		m.undoLocked(f.ts, &f.undo[i])
	}
}

// logLifecycleLocked appends a single-record batch for a lifecycle
// transition, under the manager lock. Safe with group commit: the flush
// leader never needs the manager lock, so the wait cannot deadlock.
// Lifecycle events are rare; holding the lock across the append keeps
// log order equal to application order with no extra machinery.
func (m *Manager) logLifecycleLocked(rec *wal.Record) error {
	w := m.WAL()
	if w == nil {
		return nil
	}
	_, err := w.Append([]*wal.Record{rec})
	return err
}

// tableDefFor converts a catalog table to its logged form.
func tableDefFor(t *catalog.Table) *wal.TableDef {
	def := &wal.TableDef{Name: t.Name, PK: append([]string(nil), t.PrimaryKey...)}
	for _, c := range t.Columns {
		def.Cols = append(def.Cols, wal.ColDef{Name: c.Name, Kind: uint8(c.Kind), AvgWidth: c.AvgWidth})
	}
	return def
}

// indexDefFor converts a catalog index to its logged form.
func indexDefFor(ix *catalog.Index) *wal.IndexDef {
	return &wal.IndexDef{Name: ix.Name, Table: ix.Table, Columns: append([]string(nil), ix.Columns...)}
}

// SnapshotState captures the manager's full durable state for a
// checkpoint: schemas, raw heaps (tombstones and free-list order
// included — future RID assignment depends on them), and secondary
// index defs with lifecycle state. The caller must quiesce writers (the
// engine holds every table write lock). Output ordering is
// deterministic so identical states encode to identical bytes.
func (m *Manager) SnapshotState() *wal.Snapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := &wal.Snapshot{}
	names := make([]string, 0, len(m.tables))
	for k := range m.tables {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		ts := m.tables[k]
		slots, rows, free := ts.heap.dumpState()
		st := wal.SnapshotTable{Def: *tableDefFor(ts.def), Slots: int64(slots)}
		for _, hr := range rows {
			st.Rows = append(st.Rows, wal.SnapRow{RID: int64(hr.RID), Row: hr.Row})
		}
		for _, f := range free {
			st.Free = append(st.Free, int64(f))
		}
		s.Tables = append(s.Tables, st)
	}
	ids := make([]string, 0, len(m.indexes))
	for id := range m.indexes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		pi := m.indexes[id]
		if pi.Def.Primary {
			continue
		}
		var state uint8
		switch pi.State() {
		case StateActive:
			state = wal.SnapIndexActive
		case StateSuspended:
			state = wal.SnapIndexSuspended
		case StateBuilding:
			state = wal.SnapIndexBuilding
		}
		s.Indexes = append(s.Indexes, wal.SnapshotIndex{
			Def:        *indexDefFor(pi.Def),
			State:      state,
			PendingOps: pi.PendingOps(),
		})
	}
	return s
}

// RestoreHeap overwrites a materialized table's heap with snapshot
// state and rebuilds the trees of its active indexes from the restored
// rows. Recovery-only: called before any WAL writer is installed.
func (m *Manager) RestoreHeap(table string, slots int64, rows []wal.SnapRow, free []int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tables[strings.ToLower(table)]
	if ts == nil {
		return fmt.Errorf("storage: restore of unmaterialized table %s", table)
	}
	hr := make([]HeapRow, len(rows))
	for i, r := range rows {
		if r.RID < 0 || r.RID >= slots {
			return fmt.Errorf("storage: restore %s: rid %d outside %d slots", table, r.RID, slots)
		}
		hr[i] = HeapRow{RID: RID(r.RID), Row: r.Row}
	}
	fr := make([]RID, len(free))
	for i, f := range free {
		if f < 0 || f >= slots {
			return fmt.Errorf("storage: restore %s: free rid %d outside %d slots", table, f, slots)
		}
		fr[i] = RID(f)
	}
	if err := ts.heap.restoreState(int(slots), hr, fr); err != nil {
		return fmt.Errorf("storage: restore %s: %w", table, err)
	}
	ts.stamp.Add(1)
	for _, pi := range m.indexes {
		if !strings.EqualFold(pi.Def.Table, table) || pi.State() != StateActive {
			continue
		}
		if err := m.rebuildTreeLocked(ts, pi); err != nil {
			return err
		}
	}
	return nil
}

// RestoreIndex re-materializes a secondary index from snapshot state,
// rebuilding its tree from the (already restored) heap. Recovery-only.
func (m *Manager) RestoreIndex(ix *catalog.Index, state IndexState, pendingOps int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.indexes[ix.ID()]; dup {
		return fmt.Errorf("storage: restore of already materialized index %s", ix.Name)
	}
	ts := m.tables[strings.ToLower(ix.Table)]
	if ts == nil {
		return fmt.Errorf("storage: restore of index %s over unmaterialized table %s", ix.Name, ix.Table)
	}
	pi := &PhysicalIndex{Def: ix}
	pi.colOrds = ordinalsFor(ts.def, ix)
	if err := m.rebuildTreeLocked(ts, pi); err != nil {
		return err
	}
	pi.setState(state)
	pi.pendingOps.Store(pendingOps)
	m.indexes[ix.ID()] = pi
	ts.stamp.Add(1)
	m.configVersion.Add(1)
	return nil
}

// rebuildTreeLocked bulk-loads a fresh tree for pi from ts's heap. No
// fault draws: recovery and restore paths must not inject.
func (m *Manager) rebuildTreeLocked(ts *tableStore, pi *PhysicalIndex) error {
	tree, err := m.loadTree(context.Background(), ts.heap.Snapshot(), pi.colOrds, nil)
	if err != nil {
		return err
	}
	tree.faults = m.faults.Load()
	pi.tree.Store(tree)
	return nil
}
