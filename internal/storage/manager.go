package storage

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/obs"
	"onlinetuner/internal/par"
	"onlinetuner/internal/wal"
)

// IndexState tracks the lifecycle of a physical index structure.
type IndexState int

// Index lifecycle states. Suspended indexes keep their structure but are
// not maintained and cannot serve queries; Restart replays the missed
// changes, which is cheaper than a rebuild (Section 3.3 of the paper).
const (
	StateActive IndexState = iota
	StateSuspended
	StateBuilding // asynchronous creation in progress
)

func (s IndexState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateSuspended:
		return "suspended"
	case StateBuilding:
		return "building"
	}
	return "unknown"
}

// PhysicalIndex couples an index definition with its B+-tree structure.
//
// Concurrency: State and PendingOps are atomically readable from any
// goroutine (the optimizer and tuner poll them without holding the
// manager lock). Tree is guarded by the manager lock for maintenance and
// by the engine's per-table statement locks for query reads; while an
// index is building, Tree is the builder's private structure and DML
// changes are captured in a delta log instead.
type PhysicalIndex struct {
	Def *catalog.Index

	tree  atomic.Pointer[BTree]
	state atomic.Int32
	// estBytes is the accounted size reservation while building (the
	// budget must cover the index before the real structure exists).
	estBytes atomic.Int64
	// pendingOps counts row changes missed while suspended; Restart
	// replays them and its cost is proportional to this count.
	pendingOps atomic.Int64
	// colOrds caches the table-ordinal of each index column.
	colOrds []int
	// rowKey marks an index whose columns are the table's, in table
	// order — the clustered primary index whenever the primary key leads
	// the table. Its keys are the heap rows themselves (see key).
	rowKey bool
	// building logs DML deltas while a background build is in flight;
	// nil otherwise. Guarded by the manager lock.
	building *buildDelta
}

// State returns the index lifecycle state.
func (pi *PhysicalIndex) State() IndexState { return IndexState(pi.state.Load()) }

func (pi *PhysicalIndex) setState(s IndexState) { pi.state.Store(int32(s)) }

// Tree returns the index structure, or nil while a background build is
// still assembling it.
func (pi *PhysicalIndex) Tree() *BTree { return pi.tree.Load() }

// Pages returns the accounted page count of the index structure.
func (pi *PhysicalIndex) Pages() int64 {
	return PagesFor(pi.Bytes())
}

// Bytes returns the accounted byte size of the index structure: the
// estimated reservation while building, the real key bytes otherwise.
func (pi *PhysicalIndex) Bytes() int64 {
	t := pi.tree.Load()
	if t == nil {
		return pi.estBytes.Load()
	}
	return t.KeyBytes()
}

// PendingOps returns the number of changes missed while suspended.
func (pi *PhysicalIndex) PendingOps() int64 { return pi.pendingOps.Load() }

// tableStore couples a heap with its catalog definition.
type tableStore struct {
	def  *catalog.Table
	heap *Heap
	// stmt is the frame of the in-flight DML statement on this table,
	// nil when none. Guarded by the manager lock; at most one writer
	// statement exists per table thanks to the engine's table write locks.
	stmt *stmtFrame
	// barrier is the ticket of the newest statement commit appended for
	// this table. Stored under the table's write lock, after the append;
	// read under at least its read lock.
	barrier atomic.Uint64
	// stamp counts the changes that can move a size of the table or of
	// its indexes (see Manager.TableStamp). Bumped under the manager lock.
	stamp atomic.Uint64
}

// TableStamp returns a counter that changes whenever the table's rows,
// or the set, state or size of its indexes, may have changed: every row
// change (rollbacks and restores included) and every index lifecycle
// step bumps it. Anything computed from the table's heap and index sizes
// stays valid while the stamp does. Zero for an unknown table.
func (m *Manager) TableStamp(table string) uint64 {
	m.mu.RLock()
	ts := m.tables[strings.ToLower(table)]
	m.mu.RUnlock()
	if ts == nil {
		return 0
	}
	return ts.stamp.Load()
}

// touchLocked bumps the stamp of a table whose sizes may have changed.
// Caller holds the manager lock.
func (m *Manager) touchLocked(table string) {
	if ts := m.tables[strings.ToLower(table)]; ts != nil {
		ts.stamp.Add(1)
	}
}

// BuildStats describes the work performed by an index build; the cost
// model converts it into the creation cost B_I^s.
type BuildStats struct {
	SourceIndex string // index scanned to produce the build input ("" = heap)
	SourcePages int64
	Rows        int64
	Sorted      bool // true if an explicit sort was required
	NewPages    int64
}

// Manager owns all physical structures and enforces the secondary-index
// space budget. Table (primary) data never counts against the budget;
// secondary indexes — active, suspended or building — do.
type Manager struct {
	mu      sync.RWMutex
	cat     *catalog.Catalog
	tables  map[string]*tableStore
	indexes map[string]*PhysicalIndex // by index ID
	// Budget is the secondary-index space budget in bytes; 0 means
	// unlimited.
	budget int64
	// configVersion increments on every change to the set of query-
	// servable index structures (build, drop, suspend, restart, publish).
	// It is the invalidation token for anything planned against a
	// physical-design snapshot: a plan chosen under ConfigVersion() == v
	// saw exactly the structures that exist while the version stays v.
	configVersion atomic.Int64
	// faults is the optional fault-injection layer. Atomic so the
	// executor's read paths can consult it without the manager lock.
	faults atomic.Pointer[fault.Injector]
	// pool bounds the goroutines index-build sorts may use. The engine
	// installs the same pool the executor draws morsel workers from, so
	// builds and statements share one process-wide budget (sorts acquire
	// slots non-blocking and degrade to sequential when drained). Atomic:
	// the engine reconfigures it while builds may be in flight.
	pool atomic.Pointer[par.Pool]
	// wal is the optional write-ahead log (see wal.go). Atomic so the
	// DML hot path checks for it with one load; nil in in-memory mode.
	wal atomic.Pointer[walRef]
	// cm are the column-cache cells every heap created here counts into.
	cm colMetrics
}

// SetColumnMetrics makes heaps created afterwards count their column
// caches into reg: storage.colcache_hits, _builds and _bytes (a gauge).
func (m *Manager) SetColumnMetrics(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cm = colMetrics{reg.Counter("storage.colcache_hits"), reg.Counter("storage.colcache_builds"), reg.Gauge("storage.colcache_bytes")}
}

// SetPool installs the worker pool index-build sorts draw slots from.
// Passing the executor's pool makes builds and statements share one
// budget. The sorted output is identical at every setting.
func (m *Manager) SetPool(p *par.Pool) { m.pool.Store(p) }

// SetWorkers sizes a fresh private pool for index-build sorts (0 = use
// GOMAXPROCS); prefer SetPool to share the executor's budget.
func (m *Manager) SetWorkers(n int) { m.pool.Store(par.NewPool(n)) }

// Pool returns the pool index-build sorts draw from (possibly nil:
// sorts then run sequentially).
func (m *Manager) Pool() *par.Pool { return m.pool.Load() }

// Workers returns the effective index-build sort parallelism.
func (m *Manager) Workers() int { return m.Pool().Workers() }

// SetFaults installs (or, with nil, removes) the fault-injection layer.
// The injector propagates to every existing index tree and to trees
// created afterwards.
func (m *Manager) SetFaults(inj *fault.Injector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults.Store(inj)
	for _, pi := range m.indexes {
		if t := pi.Tree(); t != nil {
			t.faults = inj
		}
	}
}

// Faults returns the installed fault injector, or nil.
func (m *Manager) Faults() *fault.Injector { return m.faults.Load() }

// newTreeLocked returns an empty tree wired to the manager's injector.
func (m *Manager) newTreeLocked() *BTree {
	t := NewBTree()
	t.faults = m.faults.Load()
	return t
}

// ConfigVersion returns the current physical-design version. It
// increases monotonically on every index lifecycle transition.
func (m *Manager) ConfigVersion() int64 { return m.configVersion.Load() }

// NewManager returns a storage manager bound to a catalog.
func NewManager(cat *catalog.Catalog) *Manager {
	m := &Manager{
		cat:     cat,
		tables:  make(map[string]*tableStore),
		indexes: make(map[string]*PhysicalIndex),
		cm:      colMetrics{new(obs.Counter), new(obs.Counter), new(obs.Gauge)},
	}
	m.pool.Store(par.NewPool(0))
	return m
}

// SetBudget sets the secondary-index space budget in bytes (0 =
// unlimited).
func (m *Manager) SetBudget(bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budget = bytes
}

// Budget returns the secondary-index space budget in bytes.
func (m *Manager) Budget() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.budget
}

// UsedBytes returns the bytes consumed by secondary indexes.
func (m *Manager) UsedBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.usedLocked()
}

func (m *Manager) usedLocked() int64 {
	var used int64
	for _, pi := range m.indexes {
		if !pi.Def.Primary {
			used += pi.Bytes()
		}
	}
	return used
}

// FreeBytes returns the remaining budget, or a very large number when
// unlimited.
func (m *Manager) FreeBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.budget == 0 {
		return 1 << 62
	}
	return m.budget - m.usedLocked()
}

// CreateTable materializes a heap for a catalog table (which must already
// be registered) and builds its primary index structure.
func (m *Manager) CreateTable(name string) error {
	t := m.cat.Table(name)
	if t == nil {
		return fmt.Errorf("storage: table %s not in catalog", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := m.tables[key]; dup {
		return fmt.Errorf("storage: table %s already materialized", name)
	}
	pk := m.cat.PrimaryIndex(name)
	if pk == nil {
		return fmt.Errorf("storage: table %s has no primary index", name)
	}
	if err := m.logLifecycleLocked(&wal.Record{Kind: wal.KindAlloc, Schema: tableDefFor(t)}); err != nil {
		return err
	}
	m.tables[key] = &tableStore{def: t, heap: &Heap{width: len(t.Columns), cm: m.cm}}
	pi := newPhysicalIndex(t, pk)
	pi.tree.Store(m.newTreeLocked())
	pi.setState(StateActive)
	m.indexes[pk.ID()] = pi
	return nil
}

// Heap returns the heap of a table, or nil.
func (m *Manager) Heap(table string) *Heap {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ts := m.tables[strings.ToLower(table)]
	if ts == nil {
		return nil
	}
	return ts.heap
}

// Index returns the physical index with the given catalog ID, or nil.
func (m *Manager) Index(id string) *PhysicalIndex {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.indexes[id]
}

// TableIndexes returns the physical indexes over a table, primary first.
func (m *Manager) TableIndexes(table string) []*PhysicalIndex {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*PhysicalIndex, 0, 4)
	for _, pi := range m.indexes {
		if strings.EqualFold(pi.Def.Table, table) {
			out = append(out, pi)
		}
	}
	slices.SortFunc(out, func(a, b *PhysicalIndex) int {
		if a.Def.Primary != b.Def.Primary {
			if a.Def.Primary {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Def.Name, b.Def.Name)
	})
	return out
}

// newPhysicalIndex returns an unpublished index structure for ix over t,
// with its column ordinals resolved.
func newPhysicalIndex(t *catalog.Table, ix *catalog.Index) *PhysicalIndex {
	pi := &PhysicalIndex{Def: ix, colOrds: make([]int, len(ix.Columns))}
	pi.rowKey = len(ix.Columns) == len(t.Columns)
	for i, c := range ix.Columns {
		pi.colOrds[i] = t.ColumnIndex(c)
		pi.rowKey = pi.rowKey && pi.colOrds[i] == i
	}
	return pi
}

// key returns pi's key for a full table row. Every index key is made
// here. A row-keyed index's key is the row itself, so the table's row
// lives in memory once; that is safe because heap rows are never mutated
// in place. Any other key copies its columns into dst (a fresh slice
// when dst is nil). Either way cap == len, so an append on a key handed
// to the executor reallocates.
func (pi *PhysicalIndex) key(row, dst datum.Row) datum.Row {
	n := len(pi.colOrds)
	switch {
	case pi.rowKey:
		return row[:n:n]
	case dst == nil:
		dst = make(datum.Row, n)
	}
	for i, o := range pi.colOrds {
		dst[i] = row[o]
	}
	return dst
}

// KeyFor returns ix's key of a full row of table t: the row itself when
// ix's columns are the table's in table order, else a copy of its key
// columns.
func (m *Manager) KeyFor(t *catalog.Table, ix *catalog.Index, row datum.Row) datum.Row {
	return newPhysicalIndex(t, ix).key(row, nil)
}

// rowChange is one applied row change: old == nil is an insert, new ==
// nil a delete. It is the undo half of a statement frame (wal.go); the
// before-image is all an inverse needs.
type rowChange struct {
	rid      RID
	old, new datum.Row
	// fresh marks an insert that grew the heap's slot array; its inverse
	// shrinks the array again instead of leaving a free slot behind, so a
	// rolled-back statement does not change which RID the next insert gets.
	fresh bool
}

// Insert adds a row to a table and maintains its indexes. It returns the
// RID and the number of index structures touched (for update cost
// accounting).
//
// Every row change is all-or-nothing: if an index maintenance step fails
// (e.g. under fault injection), the structures already touched — heap
// row included — are restored before the error returns. Inside a
// statement frame (BeginStmt) the change joins the frame; outside one it
// is a frame of its own and commits before the call returns.
func (m *Manager) Insert(table string, row datum.Row) (RID, int, error) {
	return m.change(table, wal.OpInsert, 0, row)
}

// Delete removes the row at rid and maintains the table's indexes.
func (m *Manager) Delete(table string, rid RID) (int, error) {
	_, touched, err := m.change(table, wal.OpDelete, rid, nil)
	return touched, err
}

// Update replaces the row at rid and maintains indexes whose keys
// changed.
func (m *Manager) Update(table string, rid RID, newRow datum.Row) (int, error) {
	_, touched, err := m.change(table, wal.OpUpdate, rid, newRow)
	return touched, err
}

func (m *Manager) change(table string, op wal.Op, rid RID, row datum.Row) (RID, int, error) {
	m.mu.Lock()
	rid, touched, auto, err := m.changeLocked(table, op, rid, row)
	m.mu.Unlock()
	if err == nil && auto != nil {
		// Autocommit is a frame of one operation; like CommitStmt it
		// appends outside the manager lock, but it also waits: no
		// epilogue follows a direct call.
		err = m.commit(auto, true)
	}
	if err != nil {
		return 0, 0, err
	}
	return rid, touched, nil
}

// changeLocked applies one row change and records it in the table's open
// statement frame. With no frame open it returns a one-operation frame
// for the caller to commit (nil when there is no log to commit to).
func (m *Manager) changeLocked(table string, op wal.Op, rid RID, row datum.Row) (RID, int, *stmtFrame, error) {
	ts := m.tables[strings.ToLower(table)]
	if ts == nil {
		return 0, 0, nil, fmt.Errorf("storage: table %s not materialized", table)
	}
	c := rowChange{rid: rid, new: row}
	if op == wal.OpInsert {
		if len(row) != len(ts.def.Columns) {
			return 0, 0, nil, fmt.Errorf("storage: table %s: row arity %d != %d", table, len(row), len(ts.def.Columns))
		}
	} else if c.old = ts.heap.Get(rid); c.old == nil {
		return 0, 0, nil, fmt.Errorf("storage: table %s: rid %d not found", table, rid)
	}
	inj := m.faults.Load()
	if err := inj.Hit(fault.PageWrite); err != nil {
		return 0, 0, nil, err
	}
	touched, err := m.applyLocked(ts, &c, inj)
	if err != nil {
		return 0, 0, nil, err
	}
	w := m.WAL()
	var auto *stmtFrame
	f := ts.stmt
	if f == nil {
		if w == nil {
			return c.rid, touched, nil, nil
		}
		auto = &stmtFrame{ts: ts}
		f = auto
	}
	f.undo = append(f.undo, c)
	if w != nil {
		f.recs = append(f.recs, &wal.Record{Kind: wal.KindPageWrite, Op: op, Table: ts.def.Name, RID: int64(c.rid), Row: c.new})
	}
	return c.rid, touched, auto, nil
}

// applyLocked applies c to the heap and then to the table's indexes,
// filling in the RID of an insert. If an index fails, nothing of c
// remains.
func (m *Manager) applyLocked(ts *tableStore, c *rowChange, inj *fault.Injector) (int, error) {
	ts.stamp.Add(1)
	switch {
	case c.old == nil:
		c.rid, c.fresh = ts.heap.insert(c.new)
	case c.new == nil:
		_ = ts.heap.Delete(c.rid)
	default:
		_, _ = ts.heap.Update(c.rid, c.new)
	}
	var buf [8]*PhysicalIndex
	touched, err := maintain(m.indexesOfLocked(ts, buf[:0]), c.rid, c.old, c.new, inj)
	if err != nil {
		revertHeap(ts.heap, c)
	}
	return touched, err
}

// undoLocked is the inverse of applyLocked: the same index routine with
// the rows swapped and the fault injector off (compensation must never
// itself fail), then the heap row put back.
func (m *Manager) undoLocked(ts *tableStore, c *rowChange) {
	ts.stamp.Add(1)
	var buf [8]*PhysicalIndex
	_, _ = maintain(m.indexesOfLocked(ts, buf[:0]), c.rid, c.new, c.old, nil)
	revertHeap(ts.heap, c)
}

func revertHeap(h *Heap, c *rowChange) {
	switch {
	case c.old == nil:
		h.uninsert(c.rid, c.fresh)
	case c.new == nil:
		_ = h.InsertAt(c.rid, c.old)
	default:
		_, _ = h.Update(c.rid, c.old)
	}
}

// indexesOfLocked appends the physical indexes over ts's table to buf.
func (m *Manager) indexesOfLocked(ts *tableStore, buf []*PhysicalIndex) []*PhysicalIndex {
	for _, pi := range m.indexes {
		if strings.EqualFold(pi.Def.Table, ts.def.Name) {
			buf = append(buf, pi)
		}
	}
	return buf
}

// maintain applies the row change old → new at rid (nil old: insert, nil
// new: delete) to each index in idx, and returns how many active
// structures it touched. It is the one rule per index state (Section 3.3
// of the paper), for forward and inverse application alike:
//
//   - active: the tree loses the old entry and gains the new one;
//   - building: the same two operations go to the build's delta log,
//     which FinishBuild replays over the snapshot tree;
//   - suspended: the change is counted as missed work (pendingOps, the
//     driver of the accounted restart cost) and the stale tree is left
//     alone.
//
// A rolled-back row is maintained as one more change — its inverse is
// logged to a building index and counted by a suspended one — rather
// than retracted from the delta log or the count. Retraction is only
// right while the index is in the state it had when the row was applied;
// StartBuild, FinishBuild, SuspendIndex and RestartIndex take no table
// lock and may land between two rows of an open statement, and applying
// the inverse to whatever state the index has now is correct under every
// such interleaving (a snapshot taken mid-statement holds the applied
// row, so only the logged inverse removes it).
//
// With inj nil no step can fail. When a tree insert fails under
// injection, the indexes already maintained get the inverse change
// before the error returns.
func maintain(idx []*PhysicalIndex, rid RID, old, new datum.Row, inj *fault.Injector) (int, error) {
	touched := 0
	for i, pi := range idx {
		switch pi.State() {
		case StateSuspended:
			pi.pendingOps.Add(1)
		case StateBuilding:
			if oldE, newE, changed := entriesFor(pi, rid, old, new); changed {
				if old != nil {
					pi.building.log(true, oldE)
				}
				if new != nil {
					pi.building.log(false, newE)
				}
			}
		case StateActive:
			oldE, newE, changed := entriesFor(pi, rid, old, new)
			if !changed {
				continue
			}
			t := pi.Tree()
			var err error
			if old != nil && !t.Delete(oldE) {
				err = fmt.Errorf("storage: index %s missing entry for rid %d", pi.Def.Name, rid)
			} else if new != nil {
				if err = t.insertWith(newE, inj); err != nil && old != nil {
					_ = t.insertWith(oldE, nil)
				}
			}
			if err != nil {
				_, _ = maintain(idx[:i], rid, new, old, nil)
				return 0, err
			}
			touched++
		}
	}
	return touched, nil
}

// entriesFor returns pi's entries for the old and the new row (zero for
// a nil row) and whether the change moves pi's key at all — an update
// that leaves the index's columns alone does not. A row-keyed index's
// entry is replaced by every update, even one that rewrites equal
// values: its key must stay the row the heap holds.
func entriesFor(pi *PhysicalIndex, rid RID, old, new datum.Row) (oldE, newE Entry, changed bool) {
	if old != nil {
		oldE = Entry{Key: pi.key(old, nil), RID: rid}
	}
	if new != nil {
		newE = Entry{Key: pi.key(new, nil), RID: rid}
	}
	return oldE, newE, old == nil || new == nil || pi.rowKey || oldE.Key.Compare(newE.Key) != 0
}

// EstimateIndexBytes estimates the byte size a (possibly hypothetical)
// index over the table would occupy, from live rows and column widths.
func (m *Manager) EstimateIndexBytes(ix *catalog.Index) int64 {
	t := m.cat.Table(ix.Table)
	h := m.Heap(ix.Table)
	if t == nil || h == nil {
		return 0
	}
	rowKeyWidth := int64(t.ColumnsWidth(ix.Columns)) + 8 // + RID
	return rowKeyWidth * int64(h.Len())
}

// BuildIndex materializes a secondary index structure: the online build
// protocol of build.go run start to finish on the calling goroutine. The
// build reads the cheapest existing active source (an index whose key
// order makes the new index's key sorted, else the heap plus an explicit
// sort), enforces the space budget and returns BuildStats for cost
// accounting. On any failure the build is aborted and leaves no trace.
func (m *Manager) BuildIndex(ix *catalog.Index) (*BuildStats, error) {
	b, err := m.StartBuild(ix)
	if err != nil {
		return nil, err
	}
	if err = b.Run(context.Background()); err == nil {
		var stats *BuildStats
		if stats, err = m.FinishBuild(b); err == nil {
			return stats, nil
		}
	}
	m.AbortBuild(b)
	return nil, err
}

// sortAvoidingSourceLocked returns an active index whose leading columns
// are exactly ix's column sequence, making a sort unnecessary, or nil.
func (m *Manager) sortAvoidingSourceLocked(ix *catalog.Index) *PhysicalIndex {
	for _, pi := range m.indexes {
		if !strings.EqualFold(pi.Def.Table, ix.Table) || pi.State() != StateActive {
			continue
		}
		if ix.IsPrefixOf(pi.Def) {
			return pi
		}
	}
	return nil
}

// DropIndex releases a secondary index structure.
func (m *Manager) DropIndex(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	pi := m.indexes[id]
	if pi == nil {
		return fmt.Errorf("storage: index %s not materialized", id)
	}
	if pi.Def.Primary {
		return fmt.Errorf("storage: cannot drop primary index %s", pi.Def.Name)
	}
	if err := m.logLifecycleLocked(&wal.Record{Kind: wal.KindIndexDrop, Index: indexDefFor(pi.Def)}); err != nil {
		return err
	}
	delete(m.indexes, id)
	m.touchLocked(pi.Def.Table)
	m.configVersion.Add(1)
	return nil
}

// SuspendIndex puts an index into the suspended state: it stops being
// maintained and cannot serve queries, but keeps its structure so a later
// Restart only replays missed changes.
func (m *Manager) SuspendIndex(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	pi := m.indexes[id]
	if pi == nil {
		return fmt.Errorf("storage: index %s not materialized", id)
	}
	if pi.Def.Primary {
		return fmt.Errorf("storage: cannot suspend primary index %s", pi.Def.Name)
	}
	if pi.State() != StateActive {
		return fmt.Errorf("storage: index %s is %s, not active", pi.Def.Name, pi.State())
	}
	if err := m.logLifecycleLocked(&wal.Record{Kind: wal.KindIndexSuspend, Index: indexDefFor(pi.Def)}); err != nil {
		return err
	}
	pi.setState(StateSuspended)
	pi.pendingOps.Store(0)
	m.touchLocked(pi.Def.Table)
	m.configVersion.Add(1)
	return nil
}

// RestartIndex brings a suspended index back to active by rebuilding the
// missed entries. It returns the number of replayed operations (the
// restart cost driver). The replay is implemented as a rebuild of the
// tree from the heap — correct for any pattern of missed changes — but
// its *accounted* cost is proportional to pendingOps, matching the
// paper's "propagate changes from the log" model.
func (m *Manager) RestartIndex(id string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pi := m.indexes[id]
	if pi == nil {
		return 0, fmt.Errorf("storage: index %s not materialized", id)
	}
	if pi.State() != StateSuspended {
		return 0, fmt.Errorf("storage: index %s is %s, not suspended", pi.Def.Name, pi.State())
	}
	inj := m.faults.Load()
	if err := inj.Hit(fault.PageAlloc); err != nil {
		return 0, err
	}
	ts := m.tables[strings.ToLower(pi.Def.Table)]
	// The replacement tree stays private until complete: a mid-replay
	// fault leaves the index suspended with its old structure and pending
	// count intact.
	tree, err := m.loadTree(context.Background(), ts.heap.Snapshot(), pi, inj)
	if err != nil {
		return 0, err
	}
	if err := m.logLifecycleLocked(&wal.Record{Kind: wal.KindIndexRestart, Index: indexDefFor(pi.Def)}); err != nil {
		return 0, err
	}
	ops := pi.pendingOps.Load()
	tree.faults = inj
	pi.tree.Store(tree)
	pi.setState(StateActive)
	pi.pendingOps.Store(0)
	ts.stamp.Add(1)
	m.configVersion.Add(1)
	return ops, nil
}

// ErrBudget reports a secondary-index space budget violation.
type ErrBudget struct {
	Index string
	Need  int64
	Free  int64
}

func (e *ErrBudget) Error() string {
	return fmt.Sprintf("storage: index %s needs %d bytes but only %d free in budget", e.Index, e.Need, e.Free)
}
