package storage

import (
	"context"
	"fmt"
	"strings"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/vec"
	"onlinetuner/internal/wal"
)

// This file implements online (background) index creation, the real
// mechanism behind the paper's Section 3.3 asynchronous-build
// refinement. The protocol is the classic snapshot-plus-side-log online
// build:
//
//  1. StartBuild atomically (under the manager lock) registers the index
//     in StateBuilding, reserves its estimated size against the budget,
//     and snapshots the table's live rows. From this instant every DML
//     statement appends the index's key changes to a side delta log
//     instead of touching a tree.
//  2. Build.Run constructs the B+-tree from the snapshot with NO locks
//     held — the query-serving path keeps running. Run honors context
//     cancellation so the tuner can abort a build whose benefit updates
//     have eroded (the paper's abort rule).
//  3. FinishBuild replays the delta log into the new tree and publishes
//     it atomically: one state transition under the manager lock flips
//     the index to StateActive with a tree that reflects every committed
//     row.
//
// Because the snapshot and the start of delta logging happen under one
// critical section, every row change is captured exactly once: either in
// the snapshot or in the log, never both and never neither.

// deltaOp is one logged index-key change captured while building.
type deltaOp struct {
	del bool
	e   Entry
}

// buildDelta is the side log of DML changes missed by an in-flight
// build. Guarded by the manager lock (DML paths already hold it).
type buildDelta struct {
	ops []deltaOp
}

func (d *buildDelta) log(del bool, e Entry) {
	d.ops = append(d.ops, deltaOp{del: del, e: e})
}

// Build is the handle for one background index build, returned by
// StartBuild. Exactly one goroutine may call Run; Finish/Abort are then
// called by the coordinating tuner.
type Build struct {
	m     *Manager
	pi    *PhysicalIndex
	ix    *catalog.Index
	snap  []HeapRow
	tree  *BTree
	stats BuildStats
}

// Def returns the definition of the index being built.
func (b *Build) Def() *catalog.Index { return b.ix }

// StartBuild begins an online build of a secondary index: it registers
// the index in StateBuilding, starts delta logging, and captures the row
// snapshot, all in one critical section. The returned handle's Run must
// be called (typically on a background goroutine) before FinishBuild.
func (m *Manager) StartBuild(ix *catalog.Index) (*Build, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.indexes[ix.ID()]; dup {
		return nil, fmt.Errorf("storage: index %s already materialized", ix.Name)
	}
	ts := m.tables[strings.ToLower(ix.Table)]
	if ts == nil {
		return nil, fmt.Errorf("storage: table %s not materialized", ix.Table)
	}
	if err := m.faults.Load().Hit(fault.PageAlloc); err != nil {
		return nil, err
	}
	est := int64(ts.def.ColumnsWidth(ix.Columns)+8) * int64(ts.heap.Len())
	if m.budget > 0 && m.usedLocked()+est > m.budget {
		return nil, &ErrBudget{Index: ix.Name, Need: est, Free: m.budget - m.usedLocked()}
	}

	stats := BuildStats{Rows: int64(ts.heap.Len())}
	if source := m.sortAvoidingSourceLocked(ix); source != nil {
		stats.SourceIndex = source.Def.Name
		stats.SourcePages = source.Pages()
		if source.Def.Primary {
			stats.SourcePages = ts.heap.Pages()
		}
	} else {
		stats.SourcePages = ts.heap.Pages()
		stats.Sorted = true
	}

	// The BuildStart record makes an in-flight build visible to
	// recovery: a crash between here and the publish (IndexCreate) or
	// abort record leaves a dangling BuildStart, which recovery resumes
	// or cleanly abandons.
	if err := m.logLifecycleLocked(&wal.Record{Kind: wal.KindBuildStart, Index: indexDefFor(ix)}); err != nil {
		return nil, err
	}
	pi := newPhysicalIndex(ts.def, ix)
	pi.estBytes.Store(est)
	pi.building = &buildDelta{}
	pi.setState(StateBuilding)
	b := &Build{m: m, pi: pi, ix: ix, snap: ts.heap.Snapshot(), stats: stats}
	m.indexes[ix.ID()] = pi
	ts.stamp.Add(1)
	return b, nil
}

// Run constructs the B+-tree from the snapshot. It holds no locks —
// queries and DML proceed concurrently — and checks ctx periodically so
// an eroded build can be cancelled mid-flight. A BuildStep fault (one
// draw per snapshot row, during entry extraction) models a mid-snapshot
// I/O failure: Run returns the error, the private entries are discarded,
// and the caller is expected to AbortBuild.
//
// The sort runs on up to Manager.Workers() goroutines (the parallel
// stable merge sort in internal/par) and the tree is assembled with a
// linear bulk load instead of n tree inserts; the resulting tree holds
// exactly the same entry sequence for every worker count.
func (b *Build) Run(ctx context.Context) error {
	tree, err := b.m.loadTree(ctx, b.snap, b.pi, b.m.Faults())
	if err != nil {
		return err
	}
	b.tree = tree
	b.snap = nil
	return nil
}

// loadTree builds a private B+-tree of pi's keys over rows: extract one
// entry per row (one BuildStep fault draw each), sort, bulk-load. It
// takes no locks and polls ctx so a background build can be cancelled.
// Every tree the manager builds from table rows — online build, restart
// of a suspended index, recovery restore — comes from here.
//
// A row-keyed index's keys are the rows themselves (PhysicalIndex.key).
// Any other index's keys are cut from one RID-order slab during
// extraction and, once sorted, copied into key-ordered slabs of
// vec.MorselRows entries each, so a range seek over the built tree reads
// its keys from consecutive memory instead of one scattered allocation
// per entry. Every key is a full slice expression (cap == len): an append
// on a key handed to the executor reallocates and never overwrites its
// neighbour.
func (m *Manager) loadTree(ctx context.Context, rows []HeapRow, pi *PhysicalIndex, inj *fault.Injector) (*BTree, error) {
	const cancelCheckEvery = 256
	w := len(pi.colOrds)
	var ridOrder []datum.Datum
	if !pi.rowKey {
		ridOrder = make([]datum.Datum, len(rows)*w)
	}
	entries := make([]Entry, 0, len(rows))
	for i, hr := range rows {
		if i%cancelCheckEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err := inj.Hit(fault.BuildStep); err != nil {
			return nil, err
		}
		var dst datum.Row
		if ridOrder != nil {
			dst = ridOrder[i*w : (i+1)*w : (i+1)*w]
		}
		entries = append(entries, Entry{Key: pi.key(hr.Row, dst), RID: hr.RID})
	}
	SortEntriesPooled(entries, m.Pool())
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if pi.rowKey {
		return BulkLoad(entries)
	}
	for lo := 0; lo < len(entries); lo += vec.MorselRows {
		run := entries[lo:min(lo+vec.MorselRows, len(entries))]
		slab := make([]datum.Datum, len(run)*w)
		for j := range run {
			key := slab[j*w : (j+1)*w : (j+1)*w]
			copy(key, run[j].Key)
			run[j].Key = key
		}
	}
	return BulkLoad(entries)
}

// FinishBuild replays the DML delta accumulated during the build into
// the freshly built tree and atomically publishes the index as active.
// It must be called after Run returned nil.
func (m *Manager) FinishBuild(b *Build) (*BuildStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.indexes[b.ix.ID()] != b.pi {
		return nil, fmt.Errorf("storage: build of %s was aborted or superseded", b.ix.Name)
	}
	if b.tree == nil {
		return nil, fmt.Errorf("storage: build of %s has not run", b.ix.Name)
	}
	// A BuildFinish fault (one draw per delta op) models a mid-delta
	// failure. The index is still StateBuilding and unpublished when it
	// fires, so the caller aborts with no visible state change; the
	// partially replayed private tree is simply discarded.
	inj := m.faults.Load()
	for _, op := range b.pi.building.ops {
		if err := inj.Hit(fault.BuildFinish); err != nil {
			return nil, err
		}
		if op.del {
			if !b.tree.Delete(op.e) {
				return nil, fmt.Errorf("storage: build of %s: delta delete missed rid %d", b.ix.Name, op.e.RID)
			}
		} else {
			if err := b.tree.insertWith(op.e, nil); err != nil {
				return nil, err
			}
		}
	}
	// Publish record before the publish mutations: after the append
	// nothing can fail, so the log and the in-memory state agree. A
	// failed append leaves the index StateBuilding and unpublished; the
	// caller aborts, and recovery treats the dangling BuildStart as an
	// abandoned build.
	if err := m.logLifecycleLocked(&wal.Record{Kind: wal.KindIndexCreate, Index: indexDefFor(b.ix), Published: true}); err != nil {
		return nil, err
	}
	b.pi.building = nil
	b.tree.faults = inj
	b.pi.tree.Store(b.tree)
	b.pi.estBytes.Store(0)
	b.pi.setState(StateActive)
	b.stats.NewPages = b.pi.Pages()
	stats := b.stats
	m.touchLocked(b.ix.Table)
	m.configVersion.Add(1)
	return &stats, nil
}

// AbortBuild discards an in-flight build: the building index entry and
// its delta log are dropped, releasing the budget reservation. Safe to
// call whether or not Run has completed or was cancelled.
func (m *Manager) AbortBuild(b *Build) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.indexes[b.ix.ID()] == b.pi {
		delete(m.indexes, b.ix.ID())
		m.touchLocked(b.ix.Table)
		// Best-effort: a lost abort record is harmless — recovery
		// abandons any BuildStart with no matching publish or abort.
		_ = m.logLifecycleLocked(&wal.Record{Kind: wal.KindBuildAbort, Index: indexDefFor(b.ix)})
	}
}
