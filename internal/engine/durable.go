package engine

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/wal"
)

// This file is the engine's durability layer: opening a database over a
// WAL directory, recovering state from the newest checkpoint snapshot
// plus the log suffix, checkpointing, and clean/crash shutdown.
//
// Recovery invariant: every statement that was acknowledged (DB.locked
// returned nil: its commit was appended under the table lock and found
// durable after it) is reconstructed exactly; everything after the last
// durable commit record vanishes atomically. Replay drives the
// normal Manager DML/lifecycle entry points with no WAL and no fault
// injector installed, so recovered state is produced by the same code
// that produced the original state — RID assignment is deterministic
// (the heap free-list order is checkpointed), and replayed inserts
// assert they land on the logged RID.
//
// Lifecycle records and the checkpoint can straddle: a checkpoint
// quiesces statements (it holds every table's write lock) but not the
// tuner's background lifecycle transitions, so a create/drop/suspend/
// restart logged just after CheckpointBegin may already be reflected in
// the snapshot. Lifecycle replay is therefore idempotent — a record
// whose effect is already present is skipped. DML cannot straddle:
// statement commits are appended under the table write lock the
// checkpoint holds, and CheckpointBegin's own wait flushes every append
// before it.

// RecoveryInfo reports what OpenDurable reconstructed.
type RecoveryInfo struct {
	// SnapshotSeq is the WAL sequence of the restored checkpoint
	// snapshot (0 when the directory had none).
	SnapshotSeq uint64
	// ReplayedBatches / ReplayedRecords / ReplayedBytes count the log
	// suffix applied on top of the snapshot.
	ReplayedBatches int
	ReplayedRecords int
	ReplayedBytes   int64
	// Torn reports that the log ended in a torn or corrupt tail, which
	// recovery truncated back to the last durable commit.
	Torn bool
	// Abandoned lists the index IDs of in-flight background builds the
	// crash interrupted; recovery discards them.
	Abandoned []string
	// Duration is the wall-clock recovery time.
	Duration time.Duration
}

// OpenDurable opens (or creates) a durable database rooted at cfg.Dir.
// An existing directory is recovered: the newest valid checkpoint
// snapshot is restored, the WAL suffix is replayed to the last durable
// commit, any torn tail is truncated, and in-flight background builds
// are abandoned.
func OpenDurable(cfg Config) (*DB, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("engine: durable open requires a directory")
	}
	start := time.Now()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	db := OpenConfig(Config{ExecWorkers: cfg.ExecWorkers, ExecEngine: cfg.ExecEngine, Rules: cfg.Rules})
	db.walDir = cfg.Dir
	info := &RecoveryInfo{}

	snap, err := wal.LoadNewestSnapshot(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("engine: recover snapshot: %w", err)
	}
	pending := make(map[string]*catalog.Index)
	if snap != nil {
		info.SnapshotSeq = snap.Seq
		if err := db.restoreSnapshot(snap, pending); err != nil {
			return nil, fmt.Errorf("engine: recover snapshot: %w", err)
		}
	}

	scan, err := wal.ScanDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("engine: recover scan: %w", err)
	}
	info.Torn = scan.Torn
	lastSeq := info.SnapshotSeq
	for _, b := range scan.Batches {
		if b.Seq > lastSeq {
			lastSeq = b.Seq
		}
		if b.Seq <= info.SnapshotSeq {
			continue // already reflected in the snapshot
		}
		for _, rec := range b.Recs {
			if err := db.applyRecovered(rec, pending); err != nil {
				return nil, fmt.Errorf("engine: replay seq %d: %w", b.Seq, err)
			}
		}
		info.ReplayedBatches++
		info.ReplayedRecords += len(b.Recs)
	}
	info.ReplayedBytes = scan.Bytes
	if err := scan.TruncateTail(); err != nil {
		return nil, fmt.Errorf("engine: truncate torn tail: %w", err)
	}

	w, err := wal.OpenWriter(wal.Options{
		Dir:          cfg.Dir,
		Policy:       cfg.Sync,
		StartSeq:     lastSeq,
		StartSegment: scan.NextSegment,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: open wal: %w", err)
	}
	w.SetMetrics(db.ob.Reg.Counter("wal.appends"), db.ob.Reg.Counter("wal.fsyncs"))
	db.ob.Reg.Counter("wal.replayed_records").Add(int64(info.ReplayedRecords))
	db.wal = w
	db.Mgr.SetWAL(w)

	// Abandon builds the crash caught in flight: the tuner re-requests
	// an index that is still worth having.
	for id := range pending {
		info.Abandoned = append(info.Abandoned, id)
	}
	sort.Strings(info.Abandoned)
	info.Duration = time.Since(start)
	db.recovery = info
	return db, nil
}

// restoreSnapshot rebuilds catalog and storage from a checkpoint
// snapshot. Indexes captured mid-build are not materialized; they join
// the pending-build set for post-replay resolution.
func (db *DB) restoreSnapshot(snap *wal.Snapshot, pending map[string]*catalog.Index) error {
	for i := range snap.Tables {
		st := &snap.Tables[i]
		t, err := tableFromDef(&st.Def)
		if err != nil {
			return err
		}
		if err := db.Cat.AddTable(t); err != nil {
			return err
		}
		if err := db.Mgr.CreateTable(t.Name); err != nil {
			return err
		}
		if err := db.Mgr.RestoreHeap(t.Name, st.Slots, st.Rows, st.Free); err != nil {
			return err
		}
	}
	for i := range snap.Indexes {
		si := &snap.Indexes[i]
		ix := indexFromDef(&si.Def)
		if si.State == wal.SnapIndexBuilding {
			pending[ix.ID()] = ix
			continue
		}
		state := storage.StateActive
		if si.State == wal.SnapIndexSuspended {
			state = storage.StateSuspended
		}
		if err := db.Cat.AddIndex(ix); err != nil {
			return err
		}
		if err := db.Mgr.RestoreIndex(ix, state, si.PendingOps); err != nil {
			return err
		}
	}
	return nil
}

// applyRecovered applies one replayed WAL record. DML is exact (a
// replayed insert must land on its logged RID); lifecycle records are
// idempotent because they may straddle the checkpoint they follow.
func (db *DB) applyRecovered(rec *wal.Record, pending map[string]*catalog.Index) error {
	switch rec.Kind {
	case wal.KindPageWrite:
		switch rec.Op {
		case wal.OpInsert:
			rid, _, err := db.Mgr.Insert(rec.Table, rec.Row)
			if err != nil {
				return err
			}
			if int64(rid) != rec.RID {
				return fmt.Errorf("non-deterministic replay: insert into %s got rid %d, logged %d", rec.Table, rid, rec.RID)
			}
		case wal.OpDelete:
			if _, err := db.Mgr.Delete(rec.Table, storage.RID(rec.RID)); err != nil {
				return err
			}
		case wal.OpUpdate:
			if _, err := db.Mgr.Update(rec.Table, storage.RID(rec.RID), rec.Row); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown page-write op %d", rec.Op)
		}
	case wal.KindAlloc:
		if db.Cat.Table(rec.Schema.Name) != nil {
			return nil // straddled the checkpoint; snapshot already has it
		}
		t, err := tableFromDef(rec.Schema)
		if err != nil {
			return err
		}
		if err := db.Cat.AddTable(t); err != nil {
			return err
		}
		return db.Mgr.CreateTable(t.Name)
	case wal.KindIndexCreate:
		ix := indexFromDef(rec.Index)
		id := ix.ID()
		delete(pending, id)
		if db.Mgr.Index(id) != nil {
			return nil
		}
		if ex := db.Cat.IndexByID(id); ex != nil {
			ix = ex
		} else if err := db.Cat.AddIndex(ix); err != nil {
			return err
		}
		// Building from the heap at this replay position is equivalent to
		// the original snapshot+delta build: DML replayed after this
		// record maintains the now-active tree.
		_, err := db.Mgr.BuildIndex(ix)
		return err
	case wal.KindIndexDrop:
		ix := indexFromDef(rec.Index)
		id := ix.ID()
		if db.Mgr.Index(id) == nil {
			return nil
		}
		if err := db.Mgr.DropIndex(id); err != nil {
			return err
		}
		if ex := db.Cat.IndexByID(id); ex != nil {
			return db.Cat.DropIndex(ex.Name)
		}
		return nil
	case wal.KindIndexSuspend:
		id := indexFromDef(rec.Index).ID()
		if pi := db.Mgr.Index(id); pi == nil || pi.State() != storage.StateActive {
			return nil
		}
		return db.Mgr.SuspendIndex(id)
	case wal.KindIndexRestart:
		id := indexFromDef(rec.Index).ID()
		if pi := db.Mgr.Index(id); pi == nil || pi.State() != storage.StateSuspended {
			return nil
		}
		_, err := db.Mgr.RestartIndex(id)
		return err
	case wal.KindBuildStart:
		ix := indexFromDef(rec.Index)
		pending[ix.ID()] = ix
	case wal.KindBuildAbort:
		delete(pending, indexFromDef(rec.Index).ID())
	case wal.KindCommit, wal.KindCheckpointBegin, wal.KindCheckpointEnd:
		// Framing / checkpoint markers; no state.
	default:
		return fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	return nil
}

// tableFromDef converts a logged table definition back to its catalog
// form.
func tableFromDef(def *wal.TableDef) (*catalog.Table, error) {
	cols := make([]catalog.Column, len(def.Cols))
	for i, c := range def.Cols {
		cols[i] = catalog.Column{Name: c.Name, Kind: datum.Kind(c.Kind), AvgWidth: c.AvgWidth}
	}
	return catalog.NewTable(def.Name, cols, append([]string(nil), def.PK...))
}

// indexFromDef converts a logged index definition back to its catalog
// form.
func indexFromDef(def *wal.IndexDef) *catalog.Index {
	return (&catalog.Index{
		Name:    def.Name,
		Table:   def.Table,
		Columns: append([]string(nil), def.Columns...),
	}).Canonicalize()
}

// Recovery returns what OpenDurable reconstructed, or nil for an
// in-memory database.
func (db *DB) Recovery() *RecoveryInfo { return db.recovery }

// WAL returns the database's log writer, or nil for an in-memory
// database.
func (db *DB) WAL() *wal.Writer { return db.wal }

// Dir returns the durable directory, or "" for an in-memory database.
func (db *DB) Dir() string { return db.walDir }

// Checkpoint writes a consistent snapshot of the whole database and
// truncates the log: it quiesces statements by taking every table's
// write lock, brackets the snapshot in CheckpointBegin/End records,
// fsyncs the snapshot into place, rolls the log to a fresh segment, and
// removes the now-obsolete segments and older snapshots. Direct Manager
// DML (bulk loaders) bypasses the statement locks and must be quiesced
// by the caller.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return fmt.Errorf("engine: checkpoint on an in-memory database")
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	tables := db.Cat.Tables()
	names := make([]string, 0, len(tables))
	for _, t := range tables {
		names = append(names, strings.ToLower(t.Name))
	}
	ls := db.locks.acquire(nil, nil, names)
	defer ls.release()

	seq, err := db.wal.Append([]*wal.Record{{Kind: wal.KindCheckpointBegin}})
	if err != nil {
		return fmt.Errorf("engine: checkpoint begin: %w", err)
	}
	snap := db.Mgr.SnapshotState()
	snap.Seq = seq
	if _, err := wal.WriteSnapshot(db.walDir, snap); err != nil {
		return fmt.Errorf("engine: checkpoint write: %w", err)
	}
	if _, err := db.wal.Append([]*wal.Record{{Kind: wal.KindCheckpointEnd, Seq: seq}}); err != nil {
		return fmt.Errorf("engine: checkpoint end: %w", err)
	}
	if err := db.wal.Roll(); err != nil {
		return fmt.Errorf("engine: checkpoint roll: %w", err)
	}
	return wal.RemoveObsolete(db.walDir, db.wal.Segment(), seq)
}

// Close flushes and closes the log. The DB must not be used afterwards.
// A no-op for in-memory databases.
func (db *DB) Close() error {
	if db.wal == nil {
		return nil
	}
	err := db.wal.Close()
	db.Mgr.SetWAL(nil)
	return err
}

// Crash simulates a hard stop for recovery tests: the log file is
// closed without flushing and every later append fails. The writer
// stays installed so a statement racing the "crash" fails and rolls
// back, exactly as if the process had died. State on disk is whatever
// the OS had; reopening the directory with OpenDurable runs recovery.
func (db *DB) Crash() {
	if db.wal != nil {
		db.wal.Crash()
	}
}
