// Package wal implements the write-ahead log behind the engine's
// durable mode: length-prefixed CRC32C-checksummed logical records, a
// group-commit writer that batches concurrent statement commits into one
// fsync, segment files with checkpoint-driven truncation, and the
// snapshot codec checkpoints use.
//
// The log is logical and commit-time: a statement's effects are applied
// to the in-memory structures first, and at statement success its
// buffered records plus a Commit marker are appended as one contiguous
// chunk. A chunk that never gained a durable Commit is invisible to
// recovery, which matches the executor's statement-level rollback: an
// unacknowledged statement leaves neither memory nor log effects.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"onlinetuner/internal/fault"
	"onlinetuner/internal/obs"
)

// SyncPolicy controls when appended records are fsynced.
type SyncPolicy uint8

const (
	// SyncGroup (the default) batches concurrent commits: one committer
	// becomes the flush leader and a single fsync covers every chunk
	// written while the previous flush was in flight.
	SyncGroup SyncPolicy = iota
	// SyncNone writes records to the file but never fsyncs. Commit
	// acknowledgements carry no durability; for tests and bulk loads.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncGroup:
		return "group"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ErrCrashed is returned by appends after Crash() simulated a hard stop.
var ErrCrashed = errors.New("wal: writer crashed")

// ErrClosed is returned by appends after a clean Close.
var ErrClosed = errors.New("wal: writer closed")

// DefaultSegmentBytes is the segment-roll threshold: a writer rolls to a
// fresh segment once the current one exceeds this size.
const DefaultSegmentBytes = 64 << 20

// SegmentName returns the file name of segment i.
func SegmentName(i int) string { return fmt.Sprintf("wal-%08d.log", i) }

// SnapshotName returns the file name of the checkpoint snapshot taken at
// sequence seq.
func SnapshotName(seq uint64) string { return fmt.Sprintf("ckpt-%016x.snap", seq) }

// parseSegmentName extracts the index from a segment file name.
func parseSegmentName(name string) (int, bool) {
	var i int
	if n, err := fmt.Sscanf(name, "wal-%08d.log", &i); n == 1 && err == nil {
		return i, true
	}
	return 0, false
}

// parseSnapshotName extracts the sequence from a snapshot file name.
func parseSnapshotName(name string) (uint64, bool) {
	var s uint64
	if n, err := fmt.Sscanf(name, "ckpt-%016x.snap", &s); n == 1 && err == nil {
		return s, true
	}
	return 0, false
}

// Options configures a Writer.
type Options struct {
	Dir string
	// Policy is the initial sync policy (changeable with SetPolicy).
	Policy SyncPolicy
	// StartSeq seeds the commit sequence — recovery passes the last
	// durable sequence so new commits continue the numbering.
	StartSeq uint64
	// StartSegment is the index of the first segment this writer
	// creates; recovery passes one past the highest existing segment.
	StartSegment int

	// segmentBytes overrides DefaultSegmentBytes; tests lower it.
	segmentBytes int64
}

// Writer is the group-commit WAL appender. It is safe for concurrent
// use; one Writer owns the log directory's active segment.
//
// A commit has two halves. Submit writes the chunk and assigns its commit
// sequence — the ticket; Wait blocks until a ticket is durable. The log
// is serial, so one fsync makes every ticket up to the newest written one
// durable, and committers that submit while a flush is in flight share
// the next one. Append is Submit followed by Wait. That is the SyncGroup
// policy; under SyncNone, Wait returns at once and nothing is fsynced
// except a segment's tail when it rolls.
//
// A failed flush is fail-stop, whatever its cause: the unflushed tail is
// truncated away, the writer is poisoned with the flush's error, every
// ticket in the discarded tail and every later call fails with it, and
// only tickets that were already durable still wait nil. Reopening the
// directory recovers exactly the acknowledged commits.
type Writer struct {
	dir      string
	segBytes int64
	faults   atomic.Pointer[fault.Injector]

	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File
	seg      int
	written  int64 // bytes written to the current segment
	flushed  int64 // bytes fsynced
	flushing bool  // a group-commit leader is mid-fsync (lock released)
	policy   SyncPolicy
	seq      uint64
	err      error // sticky fatal: crash, close, or a failed flush
	// durable is the newest commit sequence known fsynced. Written under
	// mu together with flushed; read without it by Wait's fast path.
	durable atomic.Uint64

	appends atomic.Int64
	fsyncs  atomic.Int64
	// Optional mirrored metrics (wal.appends / wal.fsyncs).
	mAppends atomic.Pointer[obs.Counter]
	mFsyncs  atomic.Pointer[obs.Counter]
}

// OpenWriter creates the writer's first segment file and returns the
// writer. The directory must exist.
func OpenWriter(o Options) (*Writer, error) {
	if o.segmentBytes <= 0 {
		o.segmentBytes = DefaultSegmentBytes
	}
	w := &Writer{
		dir:      o.Dir,
		segBytes: o.segmentBytes,
		policy:   o.Policy,
		seq:      o.StartSeq,
		seg:      o.StartSegment,
	}
	w.cond = sync.NewCond(&w.mu)
	w.durable.Store(o.StartSeq)
	f, err := createSegment(o.Dir, o.StartSegment)
	if err != nil {
		return nil, err
	}
	w.f = f
	return w, nil
}

func createSegment(dir string, i int) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, SegmentName(i)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	syncDir(dir)
	return f, nil
}

// syncDir fsyncs a directory so file creations and renames inside it are
// durable. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// SetFaults installs (or removes) the fault-injection layer consulted at
// the WALAppend and WALFsync sites.
func (w *Writer) SetFaults(inj *fault.Injector) { w.faults.Store(inj) }

// SetMetrics mirrors append and fsync counts into observability
// counters (either may be nil).
func (w *Writer) SetMetrics(appends, fsyncs *obs.Counter) {
	w.mAppends.Store(appends)
	w.mFsyncs.Store(fsyncs)
}

// SetPolicy changes the sync policy. It affects appends that start after
// the call.
func (w *Writer) SetPolicy(p SyncPolicy) {
	w.mu.Lock()
	w.policy = p
	w.mu.Unlock()
}

// Seq returns the last committed sequence number.
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Segment returns the index of the segment currently being written.
func (w *Writer) Segment() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seg
}

// Appends returns the number of committed batches appended.
func (w *Writer) Appends() int64 { return w.appends.Load() }

// Fsyncs returns the number of fsyncs performed.
func (w *Writer) Fsyncs() int64 { return w.fsyncs.Load() }

// Append is Submit followed by Wait: it writes recs plus a Commit record
// and, per the sync policy, waits until the chunk is durable. It returns
// the batch's commit sequence. A nil error is the durability
// acknowledgement (under SyncNone it only means the chunk reached the
// file).
func (w *Writer) Append(recs []*Record) (uint64, error) { return w.append(recs, true) }

// Submit writes recs plus a Commit record as one contiguous chunk and
// returns the batch's commit sequence without waiting for it to be
// durable: the caller owes a Wait on the ticket before it acknowledges
// anything that depends on the batch.
//
// On failure nothing of the batch is in the log and the sequence was not
// consumed.
func (w *Writer) Submit(recs []*Record) (uint64, error) { return w.append(recs, false) }

func (w *Writer) append(recs []*Record, wait bool) (uint64, error) {
	if err := w.faults.Load().Hit(fault.WALAppend); err != nil {
		return 0, err
	}
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	// Roll before assigning the sequence: rollLocked may release the
	// lock while waiting out an in-flight flush, and the sequence must
	// be claimed and written under one continuous critical section so a
	// failed write can safely un-claim it.
	const commitMax = 32 // framed Commit record upper bound
	if w.written > 0 && w.written+int64(len(buf))+commitMax > w.segBytes {
		if err := w.rollLocked(); err != nil {
			return 0, err
		}
	}
	w.seq++
	seq := w.seq
	buf = AppendRecord(buf, &Record{Kind: KindCommit, Seq: seq})
	if err := w.writeLocked(buf); err != nil {
		w.seq--
		return 0, err
	}
	w.appends.Add(1)
	if c := w.mAppends.Load(); c != nil {
		c.Inc()
	}
	if wait {
		if err := w.awaitLocked(seq); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Wait blocks until the commit with the given ticket is durable. A
// ticket that is already durable — zero included — answers nil without
// taking the writer lock, also after Crash, Close or a failed flush; any
// other ticket on a dead writer fails with the writer's sticky error.
// Under SyncNone nothing is waited for.
func (w *Writer) Wait(ticket uint64) error {
	if w.durable.Load() >= ticket {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.awaitLocked(ticket)
}

// Durable returns the newest commit sequence known to be fsynced.
func (w *Writer) Durable() uint64 { return w.durable.Load() }

// writeLocked appends buf to the current segment, keeping the file and
// the written counter in agreement even when the write fails midway.
func (w *Writer) writeLocked(buf []byte) error {
	n, err := w.f.Write(buf)
	if err != nil {
		if n > 0 {
			// Best-effort erase of the partial chunk; if that fails the
			// writer is done, but recovery handles the torn tail anyway.
			if terr := w.truncateToLocked(w.written); terr != nil {
				w.err = terr
			}
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	w.written += int64(len(buf))
	return nil
}

func (w *Writer) truncateToLocked(off int64) error {
	if err := w.f.Truncate(off); err != nil {
		return fmt.Errorf("wal: truncate to %d: %w", off, err)
	}
	if _, err := w.f.Seek(off, 0); err != nil {
		return fmt.Errorf("wal: seek to %d: %w", off, err)
	}
	return nil
}

// awaitLocked blocks until seq is durable. Under SyncGroup the first
// waiter that finds no flush in flight becomes the leader: it syncs
// everything written so far in one fsync, releasing the lock for the
// duration so later committers can write (and batch onto the next
// flush). Under SyncNone it returns at once. Durability is tracked by
// commit sequence, not file offset, so a roll to a fresh segment while a
// waiter is parked needs no special case.
func (w *Writer) awaitLocked(seq uint64) error {
	for w.durable.Load() < seq {
		switch {
		case w.err != nil:
			return w.err
		case w.policy == SyncNone:
			return nil // written, not durable; nothing to wait for
		case w.flushing:
			w.cond.Wait()
		default:
			if err := w.flushLocked(true); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushLocked fsyncs everything written so far and publishes the new
// durable sequence. With unlock set the writer lock is released for the
// duration of the fsync (the group-commit leader); callers must not have
// another flush in flight.
//
// On failure the bytes between flushed and written never became durable,
// so they are removed from the file; but their statements' table locks
// may be long released and their effects already built upon in memory,
// so nothing can be unwound: the writer stops for good, and with it
// every acknowledgement.
func (w *Writer) flushLocked(unlock bool) error {
	target, seq := w.written, w.seq
	err := w.faults.Load().Hit(fault.WALFsync)
	if err == nil && unlock {
		w.flushing = true
		f := w.f
		w.mu.Unlock()
		err = f.Sync()
		w.mu.Lock()
		w.flushing = false
	} else if err == nil {
		err = w.f.Sync()
	}
	if err == nil {
		w.flushed = target
		w.durable.Store(seq)
		w.fsyncs.Add(1)
		if c := w.mFsyncs.Load(); c != nil {
			c.Inc()
		}
	} else {
		_ = w.truncateToLocked(w.flushed) // best effort: recovery drops an unacknowledged tail anyway
		w.written, w.seq = w.flushed, w.durable.Load()
		if w.err == nil {
			w.err = err
		}
	}
	w.cond.Broadcast()
	return err
}

// rollLocked fsyncs and closes the current segment and starts the next
// one. Callers hold the lock. The tail is fsynced under EVERY policy
// (including SyncNone, where it costs one fsync per 64 MB segment):
// flushed offsets are relative to the segment, so a segment is left only
// once it is wholly durable.
func (w *Writer) rollLocked() error {
	for w.flushing {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if w.written > w.flushed {
		if err := w.flushLocked(false); err != nil {
			return err
		}
	}
	_ = w.f.Close()
	f, err := createSegment(w.dir, w.seg+1)
	if err != nil {
		w.err = err
		return err
	}
	w.f = f
	w.seg++
	w.written, w.flushed = 0, 0
	return nil
}

// Roll fsyncs the current segment and switches to a fresh one. The
// checkpoint uses it so pre-checkpoint history lands in segments that
// can be deleted wholesale.
func (w *Writer) Roll() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rollLocked()
}

// Close flushes and closes the log cleanly. Further appends fail with
// ErrClosed. On a writer that already stopped (crash, failed flush) it
// only releases the file handle.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.cond.Wait()
	}
	if w.err != nil {
		_ = w.f.Close() // nothing left to flush; closing twice is harmless
		return nil
	}
	var err error
	if w.written > w.flushed {
		if err = w.f.Sync(); err == nil {
			w.flushed = w.written
			w.durable.Store(w.seq)
		}
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.err = ErrClosed
	w.cond.Broadcast()
	return err
}

// Crash simulates a kill -9 for the crash suite: the file handle is
// closed without flushing and every pending or future append fails. The
// on-disk state is whatever the writes (and any completed fsyncs) left
// behind — exactly what a real hard stop exposes to recovery.
func (w *Writer) Crash() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = ErrCrashed
	}
	_ = w.f.Close()
	w.cond.Broadcast()
}

// RemoveObsolete deletes segments before keepSegment and snapshots other
// than keepSnapshotSeq. The checkpoint calls it only after the new
// snapshot and the roll to the fresh segment are durable, so an older
// consistent (snapshot, segments) pair exists on disk at every instant.
func RemoveObsolete(dir string, keepSegment int, keepSnapshotSeq uint64) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, e := range ents {
		name := e.Name()
		if i, ok := parseSegmentName(name); ok && i < keepSegment {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if s, ok := parseSnapshotName(name); ok && s != keepSnapshotSeq {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	syncDir(dir)
	return firstErr
}

// listSegments returns the segment files in dir in index order.
func listSegments(dir string) ([]segmentFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentFile
	for _, e := range ents {
		if i, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segmentFile{index: i, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].index < segs[b].index })
	return segs, nil
}

type segmentFile struct {
	index int
	path  string
}
