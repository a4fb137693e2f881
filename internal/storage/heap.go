package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/obs"
	"onlinetuner/internal/vec"
)

// PageSize is the accounted page size in bytes (8 KB, as in SQL Server).
const PageSize = 8192

// FillFactor is the assumed page fill fraction for page-count accounting.
const FillFactor = 0.7

// RowOverhead is the accounted per-row overhead of heap storage (tuple
// header, slot pointer, alignment). It makes narrow secondary indexes
// meaningfully smaller than the base table, as in real systems.
const RowOverhead = 24

// PagesFor converts a byte payload into an accounted page count (at least
// one page for any non-empty payload).
func PagesFor(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	f := float64(PageSize) * FillFactor
	per := int64(f)
	return (bytes + per - 1) / per
}

// Heap is a table's row store. Rows are addressed by stable RIDs; deleted
// slots are tombstoned and recycled. A heap scan visits rows in RID
// order, which approximates physical order.
//
// Chunk i is the RIDs [i*vec.MorselRows, (i+1)*vec.MorselRows), one heap
// scan morsel. The heap caches, per chunk, at most one vec.Column per table
// column, gathered over its live rows by a filtering scan (see Chunk) and
// dropped by the chunk's next write. Bytes and Pages leave it out.
//
// Concurrency: the heap is internally synchronized. Mutations take the
// write lock; Get, Scan and ReadChunk take the read lock, so readers see
// a consistent snapshot for the duration of one call. Len/Bytes/Pages are
// atomic counters readable without any lock — the tuner samples sizes of
// tables it holds no statement lock on, and an approximate value is fine
// there. Rows handed out are shared, never mutated in place: Update
// replaces the whole row, so a reference obtained under the read lock
// stays valid (copy-on-write at row granularity). Cached columns are
// shared the same way, and a scan reads or publishes one only while the
// write generation is the one it read its rows at.
type Heap struct {
	mu    sync.RWMutex
	rows  []datum.Row // nil slots are tombstones
	free  []RID
	count atomic.Int64
	bytes atomic.Int64

	gen   uint64                       // write generation: bumped by every write
	width int                          // cached columns per chunk; 0 caches none
	cols  []atomic.Pointer[vec.Column] // chunk c's column s at c*width+s
	cm    colMetrics
}

// colMetrics are the column cache's cells (Manager.SetColumnMetrics).
type colMetrics struct {
	hits, builds *obs.Counter
	bytes        *obs.Gauge
}

// Len returns the number of live rows.
func (h *Heap) Len() int { return int(h.count.Load()) }

// Bytes returns the accounted live payload bytes.
func (h *Heap) Bytes() int64 { return h.bytes.Load() }

// Pages returns the accounted page count.
func (h *Heap) Pages() int64 { return PagesFor(h.bytes.Load()) }

// Insert stores a row and returns its RID.
func (h *Heap) Insert(r datum.Row) RID {
	rid, _ := h.insert(r)
	return rid
}

// insert is Insert that also reports whether the row took a fresh slot
// at the end of the slot array (true) or recycled a free one.
func (h *Heap) insert(r datum.Row) (RID, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count.Add(1)
	h.bytes.Add(int64(r.Width()) + RowOverhead)
	if n := len(h.free); n > 0 {
		rid := h.free[n-1]
		h.free = h.free[:n-1]
		h.rows[rid] = r
		h.wroteLocked(rid)
		return rid, false
	}
	h.rows = append(h.rows, r)
	h.wroteLocked(RID(len(h.rows) - 1))
	return RID(len(h.rows) - 1), true
}

// uninsert is the exact inverse of the insert that returned (rid,
// fresh) once every later change to the heap has been undone: a fresh
// slot is cut off the end of the array again, a recycled one goes back
// on top of the free list. A fresh slot that is no longer the last one
// (an unlocked direct insert got in between) is freed like any other.
func (h *Heap) uninsert(rid RID, fresh bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.bytes.Add(-(int64(h.rows[rid].Width()) + RowOverhead))
	h.count.Add(-1)
	h.rows[rid] = nil
	h.wroteLocked(rid)
	if fresh && int(rid) == len(h.rows)-1 {
		h.rows = h.rows[:rid]
	} else {
		h.free = append(h.free, rid)
	}
}

// InsertAt restores a row at a tombstoned RID — the inverse of Delete,
// used only by statement rollback. The RID must currently be free.
func (h *Heap) InsertAt(rid RID, r datum.Row) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if rid < 0 || int(rid) >= len(h.rows) || h.rows[rid] != nil {
		return fmt.Errorf("storage: restore at occupied or invalid rid %d", rid)
	}
	for i := len(h.free) - 1; i >= 0; i-- {
		if h.free[i] == rid {
			h.free = append(h.free[:i], h.free[i+1:]...)
			break
		}
	}
	h.rows[rid] = r
	h.wroteLocked(rid)
	h.count.Add(1)
	h.bytes.Add(int64(r.Width()) + RowOverhead)
	return nil
}

// Get returns the row at rid, or nil if deleted/out of range.
func (h *Heap) Get(rid RID) datum.Row {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.getLocked(rid)
}

func (h *Heap) getLocked(rid RID) datum.Row {
	if rid < 0 || int(rid) >= len(h.rows) {
		return nil
	}
	return h.rows[rid]
}

// Delete removes the row at rid. It returns an error if no live row is
// there.
func (h *Heap) Delete(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.getLocked(rid)
	if r == nil {
		return fmt.Errorf("storage: delete of missing rid %d", rid)
	}
	h.bytes.Add(-(int64(r.Width()) + RowOverhead))
	h.count.Add(-1)
	h.rows[rid] = nil
	h.wroteLocked(rid)
	h.free = append(h.free, rid)
	return nil
}

// Update replaces the row at rid, returning the old row.
func (h *Heap) Update(rid RID, r datum.Row) (datum.Row, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	old := h.getLocked(rid)
	if old == nil {
		return nil, fmt.Errorf("storage: update of missing rid %d", rid)
	}
	h.bytes.Add(int64(r.Width()) - int64(old.Width()))
	h.rows[rid] = r
	h.wroteLocked(rid)
	return old, nil
}

// wroteLocked records a write at rid: it moves the write generation and
// drops the columns of rid's chunk (giving it cache cells on first use).
func (h *Heap) wroteLocked(rid RID) {
	h.gen++
	lo := int(rid) / vec.MorselRows * h.width
	if n := lo + h.width; n > len(h.cols) {
		h.cols = append(h.cols, make([]atomic.Pointer[vec.Column], n-len(h.cols))...)
	}
	h.dropLocked(lo, lo+h.width)
}

// dropLocked empties the cache cells [lo, hi).
func (h *Heap) dropLocked(lo, hi int) {
	for i := lo; i < hi; i++ {
		if col := h.cols[i].Swap(nil); col != nil {
			h.cm.bytes.Add(-col.Bytes())
		}
	}
}

// Scan calls fn for every live row in RID order; fn returning false stops
// the scan. The read lock is held for the whole scan, so fn must not
// mutate this heap (collect first, then mutate).
func (h *Heap) Scan(fn func(rid RID, r datum.Row) bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for i, r := range h.rows {
		if r == nil {
			continue
		}
		if !fn(RID(i), r) {
			return
		}
	}
}

// Slots returns the current slot-array length — the exclusive upper
// bound of the RID space. Together with ScanRange it lets a caller split
// a full scan into fixed-size RID ranges (morsels) whose union visits
// exactly the rows one Scan would, in the same order.
func (h *Heap) Slots() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.rows)
}

// ScanRange calls fn for every live row with lo <= rid < hi, in RID
// order; fn returning false stops the scan. Like Scan, the read lock is
// held for the whole call, so fn must not mutate this heap. Slots past
// the current slot-array length are silently empty, so a range computed
// from a stale Slots() is safe.
func (h *Heap) ScanRange(lo, hi RID, fn func(rid RID, r datum.Row) bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if lo < 0 {
		lo = 0
	}
	if int(hi) > len(h.rows) {
		hi = RID(len(h.rows))
	}
	for i := lo; i < hi; i++ {
		if r := h.rows[i]; r != nil {
			if !fn(i, r) {
				return
			}
		}
	}
}

// ReadChunk reads chunk i in one read-lock round. It returns the chunk's
// cache handle and live row count, and sets cols[s] (cols is indexed by
// table column slot) to the chunk's cached column of every listed slot s,
// nil where there is none. The live rows (shared: copy-on-write) are
// appended to buf and returned only when withRows is set or a listed
// column is missing; otherwise no row header is copied and rows is nil.
func (h *Heap) ReadChunk(i int, slots []int, cols []*vec.Column, withRows bool, buf []datum.Row) (ch Chunk, n int, rows []datum.Row) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ch, n = Chunk{h: h, i: i, gen: h.gen}, -1
	for _, s := range slots {
		var col *vec.Column
		if k := i*h.width + s; s < h.width && k < len(h.cols) {
			col = h.cols[k].Load()
		}
		if cols[s] = col; col == nil {
			withRows = true
		} else {
			h.cm.hits.Inc()
			n = col.Len()
		}
	}
	if withRows {
		buf = h.chunkRowsLocked(i, buf)
		return ch, len(buf), buf
	}
	if n < 0 {
		n = h.chunkLiveLocked(i)
	}
	return ch, n, nil
}

// chunkSlotsLocked returns chunk i's slots.
func (h *Heap) chunkSlotsLocked(i int) []datum.Row {
	lo, hi := i*vec.MorselRows, min((i+1)*vec.MorselRows, len(h.rows))
	return h.rows[min(lo, hi):hi]
}

// chunkRowsLocked appends chunk i's live rows to buf in RID order.
func (h *Heap) chunkRowsLocked(i int, buf []datum.Row) []datum.Row {
	for _, r := range h.chunkSlotsLocked(i) {
		if r != nil {
			buf = append(buf, r)
		}
	}
	return buf
}

// chunkLiveLocked counts chunk i's live rows.
func (h *Heap) chunkLiveLocked(i int) int {
	n := 0
	for _, r := range h.chunkSlotsLocked(i) {
		if r != nil {
			n++
		}
	}
	return n
}

// Chunk is a heap chunk and the write generation its rows were read at.
type Chunk struct {
	h   *Heap
	i   int
	gen uint64
}

// Column gathers table column slot from rows (those ReadChunk returned
// with c, which found no cached column for slot) and publishes it. Of two
// racing publishers the first wins and both get its column; once a write
// has moved the generation on, the gathered column is returned unpublished.
// The result is shared: read it, never write it.
func (c *Chunk) Column(slot int, rows []datum.Row) *vec.Column {
	col := new(vec.Column)
	col.Gather(rows, slot, nil)
	h := c.h
	h.cm.builds.Inc()
	h.mu.RLock()
	defer h.mu.RUnlock()
	k := c.i*h.width + slot
	if h.gen != c.gen || slot >= h.width || k >= len(h.cols) {
		return col
	}
	if h.cols[k].CompareAndSwap(nil, col) {
		h.cm.bytes.Add(col.Bytes())
		return col
	}
	return h.cols[k].Load()
}

// Snapshot returns a point-in-time copy of the live (rid, row) pairs.
// Rows are shared references (safe: rows are immutable once stored); the
// slice itself is private to the caller. Background index builders use
// this to read the table once and then work entirely off the hot path.
func (h *Heap) Snapshot() []HeapRow {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]HeapRow, 0, h.count.Load())
	for i, r := range h.rows {
		if r == nil {
			continue
		}
		out = append(out, HeapRow{RID: RID(i), Row: r})
	}
	return out
}

// HeapRow is one live heap row with its RID, as captured by Snapshot.
type HeapRow struct {
	RID RID
	Row datum.Row
}

// dumpState captures the heap's full physical state for a checkpoint:
// slot-array length, live rows, and the free list in its exact order
// (inserts pop from the tail, so the order determines which RIDs future
// inserts receive).
func (h *Heap) dumpState() (slots int, rows []HeapRow, free []RID) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	slots = len(h.rows)
	rows = make([]HeapRow, 0, h.count.Load())
	for i, r := range h.rows {
		if r != nil {
			rows = append(rows, HeapRow{RID: RID(i), Row: r})
		}
	}
	free = append([]RID(nil), h.free...)
	return slots, rows, free
}

// restoreState overwrites the heap with checkpoint state — the inverse
// of dumpState. Every slot not covered by rows must appear in free
// exactly once, so the restored heap assigns the same RIDs to future
// inserts as the pre-checkpoint heap would have.
func (h *Heap) restoreState(slots int, rows []HeapRow, free []RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	next := make([]datum.Row, slots)
	var count, bytes int64
	for _, hr := range rows {
		if hr.Row == nil || next[hr.RID] != nil {
			return fmt.Errorf("storage: heap restore: nil or duplicate row at rid %d", hr.RID)
		}
		next[hr.RID] = hr.Row
		count++
		bytes += int64(hr.Row.Width()) + RowOverhead
	}
	for _, rid := range free {
		if next[rid] != nil {
			return fmt.Errorf("storage: heap restore: free rid %d holds a row", rid)
		}
	}
	if int64(slots) != count+int64(len(free)) {
		return fmt.Errorf("storage: heap restore: %d slots != %d rows + %d free", slots, count, len(free))
	}
	h.rows = next
	h.free = append([]RID(nil), free...)
	h.count.Store(count)
	h.bytes.Store(bytes)
	h.gen++
	h.dropLocked(0, len(h.cols))
	h.cols = make([]atomic.Pointer[vec.Column], (slots+vec.MorselRows-1)/vec.MorselRows*h.width)
	return nil
}
