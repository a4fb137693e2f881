package executor

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/vec"
)

// heapScan is one SeqScan over its heap: morsel i is heap chunk i, read
// in one lock round and filtered by the kernels, or row-at-a-time when the
// conjunction does not compile (vf nil).
type heapScan struct {
	n      *plan.SeqScan
	h      *storage.Heap
	faults *fault.Injector
	ord    int64 // the scan's fault ordinal
	slots  int   // heap slots when the scan opened
	vf     *vecFilter
	cols   []int // table columns each chunk read fetches: the kernels' and a fused parent's
	rows   bool  // each chunk read copies the chunk's rows too
	timed  bool  // a fused scan times its own reads for EXPLAIN ANALYZE

	scanned, out, dur atomic.Int64
}

// scanFilter returns the kernel filter of a SeqScan over a heap of the
// given slots, or nil when the scan evaluates row-at-a-time.
func (e *run) scanFilter(n *plan.SeqScan, slots int) *vecFilter {
	if vf, ok := compileVecFilter(n.Preds, n.Schema()); ok && e.vecOn(slots) {
		return vf
	}
	return nil
}

// openScan starts a SeqScan with the filter scanFilter chose.
func (e *run) openScan(n *plan.SeqScan, c *Collector, h *storage.Heap, slots int, vf *vecFilter) (*heapScan, error) {
	// One unkeyed draw per scan, on the coordinator in plan order — the
	// same stream the sequential executor consumed. Its ordinal then keys
	// the per-morsel draws, so the same morsels fault at every worker
	// count and interleaving.
	ord, err := e.faults.HitOrd(fault.PageRead)
	if err != nil {
		return nil, fmt.Errorf("executor: scan of %s: %w", n.Table, err)
	}
	markEngine(c, n, vf != nil)
	s := &heapScan{n: n, h: h, faults: e.faults, ord: ord, slots: slots, vf: vf}
	if vf != nil {
		s.cols, s.rows = vf.kernelSlots()
	}
	return s, nil
}

// fault is morsel i's keyed page-read draw.
func (s *heapScan) fault(i int) error {
	if err := s.faults.HitKeyed(fault.PageRead, morselKey(s.ord, i)); err != nil {
		return fmt.Errorf("executor: scan of %s: %w", s.n.Table, err)
	}
	return nil
}

// load points w.m at chunk i through the kernel filter.
func (s *heapScan) load(i int, w *vecWork) error {
	if err := s.fault(i); err != nil {
		return err
	}
	s.read(i, w, s.rows)
	return nil
}

// read points w.m at chunk i, copying its rows too when withRows, runs the
// kernel filter and counts the scan's actuals.
func (s *heapScan) read(i int, w *vecWork, withRows bool) {
	var start time.Time
	if s.timed {
		start = time.Now()
	}
	m := &w.m
	m.readChunk(s.h, i, len(s.n.Schema()), s.cols, withRows, w.rows[:0])
	if m.rows != nil {
		w.rows = m.rows // keep the grown buffer; only it is recycled
	}
	m.selectRows(s.vf.vecApply(&w.s, m))
	s.scanned.Add(int64(m.total))
	s.out.Add(int64(m.n()))
	if s.timed {
		s.dur.Add(int64(time.Since(start)))
	}
}

// needRows gives w.m, chunk i, its rows for a scalar evaluation. Rows not
// copied by the first read are read again with the chunk, filter and all,
// so they match the selection even if a write moved the heap on.
func (s *heapScan) needRows(i int, w *vecWork) {
	if w.m.rows != nil {
		return
	}
	s.scanned.Add(-int64(w.m.total))
	s.out.Add(-int64(w.m.n()))
	s.read(i, w, true)
}

// finish records the scan's actuals once visited of its morsels ran
// (page traffic is prorated for a stopped scan). A fused scan also
// records the rows it handed its parent and the time its reads took,
// which exec records for a scan that materializes.
func (s *heapScan) finish(c *Collector, visited int, fused bool) {
	if c == nil {
		return
	}
	st := c.at(s.n)
	st.addScanned(s.scanned.Load())
	chunks := chunkBounds(s.slots)
	pages := s.h.Pages() // a full scan reads the whole heap
	if visited < chunks && chunks > 0 {
		pages = pages * int64(visited) / int64(chunks)
	}
	st.addPages(pages)
	if fused {
		st.addRows(s.out.Load())
		st.addDuration(time.Duration(s.dur.Load()))
	}
}

func (e *run) seqScan(n *plan.SeqScan, c *Collector, rids ridSink) ([]datum.Row, error) {
	h := e.mgr.Heap(n.Table)
	if h == nil {
		return nil, fmt.Errorf("executor: table %s not materialized", n.Table)
	}
	slots := h.Slots()
	var vf *vecFilter
	if rids == nil {
		vf = e.scanFilter(n, slots)
	}
	s, err := e.openScan(n, c, h, slots, vf)
	if err != nil {
		return nil, err
	}
	s.rows = true
	var pred func(datum.Row) (bool, error)
	if vf == nil {
		if pred, err = compilePreds(n.Preds, n.Schema()); err != nil {
			return nil, err
		}
	}
	work := func(i int) (*datum.Batch, error) {
		b := datum.NewBatch(0)
		if vf != nil {
			w := getVecWork()
			defer putVecWork(w)
			if err := s.load(i, w); err != nil {
				return nil, err
			}
			for j := range w.m.n() {
				b.Append(w.m.row(j))
			}
			return b, nil
		}
		if err := s.fault(i); err != nil {
			return nil, err
		}
		var sc int64
		var werr error
		h.ScanRange(storage.RID(i*vec.MorselRows), storage.RID((i+1)*vec.MorselRows),
			func(rid storage.RID, r datum.Row) bool {
				sc++
				ok, perr := pred(r)
				if perr != nil {
					werr = perr
					return false
				}
				if ok {
					b.Append(r)
					take(rids, rid)
				}
				return true
			})
		s.scanned.Add(sc)
		return b, werr
	}
	chunks := chunkBounds(slots)
	visited := chunks
	var out []datum.Row
	if n.Stop > 0 || rids != nil {
		out, visited, err = e.runStopped(chunks, n.Stop, work)
	} else {
		err = runMorsels(e, "seqscan "+n.Table, chunks, work,
			func(_ int, b *datum.Batch) error {
				out = append(out, b.Rows()...)
				return nil
			})
	}
	s.finish(c, visited, false)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// morselSource is the input of hashAgg and project, one morsel at a time.
// For a SeqScan child whose conjunction compiles to kernels, morsel i is
// heap chunk i read through the scan's filter: the scan builds no row
// slice, and the parent reads the chunk's columns through the selection.
// For any other child it is chunkOf of the child's materialized rows, all
// selected; an IndexSeek child appends its rows to a pooled buffer the
// source returns at finish, so a seek under an aggregate or projection
// grows no row slice of its own per statement.
type morselSource struct {
	n     int          // morsels
	units int          // input units, for vecOn: rows, or a fused scan's heap slots
	rows  []datum.Row  // a materialized child's output
	scan  *heapScan    // the fused scan, or nil
	buf   *[]datum.Row // the pooled seek buffer rows lives in, or nil
}

// seekBufRows caps a pooled seek buffer at two morsels, 192 KiB of row
// headers: one that grew past it is dropped at finish rather than kept
// for the next statement.
const seekBufRows = 2 * vec.MorselRows

var seekBufs = sync.Pool{New: func() any { return new([]datum.Row) }}

// source opens child as the morsel source of a parent whose expressions
// compiled to ves (vok), or evaluate rows only (!vok).
func (e *run) source(child plan.Node, c *Collector, vok bool, ves ...[]vecExpr) (*morselSource, error) {
	if sc, ok := child.(*plan.SeqScan); ok && sc.Stop == 0 {
		if h := e.mgr.Heap(sc.Table); h != nil {
			slots := h.Slots()
			if vf := e.scanFilter(sc, slots); vf != nil {
				s, err := e.openScan(sc, c, h, slots, vf)
				if err != nil {
					return nil, err
				}
				for _, v := range ves {
					s.cols = exprSlots(s.cols, v)
				}
				slices.Sort(s.cols)
				s.cols = slices.Compact(s.cols)
				s.rows = s.rows || !vok
				s.timed = c != nil
				return &morselSource{n: chunkBounds(slots), units: slots, scan: s}, nil
			}
		}
	}
	var buf *[]datum.Row
	var into []datum.Row
	if _, ok := child.(*plan.IndexSeek); ok {
		buf = seekBufs.Get().(*[]datum.Row)
		into = (*buf)[:0]
	}
	in, err := e.execInto(child, c, into)
	if err != nil {
		return nil, err // a failed seek's buffer is dropped
	}
	return &morselSource{n: chunkBounds(len(in)), units: len(in), rows: in, buf: buf}, nil
}

// load points w.m at morsel i.
func (src *morselSource) load(i int, w *vecWork) error {
	if src.scan != nil {
		return src.scan.load(i, w)
	}
	w.m.reset(chunkOf(src.rows, i))
	return nil
}

// needRows makes morsel i's selected rows readable with w.m.row before a
// scalar evaluation.
func (src *morselSource) needRows(i int, w *vecWork) {
	if src.scan != nil {
		src.scan.needRows(i, w)
	}
}

// finish records a fused scan's actuals and returns a seek buffer to the
// pool, emptied so the pool keeps no table alive. The parent's output
// must not alias src.rows.
func (src *morselSource) finish(c *Collector) {
	if src.scan != nil {
		src.scan.finish(c, src.n, true)
	}
	if src.buf != nil && cap(src.rows) <= seekBufRows {
		clear(src.rows)
		*src.buf = src.rows[:0]
		seekBufs.Put(src.buf)
	}
}

// exprSlots appends the input slots the compiled expressions read.
func exprSlots(dst []int, ves []vecExpr) []int {
	for _, ve := range ves {
		switch x := ve.(type) {
		case veCol:
			dst = append(dst, x.slot)
		case veArith:
			dst = exprSlots(dst, []vecExpr{x.l, x.r})
		}
	}
	return dst
}
