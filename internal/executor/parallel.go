package executor

import (
	"fmt"
	"sync"
	"sync/atomic"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/obs"
	"onlinetuner/internal/vec"
)

// This file is the morsel-driven parallelism core. A morsel is a fixed-
// size slice of an operator's input — a heap RID range, a B+-tree leaf
// run, or a chunk of an already-materialized row slice — and morsel
// decomposition is always a property of the DATA, never of the worker
// count. That single rule carries the three guarantees the rest of the
// PR leans on:
//
//   - Byte-identical results at any worker setting. Workers evaluate
//     morsels in any order, but the coordinator consumes their outputs
//     strictly in morsel-index order, so the concatenated result equals
//     the sequential executor's output exactly.
//
//   - Deterministic fault injection. Per-morsel fault draws are keyed by
//     (scan ordinal, morsel index) via fault.HitKeyed, a pure function
//     of the seed — the same morsels fault under any interleaving.
//
//   - Deterministic first error. Workers may run ahead of an error, but
//     the coordinator reports the error of the lowest-indexed failing
//     morsel, which is what the sequential path would have hit first.
//     (Read-only subtrees make the run-ahead harmless.)
//
// A morsel holds vec.MorselRows input units (heap slots, index entries,
// or materialized rows); a heap scan's morsel is one storage chunk.

// morselKey builds the deterministic fault key for morsel i of the
// scan identified by the unkeyed fault ordinal ord (the per-statement
// scan identity, drawn in plan order on the coordinator).
func morselKey(ord int64, i int) uint64 {
	return uint64(ord)<<32 | uint64(uint32(i))
}

// chunkBounds cuts n input rows into morsel [lo, hi) ranges.
func chunkBounds(n int) int { return (n + vec.MorselRows - 1) / vec.MorselRows }

func chunkOf(rows []datum.Row, i int) []datum.Row {
	lo := i * vec.MorselRows
	hi := lo + vec.MorselRows
	if hi > len(rows) {
		hi = len(rows)
	}
	return rows[lo:hi]
}

// runStopped is runMorsels' sequential sibling for Stop-limited scans
// and scans feeding a RID sink: morsels run strictly in order on the
// calling goroutine and, when stop > 0, the loop halts once stop rows
// have accumulated, truncating the final morsel's surplus (stop <= 0
// runs every morsel). A stopped scan stays sequential on purpose — the
// pushdown exists to read almost nothing, and worker run-ahead would
// make the scanned-row actuals depend on the worker count. It returns
// the number of morsels actually produced so collectors can report page
// traffic proportionally.
func (e *run) runStopped(n int, stop int64, work func(i int) (*datum.Batch, error)) ([]datum.Row, int, error) {
	var out []datum.Row
	visited := 0
	for i := 0; i < n && (stop <= 0 || int64(len(out)) < stop); i++ {
		if err := e.ctx.Err(); err != nil {
			return nil, visited, err
		}
		b, err := work(i)
		if err != nil {
			return nil, visited, err
		}
		visited++
		out = append(out, b.Rows()...)
	}
	if stop > 0 && int64(len(out)) > stop {
		out = out[:stop]
	}
	return out, visited, nil
}

// runMorsels executes n independent morsels and consumes their results
// strictly in morsel order. work must be safe to call from multiple
// goroutines on distinct indices and must not mutate shared state;
// consume runs only on the calling goroutine, in index order.
//
// Scheduling: the coordinator walks indices 0..n-1. A morsel nobody has
// claimed yet it executes inline; a morsel claimed by an extra worker it
// waits for. Extra workers (slots from the executor's pool, acquired
// non-blocking — zero slots degrade to a plain sequential loop) claim
// morsels from a shared counter, gated by a token semaphore that bounds
// how many unconsumed results can be in flight. The context is polled
// once per morsel — the per-batch cancellation tick — so a cancelled
// statement stops within one morsel.
func runMorsels[T any](r *run, label string, n int, work func(i int) (T, error), consume func(i int, v T) error) error {
	if n == 0 {
		return nil
	}
	extra := 0
	if n > 1 {
		want := n - 1
		if w := r.pool.Workers() - 1; want > w {
			want = w
		}
		extra = r.pool.TryAcquire(want)
	}
	if extra == 0 {
		for i := 0; i < n; i++ {
			if err := r.ctx.Err(); err != nil {
				return err
			}
			v, err := work(i)
			if err != nil {
				return err
			}
			if err := consume(i, v); err != nil {
				return err
			}
		}
		return nil
	}
	defer r.pool.Release(extra)
	r.metricBusy(int64(extra))
	defer r.metricBusy(-int64(extra))
	r.metricMorsels(int64(n))

	tr := obs.FromContext(r.ctx)
	var span obs.SpanRef
	if tr != nil {
		span = tr.StartSpan("exec.parallel")
		span.SetAttr(fmt.Sprintf("%s morsels=%d extra_workers=%d", label, n, extra))
	}

	out := make([]T, n)
	errs := make([]error, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	// Tokens bound worker run-ahead: each worker claim holds one token
	// until the coordinator consumes that morsel, so at most cap(tokens)
	// unconsumed worker results exist at once.
	tokens := make(chan struct{}, 2*extra+2)
	for i := 0; i < cap(tokens); i++ {
		tokens <- struct{}{}
	}
	stop := make(chan struct{})
	var claim atomic.Int64
	workerMorsels := make([]int64, extra)
	var wg sync.WaitGroup
	for w := 0; w < extra; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-tokens:
				case <-stop:
					return
				}
				i := int(claim.Add(1)) - 1
				if i >= n {
					// Refund the token consumed by this claim: a worker
					// retiring past the tail must not shrink the in-flight
					// bound for the workers still running. (Puts never
					// block: every put pairs with a prior take.)
					tokens <- struct{}{}
					return
				}
				if err := r.ctx.Err(); err != nil {
					errs[i] = err
					close(done[i])
					continue
				}
				v, err := work(i)
				out[i], errs[i] = v, err
				workerMorsels[w]++
				close(done[i])
			}
		}(w)
	}
	var retErr error
	for i := 0; i < n; i++ {
		if claim.CompareAndSwap(int64(i), int64(i+1)) {
			// Unclaimed: the coordinator is worker zero.
			if err := r.ctx.Err(); err != nil {
				retErr = err
				break
			}
			v, err := work(i)
			if err != nil {
				retErr = err
				break
			}
			if err := consume(i, v); err != nil {
				retErr = err
				break
			}
			continue
		}
		<-done[i]
		tokens <- struct{}{}
		if errs[i] != nil {
			retErr = errs[i]
			break
		}
		if err := consume(i, out[i]); err != nil {
			retErr = err
			break
		}
	}
	close(stop)
	wg.Wait()
	if tr != nil {
		// Per-worker attribution, emitted by the coordinator after the
		// workers have quiesced (the trace is single-goroutine).
		for w, m := range workerMorsels {
			ws := tr.StartSpan("exec.worker")
			ws.SetAttr(fmt.Sprintf("worker=%d", w+1))
			ws.SetRows(m)
			ws.End()
		}
		span.End()
	}
	return retErr
}
