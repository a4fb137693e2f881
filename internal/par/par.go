// Package par provides the process-wide parallelism primitives the
// engine shares: a bounded worker-slot pool, a loop that runs on it and a
// stable parallel merge sort. All three are deliberately small — the
// morsel scheduler in the executor and the index-build sort in storage
// layer their own policy on top, and byte-identical output across worker
// counts is part of the contract here, not an afterthought.
package par

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Pool bounds the number of extra goroutines intra-query parallelism may
// spawn. A pool of W workers hands out W-1 slots: the calling goroutine
// is always worker zero, so a statement never blocks waiting for a slot
// — TryAcquire is non-blocking and a statement that gets no slots simply
// runs sequentially inline. That property is what makes the pool safe to
// consult from arbitrarily nested operators: there is no lock ordering
// and no possibility of pool-induced deadlock.
type Pool struct {
	workers int
	extra   chan struct{}
}

// NewPool returns a pool sized to workers; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.extra = make(chan struct{}, workers-1)
		for i := 0; i < workers-1; i++ {
			p.extra <- struct{}{}
		}
	}
	return p
}

// Workers reports the configured worker count (including the caller).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// TryAcquire claims up to max extra worker slots without blocking and
// returns how many it got (possibly zero). The caller must Release the
// same number.
func (p *Pool) TryAcquire(max int) int {
	if p == nil || p.extra == nil || max <= 0 {
		return 0
	}
	got := 0
	for got < max {
		select {
		case <-p.extra:
			got++
		default:
			return got
		}
	}
	return got
}

// Release returns n previously acquired slots to the pool.
func (p *Pool) Release(n int) {
	for i := 0; i < n; i++ {
		p.extra <- struct{}{}
	}
}

// ForEach calls fn(i) once for every i in [0, n) and returns when all
// calls have. The caller is worker zero; up to n-1 extra goroutines run
// on slots taken from p without blocking, so with no free slot (or a nil
// pool) the calls run in order on the caller. Workers claim indices from
// a shared counter, so fn must be safe to run concurrently on distinct
// indices.
func ForEach(p *Pool, n int, fn func(i int)) {
	got := p.TryAcquire(min(n, p.Workers()) - 1)
	defer p.Release(got)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// SortStablePooled sorts like SortStableFunc but draws its extra workers
// from p's slot budget: up to Workers()-1 extra slots are acquired
// non-blocking for the duration of the sort, so concurrent sorts, morsel
// regions, and background index builds share one process-wide bound
// instead of each assuming a full worker set. Zero available slots — or
// a nil pool — degrade to a sequential sort; the output is identical
// either way.
func SortStablePooled[T any](p *Pool, s []T, cmp func(a, b T) int) {
	got := p.TryAcquire(p.Workers() - 1)
	defer p.Release(got)
	SortStableFunc(s, cmp, got+1)
}

// sortMinChunk is the smallest slice a sort worker is worth spawning
// for; below it the goroutine and merge overhead dominates.
const sortMinChunk = 2048

// SortStableFunc sorts s stably by cmp using up to workers goroutines
// (including the caller). The output is identical to
// slices.SortStableFunc(s, cmp) for every worker count: the slice is cut
// into contiguous chunks, each chunk is sorted stably, and adjacent runs
// are merged left-biased (left element wins ties), which preserves the
// original relative order of equal elements exactly as a sequential
// stable sort would.
func SortStableFunc[T any](s []T, cmp func(a, b T) int, workers int) {
	n := len(s)
	if workers < 1 {
		workers = 1
	}
	chunks := workers
	if max := n / sortMinChunk; chunks > max {
		chunks = max
	}
	if chunks < 2 {
		slices.SortStableFunc(s, cmp)
		return
	}
	// Cut into equal contiguous chunks and sort each in its own
	// goroutine. Chunk boundaries depend only on len(s) and the chunk
	// count; the chunk count is capped by data size so small inputs sort
	// identically (and cheaply) at any worker setting.
	bounds := make([]int, chunks+1)
	for i := 0; i <= chunks; i++ {
		bounds[i] = i * n / chunks
	}
	var wg sync.WaitGroup
	for i := 0; i < chunks; i++ {
		lo, hi := bounds[i], bounds[i+1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			slices.SortStableFunc(s[lo:hi], cmp)
		}()
	}
	wg.Wait()
	// Pairwise left-biased merges, halving the run count each round.
	// Merging adjacent runs keeps equal elements in original order:
	// every element of the left run precedes every element of the right
	// run in the input.
	tmp := make([]T, n)
	src, dst := s, tmp
	for len(bounds) > 2 {
		nb := make([]int, 0, len(bounds)/2+2)
		var wg sync.WaitGroup
		for i := 0; i+2 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+2]
			nb = append(nb, lo)
			wg.Add(1)
			go func() {
				defer wg.Done()
				mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi], cmp)
			}()
		}
		if len(bounds)%2 == 0 {
			// Odd run count: the last run carries over unmerged.
			lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
			nb = append(nb, lo)
			copy(dst[lo:hi], src[lo:hi])
		}
		nb = append(nb, n)
		wg.Wait()
		bounds = nb
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// mergeInto merges sorted runs a and b into out, left-biased: on ties
// the element from a is emitted first, preserving stability.
func mergeInto[T any](out, a, b []T, cmp func(x, y T) int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmp(a[i], b[j]) <= 0 {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}
