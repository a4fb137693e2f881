package par

import (
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

func TestPoolSlots(t *testing.T) {
	p := NewPool(4)
	if p.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", p.Workers())
	}
	if got := p.TryAcquire(10); got != 3 {
		t.Fatalf("TryAcquire(10) = %d, want 3 (workers-1)", got)
	}
	if got := p.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire on drained pool = %d, want 0", got)
	}
	p.Release(3)
	if got := p.TryAcquire(2); got != 2 {
		t.Fatalf("TryAcquire(2) after release = %d, want 2", got)
	}
	p.Release(2)
}

func TestPoolSequential(t *testing.T) {
	if got := NewPool(1).TryAcquire(8); got != 0 {
		t.Fatalf("NewPool(1).TryAcquire = %d, want 0", got)
	}
	// NewPool(0) sizes itself from the host, so only the relation between
	// its size and its extra slots is host-independent.
	auto := NewPool(0)
	if auto.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewPool(0).Workers() = %d, want GOMAXPROCS %d", auto.Workers(), runtime.GOMAXPROCS(0))
	}
	if got := auto.TryAcquire(1 << 20); got != auto.Workers()-1 {
		t.Fatalf("NewPool(0).TryAcquire = %d, want Workers()-1 = %d", got, auto.Workers()-1)
	}
	var nilPool *Pool
	if nilPool.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", nilPool.Workers())
	}
	if nilPool.TryAcquire(4) != 0 {
		t.Fatal("nil pool TryAcquire should return 0")
	}
}

func TestForEach(t *testing.T) {
	for _, p := range []*Pool{nil, NewPool(1), NewPool(4)} {
		for _, n := range []int{0, 1, 3, 100} {
			hits := make([]atomic.Int32, n)
			ForEach(p, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers %d, n %d: index %d ran %d times", p.Workers(), n, i, got)
				}
			}
			if want := p.Workers() - 1; p.TryAcquire(want) != max(want, 0) {
				t.Fatalf("workers %d, n %d: slots not returned", p.Workers(), n)
			} else {
				p.Release(want)
			}
		}
	}
	// A drained pool runs every call on the caller, in order.
	p := NewPool(4)
	got := p.TryAcquire(3)
	var order []int
	ForEach(p, 8, func(i int) { order = append(order, i) })
	p.Release(got)
	if !slices.Equal(order, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("drained pool ran %v, want 0..7 in order", order)
	}
}

// kv carries a payload so stability violations are observable: elements
// comparing equal on k must keep their original ord order.
type kv struct {
	k   int
	ord int
}

func TestSortStableFuncMatchesSequential(t *testing.T) {
	cmp := func(a, b kv) int { return a.k - b.k }
	for _, n := range []int{0, 1, 7, 100, 2048, 4096, 10_000, 65_537} {
		rng := rand.New(rand.NewSource(int64(n)))
		base := make([]kv, n)
		for i := range base {
			// Few distinct keys → many ties → stability is exercised.
			base[i] = kv{k: rng.Intn(17), ord: i}
		}
		want := slices.Clone(base)
		slices.SortStableFunc(want, cmp)
		for _, workers := range []int{1, 2, 3, 4, 8} {
			got := slices.Clone(base)
			SortStableFunc(got, cmp, workers)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d workers=%d: parallel stable sort differs from sequential", n, workers)
			}
		}
	}
}

// TestSortStablePooledBudget proves the pooled sort draws from — and
// returns to — the pool's slot budget, sorts correctly when the pool is
// drained or nil, and never exceeds the budget.
func TestSortStablePooledBudget(t *testing.T) {
	cmp := func(a, b kv) int { return a.k - b.k }
	rng := rand.New(rand.NewSource(1))
	base := make([]kv, 10_000)
	for i := range base {
		base[i] = kv{k: rng.Intn(17), ord: i}
	}
	want := slices.Clone(base)
	slices.SortStableFunc(want, cmp)

	p := NewPool(4)
	got := slices.Clone(base)
	SortStablePooled(p, got, cmp)
	if !slices.Equal(got, want) {
		t.Fatal("pooled sort differs from sequential")
	}
	if free := p.TryAcquire(10); free != 3 {
		t.Fatalf("slots free after pooled sort = %d, want 3 (sort leaked slots)", free)
	}
	// Pool fully drained: the sort must degrade to sequential, not block.
	got = slices.Clone(base)
	SortStablePooled(p, got, cmp)
	if !slices.Equal(got, want) {
		t.Fatal("pooled sort on drained pool differs from sequential")
	}
	p.Release(3)

	var nilPool *Pool
	got = slices.Clone(base)
	SortStablePooled(nilPool, got, cmp)
	if !slices.Equal(got, want) {
		t.Fatal("pooled sort on nil pool differs from sequential")
	}
}

func TestSortStableFuncAlreadySortedAndReversed(t *testing.T) {
	cmp := func(a, b kv) int { return a.k - b.k }
	n := 50_000
	asc := make([]kv, n)
	desc := make([]kv, n)
	for i := range asc {
		asc[i] = kv{k: i, ord: i}
		desc[i] = kv{k: n - i, ord: i}
	}
	for _, base := range [][]kv{asc, desc} {
		want := slices.Clone(base)
		slices.SortStableFunc(want, cmp)
		got := slices.Clone(base)
		SortStableFunc(got, cmp, 4)
		if !slices.Equal(got, want) {
			t.Fatal("parallel sort differs on monotone input")
		}
	}
}
