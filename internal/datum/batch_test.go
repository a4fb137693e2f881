package datum

import (
	"runtime"
	"testing"
)

// fill stamps every datum of r with a value derived from (id, column).
func fill(r Row, id int) {
	for j := range r {
		r[j] = NewInt(int64(id)*1000 + int64(j))
	}
}

func checkFilled(t *testing.T, r Row, id int, when string) {
	t.Helper()
	for j := range r {
		if r[j].Int() != int64(id)*1000+int64(j) {
			t.Fatalf("row %d column %d = %v %s", id, j, r[j], when)
		}
	}
}

// TestBatchAllocCarvesValidRows crosses many slab turnovers, with mixed
// widths and a Reset in the middle: every row arrives zeroed, no two
// rows share a datum, and rows handed out earlier keep their contents
// while later ones are carved and filled.
func TestBatchAllocCarvesValidRows(t *testing.T) {
	for _, hint := range []int{0, 1, 7, 5000} {
		b := NewBatch(hint)
		widths := []int{3, 1, 8, 3, 40}
		var rows []Row
		seen := map[*Datum]int{}
		carve := func(n int) {
			for i := 0; i < n; i++ {
				id := len(rows)
				r := b.Alloc(widths[id%len(widths)])
				for j := range r {
					if !r[j].IsNull() {
						t.Fatalf("hint %d: row %d column %d not zeroed: %v", hint, id, j, r[j])
					}
					if prev, dup := seen[&r[j]]; dup {
						t.Fatalf("hint %d: row %d aliases row %d", hint, id, prev)
					}
					seen[&r[j]] = id
				}
				fill(r, id)
				rows = append(rows, r)
			}
		}
		carve(3 * slabDatums)
		if b.Len() != len(rows) {
			t.Fatalf("hint %d: Len = %d, want %d", hint, b.Len(), len(rows))
		}
		for i, r := range rows {
			if got := b.Row(i); &got[0] != &r[0] {
				t.Fatalf("hint %d: Row(%d) does not alias the allocated row", hint, i)
			}
		}
		// Reset invalidates the batch's view of the old rows by contract,
		// but must not recycle their storage under holders of the slices.
		b.Reset()
		if b.Len() != 0 {
			t.Fatalf("hint %d: Len = %d after Reset", hint, b.Len())
		}
		carve(slabDatums)
		for id, r := range rows {
			checkFilled(t, r, id, "after slab turnover and Reset")
		}
	}
}

// TestBatchAllocAmortizesSlab pins the arena property without looking at
// the slab: a long run of small Allocs costs far less than one heap
// allocation per row, and the capped row boundary keeps an append to
// one row from clobbering its neighbour.
func TestBatchAllocAmortizesSlab(t *testing.T) {
	b := NewBatch(0)
	r1 := b.Alloc(3)
	r2 := b.Alloc(3)
	r2[0] = NewInt(42)
	if grown := append(r1, NewInt(99)); &grown[0] == &r1[0] {
		t.Fatal("append to a carved row grew in place")
	}
	if r2[0].Int() != 42 {
		t.Fatal("append to a carved row clobbered the next row")
	}
	allocs := testing.AllocsPerRun(5000, func() { b.Alloc(3) })
	if allocs > 0.05 {
		t.Fatalf("Alloc averages %.3f allocations per call, want ~0 (arena not amortizing)", allocs)
	}
}

func TestBatchAllocWiderThanSlab(t *testing.T) {
	b := NewBatch(1)
	wide := b.Alloc(slabDatums + 10)
	if len(wide) != slabDatums+10 {
		t.Fatalf("wide Alloc len = %d", len(wide))
	}
	fill(wide, 1)
	r2 := b.Alloc(2)
	fill(r2, 2)
	wide2 := b.Alloc(2*slabDatums + 1)
	fill(wide2, 3)
	checkFilled(t, wide, 1, "after later Allocs")
	checkFilled(t, r2, 2, "after later Allocs")
	checkFilled(t, wide2, 3, "after later Allocs")
	if len(b.Rows()) != 3 {
		t.Fatalf("Rows() = %d rows, want 3", len(b.Rows()))
	}
}

// TestBatchOneRowBudget is the allocation budget of a point statement's
// batch: one row of a handful of columns must cost well under 1 KB, with
// or without a capacity hint (it was a 160 KB slab plus a 24 KB header).
func TestBatchOneRowBudget(t *testing.T) {
	for _, hint := range []int{0, 1} {
		var sink *Batch
		var m0, m1 runtime.MemStats
		const runs = 1000
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			sink = NewBatch(hint)
			sink.Alloc(4)[0] = NewInt(int64(i))
		}
		runtime.ReadMemStats(&m1)
		if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per >= 1024 {
			t.Fatalf("NewBatch(%d) + Alloc(4) allocates %d B, want < 1 KB", hint, per)
		}
		_ = sink
	}
}

func TestBatchAppendAndReset(t *testing.T) {
	b := NewBatch(4)
	ext := Row{NewInt(1)}
	b.Append(ext)
	if b.Len() != 1 || &b.Row(0)[0] != &ext[0] {
		t.Fatal("Append must not copy the row")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset should empty the batch")
	}
	r := b.Alloc(1)
	r[0] = NewInt(9)
	if b.Len() != 1 || b.Row(0)[0].Int() != 9 {
		t.Fatal("batch unusable after Reset")
	}
}
