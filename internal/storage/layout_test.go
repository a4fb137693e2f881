package storage

import (
	"context"
	"math/rand"
	"testing"
	"unsafe"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/vec"
)

// scatteredRows is the row count of the layout tests: two full key
// slabs and a short third one.
const scatteredRows = 2*vec.MorselRows + 100

// scatteredA is column a of row i: a permutation of [0, n) that is
// uncorrelated with RID order, so a tree over a is built from rows
// whose key order differs from their heap order.
func scatteredA(i, n int64) int64 { return (i * 7919) % n }

// assertKeySlabs checks a freshly built tree's key layout: every key is
// w datums with cap == len, and entry i's key sits at the address right
// after entry i-1's unless i starts a new slab of vec.MorselRows entries.
func assertKeySlabs(t *testing.T, label string, tree *BTree, w int) {
	t.Helper()
	var prev datum.Row
	i := 0
	for it := tree.Scan(); it.Valid(); it.Next() {
		k := it.Entry().Key
		if len(k) != w || cap(k) != w {
			t.Fatalf("%s: entry %d key len %d cap %d, want both %d", label, i, len(k), cap(k), w)
		}
		if i%vec.MorselRows != 0 && unsafe.Pointer(&k[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), uintptr(w)*unsafe.Sizeof(k[0])) {
			t.Fatalf("%s: entry %d's key is not stored right after entry %d's", label, i, i-1)
		}
		prev = k
		i++
	}
	if i != tree.Len() {
		t.Fatalf("%s: scanned %d entries, tree holds %d", label, i, tree.Len())
	}
}

// assertAppendIsolated appends to every key of a range seek — what a
// consumer of a covering index seek may do with the row it is handed —
// and checks that no seeked key changed, the neighbour of each appended
// key among them.
func assertAppendIsolated(t *testing.T, label string, tree *BTree) {
	t.Helper()
	lo, hi := datum.Row{datum.NewInt(100)}, datum.Row{datum.NewInt(300)}
	var keys, want []datum.Row
	for it := tree.Seek(lo, true, hi, true); it.Valid(); it.Next() {
		keys = append(keys, it.Entry().Key)
		want = append(want, it.Entry().Key.Clone())
	}
	if len(keys) != 201 {
		t.Fatalf("%s: seek [100, 300] returned %d entries, want 201", label, len(keys))
	}
	for _, k := range keys {
		if grown := append(k, datum.NewInt(-1)); &grown[0] == &k[0] {
			t.Fatalf("%s: append grew key %v in place", label, k)
		}
	}
	for i, k := range keys {
		if k.Compare(want[i]) != 0 {
			t.Fatalf("%s: appending to a seeked key overwrote entry %d: %v, want %v", label, i, k, want[i])
		}
	}
}

// assertMutable deletes and re-inserts entries on the built tree and
// checks both invariant walks.
func assertMutable(t *testing.T, label string, tree *BTree) {
	t.Helper()
	var victims []Entry
	for it := tree.Scan(); it.Valid(); it.Next() {
		if len(victims) < 300 {
			victims = append(victims, it.Entry())
		}
	}
	for _, e := range victims {
		if !tree.Delete(e) {
			t.Fatalf("%s: delete of %v missed", label, e)
		}
	}
	for _, e := range victims[:150] {
		if err := tree.Insert(Entry{Key: e.Key.Clone(), RID: e.RID}); err != nil {
			t.Fatalf("%s: reinsert: %v", label, err)
		}
	}
	if err := tree.checkInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestBuiltTreeKeySlabs checks the layout of trees built by each path
// through loadTree — the online build protocol, the restart of a
// suspended index, and the restore recovery runs for an index in a
// snapshot — over a composite key whose order is unrelated to RID order.
func TestBuiltTreeKeySlabs(t *testing.T) {
	cat, m := newTestDB(t)
	for i := int64(0); i < scatteredRows; i++ {
		if _, _, err := m.Insert("R", row(i, scatteredA(i, scatteredRows), i%7)); err != nil {
			t.Fatal(err)
		}
	}
	ix := &catalog.Index{Name: "R_ab", Table: "R", Columns: []string{"a", "b"}}
	if err := cat.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		tree := m.Index(ix.ID()).Tree()
		assertKeySlabs(t, label, tree, 2)
		assertAppendIsolated(t, label, tree)
		assertMutable(t, label, tree)
	}

	b, err := m.StartBuild(ix)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FinishBuild(b); err != nil {
		t.Fatal(err)
	}
	check("online build")

	if err := m.SuspendIndex(ix.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RestartIndex(ix.ID()); err != nil {
		t.Fatal(err)
	}
	check("restart")

	if err := m.DropIndex(ix.ID()); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreIndex(ix, StateActive, 0); err != nil {
		t.Fatal(err)
	}
	check("restore")
}

// BenchmarkSeekRangeBuilt walks 2 000-entry ranges of a 48 000-entry
// tree built through loadTree over a column in random order, reading
// every key the way the executor's index seek does (the iterator's bound
// check, then the key's width), and reports ns per entry walked.
func BenchmarkSeekRangeBuilt(b *testing.B) {
	const rows, walk = 48000, 2000
	rng := rand.New(rand.NewSource(1))
	heapRows := make([]HeapRow, rows)
	for i, a := range rng.Perm(rows) {
		heapRows[i] = HeapRow{RID: RID(i), Row: row(int64(i), int64(a), int64(i%7))}
	}
	m := NewManager(catalog.New())
	tree, err := m.loadTree(context.Background(), heapRows, []int{1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var keyBytes int64
	for i := 0; i < b.N; i++ {
		lo := int64(i*7919) % (rows - walk)
		it := tree.Seek(datum.Row{datum.NewInt(lo)}, true, datum.Row{datum.NewInt(lo + walk - 1)}, true)
		n := 0
		for ; it.Valid(); it.Next() {
			keyBytes += int64(it.Entry().Key.Width())
			n++
		}
		if n != walk {
			b.Fatalf("walked %d entries, want %d", n, walk)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*walk), "ns/entry")
	if keyBytes == 0 {
		b.Fatal("read no key bytes")
	}
}
