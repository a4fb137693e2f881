package storage

import (
	"math/rand"
	"testing"

	"onlinetuner/internal/datum"
)

// randomEntries returns n entries with heavy key duplication (RIDs are
// unique, so the set is valid for a tree).
func randomEntries(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{
			Key: datum.Row{datum.NewInt(int64(rng.Intn(n / 8))), datum.NewString("k")},
			RID: RID(i),
		}
	}
	return out
}

func TestBulkLoadMatchesInsertBuiltTree(t *testing.T) {
	for _, n := range []int{0, 1, 5, Fanout, Fanout + 1, bulkLeafFill + 1, 2*bulkLeafFill + 3, 1000, 20_000} {
		entries := randomEntries(max(n, 8), 42)[:n]
		ins := NewBTree()
		for _, e := range entries {
			if err := ins.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		sorted := append([]Entry(nil), entries...)
		for _, workers := range []int{1, 4} {
			s2 := append([]Entry(nil), sorted...)
			SortEntries(s2, workers)
			bulk, err := BulkLoad(s2)
			if err != nil {
				t.Fatal(err)
			}
			if err := bulk.CheckInvariants(); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if bulk.Len() != ins.Len() || bulk.KeyBytes() != ins.KeyBytes() {
				t.Fatalf("n=%d: bulk len/bytes %d/%d != insert-built %d/%d",
					n, bulk.Len(), bulk.KeyBytes(), ins.Len(), ins.KeyBytes())
			}
			bi, ii := bulk.Scan(), ins.Scan()
			for ii.Valid() {
				if !bi.Valid() || compareEntry(bi.Entry(), ii.Entry()) != 0 {
					t.Fatalf("n=%d: iteration order diverges", n)
				}
				bi.Next()
				ii.Next()
			}
			if bi.Valid() {
				t.Fatalf("n=%d: bulk tree has extra entries", n)
			}
		}
	}
}

func TestBulkLoadRejectsDuplicates(t *testing.T) {
	e := Entry{Key: datum.Row{datum.NewInt(1)}, RID: 7}
	if _, err := BulkLoad([]Entry{e, e}); err == nil {
		t.Fatal("duplicate (key, rid) must be rejected")
	}
}

func TestBulkLoadedTreeSupportsMutation(t *testing.T) {
	entries := randomEntries(5000, 9)
	SortEntries(entries, 4)
	tr, err := BulkLoad(entries)
	if err != nil {
		t.Fatal(err)
	}
	// Insert fresh RIDs and delete originals; the tree must stay valid.
	for i := 0; i < 500; i++ {
		if err := tr.Insert(Entry{Key: entries[i].Key, RID: RID(100_000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		if !tr.Delete(entries[i*3]) {
			t.Fatalf("delete of loaded entry %d failed", i*3)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapScanRangeCoversScan(t *testing.T) {
	_, m := newTestDB(t)
	h := m.Heap("R")
	for i := 0; i < 1000; i++ {
		h.Insert(datum.Row{datum.NewInt(int64(i))})
	}
	// Punch tombstones so ranges see gaps.
	for i := 0; i < 1000; i += 7 {
		if err := h.Delete(RID(i)); err != nil {
			t.Fatal(err)
		}
	}
	var whole []RID
	h.Scan(func(rid RID, r datum.Row) bool { whole = append(whole, rid); return true })
	var pieces []RID
	slots := h.Slots()
	const step = 64
	for lo := 0; lo < slots; lo += step {
		h.ScanRange(RID(lo), RID(lo+step), func(rid RID, r datum.Row) bool {
			pieces = append(pieces, rid)
			return true
		})
	}
	if len(whole) != len(pieces) {
		t.Fatalf("ScanRange union %d rids != Scan %d", len(pieces), len(whole))
	}
	for i := range whole {
		if whole[i] != pieces[i] {
			t.Fatalf("rid %d: %d != %d", i, whole[i], pieces[i])
		}
	}
	// Out-of-range and early-stop behavior.
	h.ScanRange(RID(slots), RID(slots+100), func(RID, datum.Row) bool {
		t.Fatal("range past Slots must be empty")
		return true
	})
	n := 0
	h.ScanRange(0, RID(slots), func(RID, datum.Row) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d rows, want 3", n)
	}
}

func TestBTreeShardsPartitionScan(t *testing.T) {
	entries := randomEntries(10_000, 3)
	SortEntries(entries, 2)
	tr, err := BulkLoad(entries)
	if err != nil {
		t.Fatal(err)
	}
	var whole []Entry
	for it := tr.Scan(); it.Valid(); it.Next() {
		whole = append(whole, it.Entry())
	}
	for _, per := range []int{1, 100, 4096, 1 << 20} {
		shards := tr.Shards(per)
		var got []Entry
		total := 0
		for _, sh := range shards {
			total += sh.N
			it := sh.It
			for i := 0; i < sh.N; i++ {
				if !it.Valid() {
					t.Fatalf("per=%d: shard ended early at %d/%d", per, i, sh.N)
				}
				got = append(got, it.Entry())
				it.Next()
			}
		}
		if total != len(whole) || len(got) != len(whole) {
			t.Fatalf("per=%d: shards cover %d entries, want %d", per, len(got), len(whole))
		}
		for i := range whole {
			if compareEntry(whole[i], got[i]) != 0 {
				t.Fatalf("per=%d: entry %d differs", per, i)
			}
		}
	}
	if got := NewBTree().Shards(10); len(got) != 0 {
		t.Fatalf("empty tree shards = %d, want 0", len(got))
	}
}
