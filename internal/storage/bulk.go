package storage

import (
	"fmt"

	"onlinetuner/internal/par"
)

// bulkLeafFill is the target entries per leaf for bulk-loaded trees —
// below Fanout so the tree can absorb inserts without immediate splits,
// matching the steady-state fill an insert-built tree converges to.
const bulkLeafFill = Fanout * 3 / 4

// SortEntries sorts entries into the tree's total order (key, then RID)
// using up to workers goroutines. The result is identical for every
// worker count: compareEntry is a strict total order, and the parallel
// sort is stable besides.
func SortEntries(entries []Entry, workers int) {
	par.SortStableFunc(entries, compareEntry, workers)
}

// SortEntriesPooled sorts like SortEntries but draws its workers from
// p's slot budget (non-blocking; nil or drained pool sorts
// sequentially), so index-build sorts share the process-wide bound with
// executing statements instead of assuming a full worker set.
func SortEntriesPooled(entries []Entry, p *par.Pool) {
	par.SortStablePooled(p, entries, compareEntry)
}

// BulkLoad constructs a B+-tree from entries, which must already be in
// compareEntry order (see SortEntries). It builds the leaf level in one
// left-to-right pass and stacks internal levels on top, so loading n
// entries is O(n) instead of the O(n log n) tree-insert path. An exact
// duplicate (same key and RID) is rejected with the same error Insert
// produces. The entry slice is not retained, but the keys are: the tree
// holds the callers' key slices as they are, so a loader that lays keys
// out in key order (loadTree's slabs) keeps that layout in the leaves.
func BulkLoad(entries []Entry) (*BTree, error) {
	t := NewBTree()
	if len(entries) == 0 {
		return t, nil
	}
	var keyBytes int64
	var leaves []*node
	for _, b := range bulkChunks(len(entries)) {
		leaf := &node{leaf: true, entries: append([]Entry(nil), entries[b[0]:b[1]]...)}
		if len(leaves) > 0 {
			leaves[len(leaves)-1].next = leaf
		}
		leaves = append(leaves, leaf)
	}
	for i := 1; i < len(entries); i++ {
		if compareEntry(entries[i-1], entries[i]) >= 0 {
			if compareEntry(entries[i-1], entries[i]) == 0 {
				return nil, fmt.Errorf("storage: duplicate btree entry %v rid=%d", entries[i].Key, entries[i].RID)
			}
			return nil, fmt.Errorf("storage: bulk load input not sorted at %d", i)
		}
	}
	for _, e := range entries {
		keyBytes += int64(e.Key.Width()) + 8
	}
	// Stack internal levels: group children bulkLeafFill at a time;
	// keys[i] is the smallest entry of children[i+1], exactly the
	// separator Insert's splits would have produced.
	level := leaves
	height := 1
	for len(level) > 1 {
		var parents []*node
		for _, b := range bulkChunks(len(level)) {
			p := &node{leaf: false, children: append([]*node(nil), level[b[0]:b[1]]...)}
			for _, c := range p.children[1:] {
				p.keys = append(p.keys, smallestEntry(c))
			}
			parents = append(parents, p)
		}
		level = parents
		height++
	}
	t.root = level[0]
	t.height = height
	t.count.Store(int64(len(entries)))
	t.keyBytes.Store(keyBytes)
	return t, nil
}

// bulkChunks cuts n items into consecutive [lo, hi) ranges of
// bulkLeafFill items, except that a short final remainder is absorbed by
// splitting the last two chunks evenly — so every chunk but a lone first
// one holds at least minFill items, satisfying the tree's fill
// invariant (the same one Delete's rebalancing maintains).
func bulkChunks(n int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; lo += bulkLeafFill {
		hi := lo + bulkLeafFill
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	if k := len(out); k >= 2 {
		last := out[k-1]
		if last[1]-last[0] < minFill {
			// Rebalance the final two chunks: their combined size is in
			// (bulkLeafFill, bulkLeafFill+minFill), so both halves land
			// in [minFill, Fanout].
			lo, hi := out[k-2][0], last[1]
			mid := lo + (hi-lo)/2
			out[k-2] = [2]int{lo, mid}
			out[k-1] = [2]int{mid, hi}
		}
	}
	return out
}

// smallestEntry returns the leftmost leaf entry under n.
func smallestEntry(n *node) Entry {
	for !n.leaf {
		n = n.children[0]
	}
	return n.entries[0]
}
