package storage

import (
	"fmt"
	"strings"

	"onlinetuner/internal/datum"
)

// This file exports the structural invariant checkers the chaos and
// property suites lean on. The contract they enforce is the graceful-
// degradation guarantee of the fault layer: no matter which injected
// fault fired where, every published structure is internally consistent
// and every structure agrees with its neighbors (heap ↔ index ↔ catalog
// ↔ budget). The checkers are read-only and deliberately recompute
// everything from first principles rather than trusting cached counters.

// CheckInvariants validates the B+-tree's structure exhaustively:
//
//   - entries are in strict (key, RID) order, globally;
//   - every leaf is at the same depth;
//   - no node exceeds Fanout; non-root nodes hold at least minFill
//     entries/children;
//   - internal separators route correctly: subtree i holds exactly the
//     entries e with keys[i-1] <= e < keys[i];
//   - the leaf sibling chain visits exactly the leaves, in order;
//   - the cached count and keyBytes counters match a recount.
//
// The caller must hold whatever lock protects the tree from mutation.
func (t *BTree) CheckInvariants() error {
	// Structural walk: depth, fill, separator routing.
	var leaves []*node
	var walk func(n *node, depth int, lo, hi *Entry) error
	walk = func(n *node, depth int, lo, hi *Entry) error {
		if n.leaf {
			if depth != t.height {
				return fmt.Errorf("storage: leaf at depth %d, tree height %d", depth, t.height)
			}
			if len(n.entries) > Fanout {
				return fmt.Errorf("storage: leaf over-full: %d > %d", len(n.entries), Fanout)
			}
			if n != t.root && len(n.entries) < minFill {
				return fmt.Errorf("storage: non-root leaf under-filled: %d < %d", len(n.entries), minFill)
			}
			if len(n.keys) != 0 || len(n.children) != 0 {
				return fmt.Errorf("storage: leaf with internal fields populated")
			}
			for i, e := range n.entries {
				if i > 0 && compareEntry(n.entries[i-1], e) >= 0 {
					return fmt.Errorf("storage: leaf order violated: %v >= %v", n.entries[i-1], e)
				}
				if lo != nil && compareEntry(e, *lo) < 0 {
					return fmt.Errorf("storage: entry %v below separator %v", e, *lo)
				}
				if hi != nil && compareEntry(e, *hi) >= 0 {
					return fmt.Errorf("storage: entry %v not below separator %v", e, *hi)
				}
			}
			leaves = append(leaves, n)
			return nil
		}
		if len(n.entries) != 0 {
			return fmt.Errorf("storage: internal node with leaf entries")
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("storage: internal node with %d children, %d keys", len(n.children), len(n.keys))
		}
		if len(n.children) > Fanout {
			return fmt.Errorf("storage: internal over-full: %d > %d", len(n.children), Fanout)
		}
		if n != t.root && len(n.children) < minFill {
			return fmt.Errorf("storage: non-root internal under-filled: %d < %d", len(n.children), minFill)
		}
		if n == t.root && len(n.children) < 2 {
			return fmt.Errorf("storage: internal root with %d children", len(n.children))
		}
		for i, k := range n.keys {
			if i > 0 && compareEntry(n.keys[i-1], k) >= 0 {
				return fmt.Errorf("storage: separator order violated: %v >= %v", n.keys[i-1], k)
			}
			if lo != nil && compareEntry(k, *lo) < 0 {
				return fmt.Errorf("storage: separator %v below bound %v", k, *lo)
			}
			if hi != nil && compareEntry(k, *hi) >= 0 {
				return fmt.Errorf("storage: separator %v not below bound %v", k, *hi)
			}
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			}
			if err := walk(c, depth+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}

	// The sibling chain must visit exactly the leaves, in order.
	chain := t.root
	for !chain.leaf {
		chain = chain.children[0]
	}
	for i, want := range leaves {
		if chain != want {
			return fmt.Errorf("storage: leaf chain diverges from tree order at leaf %d", i)
		}
		chain = chain.next
	}
	if chain != nil {
		return fmt.Errorf("storage: leaf chain extends past the last leaf")
	}

	// Counter accounting: recount entries and key bytes.
	var count, keyBytes int64
	for _, l := range leaves {
		for _, e := range l.entries {
			count++
			keyBytes += int64(e.Key.Width()) + 8
		}
	}
	if count != t.count.Load() {
		return fmt.Errorf("storage: btree count %d != recount %d", t.count.Load(), count)
	}
	if keyBytes != t.keyBytes.Load() {
		return fmt.Errorf("storage: btree keyBytes %d != recount %d", t.keyBytes.Load(), keyBytes)
	}
	return nil
}

// CheckConsistency validates cross-structure agreement for the whole
// storage layer: heap accounting, index↔heap row agreement, catalog↔
// storage agreement, and the budget. It is the post-chaos oracle — after
// any sequence of faulted operations, a clean run of CheckConsistency
// means no fault leaked partial state.
func (m *Manager) CheckConsistency() error {
	m.mu.RLock()
	defer m.mu.RUnlock()

	// Heap accounting: cached counters and columns vs a recount.
	var cached int64
	for name, ts := range m.tables {
		var count, bytes int64
		ts.heap.Scan(func(rid RID, r datum.Row) bool {
			count++
			bytes += int64(r.Width()) + RowOverhead
			return true
		})
		if count != int64(ts.heap.Len()) {
			return fmt.Errorf("storage: heap %s count %d != recount %d", name, ts.heap.Len(), count)
		}
		if bytes != ts.heap.Bytes() {
			return fmt.Errorf("storage: heap %s bytes %d != recount %d", name, ts.heap.Bytes(), bytes)
		}
		if ts.heap.Pages() != PagesFor(bytes) {
			return fmt.Errorf("storage: heap %s pages %d != PagesFor(%d)", name, ts.heap.Pages(), bytes)
		}
		n, err := ts.heap.checkColumns()
		if err != nil {
			return fmt.Errorf("storage: heap %s: %w", name, err)
		}
		cached += n
	}
	if cached != m.cm.bytes.Value() {
		return fmt.Errorf("storage: column cache holds %d bytes, gauge says %d", cached, m.cm.bytes.Value())
	}

	for id, pi := range m.indexes {
		ts := m.tables[strings.ToLower(pi.Def.Table)]
		if ts == nil {
			return fmt.Errorf("storage: index %s over unmaterialized table %s", pi.Def.Name, pi.Def.Table)
		}
		// Catalog agreement: every query-servable index must still be
		// declared. A building index is the one exception — the tuner
		// registers it in the catalog only at publish (FinishBuild), so
		// mid-build it is materialized but intentionally invisible.
		if pi.State() != StateBuilding && m.cat.IndexByID(id) == nil {
			return fmt.Errorf("storage: index %s materialized but not in catalog", pi.Def.Name)
		}
		switch pi.State() {
		case StateActive:
			tree := pi.Tree()
			if tree == nil {
				return fmt.Errorf("storage: active index %s has no tree", pi.Def.Name)
			}
			if err := tree.CheckInvariants(); err != nil {
				return fmt.Errorf("index %s: %w", pi.Def.Name, err)
			}
			if tree.Len() != ts.heap.Len() {
				return fmt.Errorf("storage: index %s has %d entries, heap has %d rows", pi.Def.Name, tree.Len(), ts.heap.Len())
			}
			// Every live row must resolve to exactly its own entry; with
			// the length equality above this proves the entry sets match.
			var missing error
			ts.heap.Scan(func(rid RID, r datum.Row) bool {
				key := keyFor(pi.colOrds, r)
				for it := tree.Seek(key, true, key, true); it.Valid(); it.Next() {
					if it.Entry().RID == rid {
						return true
					}
				}
				missing = fmt.Errorf("storage: index %s missing entry for rid %d", pi.Def.Name, rid)
				return false
			})
			if missing != nil {
				return missing
			}
			if pi.building != nil {
				return fmt.Errorf("storage: active index %s still has a delta log", pi.Def.Name)
			}
		case StateSuspended:
			// A suspended tree is intentionally stale; only its internal
			// structure must hold.
			if tree := pi.Tree(); tree != nil {
				if err := tree.CheckInvariants(); err != nil {
					return fmt.Errorf("suspended index %s: %w", pi.Def.Name, err)
				}
			}
		case StateBuilding:
			if pi.building == nil {
				return fmt.Errorf("storage: building index %s has no delta log", pi.Def.Name)
			}
			if pi.estBytes.Load() < 0 {
				return fmt.Errorf("storage: building index %s has negative reservation", pi.Def.Name)
			}
		}
	}

	if m.budget > 0 {
		if used := m.usedLocked(); used > m.budget {
			return fmt.Errorf("storage: budget exceeded: %d used > %d budget", used, m.budget)
		}
	}
	return nil
}

// checkColumns compares every cached column, datum by datum, with its
// chunk's live rows and returns the bytes the cache holds.
func (h *Heap) checkColumns() (int64, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var bytes int64
	for k := range h.cols {
		col := h.cols[k].Load()
		if col == nil {
			continue
		}
		c, slot := k/h.width, k%h.width
		bytes += col.Bytes()
		rows := h.chunkRowsLocked(c, nil)
		stale := col.Len() != len(rows)
		for i := 0; !stale && i < len(rows); i++ {
			d := col.DatumAt(i)
			stale = d.Kind() != rows[i][slot].Kind() || d.Compare(rows[i][slot]) != 0
		}
		if stale {
			return 0, fmt.Errorf("chunk %d column %d does not match the chunk's rows", c, slot)
		}
	}
	return bytes, nil
}
