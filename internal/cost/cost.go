// Package cost implements the engine's cost model: a classical page-I/O
// plus CPU model that converts physical operator shapes into estimated
// cost units. The same model is used by the query optimizer (to pick
// plans), the what-if engine (to cost local plan transformations, Section
// 2.2 of the paper), and the online tuner (to value index creations —
// B_I^s — and drops). Absolute units are arbitrary; only relative
// magnitudes drive the algorithms.
package cost

import "math"

// Model holds the tunable cost constants. A zero Model is not valid; use
// DefaultModel.
type Model struct {
	SeqPage  float64 // sequential page read
	RandPage float64 // random page read (seeks, RID lookups)
	CPUTuple float64 // per-tuple processing
	CPUPred  float64 // per-predicate evaluation
	HashTup  float64 // per-tuple hash build/probe overhead
	SortTup  float64 // per-tuple-comparison sort constant
	WritePg  float64 // page write (index build, DML)
	IdxTup   float64 // per-tuple index maintenance (DML)
	WidthTup float64 // per-tuple-per-column materialization width charge
}

// DefaultModel returns the cost constants used throughout the system.
// They are I/O-dominated (CPU an order of magnitude below page costs per
// row), which reproduces the paper's cost structure: vertical-partition
// scans of narrow indexes save real cost against full-table scans, and a
// sorted index build is several times more expensive than a sort-free
// one (the I1 = 1.33 vs I2 = 8.96 asymmetry of Table 1).
func DefaultModel() Model {
	return Model{
		SeqPage:  1.0,
		RandPage: 4.0,
		CPUTuple: 0.002,
		CPUPred:  0.0005,
		HashTup:  0.004,
		SortTup:  0.012,
		WritePg:  2.0,
		IdxTup:   0.15,
		WidthTup: 0.0005,
	}
}

// RowWidth is the cost of materializing rows tuples of cols columns into
// a join input (hash table build, sort run, probe stream copy). It is
// deliberately CPU-scale — far below the page costs — so it rewards
// column pruning without flipping I/O-driven access choices.
func (m Model) RowWidth(rows float64, cols int) float64 {
	if cols <= 0 || rows <= 0 {
		return 0
	}
	return rows * float64(cols) * m.WidthTup
}

// TopN is the cost of keeping the k smallest of rows tuples with a
// bounded heap: one comparison-ish pass with log(k) heap maintenance,
// versus Sort's full rows*log(rows).
func (m Model) TopN(rows, k float64) float64 {
	if rows < 2 {
		return 0
	}
	if k < 2 {
		k = 2
	}
	if k > rows {
		k = rows
	}
	return rows * math.Log2(k) * m.SortTup
}

// HeapScan is the cost of scanning a heap (or clustered index) of the
// given pages, evaluating preds predicates per row.
func (m Model) HeapScan(pages, rows float64, preds int) float64 {
	return pages*m.SeqPage + rows*(m.CPUTuple+float64(preds)*m.CPUPred)
}

// IndexScan is the cost of a full sequential scan of an index structure.
func (m Model) IndexScan(pages, rows float64, preds int) float64 {
	return pages*m.SeqPage + rows*(m.CPUTuple+float64(preds)*m.CPUPred)
}

// btreeHeight approximates the tree traversal depth from page count.
func btreeHeight(pages float64) float64 {
	if pages <= 1 {
		return 1
	}
	return 1 + math.Ceil(math.Log(pages)/math.Log(100))
}

// IndexSeek is the cost of one seek returning matchRows from matchPages
// leaf pages of an index with totalPages.
func (m Model) IndexSeek(totalPages, matchPages, matchRows float64) float64 {
	return btreeHeight(totalPages)*m.RandPage + matchPages*m.SeqPage + matchRows*m.CPUTuple
}

// Seeks is the cost of n index seeks (e.g. an index-nested-loop inner),
// each returning matchRows/matchPages. Repeated seeks benefit from buffer
// locality: the per-seek traversal cost is discounted logarithmically and
// total leaf I/O is capped at reading the whole index sequentially once
// plus CPU.
func (m Model) Seeks(n, totalPages, matchPages, matchRows float64) float64 {
	if n <= 0 {
		return 0
	}
	one := m.IndexSeek(totalPages, matchPages, matchRows)
	total := n * one
	// Cap: n seeks can never cost more than a full scan plus per-probe CPU.
	cap := totalPages*m.SeqPage + n*(btreeHeight(totalPages)*m.RandPage*0.2+matchRows*m.CPUTuple)
	if total > cap {
		return cap
	}
	return total
}

// RIDLookups is the cost of n random lookups into a clustered table of
// tablePages. Locality: when n approaches the page count, the cost is
// capped at a full scan.
func (m Model) RIDLookups(n, tablePages float64) float64 {
	c := n * m.RandPage
	cap := tablePages*m.SeqPage + n*m.CPUTuple
	if c > cap && tablePages > 0 {
		return cap
	}
	return c
}

// Sort is the cost of sorting rows tuples in memory.
func (m Model) Sort(rows float64) float64 {
	if rows < 2 {
		return 0
	}
	return rows * math.Log2(rows) * m.SortTup
}

// HashJoin is the cost of building on buildRows and probing with
// probeRows.
func (m Model) HashJoin(buildRows, probeRows float64) float64 {
	return buildRows*m.HashTup + probeRows*m.HashTup
}

// MergeJoinExtra is the per-row merge cost once both inputs are sorted.
func (m Model) MergeJoinExtra(leftRows, rightRows float64) float64 {
	return (leftRows + rightRows) * m.CPUTuple
}

// BuildIndex is the creation cost B_I^s: scan the source, optionally sort
// the rows, and write the new structure. The sort term is what makes an
// index that shares its key prefix with an existing index much cheaper to
// build (the paper's I1 = 1.33 vs I2 = 8.96 asymmetry).
func (m Model) BuildIndex(sourcePages, rows, newPages float64, sorted bool) float64 {
	c := sourcePages*m.SeqPage + rows*m.CPUTuple + newPages*m.WritePg
	if sorted {
		c += m.Sort(rows)
	}
	return c
}

// RestartIndex is the cost of restarting a suspended index by replaying
// pendingOps logged changes — generally far cheaper than a rebuild.
func (m Model) RestartIndex(pendingOps float64) float64 {
	return pendingOps * (m.IdxTup + m.CPUTuple)
}

// DMLBase is the base cost of locating and changing rows in the primary
// structure.
func (m Model) DMLBase(rows, tablePages float64) float64 {
	return m.RIDLookups(rows, tablePages) + rows*m.CPUTuple + rows*m.WritePg/100
}

// IndexMaintenance is the cost of maintaining one secondary index for
// rows changed rows. Per row it exceeds the index's per-row bulk-build
// cost: maintenance lands random leaf touches while a build streams —
// the asymmetry that makes dropping an index worthwhile under sustained
// update load (the paper's W3 and Figure 7(c) behavior).
func (m Model) IndexMaintenance(rows float64) float64 {
	return rows * (m.IdxTup + m.RandPage/20)
}
