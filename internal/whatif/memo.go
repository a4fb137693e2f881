package whatif

import (
	"math"
	"slices"
	"strings"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/fnv1a"
)

// memoCostCap bounds the cost memo; past it the memo is cleared rather
// than evicted entry by entry (the working set per workload phase is far
// below the cap, so a clear is a rare full re-warm, not churn).
const memoCostCap = 8192

// memoTreeCap bounds the shared-tree terms cache the same way. The
// engine's plan cache holds at most 512 trees at a time.
const memoTreeCap = 1024

// Memo caches what-if cost evaluations across the repeated GetCost and
// ImplCost calls of one observer pass — and, because every cost is a
// pure function of its key, across statements too.
//
// Three layers:
//
//   - a per-statement index-size snapshot: IndexPages/IndexBytes hit
//     storage (or the width×rows estimator) once per index per
//     statement, instead of once per request evaluation. BeginStatement
//     resets it, so sizes can never go stale across the physical
//     changes the tuner makes between statements.
//   - a cost memo keyed by (request signature, config signature): the
//     config signature covers each index's identity and snapshot page
//     count, making the memoized value exactly the one getCost would
//     recompute. Entries therefore survive BeginStatement; the map is
//     cleared only on a physical-design or statistics epoch change (to
//     stay bounded and drop dead keys), or at memoCostCap.
//   - the Terms of request trees the engine's plan cache shares between
//     statements, keyed by the tree itself: a statement carrying a tree
//     seen before finds every number lines 2–8 of Figure 6 need without
//     hashing a request. Cleared with the cost memo, or at memoTreeCap.
//
// Memo is NOT safe for concurrent use: it is owned by the tuner and
// used only under the tuner's mutex.
type Memo struct {
	env        *Env
	cfgVersion int64
	statsEpoch int64

	pages map[string]float64 // index ID → page snapshot
	bytes map[string]int64   // index ID → byte snapshot
	costs map[memoKey]float64
	trees map[*Node]*Terms

	stats MemoStats
}

type memoKey struct {
	req uint64
	cfg uint64
}

// MemoStats are the memo's observability counters.
type MemoStats struct {
	Hits       int64 // cost lookups served without computing: memo keys and Terms values
	Misses     int64
	SizeHits   int64 // index-size lookups served from the statement snapshot
	SizeMisses int64 // index-size lookups that went to storage
	Clears     int64 // cost-memo invalidations (epoch change or cap)
	TreeHits   int64 // statements whose tree's Terms were still valid
}

// NewMemo returns an empty memo over the environment.
func NewMemo(env *Env) *Memo {
	return &Memo{
		env:   env,
		pages: make(map[string]float64),
		bytes: make(map[string]int64),
		costs: make(map[memoKey]float64),
		trees: make(map[*Node]*Terms),
	}
}

// Stats returns a copy of the counters.
func (m *Memo) Stats() MemoStats { return m.stats }

// BeginStatement starts a new statement observation: the per-statement
// size snapshot is dropped (sizes may have changed since the last
// statement), and the cost memo is cleared when the physical design or
// statistics epoch moved, or when it outgrew its cap.
func (m *Memo) BeginStatement(cfgVersion, statsEpoch int64) {
	clear(m.pages)
	clear(m.bytes)
	if cfgVersion != m.cfgVersion || statsEpoch != m.statsEpoch || len(m.costs) > memoCostCap {
		if len(m.costs) > 0 {
			m.stats.Clears++
		}
		clear(m.costs)
		clear(m.trees)
		m.cfgVersion = cfgVersion
		m.statsEpoch = statsEpoch
	}
	if len(m.trees) >= memoTreeCap {
		clear(m.trees)
	}
}

// IndexPages returns Env.IndexPages through the statement snapshot.
func (m *Memo) IndexPages(ix *catalog.Index) float64 {
	id := ix.ID()
	if p, ok := m.pages[id]; ok {
		m.stats.SizeHits++
		return p
	}
	m.stats.SizeMisses++
	p := m.env.IndexPages(ix)
	m.pages[id] = p
	return p
}

// IndexBytes returns Env.IndexBytes through the statement snapshot.
func (m *Memo) IndexBytes(ix *catalog.Index) int64 {
	id := ix.ID()
	if b, ok := m.bytes[id]; ok {
		m.stats.SizeHits++
		return b
	}
	m.stats.SizeMisses++
	b := m.env.IndexBytes(ix)
	m.bytes[id] = b
	return b
}

// GetCost is the memoized GetCost primitive.
func (m *Memo) GetCost(r *Request, config []*catalog.Index) float64 {
	key := memoKey{req: requestSig(r), cfg: m.configSig(r.Table, config)}
	if c, ok := m.costs[key]; ok {
		m.stats.Hits++
		return c
	}
	m.stats.Misses++
	c := getCost(m.env, r, config, m.IndexPages)
	m.costs[key] = c
	return c
}

// ImplCost is the memoized ImplCost primitive.
func (m *Memo) ImplCost(r *Request, ix *catalog.Index) float64 {
	// 0x02 domain-separates these keys from GetCost config signatures.
	h := sigFloat(sigString(fnv1a.Init.Byte(0x02), ix.ID()), m.IndexPages(ix))
	key := memoKey{req: requestSig(r), cfg: uint64(h)}
	if c, ok := m.costs[key]; ok {
		m.stats.Hits++
		return c
	}
	m.stats.Misses++
	c := implCostPages(m.env, r, ix, m.IndexPages(ix))
	m.costs[key] = c
	return c
}

// configSig hashes the identity and snapshot size of every config index
// on the request's table (others cannot influence the cost). IDs are
// sorted so the signature is order-independent, matching getCost's
// min-over-alternatives semantics.
func (m *Memo) configSig(table string, config []*catalog.Index) uint64 {
	type idPages struct {
		id    string
		pages float64
	}
	parts := make([]idPages, 0, 8)
	for _, ix := range config {
		if ix == nil || !strings.EqualFold(ix.Table, table) {
			continue
		}
		parts = append(parts, idPages{id: ix.ID(), pages: m.IndexPages(ix)})
	}
	// The primary index participates in getCost implicitly; its pages
	// equal the heap pages, which are part of the request signature
	// (TablePages), so it needs no separate entry here.
	slices.SortFunc(parts, func(a, b idPages) int { return strings.Compare(a.id, b.id) })
	h := fnv1a.Init.Byte(0x01)
	for _, p := range parts {
		h = sigFloat(sigString(h, p.id), p.pages)
	}
	return uint64(h)
}

// requestSig hashes every field of the request that getCost/implCost
// read. CurrentCost and CurrentIndexID are plan-side annotations the
// cost functions never touch, so they are excluded to maximize sharing.
func requestSig(r *Request) uint64 {
	h := sigString(fnv1a.Init, strings.ToLower(r.Table)).Byte(byte(r.Kind))
	for i, c := range r.EqCols {
		h = sigFloat(sigString(h, strings.ToLower(c)), r.EqSels[i])
	}
	h = sigString(h.Byte(0xfe), strings.ToLower(r.RangeCol))
	h = sigFloat(h, r.RangeSel)
	for _, c := range r.Required {
		h = sigString(h, strings.ToLower(c))
	}
	h = h.Byte(0xfe)
	for _, c := range r.SortCols {
		h = sigString(h, strings.ToLower(c))
	}
	h = h.Byte(0xfe)
	for _, f := range [...]float64{r.Bindings, r.RowsPerBinding, float64(r.ResidualPreds),
		r.TableRows, r.TablePages, r.UpdateRows, float64(r.UpdateTouchedIndexes)} {
		h = sigFloat(h, f)
	}
	return uint64(h)
}

// sigString adds a 0xff-terminated string to a signature.
func sigString(h fnv1a.Hash, s string) fnv1a.Hash { return h.Str(s).Byte(0xff) }

// sigFloat adds a float's bit pattern to a signature.
func sigFloat(h fnv1a.Hash, f float64) fnv1a.Hash { return h.Uint64(math.Float64bits(f)) }
