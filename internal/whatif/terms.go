package whatif

import (
	"strings"

	"onlinetuner/internal/catalog"
)

// Terms are the what-if numbers lines 2–8 of Figure 6 take from one
// request tree: per request its best index, the o/n GetCost pair of that
// candidate, the GetCost without the configuration index that serves it
// and an update's MaintenancePerIndex; per OR group the request the used
// index is attributed to. None of
// them reads tuner state, so a tree the engine's plan cache hands to many
// statements has them computed once (Memo.Terms). Each value is filled
// on first use, through the cost memo.
type Terms struct {
	Reqs []ReqTerms
	// Groups partition the non-update requests for used-index
	// attribution, as indexes into Reqs: every OR group with more than
	// one alternative, then a singleton per remaining request.
	Groups [][]int
	picks  []int // per group: the attributed request, pickNone or pickUnknown

	// tables and stamps are the storage TableStamp of every table the
	// tree names, taken when the values were computed.
	tables []string
	stamps []uint64
}

const (
	pickNone    = -1
	pickUnknown = -2
)

// ReqTerms are one request's terms.
type ReqTerms struct {
	Req *Request
	// Shared marks a request under an OR node with other alternatives.
	Shared bool
	// Maint is an update request's MaintenancePerIndex (0 for reads).
	Maint float64

	bestDone bool
	best     *catalog.Index // nil: no candidate, or the primary index
	onDone   bool
	o, n     float64
	usedDone bool
	used     float64
}

// newTerms lays out a tree's requests and attribution groups.
func newTerms(env *Env, tree *Node) *Terms {
	reqs := tree.Requests()
	ts := &Terms{Reqs: make([]ReqTerms, len(reqs))}
	for i, r := range reqs {
		ts.Reqs[i].Req = r
		if r.Kind == KindUpdate {
			ts.Reqs[i].Maint = env.MaintenancePerIndex(r)
		}
		if !containsFold(ts.tables, r.Table) {
			ts.tables = append(ts.tables, r.Table)
		}
	}
	for _, g := range tree.ORGroups() {
		idx := make([]int, len(g))
		for j, r := range g {
			idx[j] = -1
			for k := range ts.Reqs {
				if ts.Reqs[k].Req == r {
					ts.Reqs[k].Shared = true
					if idx[j] < 0 {
						idx[j] = k
					}
				}
			}
		}
		ts.Groups = append(ts.Groups, idx)
	}
	for i, rt := range ts.Reqs {
		if rt.Req.Kind != KindUpdate && !rt.Shared {
			ts.Groups = append(ts.Groups, []int{i})
		}
	}
	ts.picks = make([]int, len(ts.Groups))
	ts.reset()
	return ts
}

// reset forgets every computed value.
func (ts *Terms) reset() {
	for i := range ts.Reqs {
		rt := &ts.Reqs[i]
		rt.bestDone, rt.onDone, rt.usedDone = false, false, false
	}
	for g := range ts.picks {
		ts.picks[g] = pickUnknown
	}
}

// Terms returns the terms of a request tree. A shared tree is one the
// engine's plan cache serves to many statements: its Terms are kept and
// handed to the next statement that carries it, for as long as the
// configuration version and statistics epoch (BeginStatement) and the
// TableStamp of every table the tree names stay what they were — exactly
// the inputs the cached values were computed from besides the tree
// itself.
func (m *Memo) Terms(tree *Node, shared bool) *Terms {
	if !shared {
		return newTerms(m.env, tree)
	}
	ts := m.trees[tree]
	if ts == nil {
		ts = newTerms(m.env, tree)
		m.trees[tree] = ts
	} else if m.current(ts) {
		m.stats.TreeHits++
		return ts
	} else {
		ts.reset()
	}
	ts.stamps = ts.stamps[:0]
	for _, t := range ts.tables {
		ts.stamps = append(ts.stamps, m.env.Mgr.TableStamp(t))
	}
	return ts
}

// current reports whether every table of ts is as it was when its values
// were computed.
func (m *Memo) current(ts *Terms) bool {
	for i, t := range ts.tables {
		if m.env.Mgr.TableStamp(t) != ts.stamps[i] {
			return false
		}
	}
	return true
}

// BestID returns the ID of the request's best index (GetBestIndex), or
// "" when it has none or the best is the table's primary index.
func (m *Memo) BestID(rt *ReqTerms) string {
	if !rt.bestDone {
		rt.best = nil
		if b := GetBestIndex(m.env.Cat, rt.Req); b != nil && !b.Primary {
			rt.best = b
		}
		rt.bestDone = true
	}
	if rt.best == nil {
		return ""
	}
	return rt.best.ID()
}

// NewBest returns a private copy of the index BestID named: every
// statement of a shared tree reads the cached one, while a copy may be
// tracked, renamed and published.
func (rt *ReqTerms) NewBest() *catalog.Index {
	ix := *rt.best
	return &ix
}

// CandidateCosts returns lines 3–4's pair for the request's best index
// cand: o = GetCost under config, n = GetCost under config plus cand.
func (m *Memo) CandidateCosts(rt *ReqTerms, config func() []*catalog.Index, cand *catalog.Index) (o, n float64) {
	if rt.onDone {
		m.stats.Hits += 2
		return rt.o, rt.n
	}
	cfg := config()
	rt.o = m.GetCost(rt.Req, cfg)
	rt.n = m.GetCost(rt.Req, append(cfg, cand))
	rt.onDone = true
	return rt.o, rt.n
}

// UsedCost returns lines 5–6's o: the request's GetCost under config
// without the index that implements it (Req.CurrentIndexID).
func (m *Memo) UsedCost(rt *ReqTerms, config func() []*catalog.Index) float64 {
	if rt.usedDone {
		m.stats.Hits++
		return rt.used
	}
	cfg := config()
	without := make([]*catalog.Index, 0, len(cfg))
	for _, ix := range cfg {
		if ix.ID() != rt.Req.CurrentIndexID {
			without = append(without, ix)
		}
	}
	rt.used = m.GetCost(rt.Req, without)
	rt.usedDone = true
	return rt.used
}

// Attribution returns the request of group g that the group's used
// configuration index serves best — the alternative the plan actually
// implemented — or nil when no request of the group used an index the
// catalog still knows.
func (m *Memo) Attribution(ts *Terms, g int) *ReqTerms {
	p := ts.picks[g]
	if p == pickUnknown {
		p = m.attribute(ts, ts.Groups[g])
		ts.picks[g] = p
	} else {
		m.stats.Hits++
	}
	if p == pickNone {
		return nil
	}
	return &ts.Reqs[p]
}

func (m *Memo) attribute(ts *Terms, group []int) int {
	var usedID string
	for _, k := range group {
		if r := ts.Reqs[k].Req; r.Kind != KindUpdate && r.CurrentIndexID != "" {
			usedID = r.CurrentIndexID
			break
		}
	}
	if usedID == "" {
		return pickNone
	}
	usedIx := m.env.Cat.IndexByID(usedID)
	if usedIx == nil {
		return pickNone
	}
	best, bestCost := pickNone, 0.0
	for _, k := range group {
		r := ts.Reqs[k].Req
		if r.Kind == KindUpdate {
			continue
		}
		if c := m.ImplCost(r, usedIx); best == pickNone || c < bestCost {
			best, bestCost = k, c
		}
	}
	return best
}

func containsFold(ss []string, s string) bool {
	for _, x := range ss {
		if strings.EqualFold(x, s) {
			return true
		}
	}
	return false
}
