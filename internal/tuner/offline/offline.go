// Package offline implements the two offline baselines the paper
// compares against in Section 4.2:
//
//   - Offline-Set: a set-based physical design advisor in the style of
//     the Database Tuning Advisor [3]. It sees the whole workload as a
//     set, generates candidates from the captured requests, and greedily
//     picks the subset with the best aggregate benefit per byte under
//     the storage budget. The chosen indexes are created up front.
//
//   - Offline-Seq: a sequence-based advisor in the style of Agrawal,
//     Chu & Narasayya [2]. Knowing the full future, it partitions the
//     workload into contiguous segments and runs a dynamic program over
//     (segment, configuration) where configurations are the
//     budget-feasible subsets of the top candidates (merges included),
//     charging real creation costs on each change — so indexes appear
//     mid-workload and disappear before update bursts.
//
// Both operate on a Profile: a replay of the workload on an untuned
// database that captures every query's request groups (Section 2) and
// base cost. Costs under hypothetical configurations are then inferred
// with the same what-if machinery the online tuner uses, keeping all
// three techniques in identical cost units.
package offline

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/whatif"
)

// ProfiledQuery captures one workload statement's optimization artifacts.
type ProfiledQuery struct {
	Text string
	// Groups are the per-table-access OR groups of non-update requests.
	Groups [][]*whatif.Request
	// Updates are the update-shell requests.
	Updates []*whatif.Request
	// BaseCost is the optimizer's estimated cost under the untuned
	// configuration.
	BaseCost float64
	// glue is the part of BaseCost not attributable to any access group
	// (joins, sorts, aggregation); it is configuration-independent.
	glue float64
}

// Profile is a whole workload's capture plus the environment to cost
// hypothetical configurations in.
type Profile struct {
	Queries []*ProfiledQuery
	Env     *whatif.Env
	// Budget is the secondary-index space budget (0 = unlimited).
	Budget int64
	// initialRows/initialBytes snapshot table cardinalities and heap
	// sizes before the replay: the advisors make their creation decisions
	// at workload start, so candidate sizes and build costs are evaluated
	// against the tables as they were then (a workload's DML can grow
	// tables far past their initial size).
	initialRows  map[string]int64
	initialBytes map[string]int64
}

// CandidateBytes estimates an index's size at workload start.
func (p *Profile) CandidateBytes(ix *catalog.Index) int64 {
	t := p.Env.Cat.Table(ix.Table)
	if t == nil {
		return 0
	}
	rows, ok := p.initialRows[strings.ToLower(ix.Table)]
	if !ok {
		return p.Env.IndexBytes(ix)
	}
	return int64(t.ColumnsWidth(ix.Columns)+8) * rows
}

// CandidateBuildCost estimates B_I at workload start (sorted build from
// the base table — the advisors create onto an untuned database).
func (p *Profile) CandidateBuildCost(ix *catalog.Index) float64 {
	key := strings.ToLower(ix.Table)
	rows, ok := p.initialRows[key]
	if !ok {
		return whatif.BuildCost(p.Env, ix)
	}
	sourcePages := float64(storage.PagesFor(p.initialBytes[key]))
	newPages := float64(storage.PagesFor(p.CandidateBytes(ix)))
	return p.Env.Model.BuildIndex(sourcePages, float64(rows), newPages, true)
}

// ProfileWorkload costs the statements on the given untuned database
// (which the caller creates and loads; it must have no secondary
// indexes) through engine.DB.Cost, and captures request groups and
// costs: SELECTs are planned but not run, DML executes. The database is
// mutated by any DML in the workload; its final state provides the
// sizing environment.
func ProfileWorkload(db *engine.DB, workload []string) (*Profile, error) {
	p := &Profile{
		Env:          db.WhatIfEnv(),
		Budget:       db.Mgr.Budget(),
		initialRows:  map[string]int64{},
		initialBytes: map[string]int64{},
	}
	for _, t := range db.Cat.Tables() {
		if h := db.Mgr.Heap(t.Name); h != nil {
			key := strings.ToLower(t.Name)
			p.initialRows[key] = int64(h.Len())
			p.initialBytes[key] = h.Bytes()
		}
	}
	for _, text := range workload {
		info, err := db.Cost(text)
		if err != nil {
			return nil, fmt.Errorf("offline: profiling %q: %w", text, err)
		}
		pq := &ProfiledQuery{Text: text, BaseCost: info.EstCost}
		tree := info.Result.Tree
		seen := map[*whatif.Request]bool{}
		for _, g := range tree.ORGroups() {
			var group []*whatif.Request
			for _, r := range g {
				if r.Kind == whatif.KindUpdate {
					continue
				}
				group = append(group, r)
				seen[r] = true
			}
			if len(group) > 0 {
				pq.Groups = append(pq.Groups, group)
			}
		}
		for _, r := range tree.Requests() {
			if seen[r] {
				continue
			}
			if r.Kind == whatif.KindUpdate {
				pq.Updates = append(pq.Updates, r)
			} else {
				pq.Groups = append(pq.Groups, []*whatif.Request{r})
			}
		}
		// Configuration-independent glue: whatever of the base cost the
		// access groups do not explain.
		attributed := 0.0
		for _, g := range pq.Groups {
			attributed += groupCost(p.Env, g, nil)
		}
		for _, u := range pq.Updates {
			attributed += whatif.GetCost(p.Env, u, nil)
		}
		pq.glue = pq.BaseCost - attributed
		if pq.glue < 0 {
			pq.glue = 0
		}
		p.Queries = append(p.Queries, pq)
	}
	return p, nil
}

// groupCost is the cost of one access group under a configuration: the
// cheapest alternative.
func groupCost(env *whatif.Env, group []*whatif.Request, config []*catalog.Index) float64 {
	best := math.Inf(1)
	for _, r := range group {
		if c := whatif.GetCost(env, r, config); c < best {
			best = c
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// QueryCost estimates one profiled query's cost under a configuration.
func (p *Profile) QueryCost(i int, config []*catalog.Index) float64 {
	pq := p.Queries[i]
	c := pq.glue
	for _, g := range pq.Groups {
		c += groupCost(p.Env, g, config)
	}
	for _, u := range pq.Updates {
		c += whatif.GetCost(p.Env, u, config)
	}
	return c
}

// TotalCost sums QueryCost over the workload (no transition costs).
func (p *Profile) TotalCost(config []*catalog.Index) float64 {
	total := 0.0
	for i := range p.Queries {
		total += p.QueryCost(i, config)
	}
	return total
}

// Candidates extracts the distinct best indexes over all requests,
// ordered by their individually-evaluated workload benefit (descending),
// capped at limit (0 = no cap).
func (p *Profile) Candidates(limit int) []*catalog.Index {
	byID := map[string]*catalog.Index{}
	for _, pq := range p.Queries {
		for _, g := range pq.Groups {
			for _, r := range g {
				ix := whatif.GetBestIndex(p.Env.Cat, r)
				if ix == nil || ix.Primary {
					continue
				}
				if p.Budget > 0 && p.CandidateBytes(ix) > p.Budget {
					continue
				}
				byID[ix.ID()] = ix
			}
		}
	}
	all := make([]*catalog.Index, 0, len(byID))
	for _, ix := range byID {
		all = append(all, ix)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID() < all[j].ID() })
	ct := newCostTable(p, all)
	base := ct.totalCost(nil)
	type scoredIx struct {
		ix    *catalog.Index
		score float64
	}
	var scoredList []scoredIx
	for c, ix := range all {
		scoredList = append(scoredList, scoredIx{ix: ix, score: base - ct.totalCost([]int{c})})
	}
	sort.Slice(scoredList, func(i, j int) bool {
		if scoredList[i].score != scoredList[j].score {
			return scoredList[i].score > scoredList[j].score
		}
		return scoredList[i].ix.ID() < scoredList[j].ix.ID()
	})
	var out []*catalog.Index
	for i, s := range scoredList {
		if limit > 0 && i >= limit {
			break
		}
		out = append(out, s.ix)
	}
	return out
}

// Recommendation is Offline-Set's output.
type Recommendation struct {
	Indexes []*catalog.Index
	// CreationCost is the upfront transition cost Σ B_I.
	CreationCost float64
	// WorkloadCost is the estimated workload cost under the chosen set
	// (excluding creation).
	WorkloadCost float64
}

// withMerges extends a candidate list with pairwise merges of its top
// members (the advisors' own merge step, mirroring [5]).
func (p *Profile) withMerges(cands []*catalog.Index) []*catalog.Index {
	var merged []*catalog.Index
	seen := map[string]bool{}
	for _, ix := range cands {
		seen[ix.ID()] = true
	}
	for i := 0; i < len(cands) && i < 12; i++ {
		for j := 0; j < len(cands) && j < 12; j++ {
			if i == j || !strings.EqualFold(cands[i].Table, cands[j].Table) {
				continue
			}
			m, err := catalog.Merge(cands[i], cands[j])
			if err != nil || seen[m.ID()] {
				continue
			}
			if p.Budget > 0 && p.CandidateBytes(m) > p.Budget {
				continue
			}
			seen[m.ID()] = true
			merged = append(merged, m)
		}
	}
	return append(cands, merged...)
}

// SetBased runs the Offline-Set advisor: greedy benefit-per-byte
// selection under the storage budget, with merged candidates considered
// alongside the atomic ones.
func SetBased(p *Profile, maxCandidates int) *Recommendation {
	cands := p.withMerges(p.Candidates(maxCandidates))
	ct := newCostTable(p, cands)
	gs := newGreedyState(ct)

	taken := make([]bool, len(cands))
	var chosen []*catalog.Index
	var used int64
	for {
		bestIdx := -1
		bestGain := 0.0
		for c, ix := range cands {
			if taken[c] {
				continue
			}
			size := p.CandidateBytes(ix)
			if p.Budget > 0 && used+size > p.Budget {
				continue
			}
			gain := gs.gainOf(c) - p.CandidateBuildCost(ix)
			if gain > bestGain {
				bestGain = gain
				bestIdx = c
			}
		}
		if bestIdx < 0 {
			break
		}
		taken[bestIdx] = true
		chosen = append(chosen, cands[bestIdx])
		used += p.CandidateBytes(cands[bestIdx])
		gs.add(bestIdx)
	}
	rec := &Recommendation{Indexes: chosen, WorkloadCost: gs.total()}
	for _, ix := range chosen {
		rec.CreationCost += p.CandidateBuildCost(ix)
	}
	return rec
}

// Schedule is Offline-Seq's output: per-query active sets.
type Schedule struct {
	// Active[i] is the configuration query i executes under.
	Active [][]*catalog.Index
	// PerQueryCost[i] includes transition costs paid before query i.
	PerQueryCost []float64
	// TotalCost is Σ PerQueryCost.
	TotalCost float64
}

// seqMaxIndexes bounds the candidate pool the sequence DP enumerates
// subsets over (2^seqMaxIndexes configurations).
const seqMaxIndexes = 7

// seqMaxSegments bounds the number of workload segments the DP runs
// over; statements are grouped into contiguous blocks.
const seqMaxSegments = 64

// SeqBased runs the Offline-Seq advisor: a dynamic program over
// (workload segment, configuration) in the style of [2]. The workload is
// partitioned into contiguous segments; configurations are the
// budget-feasible subsets of the top candidates (including merges); the
// DP charges real creation costs on every configuration change and picks
// the globally optimal configuration schedule at segment granularity.
func SeqBased(p *Profile, maxCandidates int) *Schedule {
	n := len(p.Queries)
	out := &Schedule{
		Active:       make([][]*catalog.Index, n),
		PerQueryCost: make([]float64, n),
	}
	if n == 0 {
		return out
	}

	// Top candidates by individual workload benefit.
	cands := p.withMerges(p.Candidates(maxCandidates))
	if len(cands) > seqMaxIndexes {
		rank := newCostTable(p, cands)
		base := rank.totalCost(nil)
		scores := make([]float64, len(cands))
		for c := range cands {
			scores[c] = base - rank.totalCost([]int{c})
		}
		order := make([]int, len(cands))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool { return scores[order[i]] > scores[order[j]] })
		top := make([]*catalog.Index, seqMaxIndexes)
		for i := 0; i < seqMaxIndexes; i++ {
			top[i] = cands[order[i]]
		}
		cands = top
	}
	k := len(cands)
	ct := newCostTable(p, cands)
	sizes := make([]int64, k)
	builds := make([]float64, k)
	for i, ix := range cands {
		sizes[i] = p.CandidateBytes(ix)
		builds[i] = p.CandidateBuildCost(ix)
	}

	// Budget-feasible subsets.
	var subsets []uint32
	subsetIxs := map[uint32][]*catalog.Index{}
	subsetIdxs := map[uint32][]int{}
	for m := uint32(0); m < 1<<k; m++ {
		var sz int64
		var ixs []*catalog.Index
		var idxs []int
		for b := 0; b < k; b++ {
			if m&(1<<b) != 0 {
				sz += sizes[b]
				ixs = append(ixs, cands[b])
				idxs = append(idxs, b)
			}
		}
		if p.Budget > 0 && sz > p.Budget {
			continue
		}
		subsets = append(subsets, m)
		subsetIxs[m] = ixs
		subsetIdxs[m] = idxs
	}

	// Segment the workload into ≤ seqMaxSegments contiguous blocks.
	segSize := (n + seqMaxSegments - 1) / seqMaxSegments
	var segStart []int
	for s := 0; s < n; s += segSize {
		segStart = append(segStart, s)
	}
	ns := len(segStart)
	segEnd := func(s int) int {
		if s+1 < ns {
			return segStart[s+1]
		}
		return n
	}

	// Per-segment cost under each subset.
	segCost := make([][]float64, ns)
	for s := 0; s < ns; s++ {
		segCost[s] = make([]float64, len(subsets))
		for si, m := range subsets {
			c := 0.0
			for i := segStart[s]; i < segEnd(s); i++ {
				c += ct.queryCost(i, subsetIdxs[m])
			}
			segCost[s][si] = c
		}
	}

	transition := func(from, to uint32) float64 {
		added := to &^ from
		c := 0.0
		for b := 0; b < k; b++ {
			if added&(1<<b) != 0 {
				c += builds[b]
			}
		}
		return c
	}

	// DP over segments.
	const inf = math.MaxFloat64 / 4
	dp := make([][]float64, ns)
	choice := make([][]int, ns)
	for s := range dp {
		dp[s] = make([]float64, len(subsets))
		choice[s] = make([]int, len(subsets))
	}
	for si, m := range subsets {
		dp[0][si] = transition(0, m) + segCost[0][si]
		choice[0][si] = -1
	}
	for s := 1; s < ns; s++ {
		for si, m := range subsets {
			best := inf
			bestPrev := 0
			for pi, pm := range subsets {
				v := dp[s-1][pi] + transition(pm, m)
				if v < best {
					best = v
					bestPrev = pi
				}
			}
			dp[s][si] = best + segCost[s][si]
			choice[s][si] = bestPrev
		}
	}

	// Backtrack the optimal configuration per segment.
	bestFinal := 0
	for si := range subsets {
		if dp[ns-1][si] < dp[ns-1][bestFinal] {
			bestFinal = si
		}
	}
	segSubset := make([]int, ns)
	cur := bestFinal
	for s := ns - 1; s >= 0; s-- {
		segSubset[s] = cur
		cur = choice[s][cur]
	}

	// Expand to per-query active sets and costs; transitions land on the
	// first statement of their segment.
	prev := uint32(0)
	for s := 0; s < ns; s++ {
		m := subsets[segSubset[s]]
		tr := transition(prev, m)
		prev = m
		for i := segStart[s]; i < segEnd(s); i++ {
			out.Active[i] = subsetIxs[m]
			out.PerQueryCost[i] = ct.queryCost(i, subsetIdxs[m])
			if i == segStart[s] {
				out.PerQueryCost[i] += tr
			}
			out.TotalCost += out.PerQueryCost[i]
		}
	}
	return out
}
