package core

import (
	"fmt"
	"sort"
	"strings"

	"onlinetuner/internal/catalog"
)

// Report is a structured snapshot of the tuner's state: what is in the
// configuration and how much slack it has, which candidates are
// accumulating evidence, and the totals. It is the observability surface
// a DBA (or the interactive shell) reads to understand what the tuner is
// about to do.
type Report struct {
	Queries        int64
	TransitionCost float64
	BudgetBytes    int64
	UsedBytes      int64

	Config     []ConfigEntry
	Candidates []CandidateEntry

	// LowerBound is the alerter's guarantee (Bruno & Chaudhuri, "To Tune
	// or not to Tune?", VLDB 2006 — the paper's reference [6]): a cost the
	// observed workload would have saved had the BoundBy indexes existed
	// from the start, net of building them. Per table it takes the single
	// candidate with the largest positive Benefit, so no request's saving
	// is counted twice, and sums over tables. Merged and building
	// candidates are left out: their evidence is inferred or already
	// being acted on. It is computed over every candidate, before the
	// topK cut.
	LowerBound float64
	BoundBy    []*catalog.Index
}

// ConfigEntry describes one configuration member.
type ConfigEntry struct {
	Index *catalog.Index
	Bytes int64
	// Residual is the slack before the index becomes a dropping
	// candidate (Section 3.2.2); ≤ its build cost by construction.
	Residual  float64
	BuildCost float64
}

// CandidateEntry describes one candidate index in H.
type CandidateEntry struct {
	Index *catalog.Index
	Bytes int64
	// Evidence is Δ−Δmin, the accumulated net benefit.
	Evidence float64
	// BuildCost is B_I^s; the candidate is created once Evidence exceeds
	// it (plus any eviction residuals under storage pressure).
	BuildCost float64
	// Benefit is Evidence − BuildCost (positive = creation-ready).
	Benefit float64
	// Derived marks lazily generated merged candidates.
	Derived bool
	// Creating marks a build in progress behind a B_I^s gate.
	Creating bool
}

// Report captures the tuner's current state. Candidates are sorted by
// evidence descending and capped at topK (0 = all). It is safe to call
// while statements execute.
func (t *Tuner) Report(topK int) Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := Report{
		Queries:        t.queries,
		TransitionCost: t.mTransitionCost.Value(),
		BudgetBytes:    t.env.Mgr.Budget(),
		UsedBytes:      t.env.Mgr.UsedBytes(),
	}
	for id := range t.inConfig {
		st := t.tracked[id]
		if st == nil {
			continue
		}
		b := t.buildCostFor(st.Ix)
		r.Config = append(r.Config, ConfigEntry{
			Index:     st.Ix,
			Bytes:     t.env.IndexBytes(st.Ix),
			Residual:  st.Residual(b),
			BuildCost: b,
		})
	}
	sort.Slice(r.Config, func(i, j int) bool { return r.Config[i].Index.ID() < r.Config[j].Index.ID() })

	for id, st := range t.tracked {
		if t.inConfig[id] {
			continue
		}
		b := t.buildCostFor(st.Ix)
		ev := st.Delta() - st.DeltaMin
		r.Candidates = append(r.Candidates, CandidateEntry{
			Index:     st.Ix,
			Bytes:     t.env.IndexBytes(st.Ix),
			Evidence:  ev,
			BuildCost: b,
			Benefit:   ev - b,
			Derived:   st.Derived,
			Creating:  st.Creating,
		})
	}
	sort.Slice(r.Candidates, func(i, j int) bool {
		if r.Candidates[i].Evidence != r.Candidates[j].Evidence {
			return r.Candidates[i].Evidence > r.Candidates[j].Evidence
		}
		return r.Candidates[i].Index.ID() < r.Candidates[j].Index.ID()
	})
	bestPerTable := map[string]CandidateEntry{}
	for _, c := range r.Candidates {
		if c.Derived || c.Creating || c.Benefit <= 0 {
			continue
		}
		key := strings.ToLower(c.Index.Table)
		if best, ok := bestPerTable[key]; !ok || c.Benefit > best.Benefit {
			bestPerTable[key] = c
		}
	}
	for _, c := range bestPerTable {
		r.BoundBy = append(r.BoundBy, c.Index)
	}
	sort.Slice(r.BoundBy, func(i, j int) bool { return r.BoundBy[i].ID() < r.BoundBy[j].ID() })
	for _, ix := range r.BoundBy {
		r.LowerBound += bestPerTable[strings.ToLower(ix.Table)].Benefit
	}
	if topK > 0 && len(r.Candidates) > topK {
		r.Candidates = r.Candidates[:topK]
	}
	return r
}

// String renders the report for terminals.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "after %d statements, %.2f paid in transitions; budget %d/%d bytes\n",
		r.Queries, r.TransitionCost, r.UsedBytes, r.BudgetBytes)
	sb.WriteString("configuration:\n")
	if len(r.Config) == 0 {
		sb.WriteString("  (no secondary indexes)\n")
	}
	for _, c := range r.Config {
		fmt.Fprintf(&sb, "  %-55s %9d B  residual %8.2f / B %8.2f\n",
			c.Index, c.Bytes, c.Residual, c.BuildCost)
	}
	sb.WriteString("top candidates:\n")
	for _, c := range r.Candidates {
		tag := ""
		if c.Derived {
			tag = " (merged)"
		}
		if c.Creating {
			tag += " (building)"
		}
		fmt.Fprintf(&sb, "  %-55s %9d B  evidence %8.2f / B %8.2f%s\n",
			c.Index, c.Bytes, c.Evidence, c.BuildCost, tag)
	}
	fmt.Fprintf(&sb, "tuning would save at least %.2f via %v\n", r.LowerBound, r.BoundBy)
	return sb.String()
}
