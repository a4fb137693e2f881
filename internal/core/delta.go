// Package core implements the paper's primary contribution: the online
// physical design tuning algorithm OnlinePT (Figure 6), built on the
// per-index Δ bookkeeping of Section 3.2.1 (eight cost aggregates split
// by usage level, Δmin/Δmax tracking), the
// usefulness-level interaction adjustments, the storage-constrained
// residual/benefit machinery of Section 3.2.2 with its oscillation
// damping, and the refinements of Section 3.3 (throttling, asynchronous
// creation with abort, index suspend/restart, manual intervention, and
// statistics triggering).
package core

import (
	"fmt"
	"math"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/whatif"
)

// Usage levels for the Δ decomposition: how an index serves a request.
const (
	// Level0: the index's columns are required in no particular order
	// (vertical-partition scan).
	Level0 = 0
	// Level1: the index's key column is required (single-column seek).
	Level1 = 1
	// Level2: more than one key column is required (multi-column seek or
	// sort request).
	Level2 = 2
	// LevelU: the index is updated by the statement (update shell).
	LevelU = 3
)

// UsageLevel classifies how index usage for a request should be
// decomposed (Section 3.2.1's four-way split).
func UsageLevel(r *whatif.Request) int {
	if r == nil {
		return Level0
	}
	switch r.Kind {
	case whatif.KindUpdate:
		return LevelU
	case whatif.KindScan:
		if len(r.SortCols) > 0 {
			return Level2 // sort requests need multiple ordered key columns
		}
		return Level0
	case whatif.KindSeek:
		sarg := len(r.EqCols)
		if r.RangeCol != "" {
			sarg++
		}
		if sarg >= 2 || len(r.SortCols) > 0 {
			return Level2
		}
		return Level1
	}
	return Level0
}

// IndexStats is the constant-size per-index bookkeeping of Section
// 3.2.1: the eight aggregates (O^0,O^1,O^2,O^U and N^0,N^1,N^2,N^U) and
// the Δmin/Δmax trackers of Online-SI.
type IndexStats struct {
	Ix *catalog.Index

	// O[l] accumulates original costs (index absent), N[l] new costs
	// (index present), per usage level; index LevelU is the update shell.
	O [4]float64
	N [4]float64

	// DeltaMin/DeltaMax implement the Online-SI trackers.
	DeltaMin float64
	DeltaMax float64

	// Derived marks a lazily generated merged candidate whose aggregates
	// are re-inferred from its constituents on every analysis round
	// (Figure 6 line 13) rather than accumulated directly.
	Derived bool

	// Creating marks a build in progress (Section 3.3); only a B_I^s
	// gate (Options.Async) leaves it set between statements.
	Creating bool
	// FailStreak counts consecutive failed builds of this candidate
	// (storage errors, injected faults). Each failure doubles the build
	// cost the benefit rule must overcome (FailPenalty), so a candidate
	// whose build keeps failing backs off exponentially instead of
	// re-arming every analysis round. A successful creation resets it.
	FailStreak int
	// deltaAtCreateStart snapshots Δ when the async build began, for the
	// abort rule ("if benefit drops more than B_I^s due to updates").
	deltaAtCreateStart float64
}

// NewIndexStats returns zeroed bookkeeping for an index.
func NewIndexStats(ix *catalog.Index) *IndexStats {
	return &IndexStats{Ix: ix}
}

// Delta returns Δ = ΣO − ΣN.
func (s *IndexStats) Delta() float64 {
	return s.O[0] + s.O[1] + s.O[2] + s.O[3] - s.N[0] - s.N[1] - s.N[2] - s.N[3]
}

// SumN returns ΣN.
func (s *IndexStats) SumN() float64 { return s.N[0] + s.N[1] + s.N[2] + s.N[3] }

// Add records one request observation at the given level with original
// cost o (index absent) and new cost n (index present). It returns the
// Δ increment.
func (s *IndexStats) Add(level int, o, n float64) float64 {
	if level < 0 || level > LevelU {
		level = Level0
	}
	s.O[level] += o
	s.N[level] += n
	d := s.Delta()
	if d < s.DeltaMin {
		s.DeltaMin = d
	}
	if d > s.DeltaMax {
		s.DeltaMax = d
	}
	return o - n
}

// clampTrackers restores the Δmin ≤ Δ ≤ Δmax invariant after an external
// adjustment to the aggregates ("adjust Δmin and Δmax as appropriate").
func (s *IndexStats) clampTrackers() {
	d := s.Delta()
	if d < s.DeltaMin {
		s.DeltaMin = d
	}
	if d > s.DeltaMax {
		s.DeltaMax = d
	}
}

// Benefit is benefit(I,s) = (Δ − Δmin) − B for an index outside the
// configuration: positive values are the "excess in confidence" for
// creating it (Figure 5).
func (s *IndexStats) Benefit(buildCost float64) float64 {
	return (s.Delta() - s.DeltaMin) - buildCost
}

// Residual is residual(I,s) = B − (Δmax − Δ) for an index in the
// configuration: negative means the index should be dropped; positive is
// its remaining slack (Figure 5).
func (s *IndexStats) Residual(buildCost float64) float64 {
	return buildCost - (s.DeltaMax - s.Delta())
}

// AtPeak reports whether the index currently sits at its maximum
// usefulness (Δ == Δmax), the precondition of the oscillation-damping
// rule of Section 3.2.2.
func (s *IndexStats) AtPeak() bool {
	return s.Delta() >= s.DeltaMax-1e-12
}

// OnCreated resets the trackers as Online-SI does on a 0→1 transition
// (Δmax = Δ).
func (s *IndexStats) OnCreated() {
	s.DeltaMax = s.Delta()
	s.Creating = false
	s.FailStreak = 0
}

// FailPenalty is the build-cost multiplier after FailStreak consecutive
// failed builds: 2^min(FailStreak, 6). The cap bounds the penalty at
// 64× so a candidate is never permanently locked out — a transient
// storage problem that clears lets strong evidence re-arm the build.
func (s *IndexStats) FailPenalty() float64 {
	n := s.FailStreak
	if n <= 0 {
		return 1
	}
	if n > 6 {
		n = 6
	}
	return float64(int(1) << n)
}

// OnDropped resets the trackers on a 1→0 transition (Δmin = Δ).
func (s *IndexStats) OnDropped() {
	s.DeltaMin = s.Delta()
}

// DecayBenefit implements the oscillation-damping rule of Section 3.2.2:
// benefit(I,s) becomes max(0, benefit(I,s) − d), where buildCost is the
// candidate's B_I^s. Crucially the floor is benefit = 0 — evidence up to
// the creation threshold is never taken away; only the excess confidence
// that would otherwise grow without bound (and eventually force a swap
// against an equally-useful configuration) is shaved. The reduction is
// applied to the O aggregates proportionally so later per-level
// adjustments stay meaningful.
func (s *IndexStats) DecayBenefit(d, buildCost float64) {
	if d <= 0 {
		return
	}
	slack := s.Benefit(buildCost) // excess above the creation threshold
	if slack <= 0 {
		return
	}
	cut := math.Min(d, slack)
	// Distribute the cut across positive O components proportionally.
	var posTotal float64
	for l := 0; l <= LevelU; l++ {
		if s.O[l] > 0 {
			posTotal += s.O[l]
		}
	}
	if posTotal <= 0 {
		return
	}
	for l := 0; l <= LevelU; l++ {
		if s.O[l] > 0 {
			s.O[l] -= cut * (s.O[l] / posTotal)
		}
	}
	s.clampTrackers()
}

// AdjustAfterCreate applies the Section 3.2.1 rule to THIS index's
// aggregates after another index `created` was added to the
// configuration: for each level l up to the usefulness level of created
// w.r.t. this index, O^l ← min(O^l, α·N^l) with α =
// size(this)/size(created).
func (s *IndexStats) AdjustAfterCreate(created *catalog.Index, sizeThis, sizeCreated int64) {
	lj := catalog.UsefulnessLevel(created, s.Ix)
	if lj < 0 {
		return
	}
	alpha := 1.0
	if sizeCreated > 0 {
		alpha = float64(sizeThis) / float64(sizeCreated)
	}
	for l := 0; l <= lj && l <= Level2; l++ {
		s.O[l] = math.Min(s.O[l], alpha*s.N[l])
	}
	s.clampTrackers()
}

// BetaFor returns the dropped index's per-level cost-increase factors
// β^l = O^l/N^l (at least 1; 1 when the level is empty).
func (s *IndexStats) BetaFor() [3]float64 {
	var beta [3]float64
	for l := 0; l <= Level2; l++ {
		if s.N[l] > 0 && s.O[l] > s.N[l] {
			beta[l] = s.O[l] / s.N[l]
		} else {
			beta[l] = 1
		}
	}
	return beta
}

// AdjustAfterDrop applies the Section 3.2.1 rule to THIS index's
// aggregates after another index `dropped` left the configuration: for
// each level l up to the usefulness level of dropped w.r.t. this index,
// O^l ← O^l · β^l with β taken from the dropped index's stats.
func (s *IndexStats) AdjustAfterDrop(dropped *catalog.Index, beta [3]float64) {
	lj := catalog.UsefulnessLevel(dropped, s.Ix)
	if lj < 0 {
		return
	}
	for l := 0; l <= lj && l <= Level2; l++ {
		s.O[l] *= beta[l]
	}
	s.clampTrackers()
}

// InferFromSubOptimal seeds a newly considered index's Δ (e.g. a merged
// index, Section 3.2.1 "obtaining Δ values from sub-optimal plans"): for
// every tracked index Ij that the new index can serve (usefulness level
// ≥ 0), the new index inherits O^l and a size-scaled N^l for each
// level l ≤ lj; its update shell is copied from the most similar index
// by Jaccard distance.
func InferFromSubOptimal(newIx *catalog.Index, newSize int64, tracked []*IndexStats, sizeOf func(*catalog.Index) int64) *IndexStats {
	s := NewIndexStats(newIx)
	var bestSim float64
	var mostSimilar *IndexStats
	for _, tj := range tracked {
		if tj.Ix.ID() == newIx.ID() {
			continue
		}
		lj := catalog.UsefulnessLevel(newIx, tj.Ix)
		if lj >= 0 {
			alpha := 1.0
			if sz := sizeOf(tj.Ix); sz > 0 {
				alpha = float64(newSize) / float64(sz)
			}
			for l := 0; l <= lj && l <= Level2; l++ {
				// Do not let a sub-optimal usage look better than the
				// original: cap the inherited new-cost at the original.
				inheritedN := math.Min(alpha*tj.N[l], tj.O[l])
				s.O[l] += tj.O[l]
				s.N[l] += inheritedN
			}
		}
		sim := catalog.Jaccard(newIx, tj.Ix)
		// Ties break toward the larger update penalty: conservative for a
		// wider index that will cost at least as much to maintain.
		if sim > bestSim || (sim == bestSim && mostSimilar != nil &&
			tj.N[LevelU]-tj.O[LevelU] > mostSimilar.N[LevelU]-mostSimilar.O[LevelU]) {
			bestSim = sim
			mostSimilar = tj
		}
	}
	if mostSimilar != nil {
		// Approximate the update cost from the most similar index.
		s.O[LevelU] = mostSimilar.O[LevelU]
		s.N[LevelU] = mostSimilar.N[LevelU]
	}
	s.clampTrackers()
	return s
}

// String summarizes the stats for logs.
func (s *IndexStats) String() string {
	return fmt.Sprintf("stats{%s Δ=%.3f min=%.3f max=%.3f}", s.Ix, s.Delta(), s.DeltaMin, s.DeltaMax)
}
