package core

import (
	"math"
	"testing"
	"testing/quick"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/whatif"
)

func ix(cols ...string) *catalog.Index {
	return &catalog.Index{Name: "ix", Table: "R", Columns: cols}
}

func TestUsageLevelClassification(t *testing.T) {
	cases := []struct {
		r    *whatif.Request
		want int
	}{
		{&whatif.Request{Kind: whatif.KindScan}, Level0},
		{&whatif.Request{Kind: whatif.KindScan, SortCols: []string{"a"}}, Level2},
		{&whatif.Request{Kind: whatif.KindSeek, EqCols: []string{"a"}}, Level1},
		{&whatif.Request{Kind: whatif.KindSeek, RangeCol: "a"}, Level1},
		{&whatif.Request{Kind: whatif.KindSeek, EqCols: []string{"a"}, RangeCol: "b"}, Level2},
		{&whatif.Request{Kind: whatif.KindSeek, EqCols: []string{"a", "b"}}, Level2},
		{&whatif.Request{Kind: whatif.KindSeek, EqCols: []string{"a"}, SortCols: []string{"b"}}, Level2},
		{&whatif.Request{Kind: whatif.KindUpdate}, LevelU},
		{nil, Level0},
	}
	for i, tc := range cases {
		if got := UsageLevel(tc.r); got != tc.want {
			t.Errorf("case %d: level = %d, want %d", i, got, tc.want)
		}
	}
}

func TestAddAndDelta(t *testing.T) {
	s := NewIndexStats(ix("a"))
	if s.Delta() != 0 || s.DeltaMin != 0 || s.DeltaMax != 0 {
		t.Fatal("fresh stats not zeroed")
	}
	d := s.Add(Level1, 10, 3)
	if d != 7 || s.Delta() != 7 {
		t.Fatalf("delta = %g", s.Delta())
	}
	if s.DeltaMax != 7 || s.DeltaMin != 0 {
		t.Fatalf("trackers = %g %g", s.DeltaMin, s.DeltaMax)
	}
	// Update penalty drives Δ down.
	s.Add(LevelU, 0, 20)
	if s.Delta() != -13 || s.DeltaMin != -13 || s.DeltaMax != 7 {
		t.Fatalf("after penalty: Δ=%g min=%g max=%g", s.Delta(), s.DeltaMin, s.DeltaMax)
	}
}

func TestBenefitAndResidual(t *testing.T) {
	s := NewIndexStats(ix("a"))
	s.Add(Level1, 10, 2) // Δ = 8
	B := 5.0
	if got := s.Benefit(B); got != 3 {
		t.Errorf("benefit = %g, want 3", got)
	}
	if got := s.Residual(B); got != 5 { // Δ == Δmax → residual == B
		t.Errorf("residual = %g, want 5", got)
	}
	// Penalties push residual toward negative.
	s.Add(LevelU, 0, 10) // Δ = -2, Δmax = 8
	if got := s.Residual(B); got != -5 {
		t.Errorf("residual = %g, want -5", got)
	}
	if s.Residual(B) >= 0 {
		t.Error("index should be a dropping candidate")
	}
}

func TestResidualUpperBoundedByB(t *testing.T) {
	// Invariant from Section 3.2.2: residual ≤ B always, because Δmax
	// tracks Δ.
	f := func(obs []float64) bool {
		s := NewIndexStats(ix("a"))
		B := 4.0
		for _, o := range obs {
			v := math.Mod(math.Abs(o), 10)
			s.Add(Level0, v, v/2)
			if s.Residual(B) > B+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAtPeakAndOnCreatedDropped(t *testing.T) {
	s := NewIndexStats(ix("a"))
	s.Add(Level1, 5, 1)
	if !s.AtPeak() {
		t.Error("should be at peak after monotone gains")
	}
	s.Add(LevelU, 0, 2)
	if s.AtPeak() {
		t.Error("should be off peak after a penalty")
	}
	s.OnCreated()
	if s.DeltaMax != s.Delta() {
		t.Error("OnCreated must reset Δmax")
	}
	s.OnDropped()
	if s.DeltaMin != s.Delta() {
		t.Error("OnDropped must reset Δmin")
	}
}

func TestDecayBenefit(t *testing.T) {
	const B = 3.0
	s := NewIndexStats(ix("a"))
	s.Add(Level1, 10, 2) // Δ=8, benefit(B=3) = 5
	s.DecayBenefit(3, B)
	if math.Abs(s.Benefit(B)-2) > 1e-9 {
		t.Errorf("benefit after decay = %g, want 2", s.Benefit(B))
	}
	// The floor is benefit = 0 (the paper's max(0, benefit−δ)): evidence
	// up to the creation threshold is never taken away.
	s.DecayBenefit(1000, B)
	if math.Abs(s.Benefit(B)) > 1e-9 {
		t.Errorf("benefit after huge decay = %g, want 0", s.Benefit(B))
	}
	// At the floor, further decay is a no-op.
	before := s.Delta()
	s.DecayBenefit(50, B)
	if s.Delta() != before {
		t.Error("decay below the floor changed Δ")
	}
	// Zero or negative decay is a no-op.
	s.DecayBenefit(0, B)
	s.DecayBenefit(-5, B)
	if s.Delta() != before {
		t.Error("non-positive decay changed Δ")
	}
}

func TestAdjustAfterCreate(t *testing.T) {
	// I = (a,b,c) created; Ij = (a,c): level(I wrt Ij) = 1 → O^0 and O^1
	// shrink toward α·N.
	created := ix("a", "b", "c")
	s := NewIndexStats(ix("a", "c"))
	s.O[Level0], s.N[Level0] = 100, 10
	s.O[Level1], s.N[Level1] = 50, 5
	s.O[Level2], s.N[Level2] = 30, 3
	s.clampTrackers()
	s.AdjustAfterCreate(created, 60, 100) // α = 0.6
	if s.O[Level0] != 6 {                 // min(100, 0.6·10)
		t.Errorf("O0 = %g, want 6", s.O[Level0])
	}
	if s.O[Level1] != 3 {
		t.Errorf("O1 = %g, want 3", s.O[Level1])
	}
	if s.O[Level2] != 30 { // level 2 untouched (lj = 1)
		t.Errorf("O2 = %g, want 30", s.O[Level2])
	}
	// N values never change.
	if s.N[Level0] != 10 || s.N[Level1] != 5 {
		t.Error("N must remain unchanged")
	}
	// Level -1 relationship: no adjustment.
	s2 := NewIndexStats(ix("d", "e"))
	s2.O[Level0] = 42
	s2.AdjustAfterCreate(created, 10, 100)
	if s2.O[Level0] != 42 {
		t.Error("unrelated index adjusted")
	}
}

func TestAdjustAfterDrop(t *testing.T) {
	dropped := NewIndexStats(ix("a", "b", "c"))
	dropped.O[Level0], dropped.N[Level0] = 20, 10 // β0 = 2
	dropped.O[Level1], dropped.N[Level1] = 30, 10 // β1 = 3
	beta := dropped.BetaFor()
	if beta[0] != 2 || beta[1] != 3 || beta[2] != 1 {
		t.Fatalf("beta = %v", beta)
	}
	s := NewIndexStats(ix("a", "c"))
	s.O[Level0], s.O[Level1], s.O[Level2] = 5, 7, 9
	s.AdjustAfterDrop(dropped.Ix, beta) // level 1 → O0, O1 scaled
	if s.O[Level0] != 10 || s.O[Level1] != 21 || s.O[Level2] != 9 {
		t.Errorf("O = %v", s.O)
	}
	// β is clamped at 1 (a drop can never reduce original costs).
	weird := NewIndexStats(ix("x"))
	weird.O[Level0], weird.N[Level0] = 5, 10
	if b := weird.BetaFor(); b[0] != 1 {
		t.Errorf("β = %v, want clamped to 1", b)
	}
}

func TestInferFromSubOptimal(t *testing.T) {
	// Tracked: I2=(a,b,c,id) with benefit, I4=(a,d,e,id) with benefit and
	// update penalty. Merged M=(a,b,c,id,d,e) should inherit both.
	i2 := NewIndexStats(ix("a", "b", "c", "id"))
	i2.Add(Level1, 10, 2)
	i4 := NewIndexStats(ix("a", "d", "e", "id"))
	i4.Add(Level1, 8, 2)
	i4.Add(LevelU, 0, 1)
	m, err := catalog.Merge(i2.Ix, i4.Ix)
	if err != nil {
		t.Fatal(err)
	}
	sizeOf := func(x *catalog.Index) int64 { return int64(len(x.Columns)) * 100 }
	ms := InferFromSubOptimal(m, sizeOf(m), []*IndexStats{i2, i4}, sizeOf)
	if ms.Delta() <= 0 {
		t.Errorf("merged Δ = %g, want positive", ms.Delta())
	}
	// It must not exceed the sum of sources (sub-optimal usage is scaled
	// down).
	if ms.Delta() > i2.Delta()+i4.Delta()+1e-9 {
		t.Errorf("merged Δ %g exceeds sources %g", ms.Delta(), i2.Delta()+i4.Delta())
	}
	// Update shell inherited from the most similar index.
	if ms.N[LevelU] != 1 {
		t.Errorf("merged N^U = %g, want 1", ms.N[LevelU])
	}
}

func TestAddClampsBadLevel(t *testing.T) {
	s := NewIndexStats(ix("a"))
	s.Add(-5, 3, 1)
	s.Add(99, 3, 1)
	if s.O[Level0] != 6 {
		t.Errorf("out-of-range levels should fold to level 0: %v", s.O)
	}
}

func TestSumNAndClampTrackers(t *testing.T) {
	s := NewIndexStats(ix("a"))
	s.Add(Level0, 4, 1)
	s.Add(LevelU, 0, 2)
	if s.SumN() != 3 {
		t.Errorf("SumN = %g", s.SumN())
	}
	// External aggregate surgery then clamp restores the invariant.
	s.O[Level0] = -50
	s.clampTrackers()
	if s.Delta() < s.DeltaMin || s.Delta() > s.DeltaMax {
		t.Errorf("invariant broken: Δ=%g min=%g max=%g", s.Delta(), s.DeltaMin, s.DeltaMax)
	}
}
