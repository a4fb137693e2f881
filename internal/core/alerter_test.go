package core

import (
	"strings"
	"testing"

	"onlinetuner/internal/engine"
)

// These tests exercise Report's lower bound in the alerter's deployment
// (the paper's reference [6]): a tuner that observes but never acts, so
// the bound is read off the same Δ evidence OnlinePT decides on.

// observeOnly attaches a tuner whose analysis phase (Figure 6, lines
// 9–21) never runs within a test's statement count: it keeps the
// evidence and never changes the physical design.
func observeOnly(db *engine.DB) *Tuner {
	opts := DefaultOptions()
	opts.ThrottleEvery = 1 << 30
	return Attach(db, opts)
}

func TestAlerterRaisesOnIndexableWorkload(t *testing.T) {
	db := paperDB(t, 3000)
	tn := observeOnly(db)
	runN(t, db, q1, 80)
	r := tn.Report(0)
	if r.LowerBound <= 0 || len(r.BoundBy) == 0 {
		t.Fatalf("no bound on a highly indexable workload: %.2f via %v", r.LowerBound, r.BoundBy)
	}
	// The figure the standalone alerter reported on this workload.
	if got := r.String(); !strings.Contains(got, "tuning would save at least 2280.01 via [R(a,b,c,id)]") {
		t.Errorf("bound changed:\n%s", got)
	}
	if len(db.Configuration()) != 0 || len(tn.Events()) != 0 {
		t.Errorf("observe-only tuner changed the design: %v", tn.Events())
	}
}

// TestAlerterBoundIsRealizable verifies the lower-bound semantics: create
// the bound's index set in a fresh database, replay the same workload,
// and check the actual saving meets the bound (net of creation costs).
func TestAlerterBoundIsRealizable(t *testing.T) {
	run := func(db *engine.DB) float64 {
		total := 0.0
		for i := 0; i < 80; i++ {
			_, info, err := db.Exec(q1)
			if err != nil {
				t.Fatal(err)
			}
			total += info.EstCost
		}
		return total
	}
	db := paperDB(t, 3000)
	tn := observeOnly(db)
	untuned := run(db)
	r := tn.Report(0)
	if r.LowerBound <= 0 {
		t.Fatal("no bound to realize")
	}

	db2 := paperDB(t, 3000)
	for _, ix := range r.BoundBy {
		clone := *ix
		clone.Name = "alert_" + ix.Name
		if err := db2.CreateIndex(&clone); err != nil {
			t.Fatal(err)
		}
	}
	if saved := untuned - run(db2); saved < r.LowerBound*0.9 {
		t.Errorf("actual saving %.1f below the bound %.1f", saved, r.LowerBound)
	}
}

func TestAlerterQuietOnUnindexableWorkload(t *testing.T) {
	db := paperDB(t, 1000)
	tn := observeOnly(db)
	// Full-row scans: every column is required, so no secondary index —
	// not even a vertical partition — can beat the clustered primary.
	runN(t, db, "SELECT * FROM R", 40)
	if r := tn.Report(0); r.LowerBound != 0 || len(r.BoundBy) != 0 {
		t.Errorf("bound on unindexable workload: %.2f via %v", r.LowerBound, r.BoundBy)
	}
}

func TestAlerterUpdatePenaltiesLowerTheBound(t *testing.T) {
	db := paperDB(t, 2000)
	tn := observeOnly(db)
	runN(t, db, q1, 40)
	before := tn.Report(0).LowerBound
	if before <= 0 {
		t.Fatal("expected positive bound after reads")
	}
	runN(t, db, "UPDATE R SET b = b + 1, c = c + 1, d = d + 1 WHERE id >= 0", 40)
	if after := tn.Report(0).LowerBound; after >= before {
		t.Errorf("update penalties should lower the bound: %.1f → %.1f", before, after)
	}
}

func TestAlerterOnePerTable(t *testing.T) {
	db := paperDB(t, 2000)
	tn := observeOnly(db)
	// Two query shapes over the same table create two strong candidates;
	// the bound must take only one (no double counting).
	runN(t, db, q1, 40)
	runN(t, db, q2, 40)
	r := tn.Report(0)
	if len(r.BoundBy) == 0 {
		t.Fatal("no bound")
	}
	seen := map[string]int{}
	for _, ix := range r.BoundBy {
		seen[strings.ToLower(ix.Table)]++
	}
	for table, n := range seen {
		if n > 1 {
			t.Errorf("%d indexes for table %s; bound may double count", n, table)
		}
	}
}
