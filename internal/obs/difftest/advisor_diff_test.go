package difftest

import (
	"testing"

	"onlinetuner/internal/core"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/tpch"
	"onlinetuner/internal/tuner"
	"onlinetuner/internal/workload"
)

// advisorReplay runs the same fixed workload as replay, but drives the
// online tuner through the racing harness's Advisor interface instead of
// attaching core.Tuner directly.
func advisorReplay(t *testing.T, stmts []string) ([]string, *tuner.OnlinePT, *engine.DB) {
	t.Helper()
	db := engine.OpenConfig(engine.Config{})
	if err := tpch.NewGenerator(scale, dataSeed).Load(db); err != nil {
		t.Fatal(err)
	}
	adv := tuner.NewOnlinePT(core.DefaultOptions())
	w := &workload.Workload{Name: "difftest", Statements: stmts}
	if err := adv.Start(db, w); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(stmts))
	for i, s := range stmts {
		if _, err := adv.BeforeStatement(i); err != nil {
			t.Fatalf("BeforeStatement(%d): %v", i, err)
		}
		rs, info, err := db.Exec(s)
		if err != nil {
			t.Fatalf("advisor stmt %d %q: %v", i, s, err)
		}
		if _, err := adv.AfterStatement(i, info); err != nil {
			t.Fatalf("AfterStatement(%d): %v", i, err)
		}
		out[i] = canon(rs.Rows, rs.Affected)
	}
	return out, adv, db
}

// TestDifferentialAdvisorShell proves the racing harness abstraction
// changes nothing: the core tuner driven through the Advisor interface
// must produce byte-identical per-statement results, an identical
// structured decision log, and identical physical-change accounting
// compared to a direct core.Attach replay of the same fixed workload.
func TestDifferentialAdvisorShell(t *testing.T) {
	batch := tpch.NewGenerator(scale, 7).Batch()
	var stmts []string
	for r := 0; r < 3; r++ {
		stmts = append(stmts, batch...)
	}

	resDirect, decDirect, _, tnDirect := replay(t, true, stmts)
	resShell, adv, dbShell := advisorReplay(t, stmts)

	for i := range stmts {
		if resShell[i] != resDirect[i] {
			t.Fatalf("stmt %d %q: advisor shell differs from direct run:\n%s\nvs\n%s",
				i, stmts[i], resShell[i], resDirect[i])
		}
	}
	sameDecisions(t, "advisor shell vs direct", adv.Decisions(), decDirect)

	md, ms := tnDirect.Metrics(), adv.Metrics()
	if md.TransitionCost != ms.TransitionCost {
		t.Errorf("transition cost diverged: direct %.3f, shell %.3f", md.TransitionCost, ms.TransitionCost)
	}
	if md.BuildsStarted != ms.BuildsStarted || md.BuildsCompleted != ms.BuildsCompleted ||
		md.BuildsAborted != ms.BuildsAborted || md.BuildsFailed != ms.BuildsFailed {
		t.Errorf("build counters diverged: direct %+v, shell %+v", md, ms)
	}
	if md.Queries != ms.Queries {
		t.Errorf("query counts diverged: direct %d, shell %d", md.Queries, ms.Queries)
	}

	// The comparison only means something if the tuner actually acted.
	c := adv.Counters()
	if c.IndexesCreated == 0 {
		t.Errorf("tuner never created an index on the fixed workload: %+v", c)
	}
	if c.BuildsStarted != c.BuildsCompleted+c.BuildsAborted+c.BuildsFailed {
		t.Errorf("advisor counters do not reconcile: %+v", c)
	}
	_ = dbShell
}
