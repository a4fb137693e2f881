package core

import (
	"fmt"
	"strings"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/engine"
)

// paperDB loads the paper's Section 4.1 schema: R(id,a,b,c,d,e) with
// `rows` rows where a is selective (~1% per range bucket).
func paperDB(t testing.TB, rows int) *engine.DB {
	t.Helper()
	db := engine.Open()
	db.MustExec("CREATE TABLE R (id INT, a INT, b INT, c INT, d INT, e INT, PRIMARY KEY (id))")
	db.MustExec("CREATE TABLE S (id INT, a INT, b INT, c INT, d INT, e INT, PRIMARY KEY (id))")
	for i := 0; i < rows; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d, %d, %d, %d, %d)",
			i, i%1000, i, i, i, i))
	}
	for i := 0; i < rows; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO S VALUES (%d, %d, %d, %d, %d, %d)",
			i, i%1000, i, i, i, i))
	}
	if err := db.Analyze("R"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("S"); err != nil {
		t.Fatal(err)
	}
	return db
}

const q1 = "SELECT a, b, c, id FROM R WHERE a < 100"
const q2 = "SELECT a, d, e, id FROM R WHERE a < 100"
const q3 = "INSERT INTO R SELECT * FROM S"

func runN(t testing.TB, db *engine.DB, q string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

func configIDs(tn *Tuner) []string {
	var out []string
	for id := range tn.inConfig {
		out = append(out, id)
	}
	return out
}

func TestTunerCreatesIndexAfterEvidence(t *testing.T) {
	db := paperDB(t, 3000)
	tn := Attach(db, DefaultOptions())
	runN(t, db, q1, 60)
	evs := tn.Events()
	if len(evs) == 0 {
		t.Fatal("tuner never changed the physical design")
	}
	if evs[0].Kind != EvCreate {
		t.Fatalf("first event = %v", evs[0])
	}
	// The first creation must not happen on the very first query (the
	// evidence threshold B_I must accumulate), but must happen well
	// before the workload ends.
	if evs[0].AtQuery < 2 || evs[0].AtQuery > 50 {
		t.Errorf("first creation at query %d", evs[0].AtQuery)
	}
	// The created index serves q1: its columns cover {a,b,c,id}.
	if !evs[0].Index.ContainsColumns([]string{"a", "b", "c", "id"}) {
		t.Errorf("created index %v does not serve q1", evs[0].Index)
	}
	// And queries are now cheaper.
	_, info, err := db.Exec(q1)
	if err != nil {
		t.Fatal(err)
	}
	if info.EstCost >= 0.9*firstCost(t, db) {
		t.Errorf("query cost did not improve: %g", info.EstCost)
	}
}

// firstCost returns the cost of q1 on a fresh identical database without
// any tuning.
func firstCost(t testing.TB, tuned *engine.DB) float64 {
	db := paperDB(t, int(tuned.WhatIfEnv().TableRows("R"))) // same size
	_, info, err := db.Exec(q1)
	if err != nil {
		t.Fatal(err)
	}
	return info.EstCost
}

func TestTunerPaperUpgradePattern(t *testing.T) {
	// The paper's W1 pattern: a cheap sort-free index (id-leading) is
	// created first, then replaced/supplemented by the better seek index
	// (a-leading) as evidence accumulates.
	db := paperDB(t, 3000)
	tn := Attach(db, DefaultOptions())
	runN(t, db, q1, 250)
	var createdCols []string
	for _, ev := range tn.Events() {
		if ev.Kind == EvCreate {
			createdCols = append(createdCols, strings.Join(ev.Index.Columns, ","))
		}
	}
	if len(createdCols) == 0 {
		t.Fatal("no creations")
	}
	// Eventually the seek-optimal index (leading with a) must exist.
	found := false
	for id := range tn.inConfig {
		if strings.HasPrefix(id, "r(a,") {
			found = true
		}
	}
	if !found {
		t.Errorf("a-leading index never created; creations: %v, config: %v",
			createdCols, configIDs(tn))
	}
}

func TestTunerDropsIndexUnderUpdates(t *testing.T) {
	db := paperDB(t, 2000)
	tn := Attach(db, DefaultOptions())
	runN(t, db, q1, 120)
	if len(configIDs(tn)) == 0 {
		t.Fatal("no index created during read phase")
	}
	// Update-heavy phase: large inserts into R (the paper's q3).
	for i := 0; i < 60; i++ {
		if _, _, err := db.Exec(fmt.Sprintf(
			"UPDATE R SET b = b + 1, c = c + 1, d = d + 1, e = e + 1 WHERE id >= %d", 0)); err != nil {
			t.Fatal(err)
		}
	}
	var dropped bool
	for _, ev := range tn.Events() {
		if ev.Kind == EvDrop {
			dropped = true
		}
	}
	if !dropped {
		t.Errorf("update-heavy phase never dropped an index; config: %v", configIDs(tn))
	}
}

func TestTunerStorageConstrainedSwap(t *testing.T) {
	db := paperDB(t, 3000)
	// Budget: one 4-column index only (the paper's 135 MB setting).
	one := db.Mgr.EstimateIndexBytes(idx(db, "R", "a", "b", "c", "id"))
	db.Mgr.SetBudget(one + one/8)
	tn := Attach(db, DefaultOptions())
	runN(t, db, q1, 250)
	if len(configIDs(tn)) == 0 {
		t.Fatal("nothing created in phase 1")
	}
	// Phase 2: q2 needs different columns; the tuner must eventually swap.
	runN(t, db, q2, 250)
	servesQ2 := false
	for id := range tn.inConfig {
		ix := db.Cat.IndexByID(id)
		if ix != nil && ix.ContainsColumns([]string{"a", "d", "e", "id"}) {
			servesQ2 = true
		}
	}
	if !servesQ2 {
		t.Errorf("no q2-serving index after phase 2; config = %v events = %v",
			configIDs(tn), tn.Events())
	}
	// The budget must have been respected throughout.
	if db.Mgr.UsedBytes() > db.Mgr.Budget() {
		t.Errorf("budget exceeded: %d > %d", db.Mgr.UsedBytes(), db.Mgr.Budget())
	}
}

func TestTunerNoOscillationOnStableMix(t *testing.T) {
	// The paper's W2/135MB result: with room for only one index and an
	// interleaved q1;q2 mix of equal benefit, the design stabilizes
	// instead of thrashing.
	db := paperDB(t, 3000)
	one := db.Mgr.EstimateIndexBytes(idx(db, "R", "a", "b", "c", "id"))
	db.Mgr.SetBudget(one + one/8)
	opts := DefaultOptions()
	opts.MergeEvery = 0 // merging would legitimately replace indexes here
	tn := Attach(db, opts)
	for i := 0; i < 250; i++ {
		runN(t, db, q1, 1)
		runN(t, db, q2, 1)
	}
	// Count changes in the last half of the workload: a thrashing tuner
	// swaps every few queries; a damped one settles.
	late := 0
	for _, ev := range tn.Events() {
		if ev.AtQuery > 250 {
			late++
		}
	}
	if late > 6 {
		t.Errorf("%d physical changes in the stable phase (oscillation); events: %v", late, tn.Events())
	}
}

func TestTunerMergingCreatesCombinedIndex(t *testing.T) {
	// The paper's W2/138MB result: when the budget fits the merged
	// 6-column index, merging should produce one index serving both
	// queries.
	db := paperDB(t, 3000)
	merged := db.Mgr.EstimateIndexBytes(idx(db, "R", "a", "b", "c", "id", "d", "e"))
	db.Mgr.SetBudget(merged + merged/10)
	tn := Attach(db, DefaultOptions())
	for i := 0; i < 250; i++ {
		runN(t, db, q1, 1)
		runN(t, db, q2, 1)
	}
	both := false
	for id := range tn.inConfig {
		ix := db.Cat.IndexByID(id)
		if ix != nil && ix.ContainsColumns([]string{"a", "b", "c", "d", "e", "id"}) {
			both = true
		}
	}
	if !both {
		t.Errorf("merged index never created; config = %v, events = %v", configIDs(tn), tn.Events())
	}
	// Both queries should now be cheap.
	_, i1, _ := db.Exec(q1)
	_, i2, _ := db.Exec(q2)
	if i1.EstCost > 2 || i2.EstCost > 2 {
		t.Logf("q1=%.3f q2=%.3f (informational)", i1.EstCost, i2.EstCost)
	}
}

func TestTunerSuspendRestart(t *testing.T) {
	db := paperDB(t, 2000)
	opts := DefaultOptions()
	opts.UseSuspend = true
	tn := Attach(db, opts)
	runN(t, db, q1, 120)
	if len(configIDs(tn)) == 0 {
		t.Fatal("no creation")
	}
	// Update-heavy: the index should be suspended, not dropped.
	for i := 0; i < 40; i++ {
		db.MustExec("UPDATE R SET b = b + 1, c = c + 1 WHERE id >= 0")
	}
	suspended := false
	for _, ev := range tn.Events() {
		if ev.Kind == EvSuspend {
			suspended = true
		}
	}
	if !suspended {
		t.Fatalf("no suspension; events = %v", tn.Events())
	}
	// Read-heavy again: the index comes back. Recovery must out-earn the
	// update-phase penalties plus B, so the read phase is long.
	runN(t, db, q1, 600)
	restarted := false
	for _, ev := range tn.Events() {
		if ev.Kind == EvRestart {
			restarted = true
		}
	}
	if !restarted {
		t.Fatalf("no restart; events = %v", tn.Events())
	}
}

func TestTunerAsyncCreation(t *testing.T) {
	db := paperDB(t, 2000)
	opts := DefaultOptions()
	opts.Async = true
	tn := Attach(db, opts)
	runN(t, db, q1, 200)
	// The build completes after enough query-cost has elapsed.
	created := false
	for _, ev := range tn.Events() {
		if ev.Kind == EvCreate {
			created = true
		}
	}
	if !created {
		t.Fatalf("async build never completed; events = %v", tn.Events())
	}
}

func TestTunerAsyncAbortOnUpdates(t *testing.T) {
	db := paperDB(t, 3000)
	opts := DefaultOptions()
	opts.Async = true
	tn := Attach(db, opts)
	// Enough reads to start a build but not finish it, then a burst of
	// updates to erode the benefit.
	for i := 0; i < 300 && tn.pending == nil; i++ {
		runN(t, db, q1, 1)
	}
	if tn.pending == nil {
		t.Skip("build finished too fast to exercise abort on this scale")
	}
	for i := 0; i < 100 && tn.pending != nil; i++ {
		db.MustExec("UPDATE R SET b = b + 1, c = c + 1, d = d + 1, e = e + 1 WHERE id >= 0")
	}
	aborted := false
	for _, ev := range tn.Events() {
		if ev.Kind == EvAbort {
			aborted = true
		}
	}
	if !aborted && tn.pending != nil {
		t.Errorf("build neither finished nor aborted under updates; events = %v", tn.Events())
	}
}

func TestTunerThrottling(t *testing.T) {
	db := paperDB(t, 2000)
	opts := DefaultOptions()
	opts.ThrottleEvery = 10
	tn := Attach(db, opts)
	runN(t, db, q1, 100)
	// All physical changes must land on throttle boundaries.
	for _, ev := range tn.Events() {
		if ev.AtQuery%10 != 0 {
			t.Errorf("event %v at query %d not on a throttle boundary", ev, ev.AtQuery)
		}
	}
	if len(tn.Events()) == 0 {
		t.Error("throttled tuner never acted")
	}
}

func TestTunerManualIntervention(t *testing.T) {
	db := paperDB(t, 1000)
	tn := Attach(db, DefaultOptions())
	ixm := idx(db, "R", "a", "b", "c", "id")
	ixm.Name = "manual_1"
	if err := tn.ManualCreate(ixm); err != nil {
		t.Fatal(err)
	}
	if !tn.inConfig[ixm.ID()] {
		t.Fatal("manual create not tracked")
	}
	if err := tn.ManualDrop("manual_1"); err != nil {
		t.Fatal(err)
	}
	if tn.inConfig[ixm.ID()] {
		t.Fatal("manual drop not tracked")
	}
	if err := tn.ManualDrop("nope"); err == nil {
		t.Error("unknown manual drop accepted")
	}
}

// TestManualChangesOverTrackedCandidate: a manual create of an index the
// tuner already tracks as a candidate goes through the automatic create
// path but keeps the DBA's definition and name; a failed attempt leaves
// the candidate as it was, a name clash is refused rather than renamed,
// and a manual drop goes through the automatic drop path.
func TestManualChangesOverTrackedCandidate(t *testing.T) {
	db := paperDB(t, 2000)
	tn := observeOnly(db)
	runN(t, db, q1, 40)
	ixm := idx(db, "R", "a", "b", "c", "id")
	ixm.Name = "dba_abc"
	cand := tn.Stats(ixm.ID())
	if cand == nil || cand.Ix == ixm {
		t.Fatalf("no tracked candidate for %v", ixm)
	}
	candIx := cand.Ix

	db.Mgr.SetBudget(100)
	if err := tn.ManualCreate(ixm); err == nil {
		t.Fatal("over-budget manual create accepted")
	}
	if st := tn.Stats(ixm.ID()); st != cand || st.Ix != candIx {
		t.Fatalf("failed manual create replaced the candidate: %v", st)
	}
	db.Mgr.SetBudget(0)

	if err := tn.ManualCreate(ixm); err != nil {
		t.Fatal(err)
	}
	if st := tn.Stats(ixm.ID()); st != cand || st.Ix != ixm || !tn.inConfig[ixm.ID()] {
		t.Fatalf("manual create did not adopt the candidate with the DBA's index: %v", st)
	}
	if cand.DeltaMax != cand.Delta() {
		t.Errorf("creation trackers not reset: %v", cand)
	}
	if got := db.Cat.IndexByID(ixm.ID()); got == nil || got.Name != "dba_abc" {
		t.Fatalf("catalog holds %v, want dba_abc", got)
	}
	d := tn.Decisions()
	if last := d[len(d)-1]; last.Kind != "create" || last.Reason != "manual" || last.Index != ixm.ID() {
		t.Errorf("last decision = %+v", last)
	}

	clash := idx(db, "R", "d", "e")
	clash.Name = "dba_abc"
	if err := tn.ManualCreate(clash); err == nil {
		t.Fatal("name clash accepted")
	}
	if db.Cat.IndexByID(clash.ID()) != nil || db.Cat.Index("dba_abc_40") != nil {
		t.Error("name clash created an index")
	}

	if err := tn.ManualDrop("dba_abc"); err != nil {
		t.Fatal(err)
	}
	if db.Cat.Index("dba_abc") != nil || db.Mgr.Index(ixm.ID()) != nil || tn.inConfig[ixm.ID()] {
		t.Error("manual drop left the index behind")
	}
	evs := tn.Events()
	if len(evs) != 2 || evs[0].Kind != EvCreate || evs[1].Kind != EvDrop || evs[1].Index != ixm {
		t.Errorf("events = %v", evs)
	}
}

func TestTunerStatisticsTrigger(t *testing.T) {
	db := engine.Open()
	db.MustExec("CREATE TABLE R (id INT, a INT, b INT, c INT, d INT, e INT, PRIMARY KEY (id))")
	for i := 0; i < 3000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d, %d, %d, %d, %d)", i, i%1000, i, i, i, i))
	}
	// No Analyze: statistics must appear via the trigger.
	before := db.Stats.BuildCount()
	tn := Attach(db, DefaultOptions())
	runN(t, db, q1, 100)
	if db.Stats.BuildCount() == before {
		t.Error("statistics trigger never fired")
	}
	if !db.Stats.Has("R", "a") {
		t.Error("stats for the candidate's leading column missing")
	}
	_ = tn
}

func TestTunerCandidateEviction(t *testing.T) {
	db := paperDB(t, 500)
	opts := DefaultOptions()
	opts.MergeEvery = 0
	tn := Attach(db, opts)
	tn.maxCandidates = 3
	// Many distinct query shapes generate many candidates.
	for i := 0; i < 20; i++ {
		db.MustExec(fmt.Sprintf("SELECT b FROM R WHERE a = %d", i))
		db.MustExec(fmt.Sprintf("SELECT c FROM R WHERE b < %d", i))
		db.MustExec(fmt.Sprintf("SELECT d FROM R WHERE c = %d", i))
		db.MustExec(fmt.Sprintf("SELECT e FROM R WHERE d = %d", i))
	}
	if got := len(tn.Candidates()); got > 3 {
		t.Errorf("candidates = %d, want ≤ 3", got)
	}
}

func TestTunerMetricsAccumulate(t *testing.T) {
	db := paperDB(t, 1000)
	tn := Attach(db, DefaultOptions())
	runN(t, db, q1, 50)
	m := tn.Metrics()
	if m.Queries != 50 {
		t.Errorf("queries = %d", m.Queries)
	}
	if m.Total <= 0 || m.Lines28 <= 0 {
		t.Error("timers not accumulating")
	}
	if m.Total < m.Line1+m.Lines28 {
		t.Error("total must dominate the parts it contains")
	}
	if len(tn.Events()) > 0 && m.TransitionCost <= 0 {
		t.Error("transition cost not recorded")
	}
}

func TestTunerSuspendedIndexNotUsedByPlans(t *testing.T) {
	db := paperDB(t, 2000)
	opts := DefaultOptions()
	opts.UseSuspend = true
	tn := Attach(db, opts)
	runN(t, db, q1, 120)
	// Force-suspend whatever exists and verify plans fall back.
	for id := range tn.inConfig {
		if err := db.Mgr.SuspendIndex(id); err != nil {
			t.Fatal(err)
		}
		delete(tn.inConfig, id)
	}
	// 2000 rows with a = i%1000 → a < 100 matches 200 rows.
	rs := db.MustExec(q1)
	if len(rs.Rows) != 200 {
		t.Errorf("rows = %d, want 200", len(rs.Rows))
	}
}

// idx builds an index definition for size estimation and manual DDL.
func idx(db *engine.DB, table string, cols ...string) *catalog.Index {
	_ = db
	return &catalog.Index{Name: "t_" + strings.Join(cols, "_"), Table: table, Columns: cols}
}

func TestTunerStatisticsRefreshOnGrowth(t *testing.T) {
	db := paperDB(t, 2000)
	tn := Attach(db, DefaultOptions())
	runN(t, db, q1, 60) // builds stats for the candidate's leading column
	if !db.Stats.Has("R", "a") {
		t.Fatal("stats never built")
	}
	before := db.Stats.BuildCount()
	// Grow the table well past the staleness fraction.
	for i := 0; i < 900; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d, 1, 2, 3, 4)", 100000+i, i%1000))
	}
	runN(t, db, q1, 5)
	if db.Stats.BuildCount() <= before {
		t.Errorf("statistics not refreshed after 45%% growth (builds %d)", db.Stats.BuildCount())
	}
	// Refresh must not loop: a stable table triggers no further builds.
	mid := db.Stats.BuildCount()
	runN(t, db, q1, 20)
	if db.Stats.BuildCount() > mid+2 {
		t.Errorf("statistics rebuilt repeatedly on a stable table: %d → %d", mid, db.Stats.BuildCount())
	}
	_ = tn
}

func TestTunerReport(t *testing.T) {
	db := paperDB(t, 3000)
	tn := Attach(db, DefaultOptions())
	runN(t, db, q1, 60)
	r := tn.Report(5)
	if r.Queries != 60 {
		t.Errorf("queries = %d", r.Queries)
	}
	if len(r.Config) == 0 {
		t.Fatal("report missing configuration entries")
	}
	for _, c := range r.Config {
		if c.Residual > c.BuildCost+1e-9 {
			t.Errorf("%v: residual %.2f exceeds build cost %.2f", c.Index, c.Residual, c.BuildCost)
		}
		if c.Bytes <= 0 {
			t.Errorf("%v: no size", c.Index)
		}
	}
	if len(r.Candidates) > 5 {
		t.Errorf("topK not applied: %d", len(r.Candidates))
	}
	for _, c := range r.Candidates {
		if c.Benefit != c.Evidence-c.BuildCost {
			t.Errorf("%v: benefit arithmetic wrong", c.Index)
		}
	}
	if !strings.Contains(r.String(), "configuration:") {
		t.Error("rendering incomplete")
	}
	if r.TransitionCost <= 0 {
		t.Error("transitions missing after creations")
	}
}
