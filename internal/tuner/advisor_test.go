package tuner

import (
	"strings"
	"testing"

	"onlinetuner/internal/core"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/workload"
)

// runAdvisor drives one advisor over a workload exactly the way the
// race driver does: BeforeStatement, Exec, AfterStatement per statement,
// accumulating estimated cost plus transitions.
func runAdvisor(t *testing.T, a Advisor, w *workload.Workload) (total float64, db *engine.DB) {
	t.Helper()
	db = w.NewDB()
	if err := a.Start(db, w); err != nil {
		t.Fatalf("%s: Start: %v", a.Name(), err)
	}
	for i, stmt := range w.Statements {
		pre, err := a.BeforeStatement(i)
		if err != nil {
			t.Fatalf("%s: BeforeStatement(%d): %v", a.Name(), i, err)
		}
		_, info, err := db.Exec(stmt)
		if err != nil {
			t.Fatalf("%s: Exec(%d) %q: %v", a.Name(), i, stmt, err)
		}
		post, err := a.AfterStatement(i, info)
		if err != nil {
			t.Fatalf("%s: AfterStatement(%d): %v", a.Name(), i, err)
		}
		total += info.EstCost + pre + post
	}
	a.Close()
	return total, db
}

func stableWorkload(statements int) *workload.Workload {
	w, err := workload.BuildScenario("stable", workload.ScenarioOptions{
		Scale: 0.1, Seed: 5, Statements: statements,
	})
	if err != nil {
		panic(err)
	}
	return w
}

func TestRegistry(t *testing.T) {
	names := AdvisorNames()
	if len(names) < 5 {
		t.Fatalf("want ≥5 advisors, got %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate advisor name %q", n)
		}
		seen[n] = true
		a, err := NewAdvisor(strings.ToUpper(n))
		if err != nil {
			t.Fatalf("case-insensitive NewAdvisor(%q): %v", n, err)
		}
		if a.Name() != n {
			t.Fatalf("advisor %q reports name %q", n, a.Name())
		}
	}
	if _, err := NewAdvisor("nope"); err == nil {
		t.Fatal("unknown advisor should error")
	}
}

// TestNoTunerNeverActs: the control's counters stay zero and its
// database keeps zero secondary indexes.
func TestNoTunerNeverActs(t *testing.T) {
	w := stableWorkload(60)
	_, db := runAdvisor(t, &NoTuner{}, w)
	defer db.Close()
	if c := (&NoTuner{}).Counters(); c != (Counters{}) {
		t.Fatalf("NoTuner counters moved: %+v", c)
	}
	if n := len(db.Configuration()); n != 0 {
		t.Fatalf("NoTuner database has %d secondary indexes", n)
	}
}

// TestBanditCreatesUnderRepetition: on a stable repeated-template
// workload the bandit accumulates evidence and creates at least one
// index, beating the untuned total; counters reconcile and the safety
// budget is never violated.
func TestBanditCreatesUnderRepetition(t *testing.T) {
	w := stableWorkload(100)
	base, baseDB := runAdvisor(t, &NoTuner{}, w)
	baseDB.Close()

	b := NewBandit()
	total, db := runAdvisor(t, b, w)
	defer db.Close()
	c := b.Counters()
	if c.IndexesCreated == 0 {
		t.Fatalf("bandit never created an index (counters %+v)", c)
	}
	if c.SafetyViolations != 0 {
		t.Fatalf("bandit violated the safety budget %d times", c.SafetyViolations)
	}
	if c.BuildsStarted != c.BuildsCompleted+c.BuildsAborted+c.BuildsFailed {
		t.Fatalf("builds do not reconcile: %+v", c)
	}
	if total >= base {
		t.Fatalf("bandit total %.1f not better than untuned %.1f", total, base)
	}
}

// TestBanditSafetyGateDefers: with a safety factor barely above 1 the
// headroom never covers a build, so the bandit defers instead of
// creating — and still never records a violation.
func TestBanditSafetyGateDefers(t *testing.T) {
	b := NewBandit()
	b.safety = 1.0001
	w := stableWorkload(60)
	_, db := runAdvisor(t, b, w)
	defer db.Close()
	c := b.Counters()
	if c.IndexesCreated != 0 {
		t.Fatalf("k=1.0001 should starve creation, got %+v", c)
	}
	if c.SafetyDeferrals == 0 {
		t.Fatalf("expected safety deferrals, got %+v", c)
	}
	if c.SafetyViolations != 0 {
		t.Fatalf("safety violations must be zero, got %+v", c)
	}
}

// TestManualDBAOneShot: nothing before the warmup closes, a one-shot
// creation right after, and no further changes ever.
func TestManualDBAOneShot(t *testing.T) {
	m := NewManualDBA()
	w := stableWorkload(60)
	db := w.NewDB()
	defer db.Close()
	if err := m.Start(db, w); err != nil {
		t.Fatal(err)
	}
	for i, stmt := range w.Statements {
		pre, err := m.BeforeStatement(i)
		if err != nil {
			t.Fatal(err)
		}
		if i < manualWarmup && pre != 0 {
			t.Fatalf("manual DBA acted at statement %d, inside warmup", i)
		}
		if i == manualWarmup && pre == 0 {
			t.Fatalf("manual DBA failed to act when the warmup closed")
		}
		if i > manualWarmup && pre != 0 {
			t.Fatalf("manual DBA acted twice (statement %d)", i)
		}
		_, info, err := db.Exec(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.AfterStatement(i, info); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Counters()
	if c.IndexesCreated == 0 || int(c.IndexesCreated) > manualTopK {
		t.Fatalf("manual DBA created %d indexes, want 1..%d", c.IndexesCreated, manualTopK)
	}
	if c.BuildsStarted != c.BuildsCompleted+c.BuildsAborted+c.BuildsFailed {
		t.Fatalf("builds do not reconcile: %+v", c)
	}
}

// TestOmniscientRuns: the offline wrap profiles, schedules, transitions,
// and reconciles; with full foresight on a stable workload it must not
// lose to the untuned control.
func TestOmniscientRuns(t *testing.T) {
	w := stableWorkload(80)
	base, baseDB := runAdvisor(t, &NoTuner{}, w)
	baseDB.Close()

	o := NewOmniscient(0)
	total, db := runAdvisor(t, o, w)
	defer db.Close()
	c := o.Counters()
	if c.BuildsStarted != c.BuildsCompleted+c.BuildsAborted+c.BuildsFailed {
		t.Fatalf("builds do not reconcile: %+v", c)
	}
	if total > base {
		t.Fatalf("omniscient total %.1f worse than untuned %.1f", total, base)
	}
}

// TestOnlinePTWrapper: the wrapper's counters come straight off the core
// tuner and reconcile under the synchronous default options.
func TestOnlinePTWrapper(t *testing.T) {
	o := NewOnlinePT(core.DefaultOptions())
	w := stableWorkload(80)
	_, db := runAdvisor(t, o, w)
	defer db.Close()
	c := o.Counters()
	if c.BuildsStarted != c.BuildsCompleted+c.BuildsAborted+c.BuildsFailed {
		t.Fatalf("builds do not reconcile: %+v", c)
	}
	if c.IndexesCreated == 0 {
		t.Fatalf("OnlinePT never created an index on the stable workload: %+v", c)
	}
}

// TestConstructorDefaultsAndAccessors covers the constructors' starting
// state, the idle-state accessors, and the small pure helpers that
// the race driver relies on but a full race never exercises directly.
func TestConstructorDefaultsAndAccessors(t *testing.T) {
	b := NewBandit()
	if b.safety != banditSafetyFactor {
		t.Fatalf("bandit got safety factor %.2f, want %.2f", b.safety, banditSafetyFactor)
	}
	b.arms["b"] = &arm{}
	b.arms["a"] = &arm{}
	b.order = append(b.order, "b", "a")
	if ids := b.sortedArmIDs(); len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("sortedArmIDs = %v, want [a b]", ids)
	}
	b.Close()

	m := NewManualDBA()
	m.Close()

	var nt NoTuner
	nt.Close()
	if c := nt.Counters(); c != (Counters{}) {
		t.Fatalf("NoTuner counters not zero: %+v", c)
	}

	// Unstarted OnlinePT: every accessor must degrade to zero values
	// rather than dereferencing a nil tuner.
	o := NewOnlinePT(core.DefaultOptions())
	o.Close()
	if d := o.Decisions(); d != nil {
		t.Fatalf("unstarted OnlinePT has decisions: %v", d)
	}
	if m := o.Metrics(); m.TransitionCost != 0 {
		t.Fatalf("unstarted OnlinePT has metrics: %+v", m)
	}
	if c := o.Counters(); c != (Counters{}) {
		t.Fatalf("unstarted OnlinePT counters not zero: %+v", c)
	}

	om := NewOmniscient(0)
	om.Close()
	if got := removeString([]string{"a", "b", "a", "c"}, "a"); len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("removeString = %v, want [b c]", got)
	}
	if got := removeString(nil, "x"); len(got) != 0 {
		t.Fatalf("removeString(nil) = %v, want empty", got)
	}

	if _, err := NewAdvisor("no-such-advisor"); err == nil {
		t.Fatal("NewAdvisor accepted an unknown name")
	}
}

// TestOnlinePTAccessorsAfterRun: the started wrapper exposes the core
// tuner's decision log and metrics for the differential test.
func TestOnlinePTAccessorsAfterRun(t *testing.T) {
	o := NewOnlinePT(core.DefaultOptions())
	w := stableWorkload(60)
	_, db := runAdvisor(t, o, w)
	defer db.Close()
	if len(o.Decisions()) == 0 {
		t.Fatal("started OnlinePT produced no decisions on the stable workload")
	}
	if o.Metrics().Queries == 0 {
		t.Fatal("started OnlinePT metrics saw no queries")
	}
}

// TestBanditRegressionDrop forces the regression path: after the bandit
// creates an index on the stable workload, we poison the arm's realized
// net so the next observation drops the index, doubles the back-off,
// and resets the evidence.
func TestBanditRegressionDrop(t *testing.T) {
	b := NewBandit()
	w := stableWorkload(80)
	_, db := runAdvisor(t, b, w)
	defer db.Close()
	if b.counters.IndexesCreated == 0 {
		t.Fatal("bandit never created on the stable workload")
	}
	var live *arm
	for _, id := range b.sortedArmIDs() {
		if a := b.arms[id]; a.live != nil {
			live = a
			break
		}
	}
	if live == nil {
		t.Fatal("no live arm despite a creation")
	}
	before := len(db.Configuration())
	oldBackoff := live.backoff
	live.sinceCreate = -1e12 // far below -DropFraction×buildCost
	live.createdAt = -banditGrace - 1

	dropped := b.counters.IndexesDropped
	b.applyRegressionDrops(1_000_000, nil, db.Configuration())

	if b.counters.IndexesDropped != dropped+1 {
		t.Fatalf("drop not counted: %d -> %d", dropped, b.counters.IndexesDropped)
	}
	if live.live != nil {
		t.Fatal("arm still marked live after regression drop")
	}
	if live.backoff != oldBackoff*2 {
		t.Fatalf("backoff %v, want doubled %v", live.backoff, oldBackoff*2)
	}
	if live.plays != 0 || live.net != 0 || live.sinceCreate != 0 {
		t.Fatalf("evidence not reset: %+v", live)
	}
	if got := len(db.Configuration()); got != before-1 {
		t.Fatalf("index not dropped from db: %d -> %d indexes", before, got)
	}
}
