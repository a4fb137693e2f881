package bench

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"onlinetuner/internal/core"
	"onlinetuner/internal/tuner"
	"onlinetuner/internal/workload"
)

// sharedResult returns a getter that computes f once, on first use, for
// every test that reads the result; the tests must not mutate it.
func sharedResult[T any](f func() (T, error)) func(t *testing.T) T {
	var once sync.Once
	var v T
	var err error
	return func(t *testing.T) T {
		t.Helper()
		once.Do(func() { v, err = f() })
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// smallTPCH keeps harness tests fast.
func smallTPCH() workload.TPCHOptions {
	o := workload.DefaultTPCH()
	o.Scale = 0.2
	o.NumBatches = 8
	return o
}

func TestRunOnlineProducesSchedule(t *testing.T) {
	w := workload.W1()
	r, err := Replay(w, tuner.NewOnlinePT(core.DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerStatement) != len(w.Statements) {
		t.Fatalf("per-statement entries = %d", len(r.PerStatement))
	}
	if r.Total <= 0 {
		t.Error("no total cost")
	}
	if len(r.Events) == 0 {
		t.Error("no physical changes on W1")
	}
	s := scheduleString(r)
	if !strings.Contains(s, "C(") {
		t.Errorf("schedule missing creation: %s", s)
	}
	// The schedule must contain an E(...) run with a per-query cost.
	if !strings.Contains(s, "E(q1)") {
		t.Errorf("schedule missing runs: %s", s)
	}
}

func TestRunNoTuningBaseline(t *testing.T) {
	w := workload.W1()
	nt, err := Replay(w, &tuner.NoTuner{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Replay(w, tuner.NewOnlinePT(core.DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if on.Total >= nt.Total {
		t.Errorf("online (%g) should beat no tuning (%g) on W1", on.Total, nt.Total)
	}
}

func TestRunOfflineSetAndSeq(t *testing.T) {
	w := workload.W1()
	set, err := Replay(w, tuner.NewOfflineSet(12))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Replay(w, tuner.NewOmniscient(12))
	if err != nil {
		t.Fatal(err)
	}
	if len(set.FinalConfig) == 0 {
		t.Error("offline-set created nothing")
	}
	// Sequence-based knows the future: on W1's phased workload it must
	// beat the set-based advisor.
	if seq.Total > set.Total {
		t.Errorf("seq (%g) worse than set (%g) on phased W1", seq.Total, set.Total)
	}
}

// TestPaperOrderingSimple checks the Figure 8 ordering on the simple
// workloads — Offline-Seq ≤ OnlinePT ≤ NoTuning (with small tolerance
// for the seq approximation) — and pins all four techniques' totals,
// which are independent of the TPC-H scale.
func TestPaperOrderingSimple(t *testing.T) {
	t.Parallel()
	want := map[string][4]string{ // OnlinePT, Offline-Set, Offline-Seq, NoTuning
		"W1 (250 q1; 250 q2, one-index budget)":           {"8364.21", "14861.58", "6739.70", "23053.00"},
		"W2 (250 interleaved q1;q2, one-index budget)":    {"15387.26", "14861.58", "14861.58", "23053.00"},
		"W2 (250 interleaved q1;q2, merged-index budget)": {"7589.75", "6640.83", "6640.83", "23053.00"},
		"W2 (250 interleaved q1;q2, roomy budget)":        {"8177.57", "6640.83", "6640.83", "23053.00"},
		"W3 (100 q1; 100 q3 inserts)":                     {"27811.26", "29034.60", "26059.13", "29034.60"},
	}
	seen := 0
	for _, r := range smallFigure8(t) {
		if strings.HasPrefix(r.Workload, "TPC-H") {
			continue
		}
		seen++
		on, seq, nt := r.Totals["OnlinePT"], r.Totals["Offline-Seq"], r.Totals["NoTuning"]
		if seq > on*1.05 {
			t.Errorf("%s: seq (%g) should not lose to online (%g)", r.Workload, seq, on)
		}
		if on > nt {
			t.Errorf("%s: online (%g) worse than no tuning (%g)", r.Workload, on, nt)
		}
		for i, tech := range []string{"OnlinePT", "Offline-Set", "Offline-Seq", "NoTuning"} {
			if got := fmt.Sprintf("%.2f", r.Totals[tech]); got != want[r.Workload][i] {
				t.Errorf("%s: %s total %s, want %s", r.Workload, tech, got, want[r.Workload][i])
			}
		}
	}
	if seen != len(want) {
		t.Errorf("simple workloads = %d, want %d", seen, len(want))
	}
}

func TestFigure7aShape(t *testing.T) {
	w, series, on, err := Figure7a(smallTPCH())
	if err != nil {
		t.Fatal(err)
	}
	pb := series[0].PerBatch
	if len(pb) != 8 {
		t.Fatalf("batches = %d", len(pb))
	}
	// Cost must decrease from the first to the last batch (learning).
	if pb[len(pb)-1] >= pb[0] {
		t.Errorf("per-batch cost did not decrease: first %g last %g", pb[0], pb[len(pb)-1])
	}
	if len(on.Events) == 0 {
		t.Error("no tuning activity")
	}
	_ = w
}

func TestFigure7dDisruptionShape(t *testing.T) {
	t.Parallel()
	o := smallTPCH()
	o.NumBatches = 10
	o.DisruptCount = 24
	w, series, err := Figure7d(o)
	if err != nil {
		t.Fatal(err)
	}
	// The disrupted workload has one extra batch (the updates).
	if len(series[0].PerBatch) != 11 {
		t.Fatalf("batches = %d, want 11", len(series[0].PerBatch))
	}
	// OnlinePT and Offline-Seq must beat Offline-Set on the update batch
	// region or overall: the set advisor cannot adapt (the paper's
	// Figure 7(d) claim is about the overall cost).
	var on, set, seq = series[0], series[1], series[2]
	if on.Name != "OnlinePT" || set.Name != "Offline-Set" || seq.Name != "Offline-Seq" {
		t.Fatalf("series order: %v %v %v", on.Name, set.Name, seq.Name)
	}
	// At this miniature scale the seq/set gap is small; the full-scale
	// comparison is EXPERIMENTS.md's job. Here: seq must not LOSE to set
	// beyond noise.
	if seq.Total() > set.Total()*1.05 {
		t.Errorf("offline-seq (%g) should not lose to offline-set (%g) with disruptive updates",
			seq.Total(), set.Total())
	}
	_ = w
}

// smallFigure8 computes Figure 8 at test scale once for the tests that
// read it; its simple-workload rows are scale-independent.
var smallFigure8 = sharedResult(func() ([]Figure8Row, error) {
	o := smallTPCH()
	o.NumBatches = 4
	o.DisruptCount = 16
	return Figure8(o)
})

func TestFigure8Rows(t *testing.T) {
	t.Parallel()
	rows := smallFigure8(t)
	if len(rows) != 7 { // TPC-H, TPC-H+updates, five simple workloads
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, tech := range []string{"OnlinePT", "Offline-Set", "Offline-Seq", "NoTuning"} {
			if r.Totals[tech] <= 0 {
				t.Errorf("%s: missing %s", r.Workload, tech)
			}
		}
		// On workloads too short to amortize index creations, OnlinePT
		// can lose to NoTuning, but Theorem 2 bounds the loss at 3× the
		// optimum (≤ NoTuning here); the long simple workloads must be
		// strict wins (TestPaperOrderingSimple).
		if r.Totals["OnlinePT"] > r.Totals["NoTuning"]*3 {
			t.Errorf("%s: OnlinePT (%g) breaks the competitive bound vs NoTuning (%g)",
				r.Workload, r.Totals["OnlinePT"], r.Totals["NoTuning"])
		}
	}
	out := FormatFigure8(rows)
	if !strings.Contains(out, "OnlinePT") || !strings.Contains(out, "TPC-H") {
		t.Error("format missing columns")
	}
}

// TestFigure9Overhead checks the overhead table's shape on one replay of
// each workload; `experiments fig9` takes the median of figure9Reps.
func TestFigure9Overhead(t *testing.T) {
	data, err := figure9(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 2 {
		t.Fatalf("workloads = %d", len(data))
	}
	for name, rows := range data {
		if len(rows) != 5 {
			t.Fatalf("%s: rows = %d", name, len(rows))
		}
		var total, l1, l28, l918, l18 OverheadRow
		for _, r := range rows {
			switch r.Module {
			case "Total":
				total = r
			case "Line 1":
				l1 = r
			case "Lines 2-8":
				l28 = r
			case "Lines 9-18":
				l918 = r
			case "Line 18":
				l18 = r
			}
		}
		// Structural sanity: merging is a subset of the analysis phase,
		// and the total dominates each part.
		if l18.Duration > l918.Duration {
			t.Errorf("%s: line 18 (%v) exceeds lines 9-18 (%v)", name, l18.Duration, l918.Duration)
		}
		for _, part := range []OverheadRow{l1, l28, l918} {
			if total.Duration < part.Duration {
				t.Errorf("%s: total (%v) below part %s (%v)", name, total.Duration, part.Module, part.Duration)
			}
		}
		// The paper's headline claim: tuner overhead is a small fraction
		// of query processing. Our queries run ~1000× faster than a real
		// server's, so the bar here is generous; EXPERIMENTS.md records
		// the measured numbers.
		bound := 0.6
		if raceDetectorEnabled {
			bound = 2.0
		}
		if total.Fraction > bound {
			t.Errorf("%s: overhead fraction %.2f too large", name, total.Fraction)
		}
	}
	out := FormatFigure9(data)
	if !strings.Contains(out, "Line 18") {
		t.Error("format missing merge row")
	}
}

func TestChartRendering(t *testing.T) {
	s := Chart("test", []Series{
		{Name: "a", PerBatch: []float64{1, 2, 3}},
		{Name: "b", PerBatch: []float64{3, 2}},
	})
	if !strings.Contains(s, "total") || !strings.Contains(s, "batch") {
		t.Errorf("chart malformed:\n%s", s)
	}
}

func TestCollapsePairs(t *testing.T) {
	in := []string{"1E(q1)[1.00]", "1E(q2)[2.00]", "1E(q1)[1.00]", "1E(q2)[2.00]", "C(X)[5]"}
	out := collapsePairs(in)
	if len(out) != 2 || out[0] != "2E(q1;q2)[1.00;2.00]" {
		t.Errorf("collapsed = %v", out)
	}
	// Non-collapsible input passes through.
	in2 := []string{"3E(q1)[1.00]", "C(X)[5]"}
	if got := collapsePairs(in2); len(got) != 2 {
		t.Errorf("pass-through = %v", got)
	}
}

func TestTable1Smoke(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("table 1 runs all five simple workloads")
	}
	s, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"W1", "W2", "W3", "Cost_online", "Cost_opt", "C("} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
	// Cost_opt is Offline-Seq with 16 candidates, not Figure 8's 24.
	for _, pair := range [][2]float64{
		{8364.21, 6739.70},
		{15387.26, 14861.58},
		{7589.75, 6640.83},
		{8177.57, 6640.83},
		{27811.26, 26059.13},
	} {
		want := fmt.Sprintf("Cost_online=%9.2f  [Cost_opt=%9.2f]", pair[0], pair[1])
		if !strings.Contains(s, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

func TestAblationRuns(t *testing.T) {
	o := smallTPCH()
	o.NumBatches = 2
	rows, err := Ablation([]*workload.Workload{workload.TPCH(o)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("variants = %d, want 7", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		if r.Total <= 0 {
			t.Errorf("%s: no cost", r.Variant)
		}
		byName[r.Variant] = r
	}
	if _, ok := byName["default"]; !ok {
		t.Error("default variant missing")
	}
	out := FormatAblation(rows)
	if !strings.Contains(out, "no-damping") || !strings.Contains(out, "physical changes") {
		t.Error("format incomplete")
	}
}

// TestAblationSuite pins the ablation's workload suite: four
// workloads, none of them empty.
func TestAblationSuite(t *testing.T) {
	ws := AblationWorkloads(workload.TPCHOptions{Scale: 0.1, NumBatches: 100})
	if len(ws) != 4 {
		t.Fatalf("ablation suite has %d workloads, want 4", len(ws))
	}
	for _, w := range ws {
		if len(w.Statements) == 0 {
			t.Errorf("ablation workload %q is empty", w.Name)
		}
	}
}

// TestAblationTableColumns pins the ablation's scale-independent
// columns — W2 under both budgets and W3, every variant — to the totals
// and change counts EXPERIMENTS.md prints. The no-damping row carries
// the headline claim: without damping the one-index W2 thrashes (19
// changes instead of 3) and costs more. The async-builds and
// suspend-mode rows run the tuner's background-build, suspend and
// restart paths end to end.
func TestAblationTableColumns(t *testing.T) {
	t.Parallel()
	want := map[string][3]string{
		"default":      {"15387.26 (3)", "7589.75 (3)", "27811.26 (4)"},
		"no-merging":   {"15387.26 (3)", "15387.26 (3)", "27811.26 (4)"},
		"no-damping":   {"19505.42 (19)", "11375.71 (15)", "27811.26 (4)"},
		"no-cooldown":  {"15387.26 (3)", "7640.47 (3)", "27811.26 (4)"},
		"throttle-10":  {"15473.04 (3)", "15473.04 (3)", "28948.32 (4)"},
		"async-builds": {"15578.13 (3)", "8080.71 (3)", "28129.62 (4)"},
		"suspend-mode": {"22918.00 (3)", "22986.00 (3)", "27811.26 (4)"},
	}
	ws := AblationWorkloads(workload.TPCHOptions{Scale: 0.01, NumBatches: 1})[:3]
	rows, err := Ablation(ws)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][3]string{}
	for i, r := range rows {
		cells := got[r.Variant]
		cells[i/len(ablationVariants())] = fmt.Sprintf("%.2f (%d)", r.Total, r.Changes)
		got[r.Variant] = cells
	}
	for variant, w := range want {
		for c, col := range []string{"W2 one-index", "W2 merged", "W3"} {
			if got[variant][c] != w[c] {
				t.Errorf("%s on %s: %s, want %s", variant, col, got[variant][c], w[c])
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("variants = %d, want %d", len(got), len(want))
	}
}

func TestCompetitiveSweep(t *testing.T) {
	adversarial, random, err := Competitive(50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(adversarial) != 5 || len(random) != 1 {
		t.Fatalf("rows = %d/%d", len(adversarial), len(random))
	}
	// Ratios increase toward (but never reach) 3 as ε shrinks.
	prev := 0.0
	for _, r := range adversarial {
		if r.Ratio() >= 3 {
			t.Errorf("%s: ratio %.4f breaks Theorem 2", r.Label, r.Ratio())
		}
		if r.Ratio() < prev {
			t.Errorf("%s: ratio not monotone in ε", r.Label)
		}
		prev = r.Ratio()
	}
	if last := adversarial[len(adversarial)-1].Ratio(); last < 2.9 {
		t.Errorf("adversarial limit ratio %.4f should approach 3", last)
	}
	if random[0].Ratio() >= 3 {
		t.Errorf("random worst ratio %.4f breaks the bound", random[0].Ratio())
	}
	if !strings.Contains(FormatCompetitive(adversarial, random), "Theorem 2") {
		t.Error("format incomplete")
	}
}

// TestStabilization is the Figure 7(a) property at moderate scale: the
// tuner's activity and per-batch cost both settle — the last third of
// the run has fewer physical changes than the first third, and its mean
// batch cost is below the first third's.
func TestStabilization(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("moderate-scale soak")
	}
	o := workload.DefaultTPCH()
	o.Scale = 0.35
	// 45 batches: the subquery shapes in Q4/Q18/Q22 add inner-side index
	// candidates, and the tuner needs a longer window than the original 30
	// batches to finish shaking out the wider candidate space (it does
	// converge — by batch 45 the last third is near-quiescent).
	o.NumBatches = 45
	w := workload.TPCH(o)
	on, err := Replay(w, tuner.NewOnlinePT(core.DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	pb := w.Batches(on.PerStatement)
	third := len(pb) / 3
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	early, late := mean(pb[:third]), mean(pb[len(pb)-third:])
	if late >= early {
		t.Errorf("per-batch cost did not settle: early %.1f, late %.1f", early, late)
	}
	boundary := int64(len(w.Statements) / 3)
	earlyChanges, lateChanges := 0, 0
	for _, ev := range on.Events {
		if ev.Kind == core.EvBuildStart {
			continue
		}
		if ev.AtQuery <= boundary {
			earlyChanges++
		}
		if ev.AtQuery > 2*boundary {
			lateChanges++
		}
	}
	if lateChanges > earlyChanges {
		t.Errorf("activity did not settle: %d early vs %d late changes", earlyChanges, lateChanges)
	}
}

// TestOnlineRunsAreDeterministic: identical workloads and options must
// produce byte-identical schedules — the property that makes every
// number in EXPERIMENTS.md reproducible.
func TestOnlineRunsAreDeterministic(t *testing.T) {
	o := smallTPCH()
	o.NumBatches = 5
	run := func() ([]core.Event, float64) {
		r, err := Replay(workload.TPCH(o), tuner.NewOnlinePT(core.DefaultOptions()))
		if err != nil {
			t.Fatal(err)
		}
		return r.Events, r.Total
	}
	ev1, t1 := run()
	ev2, t2 := run()
	if t1 != t2 {
		t.Fatalf("totals differ: %v vs %v", t1, t2)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i].String() != ev2[i].String() || ev1[i].AtQuery != ev2[i].AtQuery {
			t.Fatalf("event %d differs: %v vs %v", i, ev1[i], ev2[i])
		}
	}
}
