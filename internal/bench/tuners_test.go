package bench

import (
	"bytes"
	"strings"
	"testing"

	"onlinetuner/internal/tuner"
)

func runSmokeRace() (*TunersReport, error) {
	return RunTuners(TunersConfig{
		Scale:      0.1,
		Statements: 60,
		Seeds:      []int64{1, 2},
		Scenarios:  []string{"stable", "storm"},
	})
}

// smokeRace is one smoke race shared by the tests that only read it.
var smokeRace = sharedResult(runSmokeRace)

// TestTunersInvariants runs a small race across all advisors and checks
// every harness property the CI guard relies on, both through Verify
// and cell by cell.
func TestTunersInvariants(t *testing.T) {
	t.Parallel()
	rep := smokeRace(t)
	if err := rep.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Advisors) < 4 {
		t.Fatalf("race field too small: %v", rep.Advisors)
	}
	for _, c := range rep.Cells {
		if c.Regret < 0 {
			t.Errorf("%s/%s/%d: negative regret %.3f", c.Scenario, c.Advisor, c.Seed, c.Regret)
		}
		ct := c.Counters
		if ct.BuildsStarted != ct.BuildsCompleted+ct.BuildsAborted+ct.BuildsFailed {
			t.Errorf("%s/%s/%d: builds do not reconcile: %+v", c.Scenario, c.Advisor, c.Seed, ct)
		}
		if ct.SafetyViolations != 0 {
			t.Errorf("%s/%s/%d: %d safety violations", c.Scenario, c.Advisor, c.Seed, ct.SafetyViolations)
		}
		if c.Advisor == "NoTuner" && (ct.IndexesCreated != 0 || len(c.FinalIndexes) != 0) {
			t.Errorf("NoTuner acted in %s/%d: %+v %v", c.Scenario, c.Seed, ct, c.FinalIndexes)
		}
	}
}

// TestTunersDeterminism: two independent races with identical
// configuration must serialize byte-identically — the property the CI
// smoke job enforces with a rerun + cmp.
func TestTunersDeterminism(t *testing.T) {
	t.Parallel()
	a, err := smokeRace(t).JSON()
	if err != nil {
		t.Fatal(err)
	}
	second, err := runSmokeRace()
	if err != nil {
		t.Fatal(err)
	}
	b, err := second.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical races serialized differently:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestVerifyCatchesTampering: Verify must reject each class of
// corruption the honesty guard exists to catch.
func TestVerifyCatchesTampering(t *testing.T) {
	t.Parallel()
	fresh := smokeRace(t)

	tamper := []struct {
		name string
		mut  func(r *TunersReport)
	}{
		{"negative regret", func(r *TunersReport) { r.Cells[1].Regret = -1 }},
		{"no zero-regret cell", func(r *TunersReport) {
			for i := range r.Cells {
				r.Cells[i].Regret += 5
			}
		}},
		{"total mismatch", func(r *TunersReport) { r.Cells[0].TotalCost += 100 }},
		{"counter mismatch", func(r *TunersReport) { r.Cells[0].Counters.BuildsStarted += 1 }},
		{"safety violation", func(r *TunersReport) { r.Cells[0].Counters.SafetyViolations = 1 }},
		{"noTuner acted", func(r *TunersReport) {
			for i := range r.Cells {
				if r.Cells[i].Advisor == "NoTuner" {
					r.Cells[i].Counters = tuner.Counters{IndexesCreated: 1, BuildsStarted: 1, BuildsCompleted: 1}
					break
				}
			}
		}},
		{"missing cell", func(r *TunersReport) { r.Cells = r.Cells[:len(r.Cells)-1] }},
		{"shuffled cells", func(r *TunersReport) { r.Cells[0], r.Cells[1] = r.Cells[1], r.Cells[0] }},
		{"empty axes", func(r *TunersReport) { r.Seeds = nil }},
	}
	for _, tc := range tamper {
		t.Run(tc.name, func(t *testing.T) {
			js, err := fresh.JSON()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := VerifyTunersJSON(js)
			if err != nil {
				t.Fatalf("pristine report failed verification: %v", err)
			}
			tc.mut(rep)
			if err := rep.Verify(); err == nil {
				t.Fatalf("tampered report (%s) passed verification", tc.name)
			}
		})
	}
}

// TestVerifyTunersJSONRejectsGarbage covers the parse error path.
func TestVerifyTunersJSONRejectsGarbage(t *testing.T) {
	if _, err := VerifyTunersJSON([]byte("{not json")); err == nil {
		t.Fatal("garbage JSON should fail")
	}
	if _, err := VerifyTunersJSON([]byte("{}")); err == nil {
		t.Fatal("empty report should fail")
	}
}

// syntheticTunersReport fabricates a tiny report with known numbers so
// the formatter and the expectation checks can be exercised without
// running a race.
func syntheticTunersReport() *TunersReport {
	cell := func(sc, adv string, total, regret float64) TunerCell {
		return TunerCell{Scenario: sc, Advisor: adv, Seed: 1, Statements: 10,
			QueryCost: total, TotalCost: total, Regret: regret}
	}
	return &TunersReport{
		Name:      "tuner_race",
		Scale:     0.1,
		Seeds:     []int64{1},
		Advisors:  []string{"NoTuner", "OnlinePT", "ManualDBA"},
		Scenarios: []string{"drift", "tenants", "storm"},
		Cells: []TunerCell{
			cell("drift", "NoTuner", 100, 50), cell("drift", "OnlinePT", 50, 0), cell("drift", "ManualDBA", 80, 30),
			cell("tenants", "NoTuner", 100, 40), cell("tenants", "OnlinePT", 60, 0), cell("tenants", "ManualDBA", 90, 30),
			cell("storm", "NoTuner", 100, 0), cell("storm", "OnlinePT", 120, 20), cell("storm", "ManualDBA", 300, 200),
		},
		Summaries: []ScenarioSummary{
			{Scenario: "drift", Winner: "OnlinePT", OnlineOverNoTuner: 0.5,
				MeanTotal: map[string]float64{"NoTuner": 100, "OnlinePT": 50, "ManualDBA": 80}},
			{Scenario: "tenants", Winner: "OnlinePT", OnlineOverNoTuner: 0.6,
				MeanTotal: map[string]float64{"NoTuner": 100, "OnlinePT": 60, "ManualDBA": 90}},
			{Scenario: "storm", Winner: "NoTuner", OnlineOverNoTuner: 1.2,
				MeanTotal: map[string]float64{"NoTuner": 100, "OnlinePT": 120, "ManualDBA": 300}},
		},
	}
}

// TestFormatTuners: the human-readable rendering names every scenario,
// winner, and advisor mean.
func TestFormatTuners(t *testing.T) {
	out := FormatTuners(syntheticTunersReport())
	for _, want := range []string{
		"3 scenarios × 3 advisors × 1 seeds",
		"drift", "tenants", "storm",
		"winner=OnlinePT", "winner=NoTuner",
		"online/notuner=0.50", "online/notuner=1.20",
		"ManualDBA", "mean_regret",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted report missing %q:\n%s", want, out)
		}
	}
}

// TestCheckExpectations covers the pass path and both failure branches
// of the headline-outcome guard.
func TestCheckExpectations(t *testing.T) {
	rep := syntheticTunersReport()
	if err := rep.CheckExpectations(); err != nil {
		t.Fatalf("expectations failed on the good report: %v", err)
	}

	bad := syntheticTunersReport()
	bad.Summaries[0].MeanTotal["OnlinePT"] = 200 // drift: online loses
	err := bad.CheckExpectations()
	if err == nil || !strings.Contains(err.Error(), "drift") {
		t.Fatalf("drift regression not caught: %v", err)
	}

	bad = syntheticTunersReport()
	bad.Summaries[2].MeanTotal["ManualDBA"] = 10 // storm: eager creation wins?!
	err = bad.CheckExpectations()
	if err == nil || !strings.Contains(err.Error(), "storm") {
		t.Fatalf("storm inversion not caught: %v", err)
	}

	// A report without the named scenarios has nothing to check.
	empty := &TunersReport{}
	if err := empty.CheckExpectations(); err != nil {
		t.Fatalf("empty report should pass vacuously: %v", err)
	}
}
