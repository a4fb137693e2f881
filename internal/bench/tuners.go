package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"onlinetuner/internal/tpch"
	"onlinetuner/internal/tuner"
	"onlinetuner/internal/workload"
)

// TunerCell is one (scenario, advisor, seed) race outcome. Every value
// derives from estimated costs and advisor counters — no wall clock —
// so a cell is byte-reproducible from its coordinates.
type TunerCell struct {
	Scenario   string `json:"scenario"`
	Advisor    string `json:"advisor"`
	Seed       int64  `json:"seed"`
	Statements int    `json:"statements"`
	// QueryCost is Σ estimated execution cost; TransitionCost is Σ index
	// build work the advisor charged; TotalCost is their sum.
	QueryCost      float64 `json:"query_cost"`
	TransitionCost float64 `json:"transition_cost"`
	TotalCost      float64 `json:"total_cost"`
	// Regret is TotalCost minus the best TotalCost achieved by any
	// advisor in the same (scenario, seed) cell group — nonnegative by
	// construction. The omniscient Offline-Seq baseline is normally the
	// argmin, but the definition deliberately takes the realized minimum:
	// the offline advisor plans against profile-time costs, and if
	// another schedule edges it out under replay costs, regret stays
	// honest instead of going negative.
	Regret       float64        `json:"regret"`
	Counters     tuner.Counters `json:"counters"`
	FinalIndexes []string       `json:"final_indexes"`
}

// ScenarioSummary aggregates one scenario across seeds.
type ScenarioSummary struct {
	Scenario string `json:"scenario"`
	// Winner is the advisor with the lowest mean total.
	Winner string `json:"winner"`
	// MeanTotal maps advisor → mean TotalCost across seeds.
	MeanTotal map[string]float64 `json:"mean_total"`
	// OnlineOverNoTuner is mean(OnlinePT)/mean(NoTuner) — below 1 means
	// the online tuner beat doing nothing.
	OnlineOverNoTuner float64 `json:"online_over_notuner"`
}

// TunersReport is the BENCH_tuners.json artifact.
type TunersReport struct {
	Name      string            `json:"name"`
	Scale     float64           `json:"scale"`
	Seeds     []int64           `json:"seeds"`
	Advisors  []string          `json:"advisors"`
	Scenarios []string          `json:"scenarios"`
	Cells     []TunerCell       `json:"cells"`
	Summaries []ScenarioSummary `json:"summaries"`
}

// TunersConfig parameterizes a race.
type TunersConfig struct {
	Scale tpch.Scale
	// Statements caps each scenario's stream (0 = scenario default).
	Statements int
	Seeds      []int64
	// Advisors/Scenarios restrict the matrix (nil = full canonical sets).
	Advisors  []string
	Scenarios []string
	// Log, if set, receives per-cell progress lines.
	Log io.Writer
}

// RunTuners races every (scenario, advisor, seed) cell on identical
// statement streams and assembles the regret report. Cells run in
// canonical order: scenarios in registry order, seeds ascending,
// advisors in registry order.
func RunTuners(cfg TunersConfig) (*TunersReport, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.25
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{1, 2}
	}
	scenarios := cfg.Scenarios
	if len(scenarios) == 0 {
		scenarios = workload.ScenarioNames()
	}
	advisors := cfg.Advisors
	if len(advisors) == 0 {
		advisors = tuner.AdvisorNames()
	}
	seeds := append([]int64{}, cfg.Seeds...)
	sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })

	rep := &TunersReport{
		Name:      "tuner_race",
		Scale:     float64(cfg.Scale),
		Seeds:     seeds,
		Advisors:  advisors,
		Scenarios: scenarios,
	}
	for _, sc := range scenarios {
		for _, seed := range seeds {
			group := make([]*TunerCell, 0, len(advisors))
			for _, adv := range advisors {
				cell, err := runTunerCell(adv, sc, workload.ScenarioOptions{
					Scale:      cfg.Scale,
					Seed:       seed,
					Statements: cfg.Statements,
				})
				if err != nil {
					return nil, fmt.Errorf("bench: tuners %s/%s/seed=%d: %w", sc, adv, seed, err)
				}
				if cfg.Log != nil {
					fmt.Fprintf(cfg.Log, "  %-8s %-11s seed=%d total=%.1f (query %.1f + transition %.1f) created=%d dropped=%d\n",
						sc, adv, seed, cell.TotalCost, cell.QueryCost, cell.TransitionCost,
						cell.Counters.IndexesCreated, cell.Counters.IndexesDropped)
				}
				group = append(group, cell)
			}
			// Regret is anchored to the group's realized minimum.
			best := math.Inf(1)
			for _, c := range group {
				if c.TotalCost < best {
					best = c.TotalCost
				}
			}
			for _, c := range group {
				c.Regret = round3(c.TotalCost - best)
				rep.Cells = append(rep.Cells, *c)
			}
		}
	}
	rep.Summaries = summarize(rep)
	return rep, nil
}

// runTunerCell races one advisor over one scenario instance.
func runTunerCell(advisorName, scenarioName string, o workload.ScenarioOptions) (*TunerCell, error) {
	w, err := workload.BuildScenario(scenarioName, o)
	if err != nil {
		return nil, err
	}
	a, err := tuner.NewAdvisor(advisorName)
	if err != nil {
		return nil, err
	}
	r, err := Replay(w, a)
	if err != nil {
		return nil, err
	}
	return &TunerCell{
		Scenario:       scenarioName,
		Advisor:        r.Technique,
		Seed:           o.Seed,
		Statements:     len(w.Statements),
		QueryCost:      round3(r.Query),
		TransitionCost: round3(r.Transition),
		TotalCost:      round3(r.Query + r.Transition),
		Counters:       r.Counters,
		FinalIndexes:   r.FinalConfig,
	}, nil
}

// summarize computes per-scenario means and winners.
func summarize(rep *TunersReport) []ScenarioSummary {
	var out []ScenarioSummary
	for _, sc := range rep.Scenarios {
		sum := ScenarioSummary{Scenario: sc, MeanTotal: map[string]float64{}}
		counts := map[string]int{}
		for _, c := range rep.Cells {
			if c.Scenario != sc {
				continue
			}
			sum.MeanTotal[c.Advisor] += c.TotalCost
			counts[c.Advisor]++
		}
		for adv, n := range counts {
			sum.MeanTotal[adv] = round3(sum.MeanTotal[adv] / float64(n))
		}
		best := math.Inf(1)
		for _, adv := range rep.Advisors {
			if m, ok := sum.MeanTotal[adv]; ok && m < best {
				best, sum.Winner = m, adv
			}
		}
		on, onOK := sum.MeanTotal["OnlinePT"]
		no, noOK := sum.MeanTotal["NoTuner"]
		if onOK && noOK && no > 0 {
			sum.OnlineOverNoTuner = round3(on / no)
		}
		out = append(out, sum)
	}
	return out
}

// JSON renders the report deterministically (struct field order; map
// keys sorted by encoding/json).
func (r *TunersReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Verify checks the harness invariants the CI guard enforces on any
// tuners report, committed or freshly generated:
//
//   - the cell list is exactly the (scenario × seed × advisor) matrix in
//     canonical order, no holes, no extras;
//   - regret ≥ 0 everywhere, with at least one zero-regret cell per
//     (scenario, seed) group;
//   - total = query + transition in every cell;
//   - advisor counters reconcile (started = completed+aborted+failed);
//   - safety violations are zero everywhere;
//   - the NoTuner control never created, dropped, or holds any index.
func (r *TunersReport) Verify() error {
	if len(r.Scenarios) == 0 || len(r.Advisors) == 0 || len(r.Seeds) == 0 {
		return fmt.Errorf("tuners report: empty matrix axes")
	}
	want := len(r.Scenarios) * len(r.Seeds) * len(r.Advisors)
	if len(r.Cells) != want {
		return fmt.Errorf("tuners report: %d cells, want %d", len(r.Cells), want)
	}
	k := 0
	for _, sc := range r.Scenarios {
		for _, seed := range r.Seeds {
			groupMin := math.Inf(1)
			for _, adv := range r.Advisors {
				c := r.Cells[k]
				k++
				if c.Scenario != sc || c.Advisor != adv || c.Seed != seed {
					return fmt.Errorf("cell %d is (%s,%s,%d), want (%s,%s,%d)",
						k-1, c.Scenario, c.Advisor, c.Seed, sc, adv, seed)
				}
				if err := verifyCell(&c); err != nil {
					return fmt.Errorf("cell %s/%s/seed=%d: %w", sc, adv, seed, err)
				}
				if c.Regret < groupMin {
					groupMin = c.Regret
				}
			}
			if groupMin != 0 {
				return fmt.Errorf("group %s/seed=%d: no zero-regret cell (min %.3f)", sc, seed, groupMin)
			}
		}
	}
	return nil
}

func verifyCell(c *TunerCell) error {
	if c.Regret < 0 {
		return fmt.Errorf("negative regret %.3f", c.Regret)
	}
	if c.Statements <= 0 {
		return fmt.Errorf("no statements")
	}
	if d := math.Abs(c.TotalCost - (c.QueryCost + c.TransitionCost)); d > 0.01 {
		return fmt.Errorf("total %.3f != query %.3f + transition %.3f", c.TotalCost, c.QueryCost, c.TransitionCost)
	}
	ct := c.Counters
	if ct.BuildsStarted != ct.BuildsCompleted+ct.BuildsAborted+ct.BuildsFailed {
		return fmt.Errorf("builds do not reconcile: %+v", ct)
	}
	if ct.SafetyViolations != 0 {
		return fmt.Errorf("%d safety violations", ct.SafetyViolations)
	}
	if c.Advisor == "NoTuner" {
		if ct != (tuner.Counters{}) || len(c.FinalIndexes) != 0 {
			return fmt.Errorf("NoTuner control acted: counters %+v, final %v", ct, c.FinalIndexes)
		}
	}
	return nil
}

// CheckExpectations enforces the evaluation's headline outcomes on a
// full-scale report (they are scale-sensitive, so the CI smoke matrix
// checks Verify only):
//
//   - drift and tenants: the online tuner beats the no-tuner control;
//   - storm: the eager manual-DBA control loses to doing nothing — the
//     point of the update-storm scenario.
func (r *TunersReport) CheckExpectations() error {
	byName := map[string]ScenarioSummary{}
	for _, s := range r.Summaries {
		byName[s.Scenario] = s
	}
	var errs []string
	for _, sc := range []string{"drift", "tenants"} {
		s, ok := byName[sc]
		if !ok {
			continue
		}
		if s.MeanTotal["OnlinePT"] >= s.MeanTotal["NoTuner"] {
			errs = append(errs, fmt.Sprintf("%s: OnlinePT %.1f did not beat NoTuner %.1f",
				sc, s.MeanTotal["OnlinePT"], s.MeanTotal["NoTuner"]))
		}
	}
	if s, ok := byName["storm"]; ok {
		if s.MeanTotal["ManualDBA"] <= s.MeanTotal["NoTuner"] {
			errs = append(errs, fmt.Sprintf("storm: eager ManualDBA %.1f should lose to NoTuner %.1f",
				s.MeanTotal["ManualDBA"], s.MeanTotal["NoTuner"]))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("tuners report expectations failed:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

// VerifyTunersJSON parses and verifies a serialized report — the CI
// honesty guard's entry point for the committed artifact.
func VerifyTunersJSON(data []byte) (*TunersReport, error) {
	var rep TunersReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("tuners report: bad JSON: %w", err)
	}
	if err := rep.Verify(); err != nil {
		return nil, err
	}
	return &rep, nil
}

// FormatTuners renders the human-readable race summary.
func FormatTuners(r *TunersReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tuner race: %d scenarios × %d advisors × %d seeds (scale %.2g)\n\n",
		len(r.Scenarios), len(r.Advisors), len(r.Seeds), r.Scale)
	for _, s := range r.Summaries {
		fmt.Fprintf(&sb, "%-8s winner=%-11s", s.Scenario, s.Winner)
		if s.OnlineOverNoTuner > 0 {
			fmt.Fprintf(&sb, " online/notuner=%.2f", s.OnlineOverNoTuner)
		}
		sb.WriteByte('\n')
		for _, adv := range r.Advisors {
			m, ok := s.MeanTotal[adv]
			if !ok {
				continue
			}
			var regret float64
			n := 0
			for _, c := range r.Cells {
				if c.Scenario == s.Scenario && c.Advisor == adv {
					regret += c.Regret
					n++
				}
			}
			if n > 0 {
				regret /= float64(n)
			}
			fmt.Fprintf(&sb, "    %-11s mean_total=%12.1f mean_regret=%12.1f\n", adv, m, regret)
		}
	}
	return sb.String()
}

func round3(x float64) float64 {
	return math.Round(x*1000) / 1000
}
