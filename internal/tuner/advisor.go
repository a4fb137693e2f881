// Package tuner defines the Advisor interface every tuning technique
// runs behind: a uniform shell over the paper's OnlinePT, the offline
// set and sequence advisors (the latter the CoPhy-shaped omniscient
// baseline), a bandit-style tuner with a safety budget (DBA bandits,
// Perera et al.), and no-tuner / manual-DBA controls. One loop,
// bench.Replay, runs them all — for Table 1, Figures 7–9, the ablation
// and the tuner race — on identical statement streams, charging each
// statement its estimated execution cost plus whatever transition cost
// the advisor paid around it.
package tuner

import (
	"fmt"
	"strings"

	"onlinetuner/internal/core"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/workload"
)

// Counters is the advisor-side accounting every race cell reports. The
// harness asserts the reconciliation invariant
// builds_started == builds_completed + builds_aborted + builds_failed
// and that safety_violations is zero in every cell.
type Counters struct {
	IndexesCreated   int64 `json:"indexes_created"`
	IndexesDropped   int64 `json:"indexes_dropped"`
	BuildsStarted    int64 `json:"builds_started"`
	BuildsCompleted  int64 `json:"builds_completed"`
	BuildsAborted    int64 `json:"builds_aborted"`
	BuildsFailed     int64 `json:"builds_failed"`
	SafetyViolations int64 `json:"safety_violations"`
	SafetyDeferrals  int64 `json:"safety_deferrals"`
}

// Advisor is one tuning policy under race conditions. The driver calls
// Start once, then for each statement i: BeforeStatement(i), Exec,
// AfterStatement(i, info). Both hooks return the transition cost (index
// build/drop work) the advisor charged at that point; statement i's
// total is info.EstCost plus both returns.
type Advisor interface {
	Name() string
	// Start binds the advisor to the cell's database and workload before
	// any statement executes. The workload is the full statement stream —
	// only the omniscient baseline may peek past the current statement.
	Start(db *engine.DB, w *workload.Workload) error
	// BeforeStatement may transition the physical configuration ahead of
	// statement i and returns the transition cost charged to i.
	BeforeStatement(i int) (float64, error)
	// AfterStatement observes statement i's execution. Advisors whose
	// changes fire inside Exec (OnlinePT's observer) report those
	// transition costs here.
	AfterStatement(i int, info *engine.QueryInfo) (float64, error)
	// Close releases advisor resources at race end.
	Close()
	Counters() Counters
}

// Factory names and constructs one advisor for the registry.
type Factory struct {
	Name        string
	Description string
	New         func() Advisor
}

// Advisors returns the racing field in canonical order.
func Advisors() []Factory {
	return []Factory{
		{
			Name:        "NoTuner",
			Description: "control: never touches the physical design",
			New:         func() Advisor { return &NoTuner{} },
		},
		{
			Name:        "OnlinePT",
			Description: "the paper's online tuner (Figure 6) behind the Advisor shell",
			New:         func() Advisor { return NewOnlinePT(core.DefaultOptions()) },
		},
		{
			Name:        "Bandit",
			Description: "UCB-style index arms with a k× no-index safety budget and regression back-off",
			New:         func() Advisor { return NewBandit() },
		},
		{
			Name:        "ManualDBA",
			Description: "control: one-shot creation of the top candidates after a warmup window",
			New:         func() Advisor { return NewManualDBA() },
		},
		{
			Name:        "Offline-Seq",
			Description: "omniscient baseline: the offline sequence advisor replayed through the shell",
			New:         func() Advisor { return NewOmniscient(0) },
		},
	}
}

// AdvisorNames lists the canonical advisor names in order.
func AdvisorNames() []string {
	var out []string
	for _, f := range Advisors() {
		out = append(out, f.Name)
	}
	return out
}

// NewAdvisor constructs an advisor by (case-insensitive) name.
func NewAdvisor(name string) (Advisor, error) {
	for _, f := range Advisors() {
		if strings.EqualFold(f.Name, name) {
			return f.New(), nil
		}
	}
	return nil, fmt.Errorf("tuner: unknown advisor %q (want one of %s)",
		name, strings.Join(AdvisorNames(), "|"))
}

// NoTuner is the do-nothing control. Its counters must stay zero — the
// harness asserts it.
type NoTuner struct{}

func (*NoTuner) Name() string                                           { return "NoTuner" }
func (*NoTuner) Start(*engine.DB, *workload.Workload) error             { return nil }
func (*NoTuner) BeforeStatement(int) (float64, error)                   { return 0, nil }
func (*NoTuner) AfterStatement(int, *engine.QueryInfo) (float64, error) { return 0, nil }
func (*NoTuner) Close()                                                 {}
func (*NoTuner) Counters() Counters                                     { return Counters{} }

// OnlinePT wraps core.Tuner behind the Advisor interface. The tuner's
// observer fires inside db.Exec, so BeforeStatement is free and
// AfterStatement reads the transition-cost delta off the tuner's own
// metrics — the wrapper adds no decision point of its own, which the
// differential test in internal/obs/difftest proves byte-identical to a
// direct core.Attach run.
type OnlinePT struct {
	opts core.Options
	tn   *core.Tuner
	prev float64
}

// NewOnlinePT wraps the paper's tuner with the given options. Races use
// DefaultOptions, whose zero build gate publishes every creation before
// the next statement.
func NewOnlinePT(opts core.Options) *OnlinePT {
	return &OnlinePT{opts: opts}
}

func (o *OnlinePT) Name() string { return "OnlinePT" }

func (o *OnlinePT) Start(db *engine.DB, _ *workload.Workload) error {
	o.tn = core.Attach(db, o.opts)
	o.prev = 0
	return nil
}

func (o *OnlinePT) BeforeStatement(int) (float64, error) { return 0, nil }

func (o *OnlinePT) AfterStatement(_ int, _ *engine.QueryInfo) (float64, error) {
	m := o.tn.Metrics()
	d := m.TransitionCost - o.prev
	o.prev = m.TransitionCost
	return d, nil
}

func (o *OnlinePT) Close() {
	if o.tn != nil {
		o.tn.Close()
	}
}

func (o *OnlinePT) Counters() Counters {
	if o.tn == nil {
		return Counters{}
	}
	m := o.tn.Metrics()
	c := Counters{
		BuildsStarted:   m.BuildsStarted,
		BuildsCompleted: m.BuildsCompleted,
		BuildsAborted:   m.BuildsAborted,
		BuildsFailed:    m.BuildsFailed,
	}
	for _, e := range o.Events() {
		switch e.Kind {
		case core.EvCreate:
			c.IndexesCreated++
		case core.EvDrop:
			c.IndexesDropped++
		}
	}
	return c
}

// Events exposes the wrapped tuner's physical change log.
func (o *OnlinePT) Events() []core.Event {
	if o.tn == nil {
		return nil
	}
	return o.tn.Events()
}

// Metrics exposes the wrapped tuner's metrics.
func (o *OnlinePT) Metrics() core.Metrics {
	if o.tn == nil {
		return core.Metrics{}
	}
	return o.tn.Metrics()
}
