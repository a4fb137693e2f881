package bench

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"onlinetuner/internal/core"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/tuner"
	"onlinetuner/internal/workload"
)

// TestCostOnlyReplayMatchesExecuting: every figure but Figure 9 reads
// estimated costs only, so a replay that plans SELECTs without running
// them must produce exactly what an executing replay produces, on a
// workload with inserts (W3) and on TPC-H with an update batch.
func TestCostOnlyReplayMatchesExecuting(t *testing.T) {
	t.Parallel()
	o := smallTPCH()
	o.NumBatches = 4
	o.DisruptAfterBatch = 2
	o.DisruptCount = 16
	advisors := []func() tuner.Advisor{
		func() tuner.Advisor { return tuner.NewOnlinePT(core.DefaultOptions()) },
		func() tuner.Advisor { return tuner.NewOmniscient(12) },
	}
	for _, w := range []*workload.Workload{workload.W3(), workload.TPCH(o)} {
		for _, newAdvisor := range advisors {
			costA, execA := newAdvisor(), newAdvisor()
			cost, err := Replay(w, costA)
			if err != nil {
				t.Fatal(err)
			}
			exec, err := replay(w, execA, true)
			if err != nil {
				t.Fatal(err)
			}
			name := w.Name + " / " + cost.Technique
			for _, c := range []struct {
				what       string
				cost, exec any
			}{
				{"PerStatement", cost.PerStatement, exec.PerStatement},
				{"Events", eventStrings(cost.Events), eventStrings(exec.Events)},
				{"Counters", cost.Counters, exec.Counters},
				{"FinalConfig", cost.FinalConfig, exec.FinalConfig},
			} {
				if !reflect.DeepEqual(c.cost, c.exec) {
					t.Errorf("%s: %s differs\ncost-only: %v\nexecuting: %v", name, c.what, c.cost, c.exec)
				}
			}
			if len(cost.PerStatement) != len(w.Statements) {
				t.Errorf("%s: %d per-statement costs for %d statements", name, len(cost.PerStatement), len(w.Statements))
			}
		}
	}
}

// TestFigure9ReplayExecutes: Figure 9 divides the tuner's time by query
// processing time, so its replay must run every SELECT's operators.
// Under a read fault on every page the executing replay fails, while the
// cost-only replay of the same workload reads no page and succeeds.
func TestFigure9ReplayExecutes(t *testing.T) {
	t.Parallel()
	w := workload.W1()
	load := w.NewDB
	w.NewDB = func() *engine.DB {
		db := load()
		inj := fault.New(1).Plan(fault.PageRead, fault.Rule{Prob: 1})
		db.SetFaults(inj)
		inj.Arm()
		return db
	}
	if _, err := Replay(w, tuner.NewOnlinePT(core.DefaultOptions())); err != nil {
		t.Fatalf("cost-only replay under read faults: %v", err)
	}
	if _, err := figure9Replay(w); !fault.Is(err) {
		t.Fatalf("Figure 9's replay under read faults: err = %v, want the injected read fault", err)
	}
}

// eventStrings renders each change-log record field by field, its index
// by ID.
func eventStrings(evs []core.Event) []string {
	// fields drops Event's String method, so %+v prints every field.
	type fields core.Event
	out := make([]string, len(evs))
	for i, ev := range evs {
		f := fields(ev)
		f.Index = nil
		out[i] = fmt.Sprintf("%s %+v", ev.Index.ID(), f)
	}
	return out
}

// TestFailedBuildsChargeNothing: with every index build failing, the
// schedule pays no transition cost, so the change log's costs must sum
// to the tuner's TransitionCost and stripping them from the
// per-statement costs, as Table 1's rendering does, must leave exactly
// the query cost.
func TestFailedBuildsChargeNothing(t *testing.T) {
	t.Parallel()
	w := workload.W1()
	load := w.NewDB
	w.NewDB = func() *engine.DB {
		db := load()
		inj := fault.New(1).Plan(fault.BuildStep, fault.Rule{Prob: 1})
		db.SetFaults(inj)
		inj.Arm()
		return db
	}
	r, err := Replay(w, tuner.NewOnlinePT(core.DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	failed, charged := 0, 0.0
	for _, ev := range r.Events {
		if ev.Kind == core.EvFail {
			failed++
		}
		charged += ev.Cost
	}
	if failed == 0 {
		t.Fatalf("no build failed; the replay checked nothing: %v", r.Events)
	}
	statements := 0.0
	for _, c := range r.PerStatement {
		statements += c
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	if !near(charged, r.Metrics.TransitionCost) {
		t.Errorf("Σ Event.Cost = %.2f, TransitionCost = %.2f", charged, r.Metrics.TransitionCost)
	}
	if !near(statements-charged, r.Query) {
		t.Errorf("Σ PerStatement − Σ Event.Cost = %.2f, query cost = %.2f", statements-charged, r.Query)
	}
}
