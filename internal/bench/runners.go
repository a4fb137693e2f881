// Package bench is the experiment harness. Every tuning technique runs
// as a tuner.Advisor through one replay loop, Replay: each run gets its
// own freshly loaded database, its index changes are actually
// materialized, and each statement is charged its estimated cost plus
// the transition cost the advisor paid around it. Table 1, Figures 7, 8
// and 9, the ablation and the tuner race are all built from Replay's
// results. Only Figure 9 reads a clock, so only its replay executes
// SELECTs; every other replay plans, costs and observes them without
// running their operators (engine.DB.Cost).
package bench

import (
	"fmt"
	"time"

	"onlinetuner/internal/core"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/tuner"
	"onlinetuner/internal/workload"
)

// Result is one technique's run over one workload.
type Result struct {
	Technique string
	// PerStatement[i] is the estimated cost of statement i plus any
	// transition costs paid at that point.
	PerStatement []float64
	Total        float64
	// Query is Σ estimated execution cost; Transition is Σ transition
	// cost. Their sum equals Total up to summation order.
	Query      float64
	Transition float64
	// Events is the physical change log (OnlinePT runs only).
	Events []core.Event
	// Metrics is the tuner overhead accounting (OnlinePT runs only).
	Metrics core.Metrics
	// Counters is the advisor's own accounting.
	Counters tuner.Counters
	// QueryProcessing is the wall-clock spent optimizing+executing,
	// without the online tuner's own time. It is meaningful only in
	// Figure 9's replay, the one that executes SELECTs.
	QueryProcessing time.Duration
	// FinalConfig lists the secondary indexes at workload end.
	FinalConfig []string
	// StatementSQL mirrors the workload statements (for schedule
	// rendering).
	StatementSQL []string
}

// Replay runs advisor a over workload w on a freshly loaded database:
// Start, then BeforeStatement, Cost and AfterStatement for each
// statement. It closes the advisor and the database before returning.
func Replay(w *workload.Workload, a tuner.Advisor) (*Result, error) {
	return replay(w, a, false)
}

// replay is Replay; with execute set every statement goes through Exec,
// so SELECTs run and QueryProcessing measures them (Figure 9).
func replay(w *workload.Workload, a tuner.Advisor, execute bool) (*Result, error) {
	db := w.NewDB()
	defer db.Close()
	defer a.Close()
	if err := a.Start(db, w); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", a.Name(), err)
	}
	run := db.Cost
	if execute {
		run = func(text string) (*engine.QueryInfo, error) {
			_, info, err := db.Exec(text)
			return info, err
		}
	}
	res := &Result{Technique: a.Name(), StatementSQL: w.Statements}
	for i, stmt := range w.Statements {
		pre, err := a.BeforeStatement(i)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: statement %d: %w", a.Name(), i, err)
		}
		start := time.Now()
		info, err := run(stmt)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: statement %d %q: %w", a.Name(), i, stmt, err)
		}
		res.QueryProcessing += time.Since(start)
		post, err := a.AfterStatement(i, info)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: statement %d: %w", a.Name(), i, err)
		}
		cost := info.EstCost + pre + post
		res.PerStatement = append(res.PerStatement, cost)
		res.Total += cost
		res.Query += info.EstCost
		res.Transition += pre + post
	}
	res.Counters = a.Counters()
	res.FinalConfig = configNames(db)
	if on, ok := a.(*tuner.OnlinePT); ok {
		res.Events = on.Events()
		res.Metrics = on.Metrics()
		res.QueryProcessing -= res.Metrics.Total // tuner time accounted separately
	}
	return res, nil
}

// configNames lists the active secondary indexes of a database.
func configNames(db *engine.DB) []string {
	var out []string
	for _, ix := range db.Configuration() {
		out = append(out, ix.String())
	}
	return out
}
