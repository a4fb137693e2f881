package engine

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"onlinetuner/internal/executor"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
)

// AnalyzedNode is one plan operator annotated with both the optimizer's
// estimates and the executor's measured actuals.
type AnalyzedNode struct {
	// Depth is the operator's depth in the plan tree (root = 0).
	Depth int
	// Label is the operator's display label (plan.Node.Label).
	Label string
	// EstCost and EstRows are the optimizer's estimates (cumulative cost,
	// output cardinality) — what plain EXPLAIN shows.
	EstCost float64
	EstRows float64
	// ActualRows is the measured output cardinality (affected rows for a
	// DML root).
	ActualRows int64
	// Scanned and Pages are the storage-layer actuals of leaf operators:
	// rows/entries examined before residual filtering, and accounted page
	// traffic. Zero for interior operators.
	Scanned int64
	Pages   int64
	// Time is the operator's measured elapsed time, children included
	// (cumulative, like EstCost).
	Time time.Duration
	// Engine is the evaluation strategy the operator resolved to:
	// "vectorized", "row", or "" for operators that record no engine
	// (interior plumbing like Limit). The executor records it so
	// EXPLAIN ANALYZE shows which path each operator actually took.
	Engine string
}

// Analysis is the structured output of EXPLAIN ANALYZE: the executed
// plan's provenance, its annotated operators in EXPLAIN's pre-order, and
// the statement's result set.
type Analysis struct {
	// Provenance is the plan-cache provenance: "fresh", "cached (exact)"
	// or "cached (rebound)".
	Provenance string
	// Nodes lists the plan operators in pre-order (root first).
	Nodes []AnalyzedNode
	// Total is the root operator's measured time.
	Total time.Duration
	// Result is the statement's materialized output.
	Result *executor.ResultSet
}

// ExplainAnalyze plans AND executes a statement, measuring per-operator
// actuals. Unlike EXPLAIN it really runs the statement (a DML statement
// mutates the database), but like EXPLAIN the execution is not reported
// to the tuner: an analysis session is diagnostics, not workload. The
// plan cache is probed and populated exactly as a normal execution
// would, so the reported provenance matches what Exec would have used,
// and it returns through the same locked section: an analyzed DML
// statement is acknowledged only once it is durable.
func (db *DB) ExplainAnalyze(text string) (*Analysis, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	if ex, ok := stmt.(*sql.Explain); ok {
		stmt = ex.Stmt
	}
	switch stmt.(type) {
	case *sql.CreateTable, *sql.CreateIndex, *sql.DropIndex:
		return nil, fmt.Errorf("engine: EXPLAIN ANALYZE does not support DDL")
	}
	reads, writes := db.lockTablesFor(stmt)
	var a *Analysis
	werr := db.locked(nil, reads, writes, func() { a, err = db.analyzeLocked(stmt) })
	if err == nil && werr != nil {
		return nil, werr
	}
	return a, err
}

func (db *DB) analyzeLocked(stmt sql.Statement) (*Analysis, error) {
	var fp *sql.Fingerprint
	for attempt := 0; attempt < 3; attempt++ {
		res, err := db.optimizeMaybeCached(stmt, &fp)
		if err != nil {
			return nil, err
		}
		col := executor.NewCollector()
		rs, err := db.Exe.RunCollected(res.Plan, col)
		if err != nil {
			if errors.Is(err, executor.ErrStaleIndex) {
				continue
			}
			return nil, err
		}
		a := &Analysis{Provenance: provenanceOf(res), Result: rs}
		annotate(a, res.Plan, col, 0)
		if len(a.Nodes) > 0 {
			a.Total = a.Nodes[0].Time
		}
		return a, nil
	}
	return nil, fmt.Errorf("engine: EXPLAIN ANALYZE gave up after stale-index retries")
}

// annotate walks the plan in EXPLAIN's pre-order, merging estimates with
// the collector's actuals.
func annotate(a *Analysis, n plan.Node, col *executor.Collector, depth int) {
	node := AnalyzedNode{
		Depth:   depth,
		Label:   n.Label(),
		EstCost: n.EstCost(),
		EstRows: n.EstRows(),
	}
	if st := col.Stats(n); st != nil {
		node.ActualRows = st.Rows()
		node.Scanned = st.Scanned()
		node.Pages = st.Pages()
		node.Time = st.Duration()
		node.Engine = st.Engine()
	}
	a.Nodes = append(a.Nodes, node)
	for _, c := range n.Children() {
		annotate(a, c, col, depth+1)
	}
}

// ExplainAnalyzeString renders an analysis in EXPLAIN's text format,
// with each operator line extended by its measured actuals:
//
//	-- plan: cached (exact)
//	Project (cost=310.23 rows=12) (actual rows=9 time=211µs)
//	  SeqScan lineitem (cost=305.00 rows=12) (actual rows=9 scanned=6005 pages=121 time=195µs)
//
// Scanned/pages appear on operators that touched storage directly.
func (db *DB) ExplainAnalyzeString(text string) (string, error) {
	a, err := db.ExplainAnalyze(text)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "-- plan: %s\n", a.Provenance)
	for _, n := range a.Nodes {
		sb.WriteString(strings.Repeat("  ", n.Depth))
		fmt.Fprintf(&sb, "%s (cost=%.2f rows=%.0f) (actual rows=%d", n.Label, n.EstCost, n.EstRows, n.ActualRows)
		if n.Scanned > 0 || n.Pages > 0 {
			fmt.Fprintf(&sb, " scanned=%d pages=%d", n.Scanned, n.Pages)
		}
		if n.Engine != "" {
			fmt.Fprintf(&sb, " engine=%s", n.Engine)
		}
		fmt.Fprintf(&sb, " time=%s)\n", n.Time.Round(time.Microsecond))
	}
	return sb.String(), nil
}
