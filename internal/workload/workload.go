// Package workload defines the experiment workloads of Section 4: the
// simple workloads W1–W3 of Table 1 (scaled to this engine's in-memory
// sizes while preserving their structure and storage-budget regimes) and
// the TPC-H batch workloads of Figures 7–8, including the disruptive
// update injection of Figures 7(c)/(d).
package workload

import (
	"fmt"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/tpch"
)

// Workload is a replayable statement sequence plus the recipe for the
// database it runs against.
type Workload struct {
	Name       string
	Statements []string
	// Boundaries[i] is the statement index where batch i starts; a final
	// implicit boundary is len(Statements). Empty means one batch.
	Boundaries []int
	// NewDB creates and loads the initial (untuned) database and applies
	// the storage budget. Every technique gets its own instance.
	NewDB func() *engine.DB
}

// Batches splits the per-statement values into per-batch sums.
func (w *Workload) Batches(perStatement []float64) []float64 {
	if len(w.Boundaries) == 0 {
		total := 0.0
		for _, v := range perStatement {
			total += v
		}
		return []float64{total}
	}
	out := make([]float64, len(w.Boundaries))
	for b := 0; b < len(w.Boundaries); b++ {
		start := w.Boundaries[b]
		end := len(perStatement)
		if b+1 < len(w.Boundaries) {
			end = w.Boundaries[b+1]
		}
		for i := start; i < end && i < len(perStatement); i++ {
			out[b] += perStatement[i]
		}
	}
	return out
}

// simpleRows is the scale of the Table 1 tables R and S.
const simpleRows = 3000

// Q1, Q2, Q3 are the Table 1 queries. Q3 instances insert disjoint
// slices of S so the workload, like the paper's, keeps adding data.
const (
	Q1 = "SELECT a, b, c, id FROM R WHERE a < 100"
	Q2 = "SELECT a, d, e, id FROM R WHERE a < 100"
)

// Q3 returns the i-th insert statement of W3. Each instance copies a
// tenth of S, so — like the paper's INSERT INTO R SELECT * FROM S — the
// per-statement index maintenance dominates once indexes exist.
func Q3(i int) string {
	lo := (i * 300) % simpleRows
	return fmt.Sprintf("INSERT INTO R SELECT * FROM S WHERE id >= %d AND id < %d", lo, lo+300)
}

// newSimpleDB loads the Table 1 schema and data: R(id,a,b,c,d,e) with a
// uniform over 1000 values (so a<100 selects ~10%), and S as the insert
// source.
func newSimpleDB(budget int64) func() *engine.DB {
	return func() *engine.DB {
		db := engine.Open()
		db.MustExec("CREATE TABLE R (id INT, a INT, b INT, c INT, d INT, e INT, PRIMARY KEY (id))")
		db.MustExec("CREATE TABLE S (id INT, a INT, b INT, c INT, d INT, e INT, PRIMARY KEY (id))")
		for i := 0; i < simpleRows; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d, %d, %d, %d, %d)",
				i, i%1000, i, i, i, i))
			db.MustExec(fmt.Sprintf("INSERT INTO S VALUES (%d, %d, %d, %d, %d, %d)",
				i, i%1000, i, i, i, i))
		}
		if err := db.Analyze("R"); err != nil {
			panic(err)
		}
		if err := db.Analyze("S"); err != nil {
			panic(err)
		}
		db.Mgr.SetBudget(budget)
		return db
	}
}

// indexBytes estimates the size of an index with the given columns over
// the simple R table, matching storage.Manager.EstimateIndexBytes.
func indexBytes(cols int) int64 {
	return int64(simpleRows) * int64(cols*8+8)
}

// Storage budgets mirroring Table 1's 135/138/150 MB regimes: one
// 4-column index; one 6-column (merged) index; several indexes.
var (
	BudgetOne4Col = indexBytes(4) + indexBytes(4)/8
	BudgetMerged  = indexBytes(6) + indexBytes(6)/10
	BudgetRoomy   = indexBytes(6) + 2*indexBytes(4) + indexBytes(4)/2
)

func repeat(q string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = q
	}
	return out
}

// W1 is 250×q1 followed by 250×q2 with room for one 4-column index.
func W1() *Workload {
	stmts := append(repeat(Q1, 250), repeat(Q2, 250)...)
	return &Workload{Name: "W1 (250 q1; 250 q2, one-index budget)",
		Statements: stmts, NewDB: newSimpleDB(BudgetOne4Col)}
}

// W2 is 250 interleaved (q1;q2) pairs under the given budget regime.
func W2(budget int64, label string) *Workload {
	var stmts []string
	for i := 0; i < 250; i++ {
		stmts = append(stmts, Q1, Q2)
	}
	return &Workload{Name: "W2 (250 interleaved q1;q2, " + label + ")",
		Statements: stmts, NewDB: newSimpleDB(budget)}
}

// W3 is 100×q1 followed by 100 insert statements with a roomy budget.
func W3() *Workload {
	stmts := repeat(Q1, 100)
	for i := 0; i < 100; i++ {
		stmts = append(stmts, Q3(i))
	}
	return &Workload{Name: "W3 (100 q1; 100 q3 inserts)",
		Statements: stmts, NewDB: newSimpleDB(BudgetRoomy)}
}

// SimpleWorkloads returns the five Table 1 rows in order.
func SimpleWorkloads() []*Workload {
	return []*Workload{
		W1(),
		W2(BudgetOne4Col, "one-index budget"),
		W2(BudgetMerged, "merged-index budget"),
		W2(BudgetRoomy, "roomy budget"),
		W3(),
	}
}

// TPCHOptions parameterize the Section 4.2 workloads.
type TPCHOptions struct {
	Scale      tpch.Scale
	Seed       int64
	NumBatches int
	// DisruptAfterBatch injects DisruptCount update statements as an
	// extra batch after this many batches (0 = no injection) — the
	// Figure 7(c)/(d) scenario.
	DisruptAfterBatch int
	DisruptCount      int
	// BudgetFraction sets the index budget as a fraction of the loaded
	// data size (the paper's "1 GB database with an additional 1 GB" is
	// fraction 1.0).
	BudgetFraction float64
}

// DefaultTPCH matches the Figure 7(a)/(b) setup at laptop scale. The
// paper gives indexes a budget equal to the database size (1 GB each);
// for TPC-H's 22 queries that budget is effectively unconstrained — the
// useful index mass is far below it — so the default fraction here is
// sized to be similarly loose relative to this engine's index widths.
func DefaultTPCH() TPCHOptions {
	return TPCHOptions{Scale: 0.5, Seed: 1, NumBatches: 60, BudgetFraction: 2.5}
}

// TPCH builds the batch workload. The generator seed fixes both data and
// query parameters so every technique sees an identical workload.
func TPCH(o TPCHOptions) *Workload {
	gen := tpch.NewGenerator(o.Scale, o.Seed)
	batches := gen.Batches(o.NumBatches)
	if o.DisruptAfterBatch > 0 {
		at := o.DisruptAfterBatch
		if at > len(batches) {
			at = len(batches) / 2
		}
		upd := gen.DisruptiveUpdates(o.DisruptCount)
		var withUpd [][]string
		withUpd = append(withUpd, batches[:at]...)
		withUpd = append(withUpd, upd)
		withUpd = append(withUpd, batches[at:]...)
		batches = withUpd
	}
	w := &Workload{Name: fmt.Sprintf("TPC-H %d batches (scale %.2g)", o.NumBatches, float64(o.Scale))}
	for _, b := range batches {
		w.Boundaries = append(w.Boundaries, len(w.Statements))
		w.Statements = append(w.Statements, b...)
	}
	w.NewDB = func() *engine.DB {
		db := engine.Open()
		loader := tpch.NewGenerator(o.Scale, o.Seed)
		if err := loader.Load(db); err != nil {
			panic(err)
		}
		var dataBytes int64
		for _, t := range db.Cat.Tables() {
			if h := db.Mgr.Heap(t.Name); h != nil {
				dataBytes += h.Bytes()
			}
		}
		if o.BudgetFraction > 0 {
			db.Mgr.SetBudget(int64(float64(dataBytes) * o.BudgetFraction))
		}
		return db
	}
	return w
}

// CandidateIndexes are the Table 1 candidate definitions (I1..I5), used
// by tests and the Table 1 harness for reference sizing.
func CandidateIndexes() []*catalog.Index {
	mk := func(name string, cols ...string) *catalog.Index {
		return &catalog.Index{Name: name, Table: "R", Columns: cols}
	}
	return []*catalog.Index{
		mk("I1", "id", "a", "b", "c"),
		mk("I2", "a", "b", "c", "id"),
		mk("I3", "id", "a", "d", "e"),
		mk("I4", "a", "d", "e", "id"),
		mk("I5", "a", "b", "c", "d", "e", "id"),
	}
}
