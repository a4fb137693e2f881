package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"onlinetuner/internal/obs"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
)

// TestTraceRecordsPipelinePhases checks that one traced statement
// produces the engine's pipeline phases in order, with cache provenance
// recorded on the optimize span and on the trace itself.
func TestTraceRecordsPipelinePhases(t *testing.T) {
	db := openRS(t, 300)
	db.Observability().EnableTracing(8, 1)
	const q = "SELECT a, b FROM R WHERE a < 10"
	db.MustExec(q) // fresh
	db.MustExec(q) // cached (exact)

	traces := db.Observability().Traces()
	if len(traces) != 2 {
		t.Fatalf("ring holds %d traces, want 2", len(traces))
	}
	for i, tr := range traces {
		if err := tr.Validate(); err != nil {
			t.Fatalf("trace %d invalid: %v", i, err)
		}
		for _, phase := range []string{"parse", "lock-wait", "optimize", "execute", "observe"} {
			if phase == "observe" {
				continue // no observer installed
			}
			if tr.FindSpan(phase) == nil {
				t.Fatalf("trace %d missing phase %q:\n%s", i, phase, tr)
			}
		}
		if got := tr.FindSpan("execute").Rows; got != 30 {
			t.Errorf("trace %d execute rows = %d, want 30", i, got)
		}
	}
	if p := traces[0].Provenance; p != "fresh" {
		t.Errorf("first run provenance = %q, want fresh", p)
	}
	if p := traces[1].Provenance; p != "cached (exact)" {
		t.Errorf("second run provenance = %q, want cached (exact)", p)
	}
	if traces[0].Requests == 0 {
		t.Error("traced statement recorded no what-if requests")
	}
	if sp := traces[1].FindSpan("optimize"); sp.Attr != "cached (exact)" {
		t.Errorf("optimize span attr = %q", sp.Attr)
	}
}

// TestTraceSpansWellFormedUnderStress validates every retained span
// tree after a concurrent mixed workload with stride-1 tracing. Run
// with -race this doubles as the data-race check on the trace path.
func TestTraceSpansWellFormedUnderStress(t *testing.T) {
	db := openRS(t, 500)
	db.Observability().EnableTracing(512, 1)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch i % 4 {
				case 0:
					db.MustExec(fmt.Sprintf("SELECT a, b FROM R WHERE a < %d", 5+i%20))
				case 1:
					db.MustExec("SELECT x, y FROM S WHERE x < 40")
				case 2:
					db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, 1, 2, 3, 4, 5)", 100000+w*1000+i))
				case 3:
					db.MustExec(fmt.Sprintf("UPDATE S SET y = %d WHERE id = %d", i, i%100))
				}
			}
		}(w)
	}
	wg.Wait()
	traces := db.Observability().Traces()
	if len(traces) == 0 {
		t.Fatal("no traces retained")
	}
	for i, tr := range traces {
		if err := tr.Validate(); err != nil {
			t.Fatalf("trace %d (%q) invalid: %v\n%s", i, tr.Statement, err, tr)
		}
		if tr.FindSpan("execute") == nil {
			t.Fatalf("trace %d (%q) has no execute phase", i, tr.Statement)
		}
	}
}

// TestCallerOwnedTraceViaContext checks that a trace attached to the
// context is used in place of the sampler's and is NOT retained in the
// engine's ring — it belongs to the caller.
func TestCallerOwnedTraceViaContext(t *testing.T) {
	db := openRS(t, 200)
	tr := obs.NewTrace("caller")
	ctx := obs.WithTrace(context.Background(), tr)
	if _, _, err := db.ExecContext(ctx, "SELECT a FROM R WHERE a < 3"); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.FindSpan("execute") == nil {
		t.Fatalf("caller trace missing engine phases:\n%s", tr)
	}
	if got := len(db.Observability().Traces()); got != 0 {
		t.Fatalf("engine ring retained %d caller-owned traces", got)
	}
}

// TestSnapshotReconcilesWithPlanCacheStats drives hits, rebind hits,
// misses and invalidations, then requires the obs snapshot and
// PlanCacheStats to agree EXACTLY — they must be the same counters, not
// parallel bookkeeping.
func TestSnapshotReconcilesWithPlanCacheStats(t *testing.T) {
	db := openRS(t, 800)
	queries := []string{
		"SELECT a, b FROM R WHERE a = 10",
		"SELECT a, b FROM R WHERE a = 10", // exact hit
		"SELECT a, b FROM R WHERE a = 25", // rebind hit: same selectivity
		"SELECT x FROM S WHERE x < 5",
	}
	for _, q := range queries {
		db.MustExec(q)
	}
	// Invalidate by changing the physical configuration.
	db.MustExec("CREATE INDEX r_a ON R (a)")
	db.MustExec("SELECT a, b FROM R WHERE a = 10")

	st := db.PlanCacheStats()
	if st.Hits == 0 || st.RebindHits == 0 || st.Misses == 0 || st.Invalidations == 0 {
		t.Fatalf("workload did not exercise all counters: %+v", st)
	}
	snap := db.Observability().Reg.Snapshot()
	checks := map[string]int64{
		"plancache.hits":          st.Hits,
		"plancache.rebind_hits":   st.RebindHits,
		"plancache.misses":        st.Misses,
		"plancache.invalidations": st.Invalidations,
		"plancache.evictions":     st.Evictions,
		"plancache.stmt_hits":     st.StmtHits,
	}
	for name, want := range checks {
		if got := snap[name]; got != want {
			t.Errorf("snapshot[%q] = %v, PlanCacheStats says %d", name, got, want)
		}
	}
	if got := snap["engine.statements"]; got.(int64) < int64(len(queries)) {
		t.Errorf("engine.statements = %v, want >= %d", got, len(queries))
	}
}

// TestExplainAnalyzeSeqScanAccounting pins the EXPLAIN ANALYZE actuals
// of a sequential scan against the storage layer's own accounting: the
// scan must report examining every heap row, page traffic equal to the
// heap's accounted size, and an output cardinality bounded by what it
// scanned.
func TestExplainAnalyzeSeqScanAccounting(t *testing.T) {
	db := openRS(t, 600)
	a, err := db.ExplainAnalyze("SELECT a, b FROM R WHERE a < 10")
	if err != nil {
		t.Fatal(err)
	}
	h := db.Mgr.Heap("r")
	var leaf *AnalyzedNode
	for i := range a.Nodes {
		if a.Nodes[i].Scanned > 0 || a.Nodes[i].Pages > 0 {
			leaf = &a.Nodes[i]
		}
	}
	if leaf == nil {
		t.Fatalf("no leaf actuals recorded: %+v", a.Nodes)
	}
	if leaf.Scanned != int64(h.Len()) {
		t.Errorf("seq scan scanned %d rows, heap holds %d", leaf.Scanned, h.Len())
	}
	if leaf.Pages != h.Pages() {
		t.Errorf("seq scan pages = %d, heap accounts %d", leaf.Pages, h.Pages())
	}
	if leaf.ActualRows > leaf.Scanned {
		t.Errorf("actual rows %d exceeds scanned %d", leaf.ActualRows, leaf.Scanned)
	}
	if a.Nodes[0].ActualRows != int64(len(a.Result.Rows)) {
		t.Errorf("root actual rows %d != result rows %d", a.Nodes[0].ActualRows, len(a.Result.Rows))
	}
}

// TestExplainAnalyzeIndexSeekAccounting checks a seek's actuals obey
// the invariants that tie them to the page model: entries examined
// bound the output, and page traffic covers at least one key page plus
// the heap fetches.
func TestExplainAnalyzeIndexSeekAccounting(t *testing.T) {
	db := openRS(t, 600)
	db.MustExec("CREATE INDEX r_a ON R (a)")
	a, err := db.ExplainAnalyze("SELECT a, b FROM R WHERE a = 7")
	if err != nil {
		t.Fatal(err)
	}
	var leaf *AnalyzedNode
	for i := range a.Nodes {
		if a.Nodes[i].Scanned > 0 {
			leaf = &a.Nodes[i]
		}
	}
	if leaf == nil {
		t.Fatalf("no storage-touching operator: %+v", a.Nodes)
	}
	if leaf.ActualRows > leaf.Scanned {
		t.Errorf("actual rows %d exceeds scanned entries %d", leaf.ActualRows, leaf.Scanned)
	}
	if leaf.Pages < 1 {
		t.Errorf("seek touched %d pages, want >= 1", leaf.Pages)
	}
	// Fetching seeks pay one heap page per row on top of key pages.
	if pi := db.Mgr.Index("r(a)"); pi != nil && pi.State() == storage.StateActive {
		if max := pi.Pages() + leaf.Scanned + 1; leaf.Pages > max {
			t.Errorf("seek pages %d exceed key+fetch bound %d", leaf.Pages, max)
		}
	}
}

// TestExplainAnalyzeStringFormat pins the rendered shape: provenance
// marker first, then per-operator estimated AND actual annotations.
func TestExplainAnalyzeStringFormat(t *testing.T) {
	db := openRS(t, 300)
	const q = "SELECT a, b FROM R WHERE a < 10"
	db.MustExec(q)
	s, err := db.ExplainAnalyzeString(q)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(s)
	if lines[0] != "-- plan: cached (exact)" {
		t.Errorf("provenance line = %q", lines[0])
	}
	for _, ln := range lines[1:] {
		if !contains(ln, "(cost=") || !contains(ln, "(actual rows=") {
			t.Errorf("operator line missing annotations: %q", ln)
		}
	}
	if !contains(s, "scanned=") || !contains(s, "pages=") {
		t.Errorf("no storage actuals rendered:\n%s", s)
	}
}

// TestExplainAnalyzeDMLAffectedRows checks the DML root reports
// affected rows as its actual cardinality — and really executes.
func TestExplainAnalyzeDMLAffectedRows(t *testing.T) {
	db := openRS(t, 400)
	a, err := db.ExplainAnalyze("UPDATE S SET y = 1 WHERE x < 10")
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Affected == 0 {
		t.Fatal("update affected no rows")
	}
	if a.Nodes[0].ActualRows != int64(a.Result.Affected) {
		t.Errorf("root actual rows %d != affected %d", a.Nodes[0].ActualRows, a.Result.Affected)
	}
}

// TestExplainAnalyzeUpdateLocateSide: a primary-key UPDATE shows the
// access path that located its row, and that path examines the row it
// matched — not the table. Until estimate-vs-actual error is a metric
// of its own this is the alarm for a select shell that is costed as a
// seek and executed as a scan.
func TestExplainAnalyzeUpdateLocateSide(t *testing.T) {
	db := openRS(t, 10000)
	db.MustExec("CREATE INDEX r_d ON R (d)")
	for _, tc := range []struct{ q, source string }{
		{"UPDATE R SET e = 0 WHERE id = 4242", "IndexSeek R_pk on R (eq=1, covering)"},
		{"UPDATE R SET e = 1 WHERE d = 8484", "IndexSeek r_d on R (eq=1, fetch)"},
		{"DELETE FROM R WHERE d = 8486", "IndexSeek r_d on R (eq=1, fetch)"},
	} {
		a, err := db.ExplainAnalyze(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Nodes) != 2 || a.Nodes[1].Depth != 1 || !strings.HasPrefix(a.Nodes[1].Label, tc.source) {
			t.Fatalf("%q: nodes = %+v, want a DML root over %q", tc.q, a.Nodes, tc.source)
		}
		root, src := a.Nodes[0], a.Nodes[1]
		if root.ActualRows != 1 || src.ActualRows != 1 {
			t.Errorf("%q: actual rows root=%d source=%d, want 1 and 1", tc.q, root.ActualRows, src.ActualRows)
		}
		if src.Scanned > src.ActualRows+1 {
			t.Errorf("%q: source examined %d entries to match %d rows (table holds %d)",
				tc.q, src.Scanned, src.ActualRows, db.Mgr.Heap("R").Len())
		}
		if src.Pages < 1 || src.EstRows < 1 {
			t.Errorf("%q: source pages=%d est rows=%.0f, want both recorded", tc.q, src.Pages, src.EstRows)
		}
	}
	s, err := db.ExplainAnalyzeString("UPDATE R SET e = 2 WHERE d = 8488")
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(s)
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "Update R (cost=") ||
		!strings.HasPrefix(lines[2], "  IndexSeek r_d on R (eq=1, fetch) where (d = 8488) (cost=") ||
		!contains(lines[2], "(actual rows=1 scanned=1 pages=") {
		t.Errorf("rendered analysis:\n%s", s)
	}
}

// TestOptimizerCostMonotoneInSelectivity is the metamorphic property:
// widening a range predicate can only increase the optimizer's
// estimated cardinality and cost — a wider range never reads less.
func TestOptimizerCostMonotoneInSelectivity(t *testing.T) {
	db := openRS(t, 1000)
	db.MustExec("CREATE INDEX r_a ON R (a)")
	prevCost, prevRows := -1.0, -1.0
	for _, hi := range []int{2, 5, 10, 20, 40, 60, 80, 99} {
		stmt, err := sql.Parse(fmt.Sprintf("SELECT a, b FROM R WHERE a < %d", hi))
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Opt.Optimize(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows < prevRows {
			t.Errorf("a < %d: est rows %.2f dropped below %.2f", hi, res.Rows, prevRows)
		}
		if res.Cost < prevCost {
			t.Errorf("a < %d: est cost %.2f dropped below %.2f", hi, res.Cost, prevCost)
		}
		prevCost, prevRows = res.Cost, res.Rows
	}
}

// TestTracingDisabledRetainsNothing: with tracing off, statements leave
// no traces behind (and the path costs one atomic load).
func TestTracingDisabledRetainsNothing(t *testing.T) {
	db := openRS(t, 100)
	for i := 0; i < 20; i++ {
		db.MustExec("SELECT a FROM R WHERE a < 5")
	}
	if got := len(db.Observability().Traces()); got != 0 {
		t.Fatalf("tracing disabled but %d traces retained", got)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
