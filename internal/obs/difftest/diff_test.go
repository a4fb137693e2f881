// Package difftest is the differential harness for the plan cache: the
// cache is an optimization, so it must be semantically invisible. The
// same workload is replayed against fresh databases with the cache on
// and bypassed, and the result sets AND the tuner's change logs are
// required to agree byte for byte, in execution order.
package difftest

import (
	"fmt"
	"strings"
	"testing"

	"onlinetuner/internal/core"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/optimizer"
	"onlinetuner/internal/tpch"
)

const (
	scale    = 0.1
	dataSeed = 42
)

// replay loads the same TPC-H instance into a fresh database, attaches
// an online tuner, bypasses the plan cache unless cached, and executes
// every statement, returning the per-statement canonical results, the
// tuner change log, and the database for further inspection.
func replay(t *testing.T, cached bool, stmts []string) ([]string, []core.Event, *engine.DB, *core.Tuner) {
	return replayAt(t, cached, 0, stmts)
}

// replayAt is replay with an explicit intra-query worker budget (0 =
// GOMAXPROCS, the engine default).
func replayAt(t *testing.T, cached bool, workers int, stmts []string) ([]string, []core.Event, *engine.DB, *core.Tuner) {
	t.Helper()
	db := engine.OpenConfig(engine.Config{ExecWorkers: workers})
	if !cached {
		db.BypassPlanCache()
	}
	if err := tpch.NewGenerator(scale, dataSeed).Load(db); err != nil {
		t.Fatal(err)
	}
	tn := core.Attach(db, core.DefaultOptions())
	out := make([]string, len(stmts))
	for i, s := range stmts {
		rs, _, err := db.Exec(s)
		if err != nil {
			t.Fatalf("cached=%v stmt %d %q: %v", cached, i, s, err)
		}
		out[i] = canon(rs.Rows, rs.Affected)
	}
	return out, tn.Events(), db, tn
}

// canon renders a result in execution order, byte for byte.
func canon(rows []datum.Row, affected int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "affected=%d\n", affected)
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				sb.WriteByte('|')
			}
			fmt.Fprintf(&sb, "%v", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// sameEvents requires two change logs to agree record for record,
// field by field, with each index compared by its ID.
func sameEvents(t *testing.T, name string, a, b []core.Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: change logs diverge: %d vs %d records\nA: %v\nB: %v", name, len(a), len(b), a, b)
	}
	// fields drops Event's String method, so %+v prints every field.
	type fields core.Event
	for i := range a {
		x, y := fields(a[i]), fields(b[i])
		idX, idY := x.Index.ID(), y.Index.ID()
		x.Index, y.Index = nil, nil
		if idX != idY || x != y {
			t.Errorf("%s: record %d diverges:\nA: %s %+v\nB: %s %+v", name, i, idX, x, idY, y)
		}
	}
}

// TestDifferentialFixedWorkload replays one batch of the 22 TPC-H query
// templates three times with FIXED parameters. The cached database must
// produce byte-identical per-statement results in execution order, and
// the tuner must make the identical sequence of decisions — same
// indexes, same Δ evidence, same reasons, at the same query counts.
func TestDifferentialFixedWorkload(t *testing.T) {
	batch := tpch.NewGenerator(scale, 7).Batch()
	var stmts []string
	for r := 0; r < 3; r++ {
		stmts = append(stmts, batch...)
	}

	res, dec, db, _ := replay(t, true, stmts)
	resOff, decOff, _, _ := replay(t, false, stmts)

	for i := range stmts {
		if res[i] != resOff[i] {
			t.Fatalf("stmt %d %q: cached differs from uncached:\n%s\nvs\n%s", i, stmts[i], res[i], resOff[i])
		}
	}
	sameEvents(t, "cached vs uncached", dec, decOff)

	// The comparison only means something if caching actually happened.
	if st := db.PlanCacheStats(); st.Hits == 0 {
		t.Errorf("the cache never hit: %+v", st)
	}
}

// TestDifferentialVaryingWorkloadWithDML is the harder variant: three
// batches with FRESH parameters per template, interleaved with
// disruptive updates and refresh streams, then parameter sweeps that
// rebind generic plans. The cached replay — plans keyed by selectivity
// and rebound to fresh literals, request trees and tuner terms shared by
// every statement of a key — must stay byte-identical to the uncached
// one in execution order, change log included, and must actually
// rebind.
func TestDifferentialVaryingWorkloadWithDML(t *testing.T) {
	g := tpch.NewGenerator(scale, 11)
	var stmts []string
	for r := 0; r < 3; r++ {
		stmts = append(stmts, g.Batch()...)
		stmts = append(stmts, g.DisruptiveUpdates(4)...)
		stmts = append(stmts, g.RefreshInsert(2)...)
		stmts = append(stmts, g.RefreshDelete(1)...)
	}
	// Parameter sweeps: same template, different literals, back to back.
	for i := 0; i < 15; i++ {
		stmts = append(stmts, g.Query(6))
	}
	for k := 1; k <= 40; k++ {
		stmts = append(stmts,
			fmt.Sprintf("SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d", k*7),
			fmt.Sprintf("SELECT COUNT(*) AS n, SUM(l_extendedprice) AS rev FROM lineitem WHERE l_orderkey = %d", k*5))
		if k%8 == 0 {
			stmts = append(stmts, g.DisruptiveUpdates(1)...)
		}
	}

	res, dec, db, tn := replay(t, true, stmts)
	resOff, decOff, _, _ := replay(t, false, stmts)

	for i := range stmts {
		if res[i] != resOff[i] {
			t.Fatalf("stmt %d %q: cached differs from uncached:\n%s\nvs\n%s", i, stmts[i], res[i], resOff[i])
		}
	}
	sameEvents(t, "cached vs uncached", dec, decOff)

	if st := db.PlanCacheStats(); st.RebindHits == 0 {
		t.Errorf("the cache never rebound a generic plan: %+v", st)
	}
	if st := tn.MemoStats(); st.TreeHits == 0 {
		t.Errorf("the tuner never reused a shared tree's terms: %+v", st)
	}
	t.Logf("%d decisions; plan cache %+v; memo %+v", len(dec), db.PlanCacheStats(), tn.MemoStats())
}

// TestDifferentialParallelExecutor replays the fixed workload (with DML
// interleaved) at ExecWorkers 1 and 4: the morsel-parallel executor must
// be byte-identical to the sequential one in execution order, and the
// tuner — which observes estimated costs, unchanged by parallelism —
// must make the identical decision sequence.
func TestDifferentialParallelExecutor(t *testing.T) {
	g := tpch.NewGenerator(scale, 19)
	var stmts []string
	for r := 0; r < 2; r++ {
		stmts = append(stmts, g.Batch()...)
		stmts = append(stmts, g.DisruptiveUpdates(4)...)
		stmts = append(stmts, g.RefreshInsert(2)...)
	}

	resSeq, decSeq, _, _ := replayAt(t, false, 1, stmts)
	resPar, decPar, _, _ := replayAt(t, false, 4, stmts)

	for i := range stmts {
		if resSeq[i] != resPar[i] {
			t.Fatalf("stmt %d %q: parallel differs from sequential:\n%s\nvs\n%s",
				i, stmts[i], resPar[i], resSeq[i])
		}
	}
	sameEvents(t, "parallel vs sequential", decPar, decSeq)
}

// replayEngine is replayAt on the default executor or, with reference
// set, on the reference executor, which runs the scalar row loop
// everywhere.
func replayEngine(t *testing.T, workers int, reference bool, stmts []string) ([]string, []core.Event, *engine.DB) {
	t.Helper()
	cfg := engine.Config{ExecWorkers: workers}
	if reference {
		cfg.ExecEngine = "row"
	}
	db := engine.OpenConfig(cfg)
	db.BypassPlanCache()
	if err := tpch.NewGenerator(scale, dataSeed).Load(db); err != nil {
		t.Fatal(err)
	}
	tn := core.Attach(db, core.DefaultOptions())
	out := make([]string, len(stmts))
	for i, s := range stmts {
		rs, _, err := db.Exec(s)
		if err != nil {
			t.Fatalf("reference=%v workers %d stmt %d %q: %v", reference, workers, i, s, err)
		}
		out[i] = canon(rs.Rows, rs.Affected)
	}
	return out, tn.Events(), db
}

// stringPredicateBatch exercises the paths the TPC-H templates do not:
// LIKE in every shape class (prefix, suffix, contains, generic with _),
// NOT LIKE, IN-style OR chains and BETWEEN-style range pairs — the
// predicates the vectorized engine compiles to prefiltered kernels.
func stringPredicateBatch() []string {
	return []string{
		"SELECT p_partkey, p_name FROM part WHERE p_name LIKE 'part name 0%'",
		"SELECT COUNT(*) FROM part WHERE p_type LIKE '%BRASS'",
		"SELECT COUNT(*) FROM part WHERE p_type LIKE 'PROMO%'",
		"SELECT COUNT(*) FROM part WHERE p_container LIKE '%CASE%'",
		"SELECT COUNT(*) FROM orders WHERE o_orderpriority NOT LIKE '_-URGENT'",
		"SELECT COUNT(*) FROM orders WHERE o_orderpriority LIKE '_-_IGH'",
		"SELECT l_returnflag, COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_shipmode LIKE '%AI%' GROUP BY l_returnflag",
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity >= 10 AND l_quantity <= 20",
		"SELECT COUNT(*) FROM lineitem WHERE l_shipmode = 'AIR' OR l_shipmode = 'RAIL' OR l_shipmode = 'SHIP'",
		// scan_olap's stable lineitem shapes, whose half-open ship-date
		// range fuses into one range kernel.
		`SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) AS rev FROM lineitem
			WHERE l_shipdate >= DATE '1994-03-01' AND l_shipdate < DATE '1994-05-15'
			GROUP BY l_returnflag ORDER BY l_returnflag`,
		`SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem
			WHERE l_shipdate >= DATE '1994-03-01' AND l_shipdate < DATE '1994-05-15' AND l_quantity < 30`,
	}
}

// TestDifferentialVectorized replays the TPC-H workload (DML and string
// predicates interleaved) on the default executor at ExecWorkers 1 and
// 4 and on the reference executor at 4, against the reference at 1.
// Results and tuner change logs must be byte-identical everywhere;
// EXPLAIN ANALYZE actuals (rows, scanned, pages) must agree too, with
// only the per-operator engine tag and timings allowed to differ. The
// tags pin the selection rule from both sides: on the default executor
// the scan probes vectorize, the point seek stays on the row loop and a
// drift-shaped range aggregate over a covering index vectorizes its
// HashAgg, and the reference never vectorizes.
func TestDifferentialVectorized(t *testing.T) {
	g := tpch.NewGenerator(scale, 23)
	var stmts []string
	for r := 0; r < 2; r++ {
		stmts = append(stmts, g.Batch()...)
		stmts = append(stmts, stringPredicateBatch()...)
		stmts = append(stmts, g.DisruptiveUpdates(4)...)
		stmts = append(stmts, g.RefreshInsert(2)...)
	}
	// The scan probes read lineitem, whose heap is past vecMinRows;
	// part's is not. The point probe's l_quantity + 1 compiles to a
	// kernel, so only the input-size threshold keeps its Project on the
	// row loop.
	scanProbes := []string{
		"SELECT COUNT(*) FROM lineitem WHERE l_shipmode LIKE '%AIL'",
		"SELECT l_returnflag, SUM(l_extendedprice), AVG(l_discount) FROM lineitem WHERE l_quantity >= 5 GROUP BY l_returnflag",
	}
	pointProbe := "SELECT l_quantity + 1, l_extendedprice FROM lineitem WHERE l_orderkey = 7 AND l_linenumber = 1"
	// The shape of the drift workload's OLAP template once the tuner has
	// built its index: a HashAgg over a covering IndexSeek, here over
	// more than vecMinRows (256) of lineitem's 600 rows.
	seekAggProbe := `SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) AS rev FROM lineitem
		WHERE l_shipdate >= DATE '1992-01-01' AND l_shipdate < DATE '1995-07-01' GROUP BY l_returnflag`
	probes := append(scanProbes, pointProbe, seekAggProbe)
	vectorized := func(a *engine.Analysis) int {
		n := 0
		for _, node := range a.Nodes {
			if node.Engine == "vectorized" {
				n++
			}
		}
		return n
	}
	rowOnly := func(name string, analyses []*engine.Analysis) {
		for pi, a := range analyses {
			if v := vectorized(a); v > 0 {
				t.Errorf("%s: the reference vectorized %d operators of %q", name, v, probes[pi])
			}
		}
	}

	coveringIndex := func(db *engine.DB) {
		db.MustExec("CREATE INDEX li_ship_cover ON lineitem (l_shipdate, l_returnflag, l_extendedprice)")
	}
	refRes, refDec, refDB := replayEngine(t, 1, true, stmts)
	coveringIndex(refDB)
	refAnalyses := analyzeProbes(t, refDB, probes)
	rowOnly("reference workers=1", refAnalyses)

	cases := []struct {
		workers   int
		reference bool
	}{
		{1, false}, {4, false}, {4, true},
	}
	for _, c := range cases {
		name := fmt.Sprintf("reference=%v workers=%d", c.reference, c.workers)
		res, dec, db := replayEngine(t, c.workers, c.reference, stmts)
		for i := range stmts {
			if res[i] != refRes[i] {
				t.Fatalf("%s stmt %d %q differs from the reference at 1 worker:\n%s\nvs\n%s",
					name, i, stmts[i], res[i], refRes[i])
			}
		}
		sameEvents(t, name+" vs reference at 1 worker", dec, refDec)
		coveringIndex(db)
		analyses := analyzeProbes(t, db, probes)
		for pi, a := range analyses {
			sameActuals(t, name, probes[pi], a, refAnalyses[pi])
		}
		if c.reference {
			rowOnly(name, analyses)
			continue
		}
		for pi, q := range scanProbes {
			if vectorized(analyses[pi]) == 0 {
				t.Errorf("%s: scan probe %q vectorized no operator: %+v", name, q, analyses[pi].Nodes)
			}
		}
		point := analyses[len(scanProbes)]
		if leaf := point.Nodes[len(point.Nodes)-1]; !strings.HasPrefix(leaf.Label, "IndexSeek") || vectorized(point) > 0 {
			t.Errorf("%s: point probe %q is not an IndexSeek on the row loop: %+v", name, pointProbe, point.Nodes)
		}
		seekAgg := analyses[len(scanProbes)+1]
		leaf := seekAgg.Nodes[len(seekAgg.Nodes)-1]
		var agg *engine.AnalyzedNode
		for i := range seekAgg.Nodes {
			if strings.HasPrefix(seekAgg.Nodes[i].Label, "HashAgg") {
				agg = &seekAgg.Nodes[i]
			}
		}
		if !strings.HasPrefix(leaf.Label, "IndexSeek li_ship_cover") || leaf.ActualRows < 256 || agg == nil || agg.Engine != "vectorized" {
			t.Errorf("%s: probe %q is not a vectorized HashAgg over a covering IndexSeek of at least 256 rows: %+v", name, seekAggProbe, seekAgg.Nodes)
		}
	}
}

// replayRules is replayAt with an explicit optimizer rule set and the
// count of statements on which at least one rewrite rule fired.
func replayRules(t *testing.T, workers int, rules optimizer.Rules, stmts []string) ([]string, []core.Event, int) {
	t.Helper()
	db := engine.OpenConfig(engine.Config{ExecWorkers: workers})
	db.Opt.SetRules(rules)
	db.BypassPlanCache()
	if err := tpch.NewGenerator(scale, dataSeed).Load(db); err != nil {
		t.Fatal(err)
	}
	tn := core.Attach(db, core.DefaultOptions())
	out := make([]string, len(stmts))
	applied := 0
	for i, s := range stmts {
		rs, info, err := db.Exec(s)
		if err != nil {
			t.Fatalf("rules %#x stmt %d %q: %v", rules, i, s, err)
		}
		if info.Result != nil && len(info.Result.RulesApplied) > 0 {
			applied++
		}
		out[i] = canon(rs.Rows, rs.Affected)
	}
	return out, tn.Events(), applied
}

// TestDifferentialRules replays the TPC-H workload — whose Q4, Q18 and
// Q22 templates carry IN / EXISTS / NOT EXISTS subqueries, and whose
// templates end in ORDER BY ... LIMIT — with the full rewrite pack on
// vs every rule off, at 1 and 4 workers. The rewrite pack is a cost
// optimization: per-statement results must be byte-identical in
// execution order under every setting. (Tuner decisions are NOT
// compared: the rules legitimately change estimated costs and what-if
// candidates, which is their point.)
func TestDifferentialRules(t *testing.T) {
	g := tpch.NewGenerator(scale, 29)
	var stmts []string
	for r := 0; r < 2; r++ {
		stmts = append(stmts, g.Batch()...)
		stmts = append(stmts, g.DisruptiveUpdates(4)...)
		stmts = append(stmts, g.RefreshInsert(2)...)
	}

	refRes, _, refApplied := replayRules(t, 1, 0, stmts)
	if refApplied != 0 {
		t.Fatalf("rules=none still applied rewrites on %d statements", refApplied)
	}
	for _, c := range []struct {
		workers int
		rules   optimizer.Rules
	}{
		{1, optimizer.DefaultRules}, {4, optimizer.DefaultRules}, {4, 0}, {1, optimizer.RuleTopN | optimizer.RuleMinMax},
	} {
		name := fmt.Sprintf("rules=%#x workers=%d", c.rules, c.workers)
		res, _, applied := replayRules(t, c.workers, c.rules, stmts)
		for i := range stmts {
			if res[i] != refRes[i] {
				t.Fatalf("%s stmt %d %q differs from rules-off/sequential:\n%s\nvs\n%s",
					name, i, stmts[i], res[i], refRes[i])
			}
		}
		// The comparison only means something if the pack actually fired.
		if c.rules == optimizer.DefaultRules && applied == 0 {
			t.Errorf("%s: no statement had a rewrite rule applied", name)
		}
	}
}

// analyzeProbes runs EXPLAIN ANALYZE for each probe statement.
func analyzeProbes(t *testing.T, db *engine.DB, probes []string) []*engine.Analysis {
	t.Helper()
	out := make([]*engine.Analysis, len(probes))
	for i, q := range probes {
		a, err := db.ExplainAnalyze(q)
		if err != nil {
			t.Fatalf("EXPLAIN ANALYZE %q: %v", q, err)
		}
		out[i] = a
	}
	return out
}

// sameActuals compares two analyses of the same statement, ignoring the
// fields legitimately allowed to differ between executors: wall-clock
// timings and the per-operator engine tag.
func sameActuals(t *testing.T, name, q string, a, b *engine.Analysis) {
	t.Helper()
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("%s: %q plans diverge: %d vs %d operators", name, q, len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if x.Depth != y.Depth || x.Label != y.Label || x.EstCost != y.EstCost || x.EstRows != y.EstRows ||
			x.ActualRows != y.ActualRows || x.Scanned != y.Scanned || x.Pages != y.Pages {
			t.Errorf("%s: %q operator %d actuals diverge:\nA: %+v\nB: %+v", name, q, i, x, y)
		}
	}
}

// TestTunerSnapshotReconciliationUnderWorkload reruns a short workload
// and checks the registry snapshot agrees exactly with both the plan
// cache's and the tuner's own accessors — across packages, after real
// tuning activity.
func TestTunerSnapshotReconciliationUnderWorkload(t *testing.T) {
	g := tpch.NewGenerator(scale, 3)
	stmts := g.Batch()
	res, decs, db, tn := replay(t, true, append(stmts, stmts...))
	if len(res) == 0 {
		t.Fatal("no statements ran")
	}

	snap := db.Observability().Reg.Snapshot()
	pcs := db.PlanCacheStats()
	if snap["plancache.hits"] != pcs.Hits || snap["plancache.misses"] != pcs.Misses {
		t.Errorf("plan cache counters drifted: snapshot %v/%v, stats %+v",
			snap["plancache.hits"], snap["plancache.misses"], pcs)
	}
	m := tn.Metrics()
	if snap["tuner.queries"] != m.Queries {
		t.Errorf("tuner.queries = %v, Metrics says %d", snap["tuner.queries"], m.Queries)
	}
	if snap["tuner.builds_started"] != m.BuildsStarted {
		t.Errorf("tuner.builds_started = %v, Metrics says %d", snap["tuner.builds_started"], m.BuildsStarted)
	}
	if snap["tuner.decisions"] != int64(len(decs)) {
		t.Errorf("tuner.decisions = %v but log holds %d", snap["tuner.decisions"], len(decs))
	}
}
