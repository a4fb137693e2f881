package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"onlinetuner/internal/executor"
)

// canonRows renders a result set order-independently for comparison.
func canonRows(rs *executor.ResultSet) []string {
	out := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func sameResult(t *testing.T, label string, got, want *executor.ResultSet) {
	t.Helper()
	g, w := canonRows(got), canonRows(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d = %s, want %s", label, i, g[i], w[i])
		}
	}
}

func explainMarker(t *testing.T, db *DB, query string) string {
	t.Helper()
	s, err := db.ExplainString(query)
	if err != nil {
		t.Fatalf("ExplainString(%q): %v", query, err)
	}
	return strings.SplitN(s, "\n", 2)[0]
}

func wantMarker(t *testing.T, db *DB, query, want string) {
	t.Helper()
	if got := explainMarker(t, db, query); got != want {
		t.Fatalf("%q: marker %q, want %q", query, got, want)
	}
}

// openRSBypass is openRS with the plan cache bypassed: the uncached
// reference a cached database must agree with.
func openRSBypass(t testing.TB, rows int) *DB {
	db := openRS(t, rows)
	db.BypassPlanCache()
	return db
}

// samePlan requires the cached database to plan query exactly as the
// uncached reference does: the EXPLAIN text below the provenance line —
// operators, literals, cost and row estimates — byte for byte.
func samePlan(t *testing.T, cached, ref *DB, query string) {
	t.Helper()
	got, err := cached.ExplainString(query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ExplainString(query)
	if err != nil {
		t.Fatal(err)
	}
	got, want = strings.SplitN(got, "\n", 2)[1], strings.SplitN(want, "\n", 2)[1]
	if got != want {
		t.Fatalf("%q: cached plan differs from a fresh one:\n%s\nvs\n%s", query, got, want)
	}
}

func TestPlanCacheExactHit(t *testing.T) {
	db := openRS(t, 1000)
	const q = "SELECT a, b FROM R WHERE a < 10"

	wantMarker(t, db, q, "-- plan: fresh")
	wantMarker(t, db, q, "-- plan: cached (exact)")

	// A literal with a different selectivity is a different key: its own
	// fresh optimization and entry, next to the first literal's.
	wantMarker(t, db, "SELECT a, b FROM R WHERE a < 20", "-- plan: fresh")
	wantMarker(t, db, "SELECT a, b FROM R WHERE a < 20", "-- plan: cached (exact)")
	wantMarker(t, db, q, "-- plan: cached (exact)")

	// Execution goes through the same cache and produces the same rows;
	// the second execution also skips the parser.
	before := db.PlanCacheStats()
	want := db.MustExec(q)
	got := db.MustExec(q)
	sameResult(t, "cached exact execution", got, want)
	after := db.PlanCacheStats()
	if after.Hits-before.Hits != 2 {
		t.Fatalf("exact executions hit %d times, want 2: %+v -> %+v", after.Hits-before.Hits, before, after)
	}
	if after.StmtHits-before.StmtHits != 1 {
		t.Fatalf("repeated text hit the statement tier %d times, want 1: %+v -> %+v", after.StmtHits-before.StmtHits, before, after)
	}
}

func TestPlanCacheExplainStatementMarked(t *testing.T) {
	db := openRS(t, 1000)
	rs := db.MustExec("EXPLAIN SELECT id FROM R WHERE a = 3")
	if len(rs.Rows) == 0 || rs.Rows[0][0].Str() != "-- plan: fresh" {
		t.Fatalf("EXPLAIN first row = %v, want fresh marker", rs.Rows[0])
	}
	rs = db.MustExec("EXPLAIN SELECT id FROM R WHERE a = 3")
	if rs.Rows[0][0].Str() != "-- plan: cached (exact)" {
		t.Fatalf("second EXPLAIN first row = %v, want cached (exact)", rs.Rows[0])
	}
}

func TestPlanCacheInvalidation(t *testing.T) {
	db := openRS(t, 1000)
	const q = "SELECT a, b FROM R WHERE a < 10"

	// CREATE INDEX bumps the config version.
	wantMarker(t, db, q, "-- plan: fresh")
	wantMarker(t, db, q, "-- plan: cached (exact)")
	before := db.PlanCacheStats()
	db.MustExec("CREATE INDEX Iab ON R (a, b)")
	wantMarker(t, db, q, "-- plan: fresh")
	if s := db.PlanCacheStats(); s.Invalidations <= before.Invalidations {
		t.Fatalf("create index did not invalidate: %+v -> %+v", before, s)
	}

	// DROP INDEX bumps it again.
	wantMarker(t, db, q, "-- plan: cached (exact)")
	db.MustExec("DROP INDEX Iab")
	wantMarker(t, db, q, "-- plan: fresh")

	// Analyze bumps the statistics epoch.
	wantMarker(t, db, q, "-- plan: cached (exact)")
	if err := db.Analyze("R"); err != nil {
		t.Fatal(err)
	}
	wantMarker(t, db, q, "-- plan: fresh")

	// DML on a referenced table changes its size signature: the stored
	// entry no longer proves the fresh optimization, so it must miss
	// (no Invalidations bump required — versions still match).
	wantMarker(t, db, q, "-- plan: cached (exact)")
	db.MustExec("INSERT INTO R VALUES (5001, 1, 2, 3, 4, 5)")
	wantMarker(t, db, q, "-- plan: fresh")

	// DML on an unreferenced table does not disturb entries for R.
	wantMarker(t, db, q, "-- plan: cached (exact)")
	db.MustExec("INSERT INTO S VALUES (5001, 1, 2)")
	wantMarker(t, db, q, "-- plan: cached (exact)")
}

// TestPlanCacheRebind: statements of one template whose literals give
// the cached plan's selectivities share it, rebound to their own
// literals, and plan and answer exactly as a fresh optimization does.
func TestPlanCacheRebind(t *testing.T) {
	db := openRS(t, 1000)
	ref := openRSBypass(t, 1000)
	for _, d := range []*DB{db, ref} {
		d.MustExec("CREATE INDEX Ia ON R (a, b, id)")
	}

	// Equality: a = i%100 holds ten rows of every value, so every
	// in-range literal has the same selectivity.
	wantMarker(t, db, "SELECT id FROM R WHERE a = 42", "-- plan: fresh")
	for _, v := range []int{17, 0, 99, 42} {
		q := fmt.Sprintf("SELECT id FROM R WHERE a = %d", v)
		want := "-- plan: cached (rebound)"
		if v == 42 {
			want = "-- plan: cached (exact)"
		}
		wantMarker(t, db, q, want)
		samePlan(t, db, ref, q)
		sameResult(t, q, db.MustExec(q), ref.MustExec(q))
	}

	// Range: bounds past the column's maximum all select every row.
	wantMarker(t, db, "SELECT a, b FROM R WHERE a < 1000", "-- plan: fresh")
	wantMarker(t, db, "SELECT a, b FROM R WHERE a < 5000", "-- plan: cached (rebound)")
	samePlan(t, db, ref, "SELECT a, b FROM R WHERE a < 5000")
	// A bound inside the range selects a different share: its own plan.
	wantMarker(t, db, "SELECT a, b FROM R WHERE a < 50", "-- plan: fresh")
	samePlan(t, db, ref, "SELECT a, b FROM R WHERE a < 50")

	// Rebound DML: the second UPDATE reuses the first's plan with new
	// literals and must touch exactly the fresh set of rows.
	db.MustExec("UPDATE R SET c = 111 WHERE a = 5")
	wantMarker(t, db, "UPDATE R SET c = 222 WHERE a = 7", "-- plan: cached (rebound)")
	db.MustExec("UPDATE R SET c = 222 WHERE a = 7")
	if n := db.MustExec("SELECT COUNT(*) FROM R WHERE c = 222").Rows[0][0].Int(); n != 10 {
		t.Fatalf("rebound update touched %d rows, want 10", n)
	}
	if n := db.MustExec("SELECT COUNT(*) FROM R WHERE c = 111").Rows[0][0].Int(); n != 10 {
		t.Fatalf("first update lost rows after rebound one: %d, want 10", n)
	}

	if s := db.PlanCacheStats(); s.RebindHits == 0 {
		t.Fatalf("no rebind hits recorded: %+v", s)
	}
}

// TestPlanCacheRebindDMLSource: a rebound UPDATE must seek with the NEW
// literal. The DML node's Source carries the seek bounds, so a rebind
// that only rewrote the SET list would update the cached statement's row
// three times over.
func TestPlanCacheRebindDMLSource(t *testing.T) {
	ids := []int{10, 500, 999}
	run := func(db *DB) (markers, rows []string) {
		for _, id := range ids {
			q := fmt.Sprintf("UPDATE R SET e = -1 WHERE id = %d", id)
			a, err := db.ExplainAnalyze(q)
			if err != nil {
				t.Fatal(err)
			}
			if a.Result.Affected != 1 {
				t.Fatalf("%q affected %d rows, want 1", q, a.Result.Affected)
			}
			if src := a.Nodes[len(a.Nodes)-1]; !strings.HasPrefix(src.Label, "IndexSeek R_pk on R (eq=1") {
				t.Fatalf("%q locates through %q, want a primary seek", q, src.Label)
			}
			markers = append(markers, a.Provenance)
		}
		return markers, canonRows(db.MustExec("SELECT id FROM R WHERE e = -1"))
	}

	markers, rows := run(openRS(t, 1000))
	if want := []string{"fresh", "cached (rebound)", "cached (rebound)"}; fmt.Sprint(markers) != fmt.Sprint(want) {
		t.Fatalf("cached provenance = %v, want %v", markers, want)
	}
	if want := []string{"(10)", "(500)", "(999)"}; fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("rebound updates hit rows %v, want %v", rows, want)
	}
	refMarkers, refRows := run(openRSBypass(t, 1000))
	if want := []string{"fresh", "fresh", "fresh"}; fmt.Sprint(refMarkers) != fmt.Sprint(want) {
		t.Fatalf("bypassed provenance = %v, want %v", refMarkers, want)
	}
	if fmt.Sprint(refRows) != fmt.Sprint(rows) {
		t.Fatalf("uncached updates hit rows %v, cached %v", refRows, rows)
	}
}

func TestPlanCacheRebindGenericFallback(t *testing.T) {
	db := openRS(t, 1000)

	// Two upper bounds on one column: which literal survives as the
	// tight bound depends on the values, so the plan is not generic and
	// different literals must re-optimize.
	wantMarker(t, db, "SELECT id FROM R WHERE a < 10 AND a < 20", "-- plan: fresh")
	wantMarker(t, db, "SELECT id FROM R WHERE a < 30 AND a < 5", "-- plan: fresh")
	// Identical literals still hit exactly.
	wantMarker(t, db, "SELECT id FROM R WHERE a < 30 AND a < 5", "-- plan: cached (exact)")
}

// TestPlanCacheTruthLiteral: a bare literal conjunct is dropped when it
// is TRUE and filters every row otherwise, so TRUE and FALSE must not
// share a plan even though no selectivity tells them apart.
func TestPlanCacheTruthLiteral(t *testing.T) {
	db := openRS(t, 200)
	ref := openRSBypass(t, 200)
	for _, q := range []string{
		"SELECT id FROM R WHERE a = 3 AND TRUE",
		"SELECT id FROM R WHERE a = 4 AND FALSE",
		"SELECT id FROM R WHERE a = 5 AND TRUE",
	} {
		samePlan(t, db, ref, q)
		sameResult(t, q, db.MustExec(q), ref.MustExec(q))
	}
	wantMarker(t, db, "SELECT id FROM R WHERE a = 6 AND FALSE", "-- plan: cached (rebound)")
}

// TestPlanCacheLiteralColumnNames: an unaliased select item names its
// result column after its text, literal included, so statements that
// differ there must not share a plan; aliased ones still rebind.
func TestPlanCacheLiteralColumnNames(t *testing.T) {
	db := openRS(t, 200)
	ref := openRSBypass(t, 200)
	for _, c := range []struct {
		text, second string
	}{
		{"SELECT a + %d, id FROM R WHERE id = %d", "-- plan: fresh"},
		{"SELECT SUM(a + %d) FROM R WHERE id = %d", "-- plan: fresh"},
		{"SELECT COUNT(*) FROM R WHERE id = %d GROUP BY a + %d", "-- plan: fresh"},
		{"SELECT a + %d AS x FROM R WHERE id = %d", "-- plan: cached (rebound)"},
	} {
		for i, lits := range [][]any{{1, 5}, {2, 6}} {
			q := fmt.Sprintf(c.text, lits...)
			if i == 1 {
				wantMarker(t, db, q, c.second)
			}
			got, want := db.MustExec(q), ref.MustExec(q)
			if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) {
				t.Fatalf("%q: columns %q, fresh %q", q, got.Columns, want.Columns)
			}
			sameResult(t, q, got, want)
		}
	}
}

func TestPlanCacheOff(t *testing.T) {
	db := openRSBypass(t, 500)
	const q = "SELECT a FROM R WHERE a < 10"
	wantMarker(t, db, q, "-- plan: fresh")
	wantMarker(t, db, q, "-- plan: fresh")
	for i := 0; i < 3; i++ {
		db.MustExec(q)
	}
	if s := db.PlanCacheStats(); s != (PlanCacheStats{}) {
		t.Fatalf("bypassed cache touched a tier: %+v", s)
	}
}

func TestPlanCacheInsertNotCached(t *testing.T) {
	db := openRS(t, 100)
	before := db.PlanCacheStats()
	db.MustExec("INSERT INTO R VALUES (9001, 1, 2, 3, 4, 5)")
	db.MustExec("INSERT INTO R VALUES (9002, 1, 2, 3, 4, 5)")
	after := db.PlanCacheStats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("INSERT went through the plan tier: %+v -> %+v", before, after)
	}
}

func TestPlanCacheLRUBound(t *testing.T) {
	var c lru[uint64, *planEntry]
	c.init()
	evicted := 0
	for i := 0; i < 3*planShardCap; i++ {
		if c.put(uint64(i), &planEntry{template: fmt.Sprint(i)}, planShardCap) {
			evicted++
		}
	}
	if c.ll.Len() != planShardCap || len(c.m) != planShardCap {
		t.Fatalf("shard holds %d entries (map %d), want cap %d", c.ll.Len(), len(c.m), planShardCap)
	}
	if evicted != 2*planShardCap {
		t.Fatalf("evictions = %d, want %d", evicted, 2*planShardCap)
	}
	if _, ok := c.get(uint64(3*planShardCap - 1)); !ok {
		t.Fatal("most recent entry was evicted")
	}
	if _, ok := c.get(0); ok {
		t.Fatal("oldest entry survived")
	}
}
