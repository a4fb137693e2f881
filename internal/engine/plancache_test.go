package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"onlinetuner/internal/executor"
	"onlinetuner/internal/obs"
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

func TestPlanCacheExactHit(t *testing.T) {
	db := openRS(t, 1000)
	const q = "SELECT a, b FROM R WHERE a < 10"

	wantMarker(t, db, q, "-- plan: fresh")
	wantMarker(t, db, q, "-- plan: cached (exact)")

	// A different literal is a different exact key: miss under the
	// default mode, then its own entry... which overwrites the shared
	// per-template slot, so the first literal misses again after.
	wantMarker(t, db, "SELECT a, b FROM R WHERE a < 20", "-- plan: fresh")
	wantMarker(t, db, "SELECT a, b FROM R WHERE a < 20", "-- plan: cached (exact)")

	// Execution goes through the same cache and produces the same rows.
	before := db.PlanCacheStats()
	want := db.MustExec(q) // fresh (slot holds the a<20 entry)
	got := db.MustExec(q)  // exact hit
	sameResult(t, "cached exact execution", got, want)
	after := db.PlanCacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("exact execution did not hit: %+v -> %+v", before, after)
	}
	if after.StmtHits <= before.StmtHits {
		t.Fatalf("repeated text did not hit statement cache: %+v -> %+v", before, after)
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

func TestPlanCacheRebind(t *testing.T) {
	db := openRS(t, 1000)
	db.MustExec("CREATE INDEX Ia ON R (a, b, id)")
	db.SetPlanCacheMode(CacheRebind)

	// Range template: warm with one literal, rebind to others, and
	// check the rebound plans return exactly what a fresh optimization
	// returns (computed with the cache off).
	template := "SELECT a, b FROM R WHERE a < %d"
	wantMarker(t, db, fmt.Sprintf(template, 10), "-- plan: fresh")
	for _, v := range []int{3, 50, 97, 10} {
		q := fmt.Sprintf(template, v)
		if m := explainMarker(t, db, q); m != "-- plan: cached (rebound)" && m != "-- plan: cached (exact)" {
			t.Fatalf("%q: marker %q, want a cache hit", q, m)
		}
		got := db.MustExec(q)
		db.SetPlanCacheMode(CacheOff)
		want := db.MustExec(q)
		db.SetPlanCacheMode(CacheRebind)
		sameResult(t, q, got, want)
	}

	// Equality template.
	wantMarker(t, db, "SELECT id FROM R WHERE a = 42", "-- plan: fresh")
	wantMarker(t, db, "SELECT id FROM R WHERE a = 17", "-- plan: cached (rebound)")
	got := db.MustExec("SELECT id FROM R WHERE a = 17")
	db.SetPlanCacheMode(CacheOff)
	want := db.MustExec("SELECT id FROM R WHERE a = 17")
	db.SetPlanCacheMode(CacheRebind)
	sameResult(t, "rebound equality", got, want)

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
	run := func(mode CacheMode) (markers, rows []string) {
		db := openRS(t, 1000)
		db.SetPlanCacheMode(mode)
		for _, id := range ids {
			q := fmt.Sprintf("UPDATE R SET e = -1 WHERE id = %d", id)
			a, err := db.ExplainAnalyze(q)
			if err != nil {
				t.Fatal(err)
			}
			if a.Result.Affected != 1 {
				t.Fatalf("%v: %q affected %d rows, want 1", mode, q, a.Result.Affected)
			}
			if src := a.Nodes[len(a.Nodes)-1]; !strings.HasPrefix(src.Label, "IndexSeek R_pk on R (eq=1") {
				t.Fatalf("%v: %q locates through %q, want a primary seek", mode, q, src.Label)
			}
			markers = append(markers, a.Provenance)
		}
		return markers, canonRows(db.MustExec("SELECT id FROM R WHERE e = -1"))
	}

	markers, rows := run(CacheRebind)
	if want := []string{"fresh", "cached (rebound)", "cached (rebound)"}; fmt.Sprint(markers) != fmt.Sprint(want) {
		t.Fatalf("rebind provenance = %v, want %v", markers, want)
	}
	if want := []string{"(10)", "(500)", "(999)"}; fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("rebound updates hit rows %v, want %v", rows, want)
	}
	exactMarkers, exactRows := run(CacheExact)
	if want := []string{"fresh", "fresh", "fresh"}; fmt.Sprint(exactMarkers) != fmt.Sprint(want) {
		t.Fatalf("exact provenance = %v, want %v", exactMarkers, want)
	}
	if fmt.Sprint(exactRows) != fmt.Sprint(rows) {
		t.Fatalf("exact mode updated rows %v, rebind mode %v", exactRows, rows)
	}
}

func TestPlanCacheRebindGenericFallback(t *testing.T) {
	db := openRS(t, 1000)
	db.SetPlanCacheMode(CacheRebind)

	// Two upper bounds on one column: which literal survives as the
	// tight bound depends on the values, so the plan is not generic and
	// different literals must re-optimize.
	wantMarker(t, db, "SELECT id FROM R WHERE a < 10 AND a < 20", "-- plan: fresh")
	wantMarker(t, db, "SELECT id FROM R WHERE a < 30 AND a < 5", "-- plan: fresh")
	// Identical literals still hit exactly.
	wantMarker(t, db, "SELECT id FROM R WHERE a < 30 AND a < 5", "-- plan: cached (exact)")
}

func TestPlanCacheOff(t *testing.T) {
	db := openRS(t, 500)
	db.SetPlanCacheMode(CacheOff)
	const q = "SELECT a FROM R WHERE a < 10"
	wantMarker(t, db, q, "-- plan: fresh")
	wantMarker(t, db, q, "-- plan: fresh")
	if s := db.PlanCacheStats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("cache-off mode touched the plan tier: %+v", s)
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
	pc := newPlanCache(obs.NewRegistry())
	// Hashes that all land in shard 0 overflow its capacity.
	for i := 0; i < 3*planShardCap; i++ {
		pc.storePlan(&planEntry{hash: uint64(i * planShards), template: fmt.Sprint(i)})
	}
	sh := &pc.plans[0]
	if n := sh.ll.Len(); n != planShardCap {
		t.Fatalf("shard holds %d entries, want cap %d", n, planShardCap)
	}
	if len(sh.byHash) != planShardCap {
		t.Fatalf("shard map holds %d entries, want cap %d", len(sh.byHash), planShardCap)
	}
	if ev := pc.evictions.Value(); ev != 2*planShardCap {
		t.Fatalf("evictions = %d, want %d", ev, 2*planShardCap)
	}
	// The most recent entries survived.
	last := uint64((3*planShardCap - 1) * planShards)
	if _, ok := sh.byHash[last]; !ok {
		t.Fatal("most recent entry was evicted")
	}
}
