package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestRulesExplainProvenance: an applied rule announces itself as a
// "-- rule:" header line, and disabling the rule set removes both the
// lines and the rewritten operators — without changing the rows.
func TestRulesExplainProvenance(t *testing.T) {
	db := openRS(t, 500)
	const q = "SELECT id, a FROM R WHERE a < 50 ORDER BY a DESC, id LIMIT 10"

	on, err := db.ExplainString(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(on, "-- rule: topn-pushdown") {
		t.Fatalf("rules-on EXPLAIN missing provenance:\n%s", on)
	}
	if !strings.Contains(on, "TopN") {
		t.Fatalf("rules-on EXPLAIN missing TopN:\n%s", on)
	}
	rowsOn := db.MustExec(q)

	if err := db.SetRules("none"); err != nil {
		t.Fatal(err)
	}
	off, err := db.ExplainString(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(off, "-- rule:") {
		t.Fatalf("rules-off EXPLAIN still has provenance:\n%s", off)
	}
	if !strings.Contains(off, "Sort") || !strings.Contains(off, "Limit") {
		t.Fatalf("rules-off EXPLAIN should fall back to Sort+Limit:\n%s", off)
	}
	rowsOff := db.MustExec(q)

	got, want := fmt.Sprint(rowsOn.Rows), fmt.Sprint(rowsOff.Rows)
	if got != want {
		t.Fatalf("rule toggle changed results:\non:  %s\noff: %s", got, want)
	}
}

// TestRulesPartOfPlanCacheKey: toggling the rule set must invalidate
// cached plans — a plan built under one rule set must never serve a
// session running another.
func TestRulesPartOfPlanCacheKey(t *testing.T) {
	db := openRS(t, 500)
	const q = "SELECT id, a FROM R WHERE a < 50 ORDER BY a DESC, id LIMIT 10"

	wantMarker(t, db, q, "-- plan: fresh")
	wantMarker(t, db, q, "-- plan: cached (exact)")

	before := db.PlanCacheStats()
	if err := db.SetRules("none"); err != nil {
		t.Fatal(err)
	}
	wantMarker(t, db, q, "-- plan: fresh")
	if s := db.PlanCacheStats(); s.Invalidations <= before.Invalidations {
		t.Fatalf("rule change did not invalidate: %+v -> %+v", before, s)
	}
	wantMarker(t, db, q, "-- plan: cached (exact)")

	if err := db.SetRules("all"); err != nil {
		t.Fatal(err)
	}
	wantMarker(t, db, q, "-- plan: fresh")
	wantMarker(t, db, q, "-- plan: cached (exact)")
}

// TestRulesConfigRoundTrip: the Rules accessor reflects SetRules and
// the Config field, and invalid specs are rejected without changing
// the active set.
func TestRulesConfigRoundTrip(t *testing.T) {
	db := openRS(t, 10)
	if got := db.Rules(); got != "all" {
		t.Fatalf("default rules = %q, want all", got)
	}
	if err := db.SetRules("topn,minmax"); err != nil {
		t.Fatal(err)
	}
	got := db.Rules()
	if !strings.Contains(got, "topn") || !strings.Contains(got, "minmax") || strings.Contains(got, "unnest") {
		t.Fatalf("rules after SetRules(topn,minmax) = %q", got)
	}
	if err := db.SetRules("bogus-rule"); err == nil {
		t.Fatal("invalid rule spec accepted")
	}
	if db.Rules() != got {
		t.Fatalf("failed SetRules changed active set to %q", db.Rules())
	}
	db2 := OpenConfig(Config{Rules: "none"})
	defer db2.Close()
	if got := db2.Rules(); got != "none" {
		t.Fatalf("Config.Rules=none → %q", got)
	}
}

// TestEachRuleAloneLowersCost pins the deterministic contract of the
// rewrite pack, one rule at a time: on a query where that rule and no
// other fires, enabling just that rule (against "none") keeps the rows
// identical, strictly lowers the estimated cost, and makes EXPLAIN name
// the rule in its "-- rule:" provenance.
func TestEachRuleAloneLowersCost(t *testing.T) {
	db := openRS(t, 2000)
	// A join chain V–P–Q–W for join-dp: greedy starts from the two-row V
	// and the one filtered W row, and carries P's 2 000 rows into the
	// join with Q; the bushy order joins W to Q first.
	db.MustExec("CREATE TABLE V (id INT, k INT, PRIMARY KEY (id))")
	db.MustExec("CREATE TABLE P (id INT, v INT, PRIMARY KEY (id))")
	db.MustExec("CREATE TABLE Q (id INT, p INT, w INT, PRIMARY KEY (id))")
	db.MustExec("CREATE TABLE W (id INT, f INT, PRIMARY KEY (id))")
	for i := 0; i < 2; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO V VALUES (%d, %d)", i, i))
	}
	for i := 0; i < 2000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO P VALUES (%d, %d)", i, i%2))
		db.MustExec(fmt.Sprintf("INSERT INTO Q VALUES (%d, %d, %d)", i, (i*7)%2000, i%500))
	}
	for i := 0; i < 500; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO W VALUES (%d, %d)", i, i))
	}
	for _, tbl := range []string{"V", "P", "Q", "W"} {
		if err := db.Analyze(tbl); err != nil {
			t.Fatal(err)
		}
	}
	// The unnested subquery's index-aware inner access path.
	db.MustExec("CREATE INDEX s_y ON S (y, x)")

	cases := []struct {
		rule, canon, query string
	}{
		{"unnest", "subquery-unnest", "SELECT id, a FROM R WHERE a IN (SELECT x FROM S WHERE y = 3)"},
		{"topn", "topn-pushdown", "SELECT id, a FROM R ORDER BY a DESC, id LIMIT 10"},
		{"minmax", "minmax-endpoint", "SELECT MAX(id) AS hi FROM R"},
		// Only R.id is needed above the join: five columns pruned.
		{"prune", "column-prune", "SELECT S.x FROM R, S WHERE R.id = S.id AND S.y = 7"},
		// The MAX items keep enough columns live that pruning saves nothing.
		{"joindp", "join-dp", "SELECT COUNT(*) AS n, MAX(Q.id) AS q, MAX(P.id) AS p FROM V, P, Q, W " +
			"WHERE V.id = P.v AND P.id = Q.p AND Q.w = W.id AND W.f = 3"},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			run := func(rules string) (rows string, cost float64, applied []string, explain string) {
				t.Helper()
				if err := db.SetRules(rules); err != nil {
					t.Fatal(err)
				}
				rs, info, err := db.Exec(tc.query)
				if err != nil {
					t.Fatalf("rules %s: %v", rules, err)
				}
				if explain, err = db.ExplainString(tc.query); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(rs.Rows), info.EstCost, info.Result.RulesApplied, explain
			}
			rowsOff, costOff, _, explainOff := run("none")
			rowsOn, costOn, _, explainOn := run(tc.rule)
			_, _, appliedAll, _ := run("all")
			if rowsOn != rowsOff {
				t.Errorf("rule changed the rows:\non:  %s\noff: %s", rowsOn, rowsOff)
			}
			if !(costOn < costOff) {
				t.Errorf("estimated cost %v with the rule, %v without: want a strict fall", costOn, costOff)
			}
			if !strings.Contains(explainOn, "-- rule: "+tc.canon+"\n") {
				t.Errorf("EXPLAIN does not name %s:\n%s", tc.canon, explainOn)
			}
			if strings.Contains(explainOff, "-- rule:") {
				t.Errorf("EXPLAIN with rules off names a rule:\n%s", explainOff)
			}
			if fmt.Sprint(appliedAll) != fmt.Sprint([]string{tc.canon}) {
				t.Errorf("with every rule on, %v fired; want %s alone", appliedAll, tc.canon)
			}
		})
	}
}
