package engine

import (
	"fmt"
	"strings"
	"testing"

	"onlinetuner/internal/optimizer"
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

	db.Opt.SetRules(0)
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
	db.Opt.SetRules(0)
	wantMarker(t, db, q, "-- plan: fresh")
	if s := db.PlanCacheStats(); s.Invalidations <= before.Invalidations {
		t.Fatalf("rule change did not invalidate: %+v -> %+v", before, s)
	}
	wantMarker(t, db, q, "-- plan: cached (exact)")

	db.Opt.SetRules(optimizer.DefaultRules)
	wantMarker(t, db, q, "-- plan: fresh")
	wantMarker(t, db, q, "-- plan: cached (exact)")
}

// TestRulesConfigRoundTrip: Config.Rules "none" turns every rule off;
// the empty string, "all" and any value it does not know (a per-rule
// list among them) leave every rule on.
func TestRulesConfigRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want optimizer.Rules
	}{
		{"", optimizer.DefaultRules},
		{"all", optimizer.DefaultRules},
		{"none", 0},
		{"topn,minmax", optimizer.DefaultRules},
		{"bogus-rule", optimizer.DefaultRules},
	} {
		db := OpenConfig(Config{Rules: tc.spec})
		if got := db.Opt.Rules(); got != tc.want {
			t.Errorf("Config.Rules=%q → %#x, want %#x", tc.spec, got, tc.want)
		}
		db.Close()
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
		name, canon, query string
		rule               optimizer.Rules
	}{
		{"unnest", "subquery-unnest", "SELECT id, a FROM R WHERE a IN (SELECT x FROM S WHERE y = 3)", optimizer.RuleUnnest},
		{"topn", "topn-pushdown", "SELECT id, a FROM R ORDER BY a DESC, id LIMIT 10", optimizer.RuleTopN},
		{"minmax", "minmax-endpoint", "SELECT MAX(id) AS hi FROM R", optimizer.RuleMinMax},
		// Only R.id is needed above the join: five columns pruned.
		{"prune", "column-prune", "SELECT S.x FROM R, S WHERE R.id = S.id AND S.y = 7", optimizer.RulePrune},
		// The MAX items keep enough columns live that pruning saves nothing.
		{"joindp", "join-dp", "SELECT COUNT(*) AS n, MAX(Q.id) AS q, MAX(P.id) AS p FROM V, P, Q, W " +
			"WHERE V.id = P.v AND P.id = Q.p AND Q.w = W.id AND W.f = 3", optimizer.RuleJoinDP},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(rules optimizer.Rules) (rows string, cost float64, applied []string, explain string) {
				t.Helper()
				db.Opt.SetRules(rules)
				rs, info, err := db.Exec(tc.query)
				if err != nil {
					t.Fatalf("rules %#x: %v", rules, err)
				}
				if explain, err = db.ExplainString(tc.query); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(rs.Rows), info.EstCost, info.Result.RulesApplied, explain
			}
			rowsOff, costOff, _, explainOff := run(0)
			rowsOn, costOn, _, explainOn := run(tc.rule)
			_, _, appliedAll, _ := run(optimizer.DefaultRules)
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
