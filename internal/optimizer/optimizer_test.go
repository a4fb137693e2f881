package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/stats"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/whatif"
)

// testEnv builds R(id,a,b,c) and S(id,x,y) with data and statistics.
func testEnv(t testing.TB, rows int) (*whatif.Env, *Optimizer) {
	t.Helper()
	cat := catalog.New()
	r, err := catalog.NewTable("R", []catalog.Column{
		{Name: "id", Kind: datum.KInt}, {Name: "a", Kind: datum.KInt},
		{Name: "b", Kind: datum.KInt}, {Name: "c", Kind: datum.KInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := catalog.NewTable("S", []catalog.Column{
		{Name: "id", Kind: datum.KInt}, {Name: "x", Kind: datum.KInt},
		{Name: "y", Kind: datum.KInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(r); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(s); err != nil {
		t.Fatal(err)
	}
	mgr := storage.NewManager(cat)
	for _, name := range []string{"R", "S"} {
		if err := mgr.CreateTable(name); err != nil {
			t.Fatal(err)
		}
	}
	st := stats.NewStore()
	var idVals, aVals, xVals []datum.Datum
	for i := 0; i < rows; i++ {
		rr := datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(i % 100)),
			datum.NewInt(int64(i % 7)), datum.NewInt(int64(i))}
		if _, _, err := mgr.Insert("R", rr); err != nil {
			t.Fatal(err)
		}
		idVals = append(idVals, rr[0])
		aVals = append(aVals, rr[1])
		sr := datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(i % 100)), datum.NewInt(int64(i % 5))}
		if _, _, err := mgr.Insert("S", sr); err != nil {
			t.Fatal(err)
		}
		xVals = append(xVals, sr[1])
	}
	st.BuildColumn("R", "id", idVals, 32)
	st.BuildColumn("R", "a", aVals, 32)
	st.BuildColumn("S", "id", idVals, 32)
	st.BuildColumn("S", "x", xVals, 32)
	env := whatif.NewEnv(cat, st, mgr)
	return env, New(env)
}

func parse(t testing.TB, q string) sql.Statement {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func TestBindClassification(t *testing.T) {
	env, _ := testEnv(t, 100)
	sel := parse(t, "SELECT R.b FROM R, S WHERE R.a = 5 AND R.id = S.x AND R.b + 1 > S.y").(*sql.Select)
	bq, err := bind(env.Cat, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(bq.tables) != 2 {
		t.Fatalf("tables = %d", len(bq.tables))
	}
	rt := bq.tables[0]
	if len(rt.eqs) != 1 || rt.eqs[0].col != "a" {
		t.Errorf("eq preds = %+v", rt.eqs)
	}
	if len(bq.joins) != 1 || bq.joins[0].lc != "id" || bq.joins[0].rc != "x" {
		t.Errorf("joins = %+v", bq.joins)
	}
	if len(bq.resid) != 1 {
		t.Errorf("multi-table residuals = %d", len(bq.resid))
	}
	// Required columns captured.
	if !containsStr(rt.required, "b") || !containsStr(rt.required, "a") || !containsStr(rt.required, "id") {
		t.Errorf("required = %v", rt.required)
	}
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if strings.EqualFold(x, s) {
			return true
		}
	}
	return false
}

func TestBindErrors(t *testing.T) {
	env, _ := testEnv(t, 10)
	bad := []string{
		"SELECT z FROM R",
		"SELECT a FROM NoTable",
		"SELECT id FROM R, S",        // ambiguous id
		"SELECT R.a FROM R r1, R r1", // duplicate alias
		"SELECT a FROM R ORDER BY nothere",
	}
	for _, q := range bad {
		stmt := parse(t, q)
		if _, err := bind(env.Cat, stmt.(*sql.Select)); err == nil {
			t.Errorf("bind(%q) should fail", q)
		}
	}
}

func TestAccessPathPrefersCoveringIndex(t *testing.T) {
	env, o := testEnv(t, 5000)
	ix := &catalog.Index{Name: "Ra", Table: "R", Columns: []string{"a", "b", "id"}}
	if err := env.Cat.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Mgr.BuildIndex(ix); err != nil {
		t.Fatal(err)
	}
	res, err := o.Optimize(parse(t, "SELECT b, id FROM R WHERE a = 17"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(res.Plan), "IndexSeek Ra") {
		t.Errorf("plan should use Ra:\n%s", plan.Explain(res.Plan))
	}
}

func TestAccessPathPrimarySeek(t *testing.T) {
	_, o := testEnv(t, 5000)
	res, err := o.Optimize(parse(t, "SELECT a FROM R WHERE id = 99"))
	if err != nil {
		t.Fatal(err)
	}
	expl := plan.Explain(res.Plan)
	if !strings.Contains(expl, "IndexSeek R_pk") {
		t.Errorf("primary-key point query should seek the primary:\n%s", expl)
	}
	// And it should be far cheaper than the scan.
	scan, err := o.Optimize(parse(t, "SELECT a FROM R WHERE b = 3"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost >= scan.Cost {
		t.Errorf("pk seek (%g) should beat scan (%g)", res.Cost, scan.Cost)
	}
}

func TestJoinStrategySwitchesWithIndex(t *testing.T) {
	env, o := testEnv(t, 4000)
	q := "SELECT R.b FROM R, S WHERE R.a = S.x AND R.id = 7"
	res, err := o.Optimize(parse(t, q))
	if err != nil {
		t.Fatal(err)
	}
	before := plan.Explain(res.Plan)
	ix := &catalog.Index{Name: "Sx", Table: "S", Columns: []string{"x", "y", "id"}}
	if err := env.Cat.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Mgr.BuildIndex(ix); err != nil {
		t.Fatal(err)
	}
	res2, err := o.Optimize(parse(t, q))
	if err != nil {
		t.Fatal(err)
	}
	after := plan.Explain(res2.Plan)
	if !strings.Contains(after, "INLJoin") {
		t.Errorf("selective outer + indexed inner should pick INLJ:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if res2.Cost >= res.Cost {
		t.Errorf("index did not reduce join cost: %g -> %g", res.Cost, res2.Cost)
	}
}

func TestSortAvoidanceWithIndexOrder(t *testing.T) {
	env, o := testEnv(t, 3000)
	ix := &catalog.Index{Name: "Rab", Table: "R", Columns: []string{"a", "b", "id"}}
	if err := env.Cat.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Mgr.BuildIndex(ix); err != nil {
		t.Fatal(err)
	}
	// Equality on a pins the prefix: ORDER BY b is free.
	res, err := o.Optimize(parse(t, "SELECT b, id FROM R WHERE a = 5 ORDER BY b"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Explain(res.Plan), "Sort") {
		t.Errorf("sort should be avoided:\n%s", plan.Explain(res.Plan))
	}
	// ORDER BY id is not satisfied by (a,b,id) after eq on a.
	res2, err := o.Optimize(parse(t, "SELECT b, id FROM R WHERE a = 5 ORDER BY id"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(res2.Plan), "Sort") {
		t.Errorf("sort should be required:\n%s", plan.Explain(res2.Plan))
	}
}

func TestCardinalityEstimates(t *testing.T) {
	_, o := testEnv(t, 10000)
	res, err := o.Optimize(parse(t, "SELECT id FROM R WHERE a = 5"))
	if err != nil {
		t.Fatal(err)
	}
	// a = i%100 → 1% selectivity → ~100 rows.
	if res.Rows < 50 || res.Rows > 200 {
		t.Errorf("estimated rows = %g, want ≈ 100", res.Rows)
	}
	res2, err := o.Optimize(parse(t, "SELECT id FROM R WHERE a < 50"))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rows < 3000 || res2.Rows > 7000 {
		t.Errorf("range rows = %g, want ≈ 5000", res2.Rows)
	}
}

func TestDMLPlans(t *testing.T) {
	_, o := testEnv(t, 500)
	ins, err := o.Optimize(parse(t, "INSERT INTO R VALUES (10000, 1, 2, 3)"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ins.Plan.(*plan.InsertNode); !ok {
		t.Errorf("insert plan = %T", ins.Plan)
	}
	var up *whatif.Request
	for _, r := range ins.Requests() {
		if r.Kind == whatif.KindUpdate {
			up = r
		}
	}
	if up == nil || up.UpdateRows != 1 {
		t.Errorf("update request = %+v", up)
	}
	del, err := o.Optimize(parse(t, "DELETE FROM R WHERE a = 5"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := del.Plan.(*plan.DeleteNode); !ok {
		t.Errorf("delete plan = %T", del.Plan)
	}
	// Location requests captured for the WHERE side.
	hasSeek := false
	for _, r := range del.Requests() {
		if r.Kind == whatif.KindSeek {
			hasSeek = true
		}
	}
	if !hasSeek {
		t.Error("delete should capture a location seek request")
	}
	if _, err := o.Optimize(parse(t, "UPDATE R SET nope = 1")); err == nil {
		t.Error("unknown SET column accepted")
	}
	if _, err := o.Optimize(parse(t, "INSERT INTO R VALUES (1, 2)")); err == nil {
		t.Error("arity mismatch accepted")
	}
}

// TestDMLSourceIsTheCostedPath: the access path locate costs is the one
// the node carries. The Source's estimate is the select-shell share of
// the statement's cost, the Source evaluates every WHERE conjunct — the
// one its seek bound stands for (a seek over-approximates) and the
// column-free one (which binds to no table and is not costed) — and the
// request tree keeps its shape: AND(update shell, OR(scan, seek)).
func TestDMLSourceIsTheCostedPath(t *testing.T) {
	_, o := testEnv(t, 5000)
	res, err := o.Optimize(parse(t, "UPDATE R SET c = c + 1 WHERE id = 42 AND 1 = 0"))
	if err != nil {
		t.Fatal(err)
	}
	up := res.Plan.(*plan.UpdateNode)
	seek, ok := up.Source.(*plan.IndexSeek)
	if !ok || !seek.Index.Primary || len(seek.EqVals) != 1 || seek.EqVals[0].Int() != 42 {
		t.Fatalf("source = %s, want a primary seek on id = 42", plan.Explain(up.Source))
	}
	if len(seek.Preds) != 2 || seek.Preds[0].String() != "(id = 42)" || seek.Preds[1].String() != "(1 = 0)" {
		t.Errorf("source predicates = %v, want every WHERE conjunct", seek.Preds)
	}
	if up.EstCost() != res.Cost || up.EstRows() != res.Rows || seek.EstCost() >= res.Cost || seek.EstCost() <= 0 {
		t.Errorf("estimates: node %.3f/%.0f, result %.3f/%.0f, source %.3f", up.EstCost(), up.EstRows(), res.Cost, res.Rows, seek.EstCost())
	}
	if res.Tree.Op != whatif.And || len(res.Tree.Children) != 2 ||
		res.Tree.Children[0].Req.Kind != whatif.KindUpdate || res.Tree.Children[1].Op != whatif.Or {
		t.Errorf("request tree = %+v", res.Tree)
	}
	// A plain scan when nothing is sargable.
	res, err = o.Optimize(parse(t, "DELETE FROM R WHERE a + b = 7"))
	if err != nil {
		t.Fatal(err)
	}
	if scan, ok := res.Plan.(*plan.DeleteNode).Source.(*plan.SeqScan); !ok || len(scan.Preds) != 1 {
		t.Errorf("source = %s, want a heap scan with the predicate", plan.Explain(res.Plan))
	}
}

// TestRebindDMLSource: rebinding a cached UPDATE substitutes the new
// literal into the Source's seek bound, and declines — so the engine
// optimizes afresh — when the Source cannot be rebound.
func TestRebindDMLSource(t *testing.T) {
	_, o := testEnv(t, 5000)
	stmt := parse(t, "UPDATE R SET c = 7 WHERE id = 42")
	res, err := o.Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	fp := sql.FingerprintOf(stmt)
	vals := make([]datum.Datum, len(fp.Lits))
	for i, l := range fp.Lits {
		vals[i] = l.Value
		if l.Value.Int() == 42 {
			vals[i] = datum.NewInt(99)
		}
	}
	rb, ok := o.Rebind(res, fp.Lits, vals)
	if !ok {
		t.Fatal("generic primary-key UPDATE was not rebound")
	}
	if got := rb.Plan.(*plan.UpdateNode).Source.(*plan.IndexSeek).EqVals[0].Int(); got != 99 {
		t.Errorf("rebound source seeks id = %d, want 99", got)
	}
	if got := res.Plan.(*plan.UpdateNode).Source.(*plan.IndexSeek).EqVals[0].Int(); got != 42 {
		t.Errorf("rebinding mutated the cached plan: it now seeks id = %d", got)
	}
	// A seek without literal provenance cannot be re-substituted.
	res.Plan.(*plan.UpdateNode).Source.(*plan.IndexSeek).EqLits = nil
	if _, ok := o.Rebind(res, fp.Lits, vals); ok {
		t.Error("rebound an UPDATE whose Source lost its literal provenance")
	}
}

func TestINLJRequestBindings(t *testing.T) {
	_, o := testEnv(t, 4000)
	res, err := o.Optimize(parse(t, "SELECT S.y FROM R, S WHERE R.a = S.x AND R.b = 3"))
	if err != nil {
		t.Fatal(err)
	}
	var inlj *whatif.Request
	for _, r := range res.Requests() {
		if r.Kind == whatif.KindSeek && r.Bindings > 1 {
			inlj = r
		}
	}
	if inlj == nil {
		t.Fatal("INLJ request not captured")
	}
	if inlj.Table != "S" && inlj.Table != "R" {
		t.Errorf("inlj table = %s", inlj.Table)
	}
	if len(inlj.EqCols) == 0 {
		t.Error("inlj eq columns missing")
	}
}

func TestFlipOpAndConjuncts(t *testing.T) {
	for _, tc := range [][2]string{{"<", ">"}, {"<=", ">="}, {">", "<"}, {">=", "<="}, {"=", "="}} {
		if got := flipOp(tc[0]); got != tc[1] {
			t.Errorf("flipOp(%s) = %s", tc[0], got)
		}
	}
	e := parse(t, "SELECT a FROM R WHERE a = 1 AND b = 2 AND c = 3").(*sql.Select).Where
	if got := len(splitConjuncts(e)); got != 3 {
		t.Errorf("conjuncts = %d", got)
	}
	if splitConjuncts(nil) != nil {
		t.Error("nil conjuncts")
	}
}

func TestLiteralFlipSide(t *testing.T) {
	env, _ := testEnv(t, 100)
	sel := parse(t, "SELECT id FROM R WHERE 5 = a AND 10 > b").(*sql.Select)
	bq, err := bind(env.Cat, sel)
	if err != nil {
		t.Fatal(err)
	}
	rt := bq.tables[0]
	if len(rt.eqs) != 1 || rt.eqs[0].col != "a" {
		t.Errorf("flipped eq = %+v", rt.eqs)
	}
	if len(rt.highs) != 1 || rt.highs[0].col != "b" || rt.highs[0].op != "<" {
		t.Errorf("flipped range = %+v", rt.highs)
	}
}

func TestGroupByEstimate(t *testing.T) {
	_, o := testEnv(t, 2000)
	res, err := o.Optimize(parse(t, "SELECT b, COUNT(*) FROM R GROUP BY b"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows > 2000 {
		t.Errorf("group estimate %g exceeds input", res.Rows)
	}
	if _, ok := res.Plan.(*plan.HashAgg); !ok {
		t.Errorf("plan = %T, want HashAgg on top", res.Plan)
	}
}

func TestExplainStable(t *testing.T) {
	_, o := testEnv(t, 100)
	// Default rules: ORDER BY + LIMIT becomes a bounded-heap TopN.
	res, err := o.Optimize(parse(t, "SELECT a FROM R WHERE a < 10 ORDER BY b LIMIT 3"))
	if err != nil {
		t.Fatal(err)
	}
	expl := plan.Explain(res.Plan)
	for _, want := range []string{"TopN 3", "Project"} {
		if !strings.Contains(expl, want) {
			t.Errorf("explain missing %s:\n%s", want, expl)
		}
	}

	// Rules off: the classical Sort + Limit shape.
	o.SetRules(0)
	defer o.SetRules(DefaultRules)
	res, err = o.Optimize(parse(t, "SELECT a FROM R WHERE a < 10 ORDER BY b LIMIT 3"))
	if err != nil {
		t.Fatal(err)
	}
	expl = plan.Explain(res.Plan)
	for _, want := range []string{"Limit 3", "Project", "Sort"} {
		if !strings.Contains(expl, want) {
			t.Errorf("explain missing %s:\n%s", want, expl)
		}
	}
}

func TestManyTablesGreedyJoin(t *testing.T) {
	env, o := testEnv(t, 300)
	// Add a third table to exercise multi-step greedy enumeration.
	tbl, err := catalog.NewTable("T3", []catalog.Column{
		{Name: "id", Kind: datum.KInt}, {Name: "r", Kind: datum.KInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := env.Mgr.CreateTable("T3"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, _, err := env.Mgr.Insert("T3", datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(i % 10))}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := o.Optimize(parse(t,
		"SELECT R.b FROM R, S, T3 WHERE R.a = S.x AND S.y = T3.r AND T3.id = 5"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost <= 0 {
		t.Error("no cost")
	}
	// The request tree must have OR groups for all three tables.
	if groups := res.Tree.ORGroups(); len(groups) < 3 {
		t.Errorf("or groups = %d, want ≥ 3", len(groups))
	}
	_ = fmt.Sprintf
}
