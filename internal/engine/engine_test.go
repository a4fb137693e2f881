package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/whatif"
)

// openRS opens a database with the paper's R(id,a,b,c,d,e) and S tables
// loaded with deterministic data.
func openRS(t testing.TB, rows int) *DB {
	t.Helper()
	db := Open()
	db.MustExec("CREATE TABLE R (id INT, a INT, b INT, c INT, d INT, e INT, PRIMARY KEY (id))")
	db.MustExec("CREATE TABLE S (id INT, x INT, y INT, PRIMARY KEY (id))")
	for i := 0; i < rows; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d, %d, %d, %d, %d)",
			i, i%100, i%7, i%13, i*2, i*3))
	}
	for i := 0; i < rows/2; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO S VALUES (%d, %d, %d)", i, i%100, i%50))
	}
	if err := db.Analyze("R"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("S"); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSelectFilterProject(t *testing.T) {
	db := openRS(t, 500)
	rs := db.MustExec("SELECT a, b FROM R WHERE a < 10")
	if len(rs.Rows) != 50 { // 500 rows, a = i%100 < 10 → 50
		t.Fatalf("rows = %d, want 50", len(rs.Rows))
	}
	if len(rs.Columns) != 2 || rs.Columns[0] != "a" {
		t.Errorf("columns = %v", rs.Columns)
	}
	for _, r := range rs.Rows {
		if r[0].Int() >= 10 {
			t.Fatalf("filter leaked %v", r)
		}
	}
}

func TestSelectEquality(t *testing.T) {
	db := openRS(t, 500)
	rs := db.MustExec("SELECT id FROM R WHERE a = 42")
	if len(rs.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rs.Rows))
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := openRS(t, 100)
	rs := db.MustExec("SELECT id, a FROM R WHERE a < 50 ORDER BY a DESC, id LIMIT 10")
	if len(rs.Rows) != 10 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	prev := rs.Rows[0]
	for _, r := range rs.Rows[1:] {
		if r[1].Int() > prev[1].Int() {
			t.Fatalf("not descending: %v after %v", r, prev)
		}
		prev = r
	}
}

func TestArithmeticAndAlias(t *testing.T) {
	db := openRS(t, 10)
	rs := db.MustExec("SELECT id, a + b AS ab FROM R WHERE id = 3")
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	want := int64(3%100 + 3%7)
	if rs.Rows[0][1].Int() != want {
		t.Errorf("a+b = %v, want %d", rs.Rows[0][1], want)
	}
	if rs.Columns[1] != "ab" {
		t.Errorf("alias = %q", rs.Columns[1])
	}
}

func TestAggregation(t *testing.T) {
	db := openRS(t, 700)
	rs := db.MustExec("SELECT b, COUNT(*), SUM(a), MIN(id), MAX(id), AVG(a) FROM R GROUP BY b ORDER BY b")
	if len(rs.Rows) != 7 {
		t.Fatalf("groups = %d, want 7", len(rs.Rows))
	}
	var total int64
	for _, r := range rs.Rows {
		total += r[1].Int()
	}
	if total != 700 {
		t.Errorf("counts sum to %d, want 700", total)
	}
	// Global aggregate without GROUP BY.
	rs2 := db.MustExec("SELECT COUNT(*), AVG(a) FROM R WHERE a < 10")
	if len(rs2.Rows) != 1 || rs2.Rows[0][0].Int() != 70 {
		t.Fatalf("global agg = %v", rs2.Rows)
	}
	// Aggregate over empty input yields one row with COUNT 0.
	rs3 := db.MustExec("SELECT COUNT(*), SUM(a) FROM R WHERE a < -1")
	if len(rs3.Rows) != 1 || rs3.Rows[0][0].Int() != 0 || !rs3.Rows[0][1].IsNull() {
		t.Fatalf("empty agg = %v", rs3.Rows)
	}
}

// TestSumKindIgnoresLeadingNulls pins SUM's result kind to its values,
// not to where an access path puts its NULLs: an INT column sums to an
// INT whether the first row a plan reads is NULL (the heap order here)
// or not (the order of an index on (b, a)). 2^53 + 1 is not a float64,
// so a FLOAT result would also change the answer. Each range runs on the
// scalar path (10 rows) and on the vectorized one (1000 rows).
func TestSumKindIgnoresLeadingNulls(t *testing.T) {
	db := Open()
	db.MustExec("CREATE TABLE T (k INT, a INT, b INT, PRIMARY KEY (k))")
	const big = int64(1)<<53 + 1
	var want [2]int64 // SUM(a) over b < 10 and over b < 1000
	for k := int64(0); k < 2000; k++ {
		a, av := "2", int64(2)
		switch k {
		case 0:
			a, av = "NULL", 0
		case 1:
			a, av = fmt.Sprint(big), big
		}
		b := k
		if k < 10 {
			b = 9 - k // the index reads k = 0, the NULL, last of the first ten
		}
		if b < 10 {
			want[0] += av
		}
		if b < 1000 {
			want[1] += av
		}
		db.MustExec(fmt.Sprintf("INSERT INTO T VALUES (%d, %s, %d)", k, a, b))
	}
	if err := db.Analyze("T"); err != nil {
		t.Fatal(err)
	}
	queries := []string{"SELECT SUM(a) FROM T WHERE b < 10", "SELECT SUM(a) FROM T WHERE b < 1000"}
	check := func(when, access string) {
		t.Helper()
		for i, q := range queries {
			if s, err := db.ExplainString(q); err != nil || !strings.Contains(s, access) {
				t.Fatalf("%s the index: %s does not run through %q: %v\n%s", when, q, access, err, s)
			}
			rs := db.MustExec(q)
			if got := rs.Rows[0][0]; got.Kind() != datum.KInt || got.Int() != want[i] {
				t.Errorf("%s the index: %s = %s %v, want INT %d", when, q, got.Kind(), got, want[i])
			}
		}
	}
	check("before", "SeqScan T")
	db.MustExec("CREATE INDEX ix_ba ON T (b, a)")
	check("after", "IndexSeek ix_ba on T")
}

func TestJoinHashAndResult(t *testing.T) {
	db := openRS(t, 200)
	// R.a = S.x: R has 200 rows with a=i%100; S has 100 rows x=i%100.
	rs := db.MustExec("SELECT R.id, S.id FROM R, S WHERE R.a = S.x AND R.id < 10")
	// For R.id in 0..9, a = id; S.x = id matches exactly one S row each.
	if len(rs.Rows) != 10 {
		t.Fatalf("join rows = %d, want 10", len(rs.Rows))
	}
	for _, r := range rs.Rows {
		if r[0].Int()%100 != r[1].Int()%100 {
			t.Fatalf("join mismatch %v", r)
		}
	}
}

func TestJoinExplicitSyntax(t *testing.T) {
	db := openRS(t, 100)
	rs := db.MustExec("SELECT r.id FROM R r JOIN S s ON r.a = s.x WHERE s.y = 3")
	for _, row := range rs.Rows {
		_ = row
	}
	rs2 := db.MustExec("SELECT r.id FROM R r, S s WHERE r.a = s.x AND s.y = 3")
	if len(rs.Rows) != len(rs2.Rows) {
		t.Fatalf("JOIN ON (%d) and comma-join (%d) disagree", len(rs.Rows), len(rs2.Rows))
	}
}

func TestINLJoinWithIndex(t *testing.T) {
	db := openRS(t, 2000)
	db.MustExec("CREATE INDEX S_x ON S (x, y, id)")
	rs, info, err := db.Exec("SELECT R.id, S.y FROM R, S WHERE R.a = S.x AND R.a = 5")
	if err != nil {
		t.Fatal(err)
	}
	// a=5: 20 R rows; S.x=5: 10 S rows → 200 pairs.
	if len(rs.Rows) != 200 {
		t.Fatalf("rows = %d, want 200", len(rs.Rows))
	}
	// The plan should mention the secondary index somewhere (seek or INLJ).
	pl := plan.Explain(info.Result.Plan)
	if !strings.Contains(pl, "S_x") {
		t.Logf("plan:\n%s", pl)
	}
}

func TestIndexChangesPlanAndCost(t *testing.T) {
	db := openRS(t, 3000)
	_, before, err := db.Exec("SELECT a, b, c, id FROM R WHERE a < 10")
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX I2 ON R (a, b, c, id)")
	rs, after, err := db.Exec("SELECT a, b, c, id FROM R WHERE a < 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 300 {
		t.Fatalf("rows = %d, want 300", len(rs.Rows))
	}
	if after.EstCost >= before.EstCost {
		t.Errorf("index did not reduce cost: %.3f → %.3f", before.EstCost, after.EstCost)
	}
	if !strings.Contains(plan.Explain(after.Result.Plan), "IndexSeek I2") {
		t.Errorf("expected IndexSeek I2 in plan:\n%s", plan.Explain(after.Result.Plan))
	}
}

func TestCoveringVsFetchResults(t *testing.T) {
	db := openRS(t, 1000)
	want := db.MustExec("SELECT id, a, d FROM R WHERE a = 17")
	db.MustExec("CREATE INDEX Ia ON R (a)") // non-covering
	got := db.MustExec("SELECT id, a, d FROM R WHERE a = 17")
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("non-covering seek changed results: %d vs %d", len(got.Rows), len(want.Rows))
	}
	db.MustExec("CREATE INDEX Iad ON R (a, d, id)") // covering
	got2 := db.MustExec("SELECT id, a, d FROM R WHERE a = 17")
	if len(got2.Rows) != len(want.Rows) {
		t.Fatalf("covering seek changed results: %d vs %d", len(got2.Rows), len(want.Rows))
	}
}

func TestUpdateDeleteInsertSelect(t *testing.T) {
	db := openRS(t, 100)
	rs := db.MustExec("UPDATE R SET b = 99 WHERE a < 5")
	if rs.Affected != 5 {
		t.Fatalf("updated %d, want 5", rs.Affected)
	}
	check := db.MustExec("SELECT COUNT(*) FROM R WHERE b = 99")
	if check.Rows[0][0].Int() != 5 {
		t.Fatalf("b=99 count = %v", check.Rows[0][0])
	}
	rs = db.MustExec("DELETE FROM R WHERE a < 5")
	if rs.Affected != 5 {
		t.Fatalf("deleted %d, want 5", rs.Affected)
	}
	if db.MustExec("SELECT COUNT(*) FROM R").Rows[0][0].Int() != 95 {
		t.Fatal("delete count wrong")
	}
	// INSERT ... SELECT (the paper's q3 pattern).
	db.MustExec("CREATE TABLE R2 (id INT, a INT, b INT, c INT, d INT, e INT, PRIMARY KEY (id))")
	rs = db.MustExec("INSERT INTO R2 SELECT * FROM R")
	if rs.Affected != 95 {
		t.Fatalf("insert-select affected %d, want 95", rs.Affected)
	}
}

func TestIndexMaintainedThroughDML(t *testing.T) {
	db := openRS(t, 200)
	db.MustExec("CREATE INDEX Ia ON R (a, id)")
	db.MustExec("UPDATE R SET a = 1000 WHERE id = 7")
	rs := db.MustExec("SELECT id FROM R WHERE a = 1000")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 7 {
		t.Fatalf("index stale after update: %v", rs.Rows)
	}
	db.MustExec("DELETE FROM R WHERE id = 7")
	rs = db.MustExec("SELECT id FROM R WHERE a = 1000")
	if len(rs.Rows) != 0 {
		t.Fatalf("index stale after delete: %v", rs.Rows)
	}
}

// TestCreateIndexKeepsSelectAnswers pins the one thing an online tuner
// must never do: change a query's answer by building an index. The
// predicates are the ones an index seek over-approximates — an upper
// bound alone (NULL keys sort first), a NULL comparison, and a second
// equality or a looser second bound on the seek column.
func TestCreateIndexKeepsSelectAnswers(t *testing.T) {
	db := Open()
	db.MustExec("CREATE TABLE T (id INT, a INT, b INT, PRIMARY KEY (id))")
	for i := 0; i < 5000; i++ {
		a := fmt.Sprint(i - 4)
		if i < 5 {
			a = "NULL"
		}
		db.MustExec(fmt.Sprintf("INSERT INTO T VALUES (%d, %s, %d)", i, a, i%10))
	}
	if err := db.Analyze("T"); err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		where string
		rows  int
		seek  string
	}{
		{"a < 5", 4, "IndexSeek ix_a on T (eq=0,range"},
		{"a = 1 AND a = 7", 0, "IndexSeek ix_a on T (eq=1"},
		{"a = NULL", 0, "IndexSeek ix_a on T (eq=1"},
		{"a < NULL", 0, "IndexSeek ix_a on T (eq=0,range"},
		{"a >= 4990 AND a >= 4993", 3, "IndexSeek ix_a on T (eq=0,range"},
		{"b <= 4 AND b <= 0", 500, "IndexSeek ix_b on T (eq=0,range"},
		{"b = 3 AND a <= 19 AND a < 40", 2, "IndexSeek ix_ba on T (eq=1,range"},
	}
	check := func(when string) {
		for _, q := range queries {
			if got := len(db.MustExec("SELECT id FROM T WHERE " + q.where).Rows); got != q.rows {
				t.Errorf("%s the indexes: WHERE %s returned %d rows, want %d", when, q.where, got, q.rows)
			}
		}
	}
	check("before")
	db.MustExec("CREATE INDEX ix_a ON T (a)")
	db.MustExec("CREATE INDEX ix_b ON T (b)")
	db.MustExec("CREATE INDEX ix_ba ON T (b, a)")
	check("after")
	for _, q := range queries {
		s, err := db.ExplainString("SELECT id FROM T WHERE " + q.where)
		if err != nil || !strings.Contains(s, q.seek) {
			t.Errorf("WHERE %s does not run through %q: %v\n%s", q.where, q.seek, err, s)
		}
	}
	// Both edges of the executor batches' growth, at one worker and at
	// four: a result of exactly one row, and results several arena slabs
	// wide out of the projection (sized from its input morsel) and out of
	// the join (grown from nothing). Every cell is checked, so a row that
	// lost its storage to a later slab shows.
	for _, workers := range []int{1, 4} {
		db.SetExecWorkers(workers)
		check(fmt.Sprintf("with %d workers and", workers))
		for _, q := range []struct {
			sql  string
			rows int
		}{
			{"SELECT id, a, b FROM T WHERE id = 4999", 1},
			{"SELECT id, a, b FROM T", 5000},
			{"SELECT x.id, x.a, y.b FROM T x JOIN T y ON x.id = y.id", 5000},
		} {
			rs := db.MustExec(q.sql)
			if len(rs.Rows) != q.rows {
				t.Fatalf("%d workers: %s returned %d rows, want %d", workers, q.sql, len(rs.Rows), q.rows)
			}
			seen := map[int64]bool{}
			for _, r := range rs.Rows {
				id := r[0].Int()
				okA := r[1].IsNull()
				if id >= 5 {
					okA = !r[1].IsNull() && r[1].Int() == id-4
				}
				if seen[id] || !okA || r[2].Int() != id%10 {
					t.Fatalf("%d workers: %s returned the row %v (duplicate id: %v)", workers, q.sql, r, seen[id])
				}
				seen[id] = true
			}
		}
	}
}

func TestDistinct(t *testing.T) {
	db := openRS(t, 100)
	rs := db.MustExec("SELECT DISTINCT b FROM R")
	if len(rs.Rows) != 7 {
		t.Fatalf("distinct b = %d, want 7", len(rs.Rows))
	}
}

func TestRequestsCaptured(t *testing.T) {
	db := openRS(t, 1000)
	_, info, err := db.Exec("SELECT a, b, c, id FROM R WHERE a < 100")
	if err != nil {
		t.Fatal(err)
	}
	reqs := info.Result.Requests()
	if len(reqs) != 2 {
		t.Fatalf("requests = %d, want 2 (scan + seek)", len(reqs))
	}
	var scan, seek *whatif.Request
	for _, r := range reqs {
		switch r.Kind {
		case whatif.KindScan:
			scan = r
		case whatif.KindSeek:
			seek = r
		}
	}
	if scan == nil || seek == nil {
		t.Fatalf("missing request kinds: %v", reqs)
	}
	if seek.RangeCol != "a" {
		t.Errorf("seek range col = %q", seek.RangeCol)
	}
	if len(scan.Required) != 4 {
		t.Errorf("scan required = %v", scan.Required)
	}
	// The two requests share an OR group.
	if g := info.Result.Tree.ORGroups(); len(g) != 1 || len(g[0]) != 2 {
		t.Errorf("or groups = %v", g)
	}
	// Best indexes from the requests match the paper's candidates.
	best := whatif.GetBestIndex(db.Cat, seek)
	if got := strings.Join(best.Columns, ","); got != "a,b,c,id" {
		t.Errorf("seek best = %s", got)
	}
	best = whatif.GetBestIndex(db.Cat, scan)
	if got := strings.Join(best.Columns, ","); got != "id,a,b,c" {
		t.Errorf("scan best = %s", got)
	}
}

func TestUpdateShellRequest(t *testing.T) {
	db := openRS(t, 100)
	db.MustExec("CREATE INDEX Ia ON R (a)")
	_, info, err := db.Exec("UPDATE R SET b = 1 WHERE a = 5")
	if err != nil {
		t.Fatal(err)
	}
	var up *whatif.Request
	for _, r := range info.Result.Requests() {
		if r.Kind == whatif.KindUpdate {
			up = r
		}
	}
	if up == nil {
		t.Fatal("update request missing")
	}
	if up.UpdateTouchedIndexes != 1 {
		t.Errorf("touched = %d, want 1", up.UpdateTouchedIndexes)
	}
}

func TestInsertSelectJoinRequests(t *testing.T) {
	db := openRS(t, 500)
	_, info, err := db.Exec("SELECT S.y FROM R, S WHERE R.a = S.x AND R.b = 3")
	if err != nil {
		t.Fatal(err)
	}
	// Expect requests for both R and S, including an INLJ-style seek on
	// the inner with bindings > 1.
	var bindingsSeek *whatif.Request
	for _, r := range info.Result.Requests() {
		if r.Kind == whatif.KindSeek && r.Bindings > 1 {
			bindingsSeek = r
		}
	}
	if bindingsSeek == nil {
		t.Fatal("no INLJ request with bindings > 1 captured")
	}
}

func TestBudgetBlocksCreateIndex(t *testing.T) {
	db := openRS(t, 1000)
	db.Mgr.SetBudget(100) // far too small
	_, _, err := db.Exec("CREATE INDEX Ia ON R (a)")
	if err == nil {
		t.Fatal("index creation should exceed budget")
	}
	// Catalog must not retain the failed index.
	if db.Cat.Index("Ia") != nil {
		t.Error("failed index left in catalog")
	}
}

func TestDDLErrors(t *testing.T) {
	db := Open()
	if _, _, err := db.Exec("DROP INDEX nope"); err == nil {
		t.Error("drop of unknown index accepted")
	}
	if _, _, err := db.Exec("SELECT a FROM NoTable"); err == nil {
		t.Error("unknown table accepted")
	}
	db.MustExec("CREATE TABLE T (a INT, PRIMARY KEY (a))")
	if _, _, err := db.Exec("CREATE TABLE T (a INT, PRIMARY KEY (a))"); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, _, err := db.Exec("SELECT nope FROM T"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestObserverNotified(t *testing.T) {
	db := openRS(t, 10)
	var got []*QueryInfo
	db.SetObserver(observerFunc(func(info *QueryInfo) { got = append(got, info) }))
	db.MustExec("SELECT a FROM R WHERE a = 1")
	db.MustExec("CREATE INDEX Ia ON R (a)") // DDL: not observed
	db.MustExec("SELECT a FROM R WHERE a = 2")
	if len(got) != 2 {
		t.Fatalf("observer saw %d events, want 2", len(got))
	}
	if got[0].EstCost <= 0 {
		t.Error("estimated cost missing")
	}
}

type observerFunc func(*QueryInfo)

func (f observerFunc) OnExecuted(info *QueryInfo) { f(info) }

func TestConfiguration(t *testing.T) {
	db := openRS(t, 50)
	if len(db.Configuration()) != 0 {
		t.Fatal("fresh db should have empty configuration")
	}
	db.MustExec("CREATE INDEX Ia ON R (a)")
	cfg := db.Configuration()
	if len(cfg) != 1 || cfg[0].Name != "Ia" {
		t.Fatalf("configuration = %v", cfg)
	}
	if err := db.Mgr.SuspendIndex(cfg[0].ID()); err != nil {
		t.Fatal(err)
	}
	if len(db.Configuration()) != 0 {
		t.Error("suspended index should leave the configuration")
	}
}

func TestBetweenAndIn(t *testing.T) {
	db := openRS(t, 300)
	rs := db.MustExec("SELECT COUNT(*) FROM R WHERE a BETWEEN 10 AND 19")
	if rs.Rows[0][0].Int() != 30 {
		t.Fatalf("between count = %v", rs.Rows[0][0])
	}
	rs = db.MustExec("SELECT COUNT(*) FROM R WHERE b IN (0, 1)")
	want := int64(0)
	for i := 0; i < 300; i++ {
		if i%7 < 2 {
			want++
		}
	}
	if rs.Rows[0][0].Int() != want {
		t.Fatalf("in count = %v, want %d", rs.Rows[0][0], want)
	}
}

// TestCompositeINLJoinKeyOrder is a regression test: when an index's
// composite key lists the join columns in a different order than the
// join predicates, the INL join must seek with keys aligned to the
// INDEX's column order, or it silently matches the wrong rows.
func TestCompositeINLJoinKeyOrder(t *testing.T) {
	db := Open()
	db.MustExec("CREATE TABLE outerT (id INT, ps INT, pp INT, PRIMARY KEY (id))")
	db.MustExec("CREATE TABLE innerT (id INT, p INT, s INT, v INT, PRIMARY KEY (id))")
	// Inner rows where (p, s) are asymmetric: (1,2) exists, (2,1) exists
	// with different payloads — a swapped seek key hits the wrong row.
	db.MustExec("INSERT INTO innerT VALUES (1, 1, 2, 100)")
	db.MustExec("INSERT INTO innerT VALUES (2, 2, 1, 200)")
	for i := 3; i < 4000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO innerT VALUES (%d, %d, %d, %d)", i, i%50+10, i%40+10, i))
	}
	db.MustExec("INSERT INTO outerT VALUES (1, 2, 1)") // wants inner (p=1, s=2) → v=100
	if err := db.Analyze("innerT"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("outerT"); err != nil {
		t.Fatal(err)
	}
	// Index ordered (p, s); the query lists s first.
	db.MustExec("CREATE INDEX ips ON innerT (p, s, v)")
	q := "SELECT innerT.v FROM outerT, innerT WHERE outerT.ps = innerT.s AND outerT.pp = innerT.p"
	rs := db.MustExec(q)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 100 {
		t.Fatalf("composite join returned %v, want one row with v=100", rs.Rows)
	}
}

func TestExplainStatement(t *testing.T) {
	db := openRS(t, 500)
	rs, info, err := db.Exec("EXPLAIN SELECT a FROM R WHERE a < 10 ORDER BY b LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Columns) != 1 || rs.Columns[0] != "plan" {
		t.Fatalf("columns = %v", rs.Columns)
	}
	text := ""
	for _, r := range rs.Rows {
		text += r[0].Str() + "\n"
	}
	for _, want := range []string{"TopN 3", "SeqScan R"} {
		if !strings.Contains(text, want) {
			t.Errorf("plan missing %q:\n%s", want, text)
		}
	}
	if info.EstCost <= 0 {
		t.Error("explain should report the estimated cost")
	}
	// EXPLAIN must not execute or be observed as workload.
	var observed int
	db.SetObserver(observerFunc(func(*QueryInfo) { observed++ }))
	db.MustExec("EXPLAIN DELETE FROM R WHERE a < 5")
	if observed != 0 {
		t.Error("EXPLAIN was observed by the tuner hook")
	}
	if db.MustExec("SELECT COUNT(*) FROM R").Rows[0][0].Int() != 500 {
		t.Error("EXPLAIN DELETE executed the delete")
	}
	if _, _, err := db.Exec("EXPLAIN SELECT nope FROM R"); err == nil {
		t.Error("EXPLAIN of invalid statement accepted")
	}
}

func TestMergeJoinChosenForSortedInputs(t *testing.T) {
	db := Open()
	db.MustExec("CREATE TABLE L (id INT, x INT, v INT, PRIMARY KEY (id))")
	db.MustExec("CREATE TABLE Rt (id INT, x INT, w INT, PRIMARY KEY (id))")
	for i := 0; i < 3000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO L VALUES (%d, %d, %d)", i, i%500, i))
		db.MustExec(fmt.Sprintf("INSERT INTO Rt VALUES (%d, %d, %d)", i, i%500, i))
	}
	if err := db.Analyze("L"); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("Rt"); err != nil {
		t.Fatal(err)
	}
	// Hash join baseline result.
	q := "SELECT L.v, Rt.w FROM L, Rt WHERE L.x = Rt.x AND L.v < 50 AND Rt.w < 50"
	want := len(db.MustExec(q).Rows)
	// Covering x-leading indexes make both inputs arrive sorted by x.
	db.MustExec("CREATE INDEX Lx ON L (x, v)")
	db.MustExec("CREATE INDEX Rx ON Rt (x, w)")
	rs, info, err := db.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != want {
		t.Fatalf("indexed plan changed results: %d vs %d", len(rs.Rows), want)
	}
	expl := plan.Explain(info.Result.Plan)
	if !strings.Contains(expl, "MergeJoin") {
		t.Logf("merge join not chosen (acceptable if another strategy is cheaper):\n%s", expl)
	}
}

// TestSubqueryTablesAreLocked requires a statement to read-lock the
// tables its subqueries read: the optimizer unnests them into semi-joins
// that scan those tables, and an index scan racing a writer on its table
// walks a tree that is changing under it.
func TestSubqueryTablesAreLocked(t *testing.T) {
	db := Open()
	for q, want := range map[string]string{
		"SELECT id FROM R WHERE a IN (SELECT x FROM S WHERE y > 3)":                     "r s",
		"SELECT id FROM R WHERE b = 1 AND NOT EXISTS (SELECT * FROM T WHERE T.k = R.a)": "r t",
		"INSERT INTO U SELECT id FROM R WHERE NOT a IN (SELECT x FROM S)":               "r s",
	} {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		reads, _ := db.lockTablesFor(stmt)
		slices.Sort(reads)
		got := strings.ToLower(strings.Join(reads, " "))
		if got != want {
			t.Errorf("%q read-locks %q, want %q", q, got, want)
		}
	}
}
