package executor

import (
	"fmt"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
)

// fixture builds R(id,a,b) with rows (i, i%10, i%3) and an optional
// secondary index on (a, id).
func fixture(t testing.TB, rows int, withIndex bool) (*catalog.Catalog, *storage.Manager, *Executor, *catalog.Index) {
	t.Helper()
	cat := catalog.New()
	tbl, err := catalog.NewTable("R", []catalog.Column{
		{Name: "id", Kind: datum.KInt},
		{Name: "a", Kind: datum.KInt},
		{Name: "b", Kind: datum.KInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	mgr := storage.NewManager(cat)
	if err := mgr.CreateTable("R"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, _, err := mgr.Insert("R", datum.Row{
			datum.NewInt(int64(i)), datum.NewInt(int64(i % 10)), datum.NewInt(int64(i % 3)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var ix *catalog.Index
	if withIndex {
		ix = &catalog.Index{Name: "Ra", Table: "R", Columns: []string{"a", "id"}}
		if err := cat.AddIndex(ix); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.BuildIndex(ix); err != nil {
			t.Fatal(err)
		}
	}
	return cat, mgr, New(cat, mgr), ix
}

func expr(t testing.TB, s string) sql.Expr {
	t.Helper()
	stmt, err := sql.Parse("SELECT a FROM R WHERE " + s)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*sql.Select).Where
}

func rSchema(cat *catalog.Catalog) []plan.ColRef {
	return plan.TableSchema(cat.Table("R"), "R")
}

func TestSeqScanWithPreds(t *testing.T) {
	cat, _, ex, _ := fixture(t, 100, false)
	n := &plan.SeqScan{Table: "R", Alias: "R", Preds: []sql.Expr{expr(t, "a = 3")}}
	n.Out = rSchema(cat)
	rows, err := ex.exec(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
}

func TestIndexSeekCoveringAndBounds(t *testing.T) {
	cat, _, ex, ix := fixture(t, 100, true)
	_ = cat
	eq := datum.NewInt(7)
	n := &plan.IndexSeek{Index: ix, Alias: "R", EqVals: []datum.Datum{eq}}
	n.Out = plan.IndexSchema(ix, "R")
	rows, err := ex.exec(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("seek a=7 rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if r[0].Int() != 7 {
			t.Fatalf("wrong key %v", r)
		}
		if len(r) != 2 {
			t.Fatalf("covering row should have index arity: %v", r)
		}
	}
}

// TestCoveringSeekRowsAppendSafe appends to every row a covering seek
// returns — the rows are the index's own keys — and checks that no
// other returned row changed: a built tree's keys share slabs, so each
// must have no spare capacity to append into.
func TestCoveringSeekRowsAppendSafe(t *testing.T) {
	_, _, ex, ix := fixture(t, 100, true)
	lo, hi := datum.NewInt(3), datum.NewInt(5)
	n := &plan.IndexSeek{Index: ix, Alias: "R", Lo: &lo, Hi: &hi, LoInc: true, HiInc: true}
	n.Out = plan.IndexSchema(ix, "R")
	rows, err := ex.exec(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("seek 3 <= a <= 5 rows = %d, want 30", len(rows))
	}
	want := make([]datum.Row, len(rows))
	for i, r := range rows {
		want[i] = r.Clone()
	}
	for _, r := range rows {
		_ = append(r, datum.NewInt(-1), datum.NewInt(-1))
	}
	for i, r := range rows {
		if r.Compare(want[i]) != 0 {
			t.Fatalf("row %d changed to %v after appending to its neighbour, want %v", i, r, want[i])
		}
	}
}

func TestIndexSeekFetch(t *testing.T) {
	cat, _, ex, ix := fixture(t, 100, true)
	eq := datum.NewInt(7)
	n := &plan.IndexSeek{Index: ix, Alias: "R", EqVals: []datum.Datum{eq}, Fetch: true}
	n.Out = rSchema(cat)
	rows, err := ex.exec(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || len(rows[0]) != 3 {
		t.Fatalf("fetched rows = %d arity %d", len(rows), len(rows[0]))
	}
}

func TestIndexSeekRangeBounds(t *testing.T) {
	_, _, ex, ix := fixture(t, 100, true)
	lo, hi := datum.NewInt(3), datum.NewInt(5)
	n := &plan.IndexSeek{Index: ix, Alias: "R", Lo: &lo, Hi: &hi, LoInc: true, HiInc: false}
	n.Out = plan.IndexSchema(ix, "R")
	rows, err := ex.exec(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 { // a in {3,4}, 10 each
		t.Fatalf("range rows = %d, want 20", len(rows))
	}
}

func TestIndexSeekInactiveIndexFails(t *testing.T) {
	_, mgr, ex, ix := fixture(t, 10, true)
	if err := mgr.SuspendIndex(ix.ID()); err != nil {
		t.Fatal(err)
	}
	n := &plan.IndexSeek{Index: ix, Alias: "R", EqVals: []datum.Datum{datum.NewInt(1)}}
	n.Out = plan.IndexSchema(ix, "R")
	if _, err := ex.exec(n, nil); err == nil {
		t.Error("seek on suspended index should fail")
	}
}

func TestHashJoinNullKeysDropped(t *testing.T) {
	cat, mgr, ex, _ := fixture(t, 10, false)
	// Insert a row with NULL join key.
	if _, _, err := mgr.Insert("R", datum.Row{datum.NewInt(100), datum.Null, datum.NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	left := &plan.SeqScan{Table: "R", Alias: "l"}
	left.Out = plan.TableSchema(cat.Table("R"), "l")
	right := &plan.SeqScan{Table: "R", Alias: "r"}
	right.Out = plan.TableSchema(cat.Table("R"), "r")
	j := &plan.HashJoin{
		Left: left, Right: right,
		LeftKeys:  []sql.Expr{&sql.ColumnRef{Table: "l", Column: "a"}},
		RightKeys: []sql.Expr{&sql.ColumnRef{Table: "r", Column: "a"}},
	}
	j.Out = append(append([]plan.ColRef(nil), left.Out...), right.Out...)
	rows, err := ex.exec(j, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 10 rows with distinct a values 0..9 → each joins itself once; the
	// NULL row matches nothing (SQL semantics).
	if len(rows) != 10 {
		t.Fatalf("join rows = %d, want 10", len(rows))
	}
}

func TestSortDescAndLimit(t *testing.T) {
	cat, _, ex, _ := fixture(t, 50, false)
	scan := &plan.SeqScan{Table: "R", Alias: "R"}
	scan.Out = rSchema(cat)
	s := &plan.Sort{Child: scan, Keys: []plan.SortKey{{Expr: &sql.ColumnRef{Column: "id"}, Desc: true}}}
	s.Out = scan.Out
	l := &plan.Limit{Child: s, N: 3}
	l.Out = s.Out
	rows, err := ex.exec(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0].Int() != 49 || rows[2][0].Int() != 47 {
		t.Fatalf("top-3 by id desc = %v", rows)
	}
}

func TestHashAggFunctions(t *testing.T) {
	cat, _, ex, _ := fixture(t, 30, false)
	scan := &plan.SeqScan{Table: "R", Alias: "R"}
	scan.Out = rSchema(cat)
	agg := &plan.HashAgg{
		Child:   scan,
		GroupBy: []sql.Expr{&sql.ColumnRef{Column: "b"}},
		Aggs: []plan.AggSpec{
			{Func: "FIRST", Arg: &sql.ColumnRef{Column: "b"}, Name: "b"},
			{Func: "COUNT", Star: true, Name: "n"},
			{Func: "SUM", Arg: &sql.ColumnRef{Column: "id"}, Name: "s"},
			{Func: "MIN", Arg: &sql.ColumnRef{Column: "id"}, Name: "mn"},
			{Func: "MAX", Arg: &sql.ColumnRef{Column: "id"}, Name: "mx"},
			{Func: "AVG", Arg: &sql.ColumnRef{Column: "id"}, Name: "av"},
		},
	}
	agg.Out = []plan.ColRef{{Column: "b"}, {Column: "n"}, {Column: "s"}, {Column: "mn"}, {Column: "mx"}, {Column: "av"}}
	rows, err := ex.exec(agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	var totalCount, totalSum int64
	for _, r := range rows {
		totalCount += r[1].Int()
		totalSum += r[2].Int()
		if r[3].Int() > r[4].Int() {
			t.Errorf("min > max in %v", r)
		}
	}
	if totalCount != 30 || totalSum != 29*30/2 {
		t.Errorf("count=%d sum=%d", totalCount, totalSum)
	}
}

func TestAggNullHandling(t *testing.T) {
	cat, mgr, ex, _ := fixture(t, 0, false)
	// Only NULL values in column a.
	for i := 0; i < 5; i++ {
		if _, _, err := mgr.Insert("R", datum.Row{datum.NewInt(int64(i)), datum.Null, datum.NewInt(0)}); err != nil {
			t.Fatal(err)
		}
	}
	scan := &plan.SeqScan{Table: "R", Alias: "R"}
	scan.Out = rSchema(cat)
	agg := &plan.HashAgg{Child: scan, Aggs: []plan.AggSpec{
		{Func: "COUNT", Arg: &sql.ColumnRef{Column: "a"}, Name: "c"},
		{Func: "SUM", Arg: &sql.ColumnRef{Column: "a"}, Name: "s"},
	}}
	agg.Out = []plan.ColRef{{Column: "c"}, {Column: "s"}}
	rows, err := ex.exec(agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 0 {
		t.Errorf("COUNT(a) over NULLs = %v, want 0", rows[0][0])
	}
	if !rows[0][1].IsNull() {
		t.Errorf("SUM(a) over NULLs = %v, want NULL", rows[0][1])
	}
}

func TestExprCompileErrors(t *testing.T) {
	cat, _, _, _ := fixture(t, 1, false)
	schema := rSchema(cat)
	if _, err := compile(&sql.ColumnRef{Column: "nothere"}, schema); err == nil {
		t.Error("unknown column compiled")
	}
	if _, err := compile(&sql.FuncExpr{Name: "SUM", Arg: &sql.ColumnRef{Column: "a"}}, schema); err == nil {
		t.Error("aggregate outside agg context compiled")
	}
	dup := []plan.ColRef{{Table: "x", Column: "a"}, {Table: "y", Column: "a"}}
	if _, err := compile(&sql.ColumnRef{Column: "a"}, dup); err == nil {
		t.Error("ambiguous column compiled")
	}
	// Qualified reference resolves the ambiguity.
	if _, err := compile(&sql.ColumnRef{Table: "x", Column: "a"}, dup); err != nil {
		t.Errorf("qualified lookup failed: %v", err)
	}
}

func TestTruthiness(t *testing.T) {
	cases := []struct {
		d    datum.Datum
		want bool
	}{
		{datum.NewBool(true), true},
		{datum.NewBool(false), false},
		{datum.Null, false},
		{datum.NewInt(0), false},
		{datum.NewInt(5), true},
		{datum.NewFloat(0), false},
		{datum.NewString(""), false},
		{datum.NewString("x"), true},
	}
	for _, tc := range cases {
		if got := truthy(tc.d); got != tc.want {
			t.Errorf("truthy(%v) = %v", tc.d, got)
		}
	}
}

func TestComparisonWithNullIsFalse(t *testing.T) {
	cat, mgr, ex, _ := fixture(t, 0, false)
	if _, _, err := mgr.Insert("R", datum.Row{datum.NewInt(1), datum.Null, datum.NewInt(0)}); err != nil {
		t.Fatal(err)
	}
	n := &plan.SeqScan{Table: "R", Alias: "R", Preds: []sql.Expr{expr(t, "a = 0")}}
	n.Out = rSchema(cat)
	rows, err := ex.exec(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Error("NULL = 0 should not match")
	}
	// IS NULL does.
	n2 := &plan.SeqScan{Table: "R", Alias: "R", Preds: []sql.Expr{expr(t, "a IS NULL")}}
	n2.Out = rSchema(cat)
	rows, err = ex.exec(n2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Error("IS NULL should match")
	}
}

func TestRunDispatchesDML(t *testing.T) {
	cat, mgr, ex, ix := fixture(t, 10, true)
	// UPDATE locates through a fetching seek on the secondary, DELETE
	// through a heap scan: the two Source shapes the optimizer emits.
	seek := &plan.IndexSeek{Index: ix, Alias: "R", EqVals: []datum.Datum{datum.NewInt(3)}, Fetch: true}
	seek.Out = rSchema(cat)
	upd := &plan.UpdateNode{Table: "R",
		Set:    []sql.Assignment{{Column: "b", Value: &sql.Literal{Value: datum.NewInt(99)}}},
		Source: seek}
	rs, err := ex.Run(upd)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Affected != 1 {
		t.Fatalf("affected = %d", rs.Affected)
	}
	scan := &plan.SeqScan{Table: "R", Alias: "R", Preds: []sql.Expr{expr(t, "b = 99")}}
	scan.Out = rSchema(cat)
	del := &plan.DeleteNode{Table: "R", Source: scan}
	rs, err = ex.Run(del)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Affected != 1 {
		t.Fatalf("deleted = %d", rs.Affected)
	}
	if mgr.Heap("R").Len() != 9 {
		t.Error("row not deleted")
	}
	ins := &plan.InsertNode{Table: "R", Literals: []datum.Row{
		{datum.NewInt(50), datum.NewInt(1), datum.NewInt(2)},
	}}
	rs, err = ex.Run(ins)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Affected != 1 || mgr.Heap("R").Len() != 10 {
		t.Error("insert failed")
	}
	// Arity mismatch rejected.
	bad := &plan.InsertNode{Table: "R", Literals: []datum.Row{{datum.NewInt(1)}}}
	if _, err := ex.Run(bad); err == nil {
		t.Error("arity mismatch accepted")
	}
}

// TestDMLCoveringSources: a Source that answers from index keys (a
// covering seek, or a scan of a covering index) still hands the DML node
// full heap rows, applied in RID order.
func TestDMLCoveringSources(t *testing.T) {
	cat, mgr, ex, ix := fixture(t, 40, true)
	// Covering seek a = 7: rows 7, 17, 27, 37.
	seek := &plan.IndexSeek{Index: ix, Alias: "R", EqVals: []datum.Datum{datum.NewInt(7)}}
	seek.Out = plan.IndexSchema(ix, "R")
	upd := &plan.UpdateNode{Table: "R", Source: seek,
		Set: []sql.Assignment{{Column: "b", Value: expr(t, "b + 100 = 0").(*sql.BinaryExpr).Left}}}
	rs, err := ex.Run(upd)
	if err != nil || rs.Affected != 4 {
		t.Fatalf("covering-seek update: affected %v, err %v", rs, err)
	}
	// Index scan with a predicate over index columns: id >= 30 AND a < 5.
	scan := &plan.IndexScan{Index: ix, Alias: "R", Preds: []sql.Expr{expr(t, "id >= 30"), expr(t, "a < 5")}}
	scan.Out = plan.IndexSchema(ix, "R")
	rs, err = ex.Run(&plan.DeleteNode{Table: "R", Source: scan})
	if err != nil || rs.Affected != 5 {
		t.Fatalf("index-scan delete: affected %v, err %v", rs, err)
	}
	if err := mgr.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	all := &plan.SeqScan{Table: "R", Alias: "R"}
	all.Out = rSchema(cat)
	rows, err := ex.exec(all, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 35 {
		t.Fatalf("%d rows left, want 35", len(rows))
	}
	for _, r := range rows {
		id, b := r[0].Int(), r[2].Int()
		if want := id % 3; id%10 == 7 {
			want += 100
			if b != want {
				t.Errorf("row %d: b = %d, want %d", id, b, want)
			}
		} else if b != want {
			t.Errorf("row %d: b = %d, want it untouched at %d", id, b, want)
		}
	}
}

// TestDMLRejectsUnusableSource: a Source must be an access-path leaf
// that yields one RID per row it outputs.
func TestDMLRejectsUnusableSource(t *testing.T) {
	cat, mgr, ex, _ := fixture(t, 10, false)
	scan := &plan.SeqScan{Table: "R", Alias: "R"}
	scan.Out = rSchema(cat)
	if _, err := ex.Run(&plan.DeleteNode{Table: "R", Source: &plan.Limit{Child: scan, N: 1}}); err == nil {
		t.Error("DELETE accepted a Source that yields no RIDs")
	}
	stopped := &plan.SeqScan{Table: "R", Alias: "R", Stop: 3}
	stopped.Out = rSchema(cat)
	if _, err := ex.Run(&plan.DeleteNode{Table: "R", Source: stopped}); err == nil {
		t.Error("DELETE accepted a Stop-limited Source")
	}
	if n := mgr.Heap("R").Len(); n != 10 {
		t.Errorf("rejected plans deleted rows: %d left", n)
	}
}

func TestDistinctOperator(t *testing.T) {
	cat, _, ex, _ := fixture(t, 30, false)
	scan := &plan.SeqScan{Table: "R", Alias: "R"}
	scan.Out = rSchema(cat)
	p := &plan.Project{Child: scan, Exprs: []sql.Expr{&sql.ColumnRef{Column: "b"}}, Names: []string{"b"}}
	p.Out = []plan.ColRef{{Column: "b"}}
	d := &plan.Distinct{Child: p}
	d.Out = p.Out
	rows, err := ex.exec(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("distinct = %d, want 3", len(rows))
	}
}

func TestCrossJoin(t *testing.T) {
	cat, _, ex, _ := fixture(t, 4, false)
	l := &plan.SeqScan{Table: "R", Alias: "l"}
	l.Out = plan.TableSchema(cat.Table("R"), "l")
	r := &plan.SeqScan{Table: "R", Alias: "r"}
	r.Out = plan.TableSchema(cat.Table("R"), "r")
	cj := &plan.CrossJoin{Left: l, Right: r}
	cj.Out = append(append([]plan.ColRef(nil), l.Out...), r.Out...)
	rows, err := ex.exec(cj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("cross join = %d, want 16", len(rows))
	}
}

func BenchmarkSeqScan10k(b *testing.B) {
	cat, _, ex, _ := fixture(b, 10000, false)
	n := &plan.SeqScan{Table: "R", Alias: "R", Preds: []sql.Expr{expr(b, "a = 3")}}
	n.Out = rSchema(cat)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ex.exec(n, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexSeek10k(b *testing.B) {
	_, _, ex, ix := fixture(b, 10000, true)
	n := &plan.IndexSeek{Index: ix, Alias: "R", EqVals: []datum.Datum{datum.NewInt(3)}}
	n.Out = plan.IndexSchema(ix, "R")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ex.exec(n, nil); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = fmt.Sprintf
