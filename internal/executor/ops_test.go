package executor

import (
	"reflect"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
)

// valsTable builds a table name(id, v) holding the given v values
// (datum.Null allowed) and returns its scan node.
func valsTable(t *testing.T, cat *catalog.Catalog, mgr *storage.Manager, name string, vals []datum.Datum) *plan.SeqScan {
	t.Helper()
	tbl, err := catalog.NewTable(name, []catalog.Column{
		{Name: "id", Kind: datum.KInt}, {Name: "v", Kind: datum.KInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := mgr.CreateTable(name); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if _, _, err := mgr.Insert(name, datum.Row{datum.NewInt(int64(i)), v}); err != nil {
			t.Fatal(err)
		}
	}
	scan := &plan.SeqScan{Table: name, Alias: name}
	scan.Out = plan.TableSchema(tbl, name)
	return scan
}

func ints(vs ...int64) []datum.Datum {
	out := make([]datum.Datum, len(vs))
	for i, v := range vs {
		out[i] = datum.NewInt(v)
	}
	return out
}

// TestTopNMatchesSortLimit is the operator's defining property: TopN is
// byte-identical to the stable Sort + Limit pair it replaces, across
// key directions, tie-heavy keys, NULL keys, and every N regime
// (empty, under, exactly, and over the input size).
func TestTopNMatchesSortLimit(t *testing.T) {
	cat, mgr, ex, _ := fixture(t, 200, false)
	// NULL sort keys mixed in.
	for i := 0; i < 7; i++ {
		if _, _, err := mgr.Insert("R", datum.Row{datum.NewInt(int64(1000 + i)), datum.Null, datum.NewInt(int64(i % 3))}); err != nil {
			t.Fatal(err)
		}
	}
	keysets := [][]plan.SortKey{
		{{Expr: &sql.ColumnRef{Column: "a"}}},
		{{Expr: &sql.ColumnRef{Column: "a"}, Desc: true}},
		{{Expr: &sql.ColumnRef{Column: "a"}}, {Expr: &sql.ColumnRef{Column: "b"}, Desc: true}},
		{{Expr: &sql.ColumnRef{Column: "b"}, Desc: true}, {Expr: &sql.ColumnRef{Column: "id"}}},
	}
	for ki, keys := range keysets {
		for _, n := range []int64{0, 1, 3, 10, 207, 500} {
			scan := &plan.SeqScan{Table: "R", Alias: "R"}
			scan.Out = rSchema(cat)
			s := &plan.Sort{Child: scan, Keys: keys}
			s.Out = scan.Out
			l := &plan.Limit{Child: s, N: n}
			l.Out = s.Out
			want, err := ex.exec(l, nil)
			if err != nil {
				t.Fatal(err)
			}
			tn := &plan.TopN{Child: scan, Keys: keys, N: n}
			tn.Out = scan.Out
			got, err := ex.exec(tn, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("keyset %d N=%d: topn %d rows, sort+limit %d", ki, n, len(got), len(want))
			}
			if len(got) > 0 && !reflect.DeepEqual(got, want) {
				t.Errorf("keyset %d N=%d: topn diverges from sort+limit", ki, n)
			}
		}
	}
}

// TestTopNVecPrunePath runs TopN over an input large enough to
// vectorize and to engage the TopK prefilter (single key, len >> 2N) and
// cross-checks the reference executor: the prune is a superset filter,
// so both must produce the identical stable-sort prefix — including
// when the key is tie-heavy (a has only 10 distinct values).
func TestTopNVecPrunePath(t *testing.T) {
	cat, mgr, ex, _ := fixture(t, 12000, false)
	ref := NewReference(cat, mgr)
	for _, desc := range []bool{false, true} {
		for _, col := range []string{"id", "a"} {
			keys := []plan.SortKey{{Expr: &sql.ColumnRef{Column: col}, Desc: desc}}
			run := func(ex *Executor) []datum.Row {
				tn := &plan.TopN{Child: &plan.SeqScan{Table: "R", Alias: "R"}, Keys: keys, N: 7}
				tn.Child.(*plan.SeqScan).Out = rSchema(cat)
				tn.Out = rSchema(cat)
				rows, err := ex.exec(tn, nil)
				if err != nil {
					t.Fatal(err)
				}
				return rows
			}
			vecRows := run(ex)
			rowRows := run(ref)
			if !reflect.DeepEqual(vecRows, rowRows) {
				t.Errorf("col=%s desc=%v: vector and row TopN diverge", col, desc)
			}
			if len(vecRows) != 7 {
				t.Fatalf("col=%s desc=%v: got %d rows", col, desc, len(vecRows))
			}
		}
	}
}

// TestHashSemiJoinSemantics pins the SQL three-valued-logic contract of
// each semi-join flavor: IN/EXISTS (semi), NOT EXISTS (anti), and
// NOT IN (null-aware anti, where a build-side NULL poisons everything).
func TestHashSemiJoinSemantics(t *testing.T) {
	cases := []struct {
		name      string
		anti      bool
		nullAware bool
		left      []datum.Datum
		right     []datum.Datum
		want      []datum.Datum // expected left keys, probe order
	}{
		{"semi-basic", false, false,
			append(ints(1, 2, 4), datum.Null), ints(2, 3, 4, 4), ints(2, 4)},
		{"semi-null-build-ignored", false, false,
			ints(1, 2), append(ints(2), datum.Null), ints(2)},
		{"anti-not-exists", true, false,
			append(ints(1, 2), datum.Null), ints(2, 3), append(ints(1), datum.Null)},
		{"anti-not-in", true, true,
			append(ints(1, 2), datum.Null), ints(2, 3), ints(1)},
		{"anti-not-in-null-build", true, true,
			ints(1, 2), append(ints(2), datum.Null), nil},
		{"anti-not-in-empty-build", true, true,
			append(ints(1), datum.Null), nil, append(ints(1), datum.Null)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := catalog.New()
			mgr := storage.NewManager(cat)
			ex := New(cat, mgr)
			l := valsTable(t, cat, mgr, "L", tc.left)
			r := valsTable(t, cat, mgr, "B", tc.right)
			j := &plan.HashSemiJoin{
				Left: l, Right: r,
				LeftKeys:  []sql.Expr{&sql.ColumnRef{Table: "L", Column: "v"}},
				RightKeys: []sql.Expr{&sql.ColumnRef{Table: "B", Column: "v"}},
				Anti:      tc.anti, NullAware: tc.nullAware,
			}
			j.Out = l.Out
			rows, err := ex.exec(j, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]datum.Datum, len(rows))
			for i, row := range rows {
				got[i] = row[1]
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d rows %v, want %d %v", len(got), got, len(tc.want), tc.want)
			}
			for i := range got {
				if got[i].IsNull() != tc.want[i].IsNull() ||
					(!got[i].IsNull() && got[i].Compare(tc.want[i]) != 0) {
					t.Fatalf("row %d: got %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// aggMinMax wraps a child in the MIN/MAX HashAgg the optimizer places
// above an IndexEndpoint (and above a plain scan, for the oracle).
func aggMinMax(child plan.Node, col string, wantMin, wantMax bool) *plan.HashAgg {
	agg := &plan.HashAgg{Child: child}
	if wantMin {
		agg.Aggs = append(agg.Aggs, plan.AggSpec{Func: "MIN", Arg: &sql.ColumnRef{Column: col}, Name: "mn"})
		agg.Out = append(agg.Out, plan.ColRef{Column: "mn"})
	}
	if wantMax {
		agg.Aggs = append(agg.Aggs, plan.AggSpec{Func: "MAX", Arg: &sql.ColumnRef{Column: col}, Name: "mx"})
		agg.Out = append(agg.Out, plan.ColRef{Column: "mx"})
	}
	return agg
}

// TestIndexEndpointOracle checks MIN/MAX answered from index endpoints
// against the scan-based aggregate, including NULL values in the key
// column (MIN must skip the leading NULL run; an all-NULL table folds
// to NULL) and an equality prefix restricting the group.
func TestIndexEndpointOracle(t *testing.T) {
	cat, mgr, ex, ix := fixture(t, 100, true)
	for i := 0; i < 5; i++ {
		if _, _, err := mgr.Insert("R", datum.Row{datum.NewInt(int64(2000 + i)), datum.Null, datum.NewInt(0)}); err != nil {
			t.Fatal(err)
		}
	}
	// Rebuild the index to include the NULL rows.
	if err := mgr.DropIndex(ix.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.BuildIndex(ix); err != nil {
		t.Fatal(err)
	}
	check := func(name string, eq []datum.Datum, col string, wantMin, wantMax bool) {
		t.Helper()
		ep := &plan.IndexEndpoint{Index: ix, Alias: "R", Col: col, EqVals: eq, WantMin: wantMin, WantMax: wantMax}
		ep.Out = rSchema(cat)
		got, err := ex.exec(aggMinMax(ep, col, wantMin, wantMax), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scan := &plan.SeqScan{Table: "R", Alias: "R"}
		scan.Out = rSchema(cat)
		var oracle plan.Node = scan
		if len(eq) > 0 {
			f := &plan.Filter{Child: scan, Preds: []sql.Expr{&sql.BinaryExpr{
				Op: "=", Left: &sql.ColumnRef{Column: "a"}, Right: &sql.Literal{Value: eq[0]},
			}}}
			f.Out = scan.Out
			oracle = f
		}
		want, err := ex.exec(aggMinMax(oracle, col, wantMin, wantMax), nil)
		if err != nil {
			t.Fatalf("%s oracle: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: endpoint %v, scan oracle %v", name, got, want)
		}
	}
	check("min-a", nil, "a", true, false)
	check("max-a", nil, "a", false, true)
	check("minmax-a", nil, "a", true, true)
	check("min-id-eq7", []datum.Datum{datum.NewInt(7)}, "id", true, false)
	check("max-id-eq7", []datum.Datum{datum.NewInt(7)}, "id", false, true)
	check("minmax-id-eq-absent", []datum.Datum{datum.NewInt(999)}, "id", true, true)

	// All-NULL key column: both endpoints must fold to NULL like a scan.
	cat2 := catalog.New()
	mgr2 := storage.NewManager(cat2)
	ex2 := New(cat2, mgr2)
	tbl, err := catalog.NewTable("N", []catalog.Column{
		{Name: "id", Kind: datum.KInt}, {Name: "a", Kind: datum.KInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat2.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := mgr2.CreateTable("N"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := mgr2.Insert("N", datum.Row{datum.NewInt(int64(i)), datum.Null}); err != nil {
			t.Fatal(err)
		}
	}
	ix2 := &catalog.Index{Name: "Na", Table: "N", Columns: []string{"a", "id"}}
	if err := cat2.AddIndex(ix2); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr2.BuildIndex(ix2); err != nil {
		t.Fatal(err)
	}
	ep := &plan.IndexEndpoint{Index: ix2, Alias: "N", Col: "a", WantMin: true, WantMax: true}
	ep.Out = plan.TableSchema(tbl, "N")
	rows, err := ex2.exec(aggMinMax(ep, "a", true, true), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0][0].IsNull() || !rows[0][1].IsNull() {
		t.Errorf("all-NULL endpoint agg = %v, want single NULL,NULL row", rows)
	}
}

// TestIndexEndpointStaleIndex mirrors TestIndexSeekInactiveIndexFails:
// a suspended index must not serve endpoint reads.
func TestIndexEndpointStaleIndex(t *testing.T) {
	cat, mgr, ex, ix := fixture(t, 10, true)
	if err := mgr.SuspendIndex(ix.ID()); err != nil {
		t.Fatal(err)
	}
	ep := &plan.IndexEndpoint{Index: ix, Alias: "R", Col: "a", WantMin: true}
	ep.Out = rSchema(cat)
	if _, err := ex.exec(ep, nil); err == nil {
		t.Error("endpoint on suspended index should fail")
	}
}

// TestScanStopPushdown: a stop-limited scan returns exactly the first
// Stop rows of the unlimited scan, for both scan shapes, and the limit
// composes with residual predicates (Stop counts emitted rows, not
// visited ones).
func TestScanStopPushdown(t *testing.T) {
	cat, _, ex, ix := fixture(t, 9997, true)
	full := &plan.SeqScan{Table: "R", Alias: "R"}
	full.Out = rSchema(cat)
	all, err := ex.exec(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []int64{1, 5, 4096, 5000, 20000} {
		s := &plan.SeqScan{Table: "R", Alias: "R", Stop: stop}
		s.Out = rSchema(cat)
		got, err := ex.exec(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantN := int(stop)
		if wantN > len(all) {
			wantN = len(all)
		}
		if !reflect.DeepEqual(got, all[:wantN]) {
			t.Errorf("seqscan stop=%d diverges from full-scan prefix", stop)
		}
	}
	// With a predicate: stop applies to surviving rows.
	p := &plan.SeqScan{Table: "R", Alias: "R", Preds: []sql.Expr{expr(t, "a = 3")}, Stop: 4}
	p.Out = rSchema(cat)
	got, err := ex.exec(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("predicated stop rows = %d, want 4", len(got))
	}
	for _, r := range got {
		if r[1].Int() != 3 {
			t.Fatalf("predicate violated: %v", r)
		}
	}
	// IndexSeek with Stop.
	seek := &plan.IndexSeek{Index: ix, Alias: "R", EqVals: []datum.Datum{datum.NewInt(3)}, Stop: 2}
	seek.Out = plan.IndexSchema(ix, "R")
	got, err = ex.exec(seek, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("seek stop rows = %d, want 2", len(got))
	}
}
