package executor

import (
	"math"
	"reflect"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/vec"
)

// aggTable builds A(id, g, f, m) with n rows. g, the group column, takes
// three values in the first two morsels and seven from the third on (so
// groups 3..6 first appear in a later morsel), and is NULL every 101st
// row; f is a float whose terms span sixteen orders of magnitude, so
// its SUM depends on accumulation order; m is a float column except in
// the second morsel, where every tenth value is an INT — an arithmetic
// kernel over m must fall back to the scalar path for that morsel only.
func aggTable(t testing.TB, n int) (*catalog.Catalog, *storage.Manager, *plan.SeqScan) {
	t.Helper()
	cat := catalog.New()
	tbl, err := catalog.NewTable("A", []catalog.Column{
		{Name: "id", Kind: datum.KInt},
		{Name: "g", Kind: datum.KInt},
		{Name: "f", Kind: datum.KFloat},
		{Name: "m", Kind: datum.KFloat},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	mgr := storage.NewManager(cat)
	if err := mgr.CreateTable("A"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g := datum.NewInt(int64(i % 3))
		if i >= 2*vec.MorselRows {
			g = datum.NewInt(int64(i % 7))
		}
		if i%101 == 0 {
			g = datum.Null
		}
		f := datum.NewFloat(math.Pow(10, float64(i%17)) + float64(i%97)*0.1)
		m := datum.NewFloat(float64(i%11) * 0.25)
		if i/vec.MorselRows == 1 && i%10 == 0 {
			m = datum.NewInt(int64(i % 11))
		}
		if _, _, err := mgr.Insert("A", datum.Row{datum.NewInt(int64(i)), g, f, m}); err != nil {
			t.Fatal(err)
		}
	}
	scan := &plan.SeqScan{Table: "A", Alias: "A"}
	scan.Out = plan.TableSchema(tbl, "A")
	return cat, mgr, scan
}

func col(name string) sql.Expr { return &sql.ColumnRef{Column: name} }

// aggOverA groups A by g with order-sensitive float aggregates, one
// argument (m + 1) that needs the scalar fallback in the second morsel,
// and every other aggregate function.
func aggOverA(scan *plan.SeqScan) *plan.HashAgg {
	mPlus1 := &sql.BinaryExpr{Op: "+", Left: col("m"), Right: &sql.Literal{Value: datum.NewInt(1)}}
	agg := &plan.HashAgg{
		Child:   scan,
		GroupBy: []sql.Expr{col("g")},
		Aggs: []plan.AggSpec{
			{Func: "FIRST", Arg: col("g"), Name: "g"},
			{Func: "COUNT", Star: true, Name: "n"},
			{Func: "SUM", Arg: col("f"), Name: "sf"},
			{Func: "AVG", Arg: col("f"), Name: "af"},
			{Func: "SUM", Arg: mPlus1, Name: "sm"},
			{Func: "MIN", Arg: col("id"), Name: "mn"},
			{Func: "MAX", Arg: col("m"), Name: "mx"},
			{Func: "COUNT", Arg: col("m"), Name: "cm"},
		},
	}
	for _, a := range agg.Aggs {
		agg.Out = append(agg.Out, plan.ColRef{Column: a.Name})
	}
	return agg
}

// foldModel is the aggregate's definition, row at a time: groups in
// first-appearance order, each fed its rows' arguments in input order.
func foldModel(t *testing.T, agg *plan.HashAgg, in []datum.Row) []datum.Row {
	t.Helper()
	schema := agg.Child.Schema()
	index := map[string]int{}
	var states [][]aggState
	for _, r := range in {
		key := make(datum.Row, len(agg.GroupBy))
		for k, g := range agg.GroupBy {
			f, err := compile(g, schema)
			if err != nil {
				t.Fatal(err)
			}
			if key[k], err = f(r); err != nil {
				t.Fatal(err)
			}
		}
		gi, ok := index[rowKey(key)]
		if !ok {
			gi = len(states)
			index[rowKey(key)] = gi
			states = append(states, make([]aggState, len(agg.Aggs)))
		}
		for k, a := range agg.Aggs {
			v := datum.NewInt(1)
			if !a.Star {
				f, err := compile(a.Arg, schema)
				if err != nil {
					t.Fatal(err)
				}
				if v, err = f(r); err != nil {
					t.Fatal(err)
				}
			}
			states[gi][k].add(v)
		}
	}
	out := make([]datum.Row, len(states))
	for gi, st := range states {
		out[gi] = make(datum.Row, len(agg.Aggs))
		for k, a := range agg.Aggs {
			fn := a.Func
			if a.Star {
				fn = "COUNT"
			}
			out[gi][k] = st[k].result(fn)
		}
	}
	return out
}

// TestHashAggFoldIdentity checks that folding through morsel-local
// group ids gives exactly the row-at-a-time result — same groups in the
// same order, bit-identical float sums — at one and four workers, on the
// default and the reference executor, with one morsel taking the scalar
// fallback.
func TestHashAggFoldIdentity(t *testing.T) {
	const n = 3*vec.MorselRows + 17
	cat, mgr, scan := aggTable(t, n)
	agg := aggOverA(scan)

	ref := NewReference(cat, mgr)
	in, err := ref.exec(scan, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.exec(agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if model := foldModel(t, agg, in); !reflect.DeepEqual(want, model) {
		t.Fatalf("row engine differs from the fold model:\n got %v\nwant %v", want, model)
	}
	if len(want) != 8 { // NULL, 0..6
		t.Fatalf("%d groups, want 8", len(want))
	}

	// The argument m + 1 must vectorize in every morsel but the second.
	argVes, ok := compileVecExprs([]sql.Expr{agg.Aggs[4].Arg}, scan.Schema())
	groupVes, gok := compileVecExprs(agg.GroupBy, scan.Schema())
	if !ok || !gok {
		t.Fatal("aggregate expressions do not compile to kernels")
	}
	for i := range chunkBounds(n) {
		rows := chunkOf(in, i)
		w := getVecWork()
		am := newAggMorsel(len(rows), 1)
		w.m.reset(rows)
		got := hashAggEvalVec(groupVes, argVes, &am, &w.m)
		putVecWork(w)
		if got != (i != 1) {
			t.Fatalf("morsel %d vectorized = %v", i, got)
		}
	}

	for _, workers := range []int{1, 4} {
		for _, ex := range []*Executor{New(cat, mgr), NewReference(cat, mgr)} {
			ex.SetWorkers(workers)
			got, err := ex.exec(agg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d reference=%v: result differs from the row loop:\n got %v\nwant %v", workers, ex.reference, got, want)
			}
		}
	}
}

// TestHashAggAllocsPerGroup is the fold's allocation gate: a GROUP BY
// with three groups allocates per morsel and per group, not per row, so
// doubling the input from four to eight morsels adds at most a small
// constant per added morsel. The child scan's own allocations are
// measured alone and subtracted. (Folding one rendered key string per
// row, the difference was one allocation per added row.)
func TestHashAggAllocsPerGroup(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	const perMorsel = 32
	allocs := func(morsels int) float64 {
		cat, _, ex, _ := fixture(t, morsels*vec.MorselRows, false)
		ex.SetWorkers(1)
		scan := &plan.SeqScan{Table: "R", Alias: "R"}
		scan.Out = rSchema(cat)
		agg := &plan.HashAgg{
			Child:   scan,
			GroupBy: []sql.Expr{col("b")},
			Aggs: []plan.AggSpec{
				{Func: "COUNT", Star: true, Name: "n"},
				{Func: "SUM", Arg: col("a"), Name: "s"},
			},
		}
		agg.Out = []plan.ColRef{{Column: "n"}, {Column: "s"}}
		run := func(p plan.Node, want int) float64 {
			return testing.AllocsPerRun(5, func() {
				rows, err := ex.exec(p, nil)
				if err != nil || len(rows) != want {
					t.Fatalf("%d rows, want %d (err %v)", len(rows), want, err)
				}
			})
		}
		return run(agg, 3) - run(scan, morsels*vec.MorselRows)
	}
	small, large := allocs(4), allocs(8)
	t.Logf("aggregate allocations: %.0f over 4 morsels, %.0f over 8", small, large)
	if large-small > 4*perMorsel {
		t.Fatalf("GROUP BY over 8 morsels made %.0f allocations, over 4 morsels %.0f: %.0f more, want at most %d",
			large, small, large-small, 4*perMorsel)
	}
}
