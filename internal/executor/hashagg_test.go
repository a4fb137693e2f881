package executor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/vec"
)

// aggTable builds A(id, g, f, m, s, v) with n rows, three morsels and
// more, and two secondary indexes on it: Acov, covering every column in
// id order, and Aid on id alone, which a seek fetches heap rows through.
//   - g, a group column, takes three values in the first two morsels and
//     seven from the third on (so groups 3..6 first appear in a later
//     morsel), and is NULL every 101st row;
//   - f is a float whose terms span sixteen orders of magnitude, so its
//     SUM depends on accumulation order;
//   - m is a float column except in the second morsel, where every tenth
//     value is an INT — an arithmetic kernel over m must fall back to the
//     scalar path for that morsel only — and is NULL every 13th row of
//     the third;
//   - s, a VARCHAR group column, takes three values, except in the second
//     half of the second morsel, which brings 40 more (past typedKeys:
//     the typed group ids give way to rendered ones mid-morsel), and is
//     NULL every 50th row of the fourth;
//   - v is an INT that is NULL in the first row (SUM's first value) and
//     every 7th row from the third morsel on.
func aggTable(t testing.TB, n int) (*catalog.Catalog, *storage.Manager, *plan.SeqScan) {
	t.Helper()
	cat := catalog.New()
	tbl, err := catalog.NewTable("A", []catalog.Column{
		{Name: "id", Kind: datum.KInt},
		{Name: "g", Kind: datum.KInt},
		{Name: "f", Kind: datum.KFloat},
		{Name: "m", Kind: datum.KFloat},
		{Name: "s", Kind: datum.KString},
		{Name: "v", Kind: datum.KInt},
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
		morsel, at := i/vec.MorselRows, i%vec.MorselRows
		g := datum.NewInt(int64(i % 3))
		if morsel >= 2 {
			g = datum.NewInt(int64(i % 7))
		}
		if i%101 == 0 {
			g = datum.Null
		}
		f := datum.NewFloat(math.Pow(10, float64(i%17)) + float64(i%97)*0.1)
		m := datum.NewFloat(float64(i%11) * 0.25)
		switch {
		case morsel == 1 && i%10 == 0:
			m = datum.NewInt(int64(i % 11))
		case morsel == 2 && i%13 == 0:
			m = datum.Null
		}
		s := datum.NewString(fmt.Sprintf("s%d", i%3))
		switch {
		case morsel == 1 && at >= vec.MorselRows/2:
			s = datum.NewString(fmt.Sprintf("t%d", i%40))
		case morsel == 3 && i%50 == 0:
			s = datum.Null
		}
		v := datum.NewInt(int64(i%1000) * 1000003)
		if i == 0 || (morsel >= 2 && i%7 == 0) {
			v = datum.Null
		}
		if _, _, err := mgr.Insert("A", datum.Row{datum.NewInt(int64(i)), g, f, m, s, v}); err != nil {
			t.Fatal(err)
		}
	}
	for _, ix := range []*catalog.Index{
		{Name: "Acov", Table: "A", Columns: []string{"id", "v", "g", "f", "m", "s"}},
		{Name: "Aid", Table: "A", Columns: []string{"id"}},
	} {
		if err := cat.AddIndex(ix); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.BuildIndex(ix); err != nil {
			t.Fatal(err)
		}
	}
	scan := &plan.SeqScan{Table: "A", Alias: "A"}
	scan.Out = plan.TableSchema(tbl, "A")
	return cat, mgr, scan
}

// aggSeeks returns seeks over A's every row (id >= 0) through the
// covering index and through the fetching one.
func aggSeeks(cat *catalog.Catalog) []*plan.IndexSeek {
	lo := datum.NewInt(0)
	var out []*plan.IndexSeek
	for _, name := range []string{"Acov", "Aid"} {
		ix := cat.Index(name)
		sk := &plan.IndexSeek{Index: ix, Alias: "A", Lo: &lo, LoInc: true, Fetch: name == "Aid"}
		if sk.Fetch {
			sk.Out = plan.TableSchema(cat.Table("A"), "A")
		} else {
			sk.Out = plan.IndexSchema(ix, "A")
		}
		out = append(out, sk)
	}
	return out
}

func col(name string) sql.Expr { return &sql.ColumnRef{Column: name} }

// aggOverA aggregates child, grouped by the named columns, with
// order-sensitive float aggregates, one argument (m + 1) that needs the
// scalar fallback in the second morsel, arguments with NULLs and with
// mixed kinds, and every aggregate function.
func aggOverA(child plan.Node, groupBy ...string) *plan.HashAgg {
	mPlus1 := &sql.BinaryExpr{Op: "+", Left: col("m"), Right: &sql.Literal{Value: datum.NewInt(1)}}
	agg := &plan.HashAgg{
		Child: child,
		Aggs: []plan.AggSpec{
			{Func: "FIRST", Arg: col("g"), Name: "g"},
			{Func: "COUNT", Star: true, Name: "n"},
			{Func: "SUM", Arg: col("f"), Name: "sf"},
			{Func: "AVG", Arg: col("f"), Name: "af"},
			{Func: "SUM", Arg: mPlus1, Name: "sm"},
			{Func: "MIN", Arg: col("id"), Name: "mn"},
			{Func: "MAX", Arg: col("m"), Name: "mx"},
			{Func: "COUNT", Arg: col("m"), Name: "cm"},
			{Func: "SUM", Arg: col("m"), Name: "sm0"},
			{Func: "AVG", Arg: col("m"), Name: "am"},
			{Func: "SUM", Arg: col("v"), Name: "sv"},
			{Func: "COUNT", Arg: col("v"), Name: "cv"},
			{Func: "AVG", Arg: col("v"), Name: "av"},
			{Func: "MIN", Arg: col("s"), Name: "ms"},
			{Func: "MAX", Arg: col("v"), Name: "xv"},
			{Func: "FIRST", Arg: col("m"), Name: "fm"},
		},
	}
	for _, g := range groupBy {
		agg.GroupBy = append(agg.GroupBy, col(g))
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
			states[gi][k].add(aggFnOfT(t, a), v)
		}
	}
	out := make([]datum.Row, len(states))
	for gi, st := range states {
		out[gi] = make(datum.Row, len(agg.Aggs))
		for k, a := range agg.Aggs {
			out[gi][k] = st[k].result(aggFnOfT(t, a))
		}
	}
	return out
}

func aggFnOfT(t *testing.T, a plan.AggSpec) aggFn {
	t.Helper()
	fn, err := aggFnOf(a)
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// TestHashAggFoldIdentity checks that folding through morsel-local
// group ids gives exactly the row-at-a-time result — same groups in the
// same order, bit-identical float sums — at one and four workers, on the
// default and the reference executor, over a heap scan and over seeks
// through a covering and a fetching index, grouped by an INT column with
// NULLs, by a VARCHAR column and not at all.
// Every morsel's group ids and keys must be those of rendering each row's
// key, where the typed ids hold and where they give way mid-morsel; one
// morsel takes the scalar fallback. Under seeded page-read faults the two
// executors must fail alike or return the same rows.
func TestHashAggFoldIdentity(t *testing.T) {
	const n = 3*vec.MorselRows + 17
	cat, mgr, scan := aggTable(t, n)
	ref := NewReference(cat, mgr)
	in, err := ref.exec(scan, nil)
	if err != nil {
		t.Fatal(err)
	}
	children := []plan.Node{scan}
	for _, sk := range aggSeeks(cat) {
		children = append(children, sk)
	}
	var plans []*plan.HashAgg
	for _, child := range children {
		for _, groupBy := range [][]string{{"g"}, {"s"}, nil} {
			plans = append(plans, aggOverA(child, groupBy...))
		}
	}
	groups := []int{8, 44, 1} // g: NULL and 0..6; s: NULL and 43
	for pi, agg := range plans {
		want, err := ref.exec(agg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != groups[pi%len(groups)] {
			t.Fatalf("plan %d: %d groups, want %d", pi, len(want), groups[pi%len(groups)])
		}
		if agg.Child == scan {
			if model := foldModel(t, agg, in); !reflect.DeepEqual(want, model) {
				t.Fatalf("plan %d: row engine differs from the fold model:\n got %v\nwant %v", pi, want, model)
			}
		}
		for _, workers := range []int{1, 4} {
			for _, ex := range []*Executor{New(cat, mgr), NewReference(cat, mgr)} {
				ex.SetWorkers(workers)
				c := NewCollector()
				got, err := ex.RunCollected(agg, c)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("plan %d over %s workers=%d reference=%v", pi, agg.Child.Label(), workers, ex.reference)
				if !reflect.DeepEqual(got.Rows, want) {
					t.Fatalf("%s: result differs from the row loop:\n got %v\nwant %v", name, got.Rows, want)
				}
				if wantEngine := map[bool]string{false: "vectorized", true: "row"}[ex.reference]; c.Stats(agg).Engine() != wantEngine {
					t.Fatalf("%s: the aggregate ran %s", name, c.Stats(agg).Engine())
				}
			}
		}
	}

	// Each morsel's ids and keys are those of rendering every row's key:
	// the typed ids hold over s in the first and third morsels and give
	// way mid-morsel in the second; NULL keys (g, and s in the fourth
	// morsel) render.
	argVes, ok := compileVecExprs([]sql.Expr{plans[0].Aggs[4].Arg}, scan.Schema())
	if !ok {
		t.Fatal("m + 1 does not compile to kernels")
	}
	for _, agg := range plans[:3] {
		groupVes, ok := compileVecExprs(agg.GroupBy, scan.Schema())
		if !ok {
			t.Fatal("group keys do not compile to kernels")
		}
		for i := range chunkBounds(n) {
			rows := chunkOf(in, i)
			w := getVecWork()
			w.m.reset(rows)
			w.agg.reset(len(rows))
			// The argument m + 1 vectorizes in every morsel but the second.
			if got := hashAggEvalVec(groupVes, argVes, &w.agg, &w.m); got != (i != 1) {
				t.Fatalf("morsel %d vectorized = %v", i, got)
			}
			w.agg.reset(len(rows))
			if !hashAggEvalVec(groupVes, nil, &w.agg, &w.m) {
				t.Fatalf("morsel %d: the group keys fell back", i)
			}
			var keys []string
			index := map[string]int32{}
			for j, r := range rows {
				key := make(datum.Row, len(agg.GroupBy))
				for k, g := range agg.GroupBy {
					key[k] = r[lookupT(t, scan.Schema(), g)]
				}
				id, seen := index[rowKey(key)]
				if !seen {
					id = int32(len(keys))
					index[rowKey(key)] = id
					keys = append(keys, rowKey(key))
				}
				if w.agg.gid[j] != id {
					t.Fatalf("group by %v morsel %d row %d: id %d, rendered %d", agg.GroupBy, i, j, w.agg.gid[j], id)
				}
			}
			if !reflect.DeepEqual(w.agg.keys, keys) {
				t.Fatalf("group by %v morsel %d: keys %q, rendered %q", agg.GroupBy, i, w.agg.keys, keys)
			}
			putVecWork(w)
		}
	}

	// Fault leg: each run draws from a fresh injector with the same seed,
	// so both executors see the same scan ordinal and morsel keys.
	var failed, passed int
	for _, workers := range []int{1, 4} {
		ref, ex := NewReference(cat, mgr), New(cat, mgr)
		ref.SetWorkers(workers)
		ex.SetWorkers(workers)
		for pi, p := range plans {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("plan %d over %s workers=%d fault seed %d", pi, p.Child.Label(), workers, seed)
				runFaulted := func(e *Executor) (*ResultSet, error) {
					inj := fault.New(seed).Plan(fault.PageRead, fault.Rule{Prob: 0.3})
					inj.Arm()
					mgr.SetFaults(inj)
					return e.RunContext(context.Background(), p, nil)
				}
				want, werr := runFaulted(ref)
				got, gerr := runFaulted(ex)
				var wf, gf *fault.Error
				switch {
				case werr == nil && gerr == nil:
					if !reflect.DeepEqual(got.Rows, want.Rows) {
						t.Fatalf("%s: result differs from the reference:\n got %v\nwant %v", name, got.Rows, want.Rows)
					}
					passed++
				case errors.As(werr, &wf) && errors.As(gerr, &gf):
					if *gf != *wf {
						t.Fatalf("%s: fault %v, reference fault %v", name, gf, wf)
					}
					failed++
				default:
					t.Fatalf("%s: error %v, reference error %v", name, gerr, werr)
				}
			}
		}
	}
	mgr.SetFaults(nil)
	if failed == 0 || passed == 0 {
		t.Fatalf("fault leg: %d runs failed and %d passed; both must occur", failed, passed)
	}
}

// lookupT returns the slot of a group column in schema.
func lookupT(t *testing.T, schema []plan.ColRef, e sql.Expr) int {
	t.Helper()
	slot, err := lookup(schema, "", e.(*sql.ColumnRef).Column)
	if err != nil {
		t.Fatal(err)
	}
	return slot
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
