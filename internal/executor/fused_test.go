package executor

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/obs"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/vec"
)

// fusedTable builds F(id, k, g, v, s) over five heap chunks, the filter
// column k chosen per chunk so that `k < 10` passes no row of chunk 0,
// some rows of chunks 1, 2 and 4 and every live row of chunk 3:
//   - k is NULL every 13th row of chunk 1, g every 17th row, v every 11th;
//   - v is FLOAT except on chunk 2's rows the filter drops (INT there:
//     the chunk's column mixes kinds, its selected rows do not) and on
//     every 7th row of chunk 4 (the selected rows mix kinds too);
//   - every 5th row of chunk 3 and a run in chunk 1 are deleted, leaving
//     nil slots.
func fusedTable(t testing.TB) (*catalog.Catalog, *storage.Manager, *plan.SeqScan) {
	t.Helper()
	cat := catalog.New()
	tbl, err := catalog.NewTable("F", []catalog.Column{
		{Name: "id", Kind: datum.KInt},
		{Name: "k", Kind: datum.KInt},
		{Name: "g", Kind: datum.KInt},
		{Name: "v", Kind: datum.KFloat},
		{Name: "s", Kind: datum.KString},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	mgr := storage.NewManager(cat)
	if err := mgr.CreateTable("F"); err != nil {
		t.Fatal(err)
	}
	const n = 4*vec.MorselRows + 900
	for i := range n {
		c := i / vec.MorselRows
		var k datum.Datum
		switch c {
		case 0:
			k = datum.NewInt(int64(100 + i%5))
		case 1:
			k = datum.NewInt(int64(i % 20))
			if i%13 == 0 {
				k = datum.Null
			}
		case 2:
			k = datum.NewInt(int64(i % 15))
		case 3:
			k = datum.NewInt(int64(i % 10))
		default:
			k = datum.NewInt(int64(i % 12))
		}
		g := datum.NewInt(int64(i % 4))
		if i%17 == 0 {
			g = datum.Null
		}
		v := datum.NewFloat(float64(i%9)*0.5 + 1e-3*float64(i%7))
		switch {
		case i%11 == 0:
			v = datum.Null
		case c == 2 && i%15 >= 10, c == 4 && i%7 == 0:
			v = datum.NewInt(int64(i % 9))
		}
		s := datum.NewString(fmt.Sprintf("s%d", i%3))
		if _, _, err := mgr.Insert("F", datum.Row{datum.NewInt(int64(i)), k, g, v, s}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range n {
		c := i / vec.MorselRows
		if (c == 3 && i%5 == 0) || (c == 1 && i%vec.MorselRows >= 100 && i%vec.MorselRows < 400) {
			if _, err := mgr.Delete("F", storage.RID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan := &plan.SeqScan{Table: "F", Alias: "F"}
	scan.Out = plan.TableSchema(tbl, "F")
	return cat, mgr, scan
}

// fusedScan returns a SeqScan over F with the given WHERE clause.
func fusedScan(t testing.TB, base *plan.SeqScan, where string) *plan.SeqScan {
	t.Helper()
	s := *base
	s.Preds = []sql.Expr{expr(t, where)}
	return &s
}

func vPlus1() sql.Expr {
	return &sql.BinaryExpr{Op: "+", Left: col("v"), Right: &sql.Literal{Value: datum.NewInt(1)}}
}

// fusedAgg groups F's scan by g; SUM(v + 1) needs the scalar fallback
// wherever the selected v values are not one kind.
func fusedAgg(scan *plan.SeqScan, group bool) *plan.HashAgg {
	agg := &plan.HashAgg{
		Child: scan,
		Aggs: []plan.AggSpec{
			{Func: "FIRST", Arg: col("g"), Name: "g"},
			{Func: "COUNT", Star: true, Name: "n"},
			{Func: "SUM", Arg: col("v"), Name: "sv"},
			{Func: "AVG", Arg: col("v"), Name: "av"},
			{Func: "SUM", Arg: vPlus1(), Name: "sv1"},
			{Func: "MIN", Arg: col("s"), Name: "mn"},
			{Func: "MAX", Arg: col("id"), Name: "mx"},
			{Func: "COUNT", Arg: col("v"), Name: "cv"},
		},
	}
	if group {
		agg.GroupBy = []sql.Expr{col("g")}
	}
	for _, a := range agg.Aggs {
		agg.Out = append(agg.Out, plan.ColRef{Column: a.Name})
	}
	return agg
}

func fusedProject(scan *plan.SeqScan) *plan.Project {
	p := &plan.Project{Child: scan, Exprs: []sql.Expr{col("id"), col("v"), vPlus1(), col("s"), col("g")}}
	for i := range p.Exprs {
		p.Out = append(p.Out, plan.ColRef{Column: fmt.Sprintf("c%d", i)})
	}
	return p
}

// TestFusedScanMatchesRowEngine runs HashAgg and Project over a SeqScan
// whose filter compiles to kernels, over a heap large enough that the
// parent reads the heap chunks through the filter's selection. At one
// and four workers each result must be identical to the reference
// executor's (which materializes the scan), and so must the EXPLAIN
// ANALYZE actuals of both operators: rows, and the scan's scanned rows
// and pages. Under seeded page-read faults both must fail with the same
// fault or return the same rows.
func TestFusedScanMatchesRowEngine(t *testing.T) {
	cat, mgr, base := fusedTable(t)
	var plans []plan.Node
	for _, where := range []string{
		"k < 10",
		"k < 10 AND s NOT LIKE '%2'",
		"k BETWEEN 2 AND 11 AND v >= 1",
		"k > 1000",
	} {
		scan := fusedScan(t, base, where)
		plans = append(plans, fusedAgg(scan, true), fusedAgg(scan, false), fusedProject(scan))
	}
	ref := NewReference(cat, mgr)
	for pi, p := range plans {
		refCol := NewCollector()
		want, err := ref.RunCollected(p, refCol)
		if err != nil {
			t.Fatal(err)
		}
		scan := p.Children()[0]
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("plan %d (%s) workers=%d", pi, scan.Label(), workers)
			ex := New(cat, mgr)
			ex.SetWorkers(workers)
			c := NewCollector()
			got, err := ex.RunCollected(p, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s: result differs from the reference:\n got %v\nwant %v", name, got.Rows, want.Rows)
			}
			for _, n := range []plan.Node{p, scan} {
				a, b := c.Stats(n), refCol.Stats(n)
				if a.Rows() != b.Rows() || a.Scanned() != b.Scanned() || a.Pages() != b.Pages() {
					t.Fatalf("%s: %s actuals rows/scanned/pages %d/%d/%d, reference %d/%d/%d", name, n.Label(),
						a.Rows(), a.Scanned(), a.Pages(), b.Rows(), b.Scanned(), b.Pages())
				}
			}
			if c.Stats(scan).Engine() != "vectorized" {
				t.Fatalf("%s: the scan ran %s", name, c.Stats(scan).Engine())
			}
			if refCol.Stats(scan).Engine() != "row" {
				t.Fatalf("%s: the reference scan ran %s", name, refCol.Stats(scan).Engine())
			}
		}
	}

	// Under keyed page-read faults the two executors must fail alike or
	// return identical rows. Each run draws from a fresh injector with the
	// same seed, so the scan's fault ordinal, and with it every morsel's
	// key, is the same on both sides; a fault keyed to a later morsel
	// fails the vectorized pipeline after it has crossed a chunk boundary.
	var crossed, passed int
	for _, workers := range []int{1, 4} {
		ref, ex := NewReference(cat, mgr), New(cat, mgr)
		ref.SetWorkers(workers)
		ex.SetWorkers(workers)
		for pi, p := range plans {
			// Seed 2 passes; seeds 1 and 3 fault on chunks 3 and 1.
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("plan %d (%s) workers=%d fault seed %d", pi, p.Children()[0].Label(), workers, seed)
				runFaulted := func(e *Executor) (*ResultSet, error) {
					inj := fault.New(seed).Plan(fault.PageRead, fault.Rule{Prob: 0.1})
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
					if gf.Hit > int64(morselKey(1, 0)) {
						crossed++
					}
				default:
					t.Fatalf("%s: error %v, reference error %v", name, gerr, werr)
				}
			}
		}
	}
	mgr.SetFaults(nil)
	if crossed == 0 || passed == 0 {
		t.Fatalf("fault leg: %d runs failed past chunk 0 and %d passed; both must occur", crossed, passed)
	}

	// The comparison means something only if the parent read the chunks:
	// the source must be fused, every kind of selection must occur, and
	// SUM(v + 1) must fall back exactly on chunks 2 and 4.
	ex := New(cat, mgr)
	r := &run{Executor: ex, ctx: context.Background(), faults: mgr.Faults(), pool: ex.pool.Load(), countdown: ctxCheckEvery}
	agg := fusedAgg(fusedScan(t, base, "k < 10"), true)
	groupVes, _ := compileVecExprs(agg.GroupBy, base.Schema())
	argVes, ok := compileVecExprs([]sql.Expr{vPlus1()}, base.Schema())
	if !ok {
		t.Fatal("v + 1 does not compile to kernels")
	}
	src, err := r.source(agg.Child, nil, true, groupVes, argVes)
	if err != nil {
		t.Fatal(err)
	}
	if src.scan == nil || src.n != 5 {
		t.Fatalf("source over F is not fused into 5 chunks: %+v", src)
	}
	w := getVecWork()
	defer putVecWork(w)
	for i, want := range []struct {
		sel      string
		fallback bool
	}{{"empty", false}, {"partial", false}, {"partial", true}, {"full", false}, {"partial", true}} {
		if err := src.load(i, w); err != nil {
			t.Fatal(err)
		}
		sel := "partial"
		switch {
		case w.m.full:
			sel = "full"
		case w.m.n() == 0:
			sel = "empty"
		}
		w.agg.reset(w.m.n())
		if fellBack := !hashAggEvalVec(groupVes, argVes, &w.agg, &w.m); sel != want.sel || fellBack != want.fallback {
			t.Fatalf("chunk %d: %s selection, fallback %v; want %s, %v", i, sel, fellBack, want.sel, want.fallback)
		}
	}
}

// TestFusedAggAllocsAndWarmCache is the fused path's allocation and cache
// gate. A GROUP BY over a filtered scan allocates per morsel and per
// group, so going from four to eight chunks adds at most a small constant
// per added chunk. A warm second run builds no chunk column, and every
// chunk read finds all its columns cached — one hit per chunk and column
// and no more — so it copies no row header and reads no chunk twice.
func TestFusedAggAllocsAndWarmCache(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	const perMorsel = 32
	agg := func(cat *catalog.Catalog) *plan.HashAgg {
		scan := &plan.SeqScan{Table: "R", Alias: "R", Preds: []sql.Expr{expr(t, "a < 7")}}
		scan.Out = rSchema(cat)
		a := &plan.HashAgg{
			Child:   scan,
			GroupBy: []sql.Expr{col("b")},
			Aggs: []plan.AggSpec{
				{Func: "COUNT", Star: true, Name: "n"},
				{Func: "SUM", Arg: col("a"), Name: "s"},
			},
		}
		a.Out = []plan.ColRef{{Column: "n"}, {Column: "s"}}
		return a
	}
	allocs := func(morsels int) float64 {
		cat, _, _, _ := fixture(t, 0, false)
		reg := obs.NewRegistry()
		mgr := storage.NewManager(cat)
		mgr.SetColumnMetrics(reg)
		if err := mgr.CreateTable("R"); err != nil {
			t.Fatal(err)
		}
		for i := range morsels * vec.MorselRows {
			if _, _, err := mgr.Insert("R", datum.Row{
				datum.NewInt(int64(i)), datum.NewInt(int64(i % 10)), datum.NewInt(int64(i % 3)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		ex := New(cat, mgr)
		ex.SetWorkers(1)
		p := agg(cat)
		exec := func() {
			rows, err := ex.exec(p, nil)
			if err != nil || len(rows) != 3 {
				t.Fatalf("%d rows, want 3 (err %v)", len(rows), err)
			}
		}
		exec() // fills the cache
		hits, builds := reg.Counter("storage.colcache_hits"), reg.Counter("storage.colcache_builds")
		h0, b0 := hits.Value(), builds.Value()
		exec()
		if b := builds.Value() - b0; b != 0 {
			t.Fatalf("%d chunks: the warm run built %d chunk columns", morsels, b)
		}
		// Columns a and b, read once per chunk.
		if h := hits.Value() - h0; h != int64(2*morsels) {
			t.Fatalf("%d chunks: the warm run made %d cache hits, want %d", morsels, h, 2*morsels)
		}
		return testing.AllocsPerRun(5, exec)
	}
	small, large := allocs(4), allocs(8)
	t.Logf("fused aggregate allocations: %.0f over 4 chunks, %.0f over 8", small, large)
	if large-small > 4*perMorsel {
		t.Fatalf("fused GROUP BY over 8 chunks made %.0f allocations, over 4 chunks %.0f: %.0f more, want at most %d",
			large, small, large-small, 4*perMorsel)
	}
}
