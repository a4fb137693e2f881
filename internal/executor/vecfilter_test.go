package executor

import (
	"math"
	"slices"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/vec"
)

// rangeTable builds V(id, a, b, f, m) over two heap chunks: a INT with
// NULLs, b INT, f FLOAT with NULLs, NaN and -0, and m mixing INT, FLOAT,
// DATE, VARCHAR and NULL. It returns the rows in RID order too.
func rangeTable(t testing.TB) (*storage.Heap, []plan.ColRef, []datum.Row) {
	t.Helper()
	cat := catalog.New()
	tbl, err := catalog.NewTable("V", []catalog.Column{
		{Name: "id", Kind: datum.KInt},
		{Name: "a", Kind: datum.KInt},
		{Name: "b", Kind: datum.KInt},
		{Name: "f", Kind: datum.KFloat},
		{Name: "m", Kind: datum.KInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	mgr := storage.NewManager(cat)
	if err := mgr.CreateTable("V"); err != nil {
		t.Fatal(err)
	}
	var rows []datum.Row
	for i := range vec.MorselRows + 700 {
		a := datum.NewInt(int64(i % 1000))
		if i%29 == 0 {
			a = datum.Null
		}
		f := datum.NewFloat(float64(i%40)/8 - 1)
		switch {
		case i%31 == 0:
			f = datum.NewFloat(math.NaN())
		case i%37 == 0:
			f = datum.Null
		case i%41 == 0:
			f = datum.NewFloat(math.Copysign(0, -1))
		}
		var m datum.Datum
		switch i % 5 {
		case 0:
			m = datum.NewInt(int64(i % 7))
		case 1:
			m = datum.NewFloat(float64(i%9) / 2)
		case 2:
			m = datum.NewDate(int64(i % 6))
		case 3:
			m = datum.NewString(string(rune('a' + i%3)))
		default:
			m = datum.Null
		}
		row := datum.Row{datum.NewInt(int64(i)), a, datum.NewInt(int64(i % 30)), f, m}
		if _, _, err := mgr.Insert("V", row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	return mgr.Heap("V"), plan.TableSchema(tbl, "V"), rows
}

// whereExprs parses a WHERE clause over V into its conjuncts' tree.
func whereExprs(t *testing.T, where string) []sql.Expr {
	t.Helper()
	stmt, err := sql.Parse("SELECT id FROM V WHERE " + where)
	if err != nil {
		t.Fatal(err)
	}
	return []sql.Expr{stmt.(*sql.Select).Where}
}

// selected lists the morsel's selected row indices.
func selected(m *vecMorsel) []int32 {
	out := []int32{}
	for j := range m.n() {
		if m.full {
			out = append(out, int32(j))
		} else {
			out = append(out, m.sel[j])
		}
	}
	return out
}

// TestRangeFusion pins which comparison pairs fuse into one range kernel
// and checks every compiled filter against the scalar predicates, over a
// materialized child's rows and over heap chunks (cold, then with their
// columns cached), on columns holding NULLs, NaN and mixed kinds. A
// lower bound fuses with the next upper bound on the same column, in
// either order; two bounds on one side, or bounds on different columns,
// stay apart.
func TestRangeFusion(t *testing.T) {
	h, schema, rows := rangeTable(t)
	for _, c := range []struct {
		where string
		kinds []vecPredKind
	}{
		{"a >= 10 AND a < 500", []vecPredKind{vpRange}},
		{"a > 10 AND a <= 500", []vecPredKind{vpRange}},
		{"a < 500 AND a >= 10", []vecPredKind{vpRange}},
		{"500 > a AND 10 <= a", []vecPredKind{vpRange}},
		{"a BETWEEN 10 AND 500", []vecPredKind{vpRange}},
		{"a >= 991 AND a >= 990", []vecPredKind{vpCmp, vpCmp}},
		{"a <= 5 AND a < 7", []vecPredKind{vpCmp, vpCmp}},
		{"a >= 10 AND b < 20", []vecPredKind{vpCmp, vpCmp}},
		{"a >= 10 AND a < 500 AND a > 100", []vecPredKind{vpRange, vpCmp}},
		{"a > 100 AND a >= 10 AND a < 500", []vecPredKind{vpRange, vpCmp}},
		{"a > 5 AND b <> 3 AND a < 900", []vecPredKind{vpRange, vpCmp}},
		{"a > 998 AND a < 999", []vecPredKind{vpRange}},
		{"a >= 10 AND a < 10.5", []vecPredKind{vpRange}},
		{"f >= -0.5 AND f < 2", []vecPredKind{vpRange}},
		{"f > 0 AND f <= 1.125", []vecPredKind{vpRange}},
		{"f < 0 AND f >= -1", []vecPredKind{vpRange}},
		{"m >= 1 AND m < 'b'", []vecPredKind{vpRange}},
		{"m > 0.5 AND m <= 3", []vecPredKind{vpRange}},
		{"a >= 10 AND a < 500 AND f > -0.5 AND f < 2 AND b IN (1, 2, 3)", []vecPredKind{vpRange, vpRange, vpIn}},
		{"b < 10 AND a >= 100 AND a < 600", []vecPredKind{vpCmp, vpRange}},
	} {
		preds := whereExprs(t, c.where)
		vf, ok := compileVecFilter(preds, schema)
		if !ok {
			t.Fatalf("%s: does not compile to kernels", c.where)
		}
		var kinds []vecPredKind
		for _, p := range vf.preds {
			kinds = append(kinds, p.kind)
		}
		if !slices.Equal(kinds, c.kinds) {
			t.Fatalf("%s: compiled to kernels %v, want %v", c.where, kinds, c.kinds)
		}
		pred, err := compilePreds(preds, schema)
		if err != nil {
			t.Fatal(err)
		}
		w := getVecWork()
		slots, withRows := vf.kernelSlots()
		for pass, source := range []string{"rows", "cold chunk", "cached chunk"} {
			for i := range chunkBounds(len(rows)) {
				chunk := chunkOf(rows, i)
				want := []int32{}
				for k, r := range chunk {
					if ok, err := pred(r); err != nil {
						t.Fatal(err)
					} else if ok {
						want = append(want, int32(k))
					}
				}
				if pass == 0 {
					w.m.reset(chunk)
				} else {
					w.m.readChunk(h, i, len(schema), slots, withRows, w.rows[:0])
				}
				vf.vecApply(&w.s, &w.m)
				if got := selected(&w.m); !slices.Equal(got, want) {
					t.Fatalf("%s over %s %d: selected %d rows, the scalar predicates %d (first rows %v, want %v)",
						c.where, source, i, len(got), len(want), got[:min(len(got), 8)], want[:min(len(want), 8)])
				}
			}
		}
		putVecWork(w)
	}
}

// TestVecApplyAllocs pins that filtering a heap chunk whose columns are
// cached allocates nothing once the scratch is warm: the first kernel
// conjunct writes row indices straight into the pooled selection, and
// later ones reuse the scratch column and buffers.
func TestVecApplyAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	h, schema, _ := rangeTable(t)
	for _, where := range []string{"a >= 10 AND a < 500", "a >= 10 AND a < 500 AND b IN (1, 2, 3) AND f < 2"} {
		vf, ok := compileVecFilter(whereExprs(t, where), schema)
		if !ok {
			t.Fatalf("%s: does not compile to kernels", where)
		}
		slots, withRows := vf.kernelSlots()
		w := getVecWork()
		run := func() {
			w.m.readChunk(h, 0, len(schema), slots, withRows, w.rows[:0])
			vf.vecApply(&w.s, &w.m)
		}
		run() // caches the chunk's columns and grows the scratch
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Fatalf("%s: %.0f allocations per warm chunk, want 0", where, n)
		}
		putVecWork(w)
	}
}
