package whatif

import (
	"math"
	"strings"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/stats"
	"onlinetuner/internal/storage"
)

// paperEnv builds the paper's Section 4.1 table R(id,a,b,c,d,e) with rows
// and statistics, returning the env.
func paperEnv(t *testing.T, rows int) *Env {
	t.Helper()
	cat := catalog.New()
	tbl, err := catalog.NewTable("R", []catalog.Column{
		{Name: "id", Kind: datum.KInt},
		{Name: "a", Kind: datum.KInt},
		{Name: "b", Kind: datum.KInt},
		{Name: "c", Kind: datum.KInt},
		{Name: "d", Kind: datum.KInt},
		{Name: "e", Kind: datum.KInt},
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
	st := stats.NewStore()
	var aVals []datum.Datum
	for i := 0; i < rows; i++ {
		r := datum.Row{
			datum.NewInt(int64(i)), datum.NewInt(int64(i % 1000)),
			datum.NewInt(int64(i)), datum.NewInt(int64(i)),
			datum.NewInt(int64(i)), datum.NewInt(int64(i)),
		}
		if _, _, err := mgr.Insert("R", r); err != nil {
			t.Fatal(err)
		}
		aVals = append(aVals, r[1])
	}
	st.Install("R", "a", stats.Build(aVals, 32))
	return NewEnv(cat, st, mgr)
}

// q1SeekRequest models the paper's q1 = SELECT a,b,c,id FROM R WHERE
// a<100 as a seek request.
func q1SeekRequest(e *Env) *Request {
	return &Request{
		Table:          "R",
		Kind:           KindSeek,
		RangeCol:       "a",
		RangeSel:       0.1,
		Required:       []string{"a", "b", "c", "id"},
		Bindings:       1,
		RowsPerBinding: e.TableRows("R") * 0.1,
		TableRows:      e.TableRows("R"),
		TablePages:     e.TablePages("R"),
	}
}

func q1ScanRequest(e *Env) *Request {
	r := q1SeekRequest(e)
	r.Kind = KindScan
	r.RangeCol = ""
	r.ResidualPreds = 1
	return r
}

func TestGetBestIndexMatchesPaper(t *testing.T) {
	e := paperEnv(t, 5000)
	// Seek request for q1 → I2 = R(a,b,c,id).
	seek := GetBestIndex(e.Cat, q1SeekRequest(e))
	if got := strings.Join(seek.Columns, ","); got != "a,b,c,id" {
		t.Errorf("seek best index = %s, want a,b,c,id", got)
	}
	// Scan request for q1 → I1 = R(id,a,b,c): clustering key first.
	scan := GetBestIndex(e.Cat, q1ScanRequest(e))
	if got := strings.Join(scan.Columns, ","); got != "id,a,b,c" {
		t.Errorf("scan best index = %s, want id,a,b,c", got)
	}
	// q2 = SELECT a,d,e,id WHERE a<100 → I4 = R(a,d,e,id).
	q2 := q1SeekRequest(e)
	q2.Required = []string{"a", "d", "e", "id"}
	if got := strings.Join(GetBestIndex(e.Cat, q2).Columns, ","); got != "a,d,e,id" {
		t.Errorf("q2 best index = %s, want a,d,e,id", got)
	}
	// Update requests have no best index.
	if GetBestIndex(e.Cat, &Request{Table: "R", Kind: KindUpdate}) != nil {
		t.Error("update request should have no best index")
	}
	// Unknown table.
	if GetBestIndex(e.Cat, &Request{Table: "Nope", Kind: KindSeek, EqCols: []string{"x"}, EqSels: []float64{0.1}}) != nil {
		t.Error("unknown table should yield nil")
	}
}

func TestGetBestIndexSortLeads(t *testing.T) {
	e := paperEnv(t, 100)
	r := &Request{
		Table: "R", Kind: KindScan,
		Required: []string{"b", "c"}, SortCols: []string{"b"},
		TableRows: 100, TablePages: 1, Bindings: 1, RowsPerBinding: 100,
	}
	best := GetBestIndex(e.Cat, r)
	if best.Columns[0] != "b" {
		t.Errorf("sort column should lead: %v", best.Columns)
	}
}

func TestGetBestIndexEqThenRange(t *testing.T) {
	e := paperEnv(t, 100)
	r := &Request{
		Table: "R", Kind: KindSeek,
		EqCols: []string{"b"}, EqSels: []float64{0.01},
		RangeCol: "a", RangeSel: 0.2,
		Required:  []string{"c", "b", "a"},
		TableRows: 100, TablePages: 1, Bindings: 1, RowsPerBinding: 1,
	}
	best := GetBestIndex(e.Cat, r)
	if got := strings.Join(best.Columns, ","); got != "b,a,c" {
		t.Errorf("best = %s, want b,a,c", got)
	}
}

func TestGetCostOrdering(t *testing.T) {
	e := paperEnv(t, 5000)
	req := q1SeekRequest(e)

	heapCost := GetCost(e, req, nil)
	i1 := &catalog.Index{Name: "I1", Table: "R", Columns: []string{"id", "a", "b", "c"}}
	i2 := &catalog.Index{Name: "I2", Table: "R", Columns: []string{"a", "b", "c", "id"}}

	c1 := GetCost(e, req, []*catalog.Index{i1})
	c2 := GetCost(e, req, []*catalog.Index{i2})

	// The paper's cost ladder: heap scan (0.57) > covering narrow scan via
	// I1 (0.29) > covering seek via I2 (0.09).
	if !(c2 < c1 && c1 < heapCost) {
		t.Errorf("cost ladder violated: heap=%.3f I1=%.3f I2=%.3f", heapCost, c1, c2)
	}
	// With both available, the seek wins.
	both := GetCost(e, req, []*catalog.Index{i1, i2})
	if both != c2 {
		t.Errorf("best-of-both = %.3f, want %.3f", both, c2)
	}
}

func TestImplCostNonCoveringAddsLookups(t *testing.T) {
	e := paperEnv(t, 5000)
	req := q1SeekRequest(e)
	narrow := &catalog.Index{Name: "Ia", Table: "R", Columns: []string{"a"}}
	wide := &catalog.Index{Name: "Iw", Table: "R", Columns: []string{"a", "b", "c", "id"}}
	cn := ImplCost(e, req, narrow)
	cw := ImplCost(e, req, wide)
	if cn <= cw {
		t.Errorf("non-covering (%.3f) should cost more than covering (%.3f)", cn, cw)
	}
}

func TestImplCostUnusableIndex(t *testing.T) {
	e := paperEnv(t, 1000)
	req := q1SeekRequest(e)
	// Index that neither seeks on a nor covers the required columns.
	bad := &catalog.Index{Name: "Ibad", Table: "R", Columns: []string{"d", "e"}}
	if c := ImplCost(e, req, bad); !math.IsInf(c, 1) {
		t.Errorf("unusable index cost = %g, want +Inf", c)
	}
	// Wrong table is unusable too.
	other := &catalog.Index{Name: "Io", Table: "S", Columns: []string{"a"}}
	if c := ImplCost(e, req, other); !math.IsInf(c, 1) {
		t.Error("wrong-table index should be +Inf")
	}
}

func TestBindingsScaleSeeks(t *testing.T) {
	e := paperEnv(t, 5000)
	ix := &catalog.Index{Name: "Ia", Table: "R", Columns: []string{"a", "b", "c", "id"}}
	one := q1SeekRequest(e)
	many := q1SeekRequest(e)
	many.Bindings = 2500
	many.RowsPerBinding = 1
	many.RangeCol = ""
	many.EqCols = []string{"a"}
	many.EqSels = []float64{1.0 / 1000}
	one2 := *many
	one2.Bindings = 1
	cMany := ImplCost(e, many, ix)
	cOne := ImplCost(e, &one2, ix)
	if cMany <= cOne {
		t.Errorf("2500 bindings (%.3f) should cost more than 1 (%.3f)", cMany, cOne)
	}
	_ = one
}

func TestUpdateCostGrowsWithIndexes(t *testing.T) {
	e := paperEnv(t, 1000)
	req := &Request{
		Table: "R", Kind: KindUpdate, UpdateRows: 100,
		TableRows: 1000, TablePages: e.TablePages("R"),
	}
	base := GetCost(e, req, nil)
	i1 := &catalog.Index{Name: "I1", Table: "R", Columns: []string{"a"}}
	i2 := &catalog.Index{Name: "I2", Table: "R", Columns: []string{"b"}}
	c1 := GetCost(e, req, []*catalog.Index{i1})
	c2 := GetCost(e, req, []*catalog.Index{i1, i2})
	if !(base < c1 && c1 < c2) {
		t.Errorf("update cost should grow with indexes: %g %g %g", base, c1, c2)
	}
	// Primary index never adds maintenance in the shell accounting.
	pk := e.Cat.PrimaryIndex("R")
	if GetCost(e, req, []*catalog.Index{pk}) != base {
		t.Error("primary index should not add update-shell cost")
	}
}

func TestSortNeededCharges(t *testing.T) {
	e := paperEnv(t, 5000)
	req := q1SeekRequest(e)
	req.SortCols = []string{"b"}
	// I2 = (a,b,...) satisfies ORDER BY b after the range... no: a range
	// on the leading column does not pin it, so b is not sorted. Only an
	// equality prefix does.
	i2 := &catalog.Index{Name: "I2", Table: "R", Columns: []string{"a", "b", "c", "id"}}
	withRange := ImplCost(e, req, i2)
	// Equality on a pins the prefix: (a,b,...) yields b-order, no sort.
	eqReq := q1SeekRequest(e)
	eqReq.RangeCol = ""
	eqReq.EqCols = []string{"a"}
	eqReq.EqSels = []float64{0.001}
	eqReq.SortCols = []string{"b"}
	eqReq.RowsPerBinding = 5
	noSort := ImplCost(e, eqReq, i2)
	sorted := *eqReq
	sorted.SortCols = []string{"c"} // (a,b,...) does not give c-order
	withSort := ImplCost(e, &sorted, i2)
	if withSort <= noSort {
		t.Errorf("unsatisfied order should add sort cost: %g vs %g", withSort, noSort)
	}
	_ = withRange
}

func TestBuildCostSortAvoidance(t *testing.T) {
	e := paperEnv(t, 5000)
	i1 := &catalog.Index{Name: "I1", Table: "R", Columns: []string{"id", "a", "b", "c"}}
	i2 := &catalog.Index{Name: "I2", Table: "R", Columns: []string{"a", "b", "c", "id"}}
	b1 := BuildCost(e, i1) // prefix of primary (id,...) → no sort
	b2 := BuildCost(e, i2) // needs sort
	if b1 >= b2 {
		t.Errorf("I1 build (%.3f) should be cheaper than I2 (%.3f)", b1, b2)
	}
	// After materializing I2, an (a,b)-prefix index becomes cheap to build.
	if err := e.Cat.AddIndex(i2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mgr.BuildIndex(i2); err != nil {
		t.Fatal(err)
	}
	i3 := &catalog.Index{Name: "I3", Table: "R", Columns: []string{"a", "b"}}
	b3 := BuildCost(e, i3)
	if b3 >= b2 {
		t.Errorf("I3 build from I2 (%.3f) should be cheaper than sorted build (%.3f)", b3, b2)
	}
}

func TestRequestTreeAndORGroups(t *testing.T) {
	r1 := &Request{Table: "R", Kind: KindSeek}
	r2 := &Request{Table: "S", Kind: KindSeek}
	r3 := &Request{Table: "S", Kind: KindScan}
	tree := NewAnd(NewLeaf(r1), NewOr(NewLeaf(r2), NewLeaf(r3)))
	reqs := tree.Requests()
	if len(reqs) != 3 {
		t.Fatalf("requests = %d, want 3", len(reqs))
	}
	groups := tree.ORGroups()
	if len(groups) != 1 || len(groups[0]) != 2 {
		t.Fatalf("or groups = %v", groups)
	}
	if !strings.Contains(tree.String(), "OR") {
		t.Error("tree rendering missing OR")
	}
	// Nil-safety.
	var nilNode *Node
	if nilNode.Requests() != nil {
		t.Error("nil node should have no requests")
	}
}

func TestEnvAvailable(t *testing.T) {
	e := paperEnv(t, 100)
	pk := e.Cat.PrimaryIndex("R")
	if !e.Available(pk) {
		t.Error("primary must always be available")
	}
	ix := &catalog.Index{Name: "I1", Table: "R", Columns: []string{"a"}}
	if e.Available(ix) {
		t.Error("unmaterialized index reported available")
	}
	if err := e.Cat.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mgr.BuildIndex(ix); err != nil {
		t.Fatal(err)
	}
	if !e.Available(ix) {
		t.Error("active index reported unavailable")
	}
	if err := e.Mgr.SuspendIndex(ix.ID()); err != nil {
		t.Fatal(err)
	}
	if e.Available(ix) {
		t.Error("suspended index reported available")
	}
}
