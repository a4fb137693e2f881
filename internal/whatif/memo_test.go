package whatif

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/stats"
	"onlinetuner/internal/storage"
)

// memoEnv builds a materialized single-table environment with a primary
// key and one secondary index available for what-if configurations.
func memoEnv(t *testing.T, rows int) (*Env, *catalog.Index) {
	t.Helper()
	cat := catalog.New()
	tbl, err := catalog.NewTable("r", []catalog.Column{
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
	if err := mgr.CreateTable("r"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		_, _, err := mgr.Insert("r", datum.Row{
			datum.NewInt(int64(i)),
			datum.NewInt(int64(i % 97)),
			datum.NewInt(int64(i % 13)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ix := (&catalog.Index{Name: "r_a", Table: "r", Columns: []string{"a", "id"}}).Canonicalize()
	return NewEnv(cat, stats.NewStore(), mgr), ix
}

func memoRequests(ix *catalog.Index, rows float64) []*Request {
	return []*Request{
		{Table: "r", Kind: KindSeek, EqCols: []string{"a"}, EqSels: []float64{1.0 / 97},
			Required: []string{"a", "id"}, Bindings: 1, RowsPerBinding: rows / 97,
			TableRows: rows, TablePages: rows / 50},
		{Table: "r", Kind: KindSeek, EqCols: []string{"a"}, EqSels: []float64{1.0 / 97},
			RangeCol: "b", RangeSel: 0.25, Required: []string{"a", "b", "id"},
			Bindings: 4, RowsPerBinding: rows / 400, ResidualPreds: 1,
			TableRows: rows, TablePages: rows / 50},
		{Table: "r", Kind: KindScan, Required: []string{"b", "id"},
			SortCols: []string{"b"}, Bindings: 1, RowsPerBinding: rows,
			TableRows: rows, TablePages: rows / 50},
		{Table: "r", Kind: KindUpdate, UpdateRows: 3, UpdateTouchedIndexes: 1,
			TableRows: rows, TablePages: rows / 50},
	}
}

// TestMemoMatchesDirect asserts the central memo property: every
// memoized answer equals the corresponding un-memoized computation, on
// first (miss) and second (hit) evaluation alike.
func TestMemoMatchesDirect(t *testing.T) {
	env, ix := memoEnv(t, 2000)
	m := NewMemo(env)
	m.BeginStatement(1, 1)

	configs := [][]*catalog.Index{nil, {ix}}
	for pass := 0; pass < 2; pass++ {
		for _, r := range memoRequests(ix, 2000) {
			for _, cfg := range configs {
				got := m.GetCost(r, cfg)
				want := GetCost(env, r, cfg)
				if got != want {
					t.Fatalf("pass %d GetCost(%v, cfg=%d): memo %v, direct %v", pass, r, len(cfg), got, want)
				}
			}
			got := m.ImplCost(r, ix)
			want := ImplCost(env, r, ix)
			if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("pass %d ImplCost(%v): memo %v, direct %v", pass, r, got, want)
			}
		}
	}
	// 4 requests × (2 configs + 1 ImplCost): the first pass misses every
	// key, the second hits every one. Exact counts, so a signature change
	// that merges or splits keys shows here.
	if st := m.Stats(); st.Hits != 12 || st.Misses != 12 {
		t.Fatalf("want 12 hits and 12 misses, got %+v", st)
	}
}

// refRequestSig is requestSig as first written, over hash/fnv with one
// Write per field: the reference the allocation-free version must agree
// with bit for bit, so memo keys (and hit rates) keep their values.
func refRequestSig(r *Request) uint64 {
	h := fnv.New64a()
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0xff})
	}
	float := func(f float64) {
		b := math.Float64bits(f)
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	str(strings.ToLower(r.Table))
	h.Write([]byte{byte(r.Kind)})
	for i, c := range r.EqCols {
		str(strings.ToLower(c))
		float(r.EqSels[i])
	}
	h.Write([]byte{0xfe})
	str(strings.ToLower(r.RangeCol))
	float(r.RangeSel)
	for _, c := range r.Required {
		str(strings.ToLower(c))
	}
	h.Write([]byte{0xfe})
	for _, c := range r.SortCols {
		str(strings.ToLower(c))
	}
	h.Write([]byte{0xfe})
	float(r.Bindings)
	float(r.RowsPerBinding)
	float(float64(r.ResidualPreds))
	float(r.TableRows)
	float(r.TablePages)
	float(r.UpdateRows)
	float(float64(r.UpdateTouchedIndexes))
	return h.Sum64()
}

func TestRequestSigKeepsItsValues(t *testing.T) {
	reqs := append(memoRequests(nil, 2000),
		&Request{},
		&Request{Table: "Orders", Kind: KindEndpoint, EqCols: []string{"O_CustKey", "ü"},
			EqSels: []float64{0.5, math.Inf(1)}, RangeCol: "o_orderDATE", RangeSel: math.NaN(),
			Required: []string{"O_TOTALPRICE"}, SortCols: []string{"o_orderdate", "O_CustKey"},
			Bindings: 1e9, RowsPerBinding: 1e-9, ResidualPreds: -1, UpdateTouchedIndexes: 7})
	seen := map[uint64]int{}
	for i, r := range reqs {
		got, want := requestSig(r), refRequestSig(r)
		if got != want {
			t.Errorf("request %d (%v): sig %#x, reference %#x", i, r, got, want)
		}
		if j, dup := seen[got]; dup {
			t.Errorf("requests %d and %d share signature %#x", j, i, got)
		}
		seen[got] = i
	}
	r := reqs[1]
	if n := testing.AllocsPerRun(100, func() { requestSig(r) }); n != 0 {
		t.Errorf("requestSig allocates %.0f objects per call, want 0", n)
	}
}

// TestMemoSnapshotsIndexSizes is the regression test for the
// per-statement size hoist: within one statement, a materialized
// index's size is looked up once and reused even if the underlying
// structure grows; BeginStatement refreshes it.
func TestMemoSnapshotsIndexSizes(t *testing.T) {
	env, ix := memoEnv(t, 500)
	if _, err := env.Mgr.BuildIndex(ix); err != nil {
		t.Fatal(err)
	}
	m := NewMemo(env)
	m.BeginStatement(1, 1)

	before := m.IndexPages(ix)
	if before != env.IndexPages(ix) {
		t.Fatalf("first lookup must be live: %v vs %v", before, env.IndexPages(ix))
	}

	// Grow the index enough to change its page count.
	for i := 0; i < 5000; i++ {
		if _, _, err := env.Mgr.Insert("r", datum.Row{
			datum.NewInt(int64(10000 + i)), datum.NewInt(int64(i)), datum.NewInt(0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if env.IndexPages(ix) == before {
		t.Fatal("test needs the physical size to change")
	}
	if got := m.IndexPages(ix); got != before {
		t.Fatalf("mid-statement lookup must reuse the snapshot: got %v, snapshot %v", got, before)
	}
	if got := m.IndexBytes(ix); got == env.IndexBytes(ix) {
		// bytes was first read after the growth: snapshot it now and grow again
		// to exercise the bytes path too.
		for i := 0; i < 5000; i++ {
			if _, _, err := env.Mgr.Insert("r", datum.Row{
				datum.NewInt(int64(20000 + i)), datum.NewInt(int64(i)), datum.NewInt(0),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if again := m.IndexBytes(ix); again != got {
			t.Fatalf("mid-statement byte lookup must reuse the snapshot: %v vs %v", again, got)
		}
	}

	m.BeginStatement(1, 1)
	if got := m.IndexPages(ix); got != env.IndexPages(ix) {
		t.Fatalf("BeginStatement must refresh the snapshot: got %v, live %v", got, env.IndexPages(ix))
	}
}

// TestMemoInvalidation: version or epoch movement clears the cost memo;
// unchanged versions keep it warm across statements.
func TestMemoInvalidation(t *testing.T) {
	env, ix := memoEnv(t, 1000)
	m := NewMemo(env)
	r := memoRequests(ix, 1000)[0]

	m.BeginStatement(1, 1)
	m.GetCost(r, []*catalog.Index{ix})
	m.BeginStatement(1, 1)
	m.GetCost(r, []*catalog.Index{ix})
	if st := m.Stats(); st.Hits != 1 {
		t.Fatalf("unchanged versions should keep the memo warm: %+v", st)
	}

	m.BeginStatement(2, 1) // config version moved
	m.GetCost(r, []*catalog.Index{ix})
	if st := m.Stats(); st.Hits != 1 || st.Clears != 1 {
		t.Fatalf("config bump should clear: %+v", st)
	}

	m.BeginStatement(2, 9) // stats epoch moved
	m.GetCost(r, []*catalog.Index{ix})
	if st := m.Stats(); st.Hits != 1 || st.Clears != 2 {
		t.Fatalf("stats bump should clear: %+v", st)
	}
}

// TestTermsFollowTableStamp: a shared tree's terms are reused while the
// tables it names are untouched, and recomputed once a row change moves
// a size they were computed from — even with the configuration version
// and statistics epoch unchanged, as after a DELETE served from the plan
// cache.
func TestTermsFollowTableStamp(t *testing.T) {
	env, ix := memoEnv(t, 500)
	if _, err := env.Mgr.BuildIndex(ix); err != nil {
		t.Fatal(err)
	}
	cand := (&catalog.Index{Name: "r_b", Table: "r", Columns: []string{"b", "a", "id"}}).Canonicalize()
	cfg := func() []*catalog.Index { return []*catalog.Index{ix} }
	tree := NewAnd(NewLeaf(memoRequests(ix, 500)[1]))
	m := NewMemo(env)
	costs := func() (o, n float64) {
		m.BeginStatement(1, 1)
		ts := m.Terms(tree, true)
		return m.CandidateCosts(&ts.Reqs[0], cfg, cand)
	}

	o1, _ := costs()
	o2, _ := costs()
	if st := m.Stats(); st.TreeHits != 1 || o2 != o1 {
		t.Fatalf("untouched table: o %v then %v, %+v; want one tree hit", o1, o2, st)
	}
	for i := 0; i < 5000; i++ {
		if _, _, err := env.Mgr.Insert("r", datum.Row{
			datum.NewInt(int64(10000 + i)), datum.NewInt(int64(i)), datum.NewInt(0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	o3, n3 := costs()
	r := tree.Requests()[0]
	if want := GetCost(env, r, cfg()); o3 != want || o3 == o1 {
		t.Fatalf("after the table grew: o %v, direct %v (before %v)", o3, want, o1)
	}
	if want := GetCost(env, r, append(cfg(), cand)); n3 != want {
		t.Fatalf("after the table grew: n %v, direct %v", n3, want)
	}
	if st := m.Stats(); st.TreeHits != 1 {
		t.Fatalf("a moved table must not hit: %+v", st)
	}
}

// TestMemoConfigOrderIndependence: GetCost is a min over alternatives,
// so config order must not produce distinct memo entries.
func TestMemoConfigOrderIndependence(t *testing.T) {
	env, ix := memoEnv(t, 1000)
	ix2 := (&catalog.Index{Name: "r_b", Table: "r", Columns: []string{"b", "id"}}).Canonicalize()
	m := NewMemo(env)
	m.BeginStatement(1, 1)
	r := memoRequests(ix, 1000)[1]

	a := m.GetCost(r, []*catalog.Index{ix, ix2})
	b := m.GetCost(r, []*catalog.Index{ix2, ix})
	if a != b {
		t.Fatalf("order-dependent result: %v vs %v", a, b)
	}
	if st := m.Stats(); st.Hits != 1 {
		t.Fatalf("permuted config should hit the same entry: %+v", st)
	}
}
