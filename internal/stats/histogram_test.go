package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"onlinetuner/internal/datum"
)

func ints(vals ...int64) []datum.Datum {
	out := make([]datum.Datum, len(vals))
	for i, v := range vals {
		out[i] = datum.NewInt(v)
	}
	return out
}

func seq(n int) []datum.Datum {
	out := make([]datum.Datum, n)
	for i := range out {
		out[i] = datum.NewInt(int64(i))
	}
	return out
}

func TestBuildEmpty(t *testing.T) {
	h := Build(nil, 8)
	if h.Rows != 0 || len(h.Buckets) != 0 {
		t.Error("empty histogram should have no rows/buckets")
	}
	if h.SelectivityEq(datum.NewInt(1)) != 0 {
		t.Error("empty histogram eq selectivity should be 0")
	}
	if h.SelectivityLt(datum.NewInt(1)) != 0 {
		t.Error("empty histogram lt selectivity should be 0")
	}
}

func TestBuildCountsAndDistinct(t *testing.T) {
	vals := append(ints(1, 1, 1, 2, 3, 3), datum.Null, datum.Null)
	h := Build(vals, 4)
	if h.Rows != 6 || h.Nulls != 2 {
		t.Errorf("rows=%d nulls=%d", h.Rows, h.Nulls)
	}
	if h.DistinctN != 3 {
		t.Errorf("distinct=%d, want 3", h.DistinctN)
	}
	var total int64
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total != 6 {
		t.Errorf("bucket counts sum to %d, want 6", total)
	}
}

func TestEquiDepthApprox(t *testing.T) {
	h := Build(seq(1000), 10)
	if len(h.Buckets) != 10 {
		t.Fatalf("buckets = %d, want 10", len(h.Buckets))
	}
	for i, b := range h.Buckets {
		if b.Count != 100 {
			t.Errorf("bucket %d count = %d, want 100", i, b.Count)
		}
	}
}

func TestSelectivityEqUniform(t *testing.T) {
	h := Build(seq(1000), 10)
	got := h.SelectivityEq(datum.NewInt(500))
	if math.Abs(got-0.001) > 0.0005 {
		t.Errorf("eq selectivity = %g, want ~0.001", got)
	}
	if h.SelectivityEq(datum.NewInt(-5)) != 0 {
		t.Error("below-range eq should be 0")
	}
	if h.SelectivityEq(datum.NewInt(5000)) != 0 {
		t.Error("above-range eq should be 0")
	}
}

func TestSelectivityEqNull(t *testing.T) {
	vals := append(seq(90), make([]datum.Datum, 10)...)
	for i := 90; i < 100; i++ {
		vals[i] = datum.Null
	}
	h := Build(vals, 8)
	if got := h.SelectivityEq(datum.Null); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("null selectivity = %g, want 0.1", got)
	}
}

func TestSelectivityLt(t *testing.T) {
	h := Build(seq(1000), 10)
	cases := []struct {
		v    int64
		want float64
		tol  float64
	}{
		{0, 0, 0},
		{-10, 0, 0},
		{100, 0.1, 0.02},
		{500, 0.5, 0.02},
		{999, 0.999, 0.02},
		{5000, 1.0, 0.001},
	}
	for _, tc := range cases {
		got := h.SelectivityLt(datum.NewInt(tc.v))
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("SelectivityLt(%d) = %g, want %g±%g", tc.v, got, tc.want, tc.tol)
		}
	}
}

func TestSelectivityRange(t *testing.T) {
	h := Build(seq(1000), 16)
	lo, hi := datum.NewInt(100), datum.NewInt(300)
	got := h.SelectivityRange(&lo, &hi, true, false)
	if math.Abs(got-0.2) > 0.03 {
		t.Errorf("range selectivity = %g, want ~0.2", got)
	}
	// Unbounded below.
	got = h.SelectivityRange(nil, &hi, true, false)
	if math.Abs(got-0.3) > 0.03 {
		t.Errorf("(-inf,300) = %g, want ~0.3", got)
	}
	// Unbounded above.
	got = h.SelectivityRange(&lo, nil, true, false)
	if math.Abs(got-0.9) > 0.03 {
		t.Errorf("[100,inf) = %g, want ~0.9", got)
	}
	// Degenerate: hi < lo.
	lo2, hi2 := datum.NewInt(500), datum.NewInt(100)
	if got := h.SelectivityRange(&lo2, &hi2, true, true); got != 0 {
		t.Errorf("inverted range = %g, want 0", got)
	}
}

// Property: selectivities are within [0,1] and SelectivityLt is monotone.
func TestSelectivityBoundsQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		vals := make([]datum.Datum, n)
		for i := range vals {
			vals[i] = datum.NewInt(int64(r.Intn(50)))
		}
		h := Build(vals, 1+r.Intn(12))
		prev := -1.0
		for v := int64(-5); v <= 55; v += 3 {
			s := h.SelectivityLt(datum.NewInt(v))
			if s < 0 || s > 1 || s+1e-12 < prev {
				return false
			}
			prev = s
			e := h.SelectivityEq(datum.NewInt(v))
			if e < 0 || e > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: an exact-match histogram reproduces per-value frequencies well
// when each value gets its own bucket.
func TestExactHistogram(t *testing.T) {
	vals := ints(1, 1, 1, 1, 2, 2, 3, 3, 3, 10)
	h := Build(vals, 100)
	if got := h.SelectivityEq(datum.NewInt(1)); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("sel(=1) = %g, want 0.4", got)
	}
	if got := h.SelectivityEq(datum.NewInt(10)); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("sel(=10) = %g, want 0.1", got)
	}
}

func TestValueBoundaryBuckets(t *testing.T) {
	// 500 copies of one value must land in a single bucket even with a
	// small per-bucket target, keeping equality estimates correct.
	vals := make([]datum.Datum, 0, 600)
	for i := 0; i < 500; i++ {
		vals = append(vals, datum.NewInt(7))
	}
	for i := 0; i < 100; i++ {
		vals = append(vals, datum.NewInt(int64(100+i)))
	}
	h := Build(vals, 10)
	if got := h.SelectivityEq(datum.NewInt(7)); math.Abs(got-500.0/600) > 0.01 {
		t.Errorf("sel(=7) = %g, want ~0.83", got)
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	if s.Has("r", "a") {
		t.Error("empty store claims stats")
	}
	cs := s.Install("R", "A", Build(seq(100), 8))
	if cs.Rows != 100 || cs.Distinct != 100 {
		t.Errorf("cs = %+v", cs)
	}
	if !s.Has("r", "a") || s.Get("R", "a") != cs {
		t.Error("case-insensitive store lookup failed")
	}
	if s.BuildCount() != 1 {
		t.Error("build count wrong")
	}
	s.Drop("r", "A")
	if s.Has("R", "a") {
		t.Error("drop failed")
	}
}

func TestStringHist(t *testing.T) {
	vals := []datum.Datum{datum.NewString("a"), datum.NewString("b"), datum.NewString("b"), datum.NewString("z")}
	h := Build(vals, 4)
	if got := h.SelectivityEq(datum.NewString("b")); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("sel(='b') = %g, want 0.5", got)
	}
	lt := h.SelectivityLt(datum.NewString("z"))
	if lt <= 0 || lt > 1 {
		t.Errorf("sel(<'z') = %g", lt)
	}
}

// refBuild is the Compare-based builder every histogram must equal: the
// non-NULL values sorted by datum.Compare, buckets cut by datum.Equal.
func refBuild(values []datum.Datum, maxBuckets int) *Histogram {
	if maxBuckets <= 0 {
		maxBuckets = DefaultBuckets
	}
	h := &Histogram{}
	nonNull := make([]datum.Datum, 0, len(values))
	for _, v := range values {
		if v.IsNull() {
			h.Nulls++
			continue
		}
		nonNull = append(nonNull, v)
	}
	h.Rows = int64(len(nonNull))
	if h.Rows == 0 {
		return h
	}
	sort.Slice(nonNull, func(i, j int) bool { return nonNull[i].Compare(nonNull[j]) < 0 })
	h.Lower = nonNull[0]
	perBucket := (len(nonNull) + maxBuckets - 1) / maxBuckets
	i := 0
	for i < len(nonNull) {
		end := min(i+perBucket, len(nonNull))
		for end < len(nonNull) && nonNull[end].Equal(nonNull[end-1]) {
			end++
		}
		b := Bucket{Upper: nonNull[end-1], Count: int64(end - i)}
		d := int64(1)
		for k := i + 1; k < end; k++ {
			if !nonNull[k].Equal(nonNull[k-1]) {
				d++
			}
		}
		b.Distinct = d
		h.DistinctN += d
		h.Buckets = append(h.Buckets, b)
		i = end
	}
	return h
}

// randomColumn draws a column of one of the shapes Build must handle: one
// kind (INT, DATE, BOOL, FLOAT, VARCHAR), INT mixed with FLOAT, or FLOAT
// with NaN and −0 next to +0. A small value domain gives duplicate runs
// longer than a bucket; NULLs are sprinkled at a random rate.
func randomColumn(r *rand.Rand) (string, []datum.Datum) {
	shapes := []string{"int", "date", "bool", "float", "string", "int+float", "nan-zero"}
	shape := shapes[r.Intn(len(shapes))]
	n := r.Intn(700)
	domain := 1 + r.Intn(1+r.Intn(400))
	nullRate := []float64{0, 0, 0.1, 0.5, 1}[r.Intn(5)]
	vals := make([]datum.Datum, n)
	for i := range vals {
		if r.Float64() < nullRate {
			vals[i] = datum.Null
			continue
		}
		v := int64(r.Intn(domain)) - int64(domain/3)
		switch shape {
		case "int":
			vals[i] = datum.NewInt(v)
		case "date":
			vals[i] = datum.NewDate(v)
		case "bool":
			vals[i] = datum.NewBool(v%2 == 0)
		case "float":
			vals[i] = datum.NewFloat(float64(v) / 4)
		case "string":
			vals[i] = datum.NewString(strings.Repeat("k", int(v%5+5)) + string(rune('a'+v%26)))
		case "int+float":
			if r.Intn(2) == 0 {
				vals[i] = datum.NewInt(v)
			} else {
				vals[i] = datum.NewFloat(float64(v) / 2)
			}
		case "nan-zero":
			switch r.Intn(4) {
			case 0:
				vals[i] = datum.NewFloat(math.NaN())
			case 1:
				vals[i] = datum.NewFloat(math.Copysign(0, -1))
			case 2:
				vals[i] = datum.NewFloat(0)
			default:
				vals[i] = datum.NewFloat(float64(v))
			}
		}
	}
	return shape, vals
}

// Property: the typed builder and its fallback build exactly the
// histogram of the Compare-based reference, for every column shape and
// bucket count.
func TestBuildMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for iter := 0; iter < 3000; iter++ {
		shape, vals := randomColumn(r)
		buckets := 1 + r.Intn(64)
		want := refBuild(vals, buckets)
		if got := Build(vals, buckets); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: %s column of %d values, %d buckets:\ngot  %+v\nwant %+v", iter, shape, len(vals), buckets, got, want)
		}
	}
}

func TestBuildNaNDistinct(t *testing.T) {
	nan := datum.NewFloat(math.NaN())
	vals := []datum.Datum{nan, datum.NewFloat(1), nan, datum.NewFloat(2)}
	h := Build(vals, 4)
	if h.DistinctN != 3 || !reflect.DeepEqual(h, refBuild(vals, 4)) {
		t.Errorf("DistinctN = %d, want 3; %+v", h.DistinctN, h)
	}
}

func TestStoreKeyFolding(t *testing.T) {
	s := NewStore()
	cs := &ColumnStats{}
	s.Set("LineItem", "L_ShipDate", cs)
	s.Set("Ärger", "ÖL", cs)
	for _, k := range [][2]string{{"lineitem", "l_shipdate"}, {"LINEITEM", "L_SHIPDATE"}, {"ärger", "öl"}, {"ÄRGER", "Öl"}} {
		if s.Get(k[0], k[1]) != cs {
			t.Errorf("Get(%q, %q) missed", k[0], k[1])
		}
	}
	if s.Get("lineitem", "l_shipdat") != nil || s.Get("lineitem.l", "shipdate") != nil {
		t.Error("Get matched a different column")
	}
	if n := testing.AllocsPerRun(100, func() { s.Get("LineItem", "L_ShipDate") }); n != 0 {
		t.Errorf("Get allocates %v times per call, want 0", n)
	}
}
