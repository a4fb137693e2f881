package vec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"onlinetuner/internal/datum"
)

// randDatum draws a datum across every kind, weighted to exercise the
// kernels' edge paths: NULLs, NaN/±Inf, negative zero, integers beyond
// 2^53 (where float64 promotion loses precision), and strings sharing
// prefixes (so first-byte prefilters see both hits and misses).
func randDatum(r *rand.Rand) datum.Datum {
	switch r.Intn(12) {
	case 0:
		return datum.Null
	case 1, 2:
		return datum.NewInt(int64(r.Intn(20) - 10))
	case 3:
		// Beyond 2^53: float64(a) == float64(a+1) here, so a kernel that
		// promoted ints to floats would diverge from datum.Compare.
		return datum.NewInt((int64(1) << 53) + int64(r.Intn(4)))
	case 4, 5:
		return datum.NewFloat(float64(r.Intn(40)-20) / 4)
	case 6:
		switch r.Intn(4) {
		case 0:
			return datum.NewFloat(math.NaN())
		case 1:
			return datum.NewFloat(math.Inf(1))
		case 2:
			return datum.NewFloat(math.Inf(-1))
		}
		return datum.NewFloat(math.Copysign(0, -1))
	case 7, 8:
		pool := []string{"", "a", "ab", "abc", "abd", "b", "ba", "part name 00042", "part name 1"}
		return datum.NewString(pool[r.Intn(len(pool))])
	case 9:
		return datum.NewDate(int64(r.Intn(20) - 10))
	default:
		return datum.NewBool(r.Intn(2) == 0)
	}
}

// randRows builds single-slot rows. uniformKind < 0 mixes kinds freely;
// otherwise every non-null value has exactly that kind.
func randRows(r *rand.Rand, n int, uniformKind int) []datum.Row {
	rows := make([]datum.Row, n)
	for i := range rows {
		var d datum.Datum
		if uniformKind < 0 {
			d = randDatum(r)
		} else {
			if r.Intn(5) == 0 {
				d = datum.Null
			} else {
				switch datum.Kind(uniformKind) {
				case datum.KInt:
					d = datum.NewInt(int64(r.Intn(20) - 10))
				case datum.KFloat:
					if r.Intn(8) == 0 {
						d = datum.NewFloat(math.NaN())
					} else {
						d = datum.NewFloat(float64(r.Intn(40)-20) / 4)
					}
				case datum.KString:
					pool := []string{"", "a", "ab", "abc", "abd", "b"}
					d = datum.NewString(pool[r.Intn(len(pool))])
				case datum.KDate:
					d = datum.NewDate(int64(r.Intn(20) - 10))
				default:
					d = datum.NewBool(r.Intn(2) == 0)
				}
			}
		}
		rows[i] = datum.Row{d}
	}
	return rows
}

// kindCases enumerates the column shapes every kernel test sweeps:
// each uniform kind plus fully mixed columns (which force the Dat
// fallback path).
var kindCases = []int{int(datum.KInt), int(datum.KFloat), int(datum.KString), int(datum.KDate), int(datum.KBool), -1}

func selToMap(sel Sel) map[int32]bool {
	m := make(map[int32]bool, len(sel))
	for _, i := range sel {
		m[i] = true
	}
	return m
}

// TestCmpConstOracle checks every comparison kernel against the scalar
// engine's semantics: keep row i iff neither side is NULL and
// op.keep(d.Compare(lit)) — over every column shape, including mixed
// kinds, NaN literals, and cross-class comparisons.
func TestCmpConstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
	for trial := 0; trial < 400; trial++ {
		uk := kindCases[trial%len(kindCases)]
		rows := randRows(r, 1+r.Intn(64), uk)
		lit := randDatum(r)
		var c Column
		c.Gather(rows, 0, nil)
		for _, op := range ops {
			got := selToMap(CmpConst(&c, op, lit, nil))
			for i, row := range rows {
				d := row[0]
				want := !d.IsNull() && !lit.IsNull() && op.keep(d.Compare(lit))
				if got[int32(i)] != want {
					t.Fatalf("trial %d op %v: row %d (%s vs %s): kernel=%v oracle=%v",
						trial, op, i, d, lit, got[int32(i)], want)
				}
			}
		}
	}
}

// rangeOracle is the pair of comparisons RangeConst fuses, evaluated
// through datum.Compare: keep iff nothing is NULL, d is above lo (or
// equal, with loInc) and below hi (or equal, with hiInc).
func rangeOracle(d, lo datum.Datum, loInc bool, hi datum.Datum, hiInc bool) bool {
	loOp, hiOp := GT, LT
	if loInc {
		loOp = GE
	}
	if hiInc {
		hiOp = LE
	}
	return !d.IsNull() && !lo.IsNull() && !hi.IsNull() && loOp.keep(d.Compare(lo)) && hiOp.keep(d.Compare(hi))
}

// TestRangeConstOracle checks the fused range kernel against the two
// comparisons it replaces, under all four bound inclusivities.
func TestRangeConstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		uk := kindCases[trial%len(kindCases)]
		rows := randRows(r, 1+r.Intn(64), uk)
		lo, hi := randDatum(r), randDatum(r)
		var c Column
		c.Gather(rows, 0, nil)
		for _, inc := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
			got := selToMap(RangeConst(&c, lo, inc[0], hi, inc[1], nil))
			for i, row := range rows {
				d := row[0]
				if want := rangeOracle(d, lo, inc[0], hi, inc[1]); got[int32(i)] != want {
					t.Fatalf("trial %d inc %v: row %d (%s in %s..%s): kernel=%v oracle=%v",
						trial, inc, i, d, lo, hi, got[int32(i)], want)
				}
			}
		}
	}
}

// TestRangeConstEdges pins the bounds whose inclusive form needs care: an
// exclusive bound at the end of the int64 or float64 line, a signed zero,
// infinities and a value beyond 2^53 against a promoted bound.
func TestRangeConstEdges(t *testing.T) {
	big := int64(1) << 53
	ints := []datum.Row{{datum.NewInt(math.MinInt64)}, {datum.NewInt(-1)}, {datum.NewInt(0)}, {datum.Null},
		{datum.NewInt(big)}, {datum.NewInt(big + 1)}, {datum.NewInt(math.MaxInt64)}}
	floats := []datum.Row{{datum.NewFloat(math.Inf(-1))}, {datum.NewFloat(math.Copysign(0, -1))}, {datum.NewFloat(0)},
		{datum.NewFloat(math.NaN())}, {datum.NewFloat(math.SmallestNonzeroFloat64)}, {datum.Null},
		{datum.NewFloat(-math.SmallestNonzeroFloat64)}, {datum.NewFloat(math.Inf(1))}}
	bounds := []datum.Datum{
		datum.NewInt(math.MinInt64), datum.NewInt(math.MaxInt64), datum.NewInt(0), datum.NewInt(big + 1),
		datum.NewFloat(math.Inf(-1)), datum.NewFloat(math.Inf(1)), datum.NewFloat(math.Copysign(0, -1)),
		datum.NewFloat(0), datum.NewFloat(float64(big)), datum.NewFloat(math.NaN()),
	}
	for _, rows := range [][]datum.Row{ints, floats} {
		var c Column
		c.Gather(rows, 0, nil)
		for _, lo := range bounds {
			for _, hi := range bounds {
				for _, inc := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
					got := selToMap(RangeConst(&c, lo, inc[0], hi, inc[1], nil))
					for i, row := range rows {
						if want := rangeOracle(row[0], lo, inc[0], hi, inc[1]); got[int32(i)] != want {
							t.Fatalf("%s in %s..%s inc %v: kernel=%v oracle=%v", row[0], lo, hi, inc, got[int32(i)], want)
						}
					}
				}
			}
		}
	}
}

// TestInConstOracle checks the IN-set kernel against the OR-of-equalities
// it fuses: keep iff some non-NULL member compares equal.
func TestInConstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		uk := kindCases[trial%len(kindCases)]
		rows := randRows(r, 1+r.Intn(64), uk)
		set := make([]datum.Datum, 1+r.Intn(5))
		for i := range set {
			set[i] = randDatum(r)
		}
		var c Column
		c.Gather(rows, 0, nil)
		got := selToMap(InConst(&c, NewInSet(set), nil))
		for i, row := range rows {
			d := row[0]
			want := false
			if !d.IsNull() {
				for _, m := range set {
					if !m.IsNull() && d.Compare(m) == 0 {
						want = true
						break
					}
				}
			}
			if got[int32(i)] != want {
				t.Fatalf("trial %d: row %d (%s IN %v): kernel=%v oracle=%v",
					trial, i, d, set, got[int32(i)], want)
			}
		}
	}
}

// TestIsNullSelOracle checks the null-test kernel.
func TestIsNullSelOracle(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		rows := randRows(r, 1+r.Intn(64), kindCases[trial%len(kindCases)])
		var c Column
		c.Gather(rows, 0, nil)
		for _, not := range []bool{false, true} {
			got := selToMap(IsNullSel(&c, not, nil))
			for i, row := range rows {
				want := row[0].IsNull() != not
				if got[int32(i)] != want {
					t.Fatalf("trial %d not=%v: row %d (%s): kernel=%v oracle=%v",
						trial, not, i, row[0], got[int32(i)], want)
				}
			}
		}
	}
}

// TestGatherDatumAtExact checks the column round-trip is exact — same
// Kind, same String() bytes — for every column shape and for partial
// selections. Key rendering (AppendKey) relies on this exactness.
func TestGatherDatumAtExact(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		rows := randRows(r, 1+r.Intn(64), kindCases[trial%len(kindCases)])
		sel := Sel{} // non-nil: nil means "all rows"
		for i := range rows {
			if r.Intn(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		var c Column
		c.Gather(rows, 0, sel)
		if c.Len() != len(sel) {
			t.Fatalf("trial %d: Len=%d want %d", trial, c.Len(), len(sel))
		}
		for i, ri := range sel {
			want := rows[ri][0]
			got := c.DatumAt(i)
			if got.Kind() != want.Kind() || got.String() != want.String() {
				t.Fatalf("trial %d: DatumAt(%d) = %s (%v), want %s (%v)",
					trial, i, got, got.Kind(), want, want.Kind())
			}
		}
	}
}

// TestLeadingNullsKindDiscovery pins the gather migration: a column
// whose first values are NULL must still type itself correctly when the
// first non-null value turns out to be a float or string.
func TestLeadingNullsKindDiscovery(t *testing.T) {
	rows := []datum.Row{
		{datum.Null}, {datum.Null}, {datum.NewFloat(2.5)}, {datum.Null}, {datum.NewFloat(-1)},
	}
	var c Column
	c.Gather(rows, 0, nil)
	for i, row := range rows {
		if got := c.DatumAt(i); got.String() != row[0].String() {
			t.Fatalf("float column: DatumAt(%d) = %s, want %s", i, got, row[0])
		}
	}
	rows = []datum.Row{{datum.Null}, {datum.NewString("x")}, {datum.Null}}
	var s Column
	s.Gather(rows, 0, nil)
	for i, row := range rows {
		if got := s.DatumAt(i); got.String() != row[0].String() {
			t.Fatalf("string column: DatumAt(%d) = %s, want %s", i, got, row[0])
		}
	}
}

// TestArithOracle checks vectorized +,-,* against datum arithmetic on
// uniform numeric columns, elementwise-exact (kind and rendered bytes),
// and that every shape the kernels refuse reports ErrFallback rather
// than producing a value.
func TestArithOracle(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	numKinds := []int{int(datum.KInt), int(datum.KFloat), int(datum.KDate), int(datum.KBool)}
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(64)
		a := randRows(r, n, numKinds[r.Intn(len(numKinds))])
		b := randRows(r, n, numKinds[r.Intn(len(numKinds))])
		var ca, cb, out Column
		ca.Gather(a, 0, nil)
		cb.Gather(b, 0, nil)
		for _, op := range []byte{'+', '-', '*'} {
			err := Arith(op, &ca, &cb, &out)
			if err != nil {
				t.Fatalf("trial %d op %c: unexpected fallback: %v", trial, op, err)
			}
			for i := 0; i < n; i++ {
				var want datum.Datum
				var werr error
				switch op {
				case '+':
					want, werr = a[i][0].Add(b[i][0])
				case '-':
					want, werr = a[i][0].Sub(b[i][0])
				case '*':
					want, werr = a[i][0].Mul(b[i][0])
				}
				if werr != nil {
					t.Fatalf("trial %d: scalar oracle errored on numeric input: %v", trial, werr)
				}
				got := out.DatumAt(i)
				if got.Kind() != want.Kind() || got.String() != want.String() {
					t.Fatalf("trial %d: %s %c %s = %s (%v), scalar %s (%v)",
						trial, a[i][0], op, b[i][0], got, got.Kind(), want, want.Kind())
				}
			}
		}
	}
}

// TestArithFallbackShapes pins which shapes refuse to vectorize.
func TestArithFallbackShapes(t *testing.T) {
	gather := func(rows []datum.Row) *Column {
		var c Column
		c.Gather(rows, 0, nil)
		return &c
	}
	ints := gather([]datum.Row{{datum.NewInt(1)}, {datum.NewInt(2)}})
	strs := gather([]datum.Row{{datum.NewString("a")}, {datum.NewString("b")}})
	mixed := gather([]datum.Row{{datum.NewInt(1)}, {datum.NewString("b")}})
	nulls := gather([]datum.Row{{datum.Null}, {datum.Null}})
	var out Column
	if err := Arith('+', ints, strs, &out); err != ErrFallback {
		t.Fatalf("int + string column: err = %v, want ErrFallback", err)
	}
	if err := Arith('+', ints, mixed, &out); err != ErrFallback {
		t.Fatalf("int + mixed column: err = %v, want ErrFallback", err)
	}
	if err := Arith('/', ints, ints, &out); err != ErrFallback {
		t.Fatalf("division: err = %v, want ErrFallback (by-zero must error in row order)", err)
	}
	// All-NULL operand: scalar NULL propagation happens before the kind
	// check, so this must vectorize to an all-NULL column, not fall back.
	if err := Arith('+', ints, nulls, &out); err != nil {
		t.Fatalf("int + all-NULL column: err = %v, want nil", err)
	}
	for i := 0; i < out.Len(); i++ {
		if !out.DatumAt(i).IsNull() {
			t.Fatalf("int + all-NULL column: element %d = %s, want NULL", i, out.DatumAt(i))
		}
	}
}

// TestAppendKeyMatchesString pins that AppendKey renders exactly
// String()'s bytes for every kind — the contract the vectorized
// group/join key paths depend on.
func TestAppendKeyMatchesString(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		d := randDatum(r)
		if got := string(d.AppendKey(nil)); got != d.String() {
			t.Fatalf("AppendKey(%v) = %q, String() = %q", d.Kind(), got, d.String())
		}
	}
}

// TestBroadcast checks literal columns.
func TestBroadcast(t *testing.T) {
	for _, d := range []datum.Datum{datum.NewInt(7), datum.NewFloat(2.5), datum.NewString("x"), datum.Null, datum.NewBool(true), datum.NewDate(3)} {
		var c Column
		c.Broadcast(d, 5)
		if c.Len() != 5 {
			t.Fatalf("Broadcast len = %d", c.Len())
		}
		for i := 0; i < 5; i++ {
			if got := c.DatumAt(i); got.Kind() != d.Kind() || got.String() != d.String() {
				t.Fatalf("Broadcast(%s): DatumAt(%d) = %s", d, i, got)
			}
		}
	}
}

// TestSelectMatchesGather checks that copying a selection out of a
// gathered column is interchangeable with gathering the selected rows:
// the same datums position by position, and the same survivors from
// every kernel, over every column shape.
func TestSelectMatchesGather(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	like := NewLikeMatcher("a%")
	for trial := 0; trial < 400; trial++ {
		rows := randRows(r, 1+r.Intn(64), kindCases[trial%len(kindCases)])
		sel := Sel{}
		for i := range rows {
			if r.Intn(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		var src, got, want Column
		src.Gather(rows, 0, nil)
		got.Select(&src, sel)
		want.Gather(rows, 0, sel)
		if got.Len() != want.Len() {
			t.Fatalf("trial %d: Len %d, want %d", trial, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if g, w := got.DatumAt(i), want.DatumAt(i); g.Kind() != w.Kind() || g.String() != w.String() {
				t.Fatalf("trial %d: DatumAt(%d) = %s, want %s", trial, i, g, w)
			}
		}
		lit, lo, hi := randDatum(r), randDatum(r), randDatum(r)
		same := func(what string, g, w Sel) {
			if !slices.Equal(g, w) {
				t.Fatalf("trial %d %s: %v, want %v", trial, what, g, w)
			}
		}
		for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
			same("CmpConst", CmpConst(&got, op, lit, nil), CmpConst(&want, op, lit, nil))
		}
		same("RangeConst", RangeConst(&got, lo, true, hi, false, nil), RangeConst(&want, lo, true, hi, false, nil))
		set := NewInSet([]datum.Datum{lit, lo})
		same("InConst", InConst(&got, set, nil), InConst(&want, set, nil))
		for _, not := range []bool{false, true} {
			same("IsNullSel", IsNullSel(&got, not, nil), IsNullSel(&want, not, nil))
			same("MatchLike", MatchLike(&got, like, not, nil), MatchLike(&want, like, not, nil))
		}
	}
}

// TestKernelsAllocationFree pins that the predicate kernels write into
// the caller's selection without allocating once it has room, InConst
// included: its member list is compiled once by NewInSet, not per call.
func TestKernelsAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, uk := range kindCases {
		var c Column
		c.Gather(randRows(r, MorselRows, uk), 0, nil)
		lit, hi := randDatum(r), randDatum(r)
		set := NewInSet([]datum.Datum{lit, hi, datum.Null})
		out := make(Sel, 0, MorselRows)
		for name, run := range map[string]func(){
			"CmpConst":   func() { out = CmpConst(&c, LT, lit, out[:0]) },
			"RangeConst": func() { out = RangeConst(&c, lit, true, hi, false, out[:0]) },
			"InConst":    func() { out = InConst(&c, set, out[:0]) },
		} {
			if n := testing.AllocsPerRun(10, run); n != 0 {
				t.Fatalf("%s on kind %d: %.0f allocations per call, want 0", name, uk, n)
			}
		}
	}
}

// BenchmarkRangeConst times the fused half-open range over one morsel of
// DATE values, half of which pass, in random order, the shape of a
// shipdate range over a heap chunk.
func BenchmarkRangeConst(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	rows := make([]datum.Row, MorselRows)
	for i := range rows {
		rows[i] = datum.Row{datum.NewDate(int64(r.Intn(2000)))}
	}
	var c Column
	c.Gather(rows, 0, nil)
	lo, hi := datum.NewDate(500), datum.NewDate(1500)
	out := make(Sel, 0, MorselRows)
	b.ResetTimer()
	for range b.N {
		out = RangeConst(&c, lo, true, hi, false, out[:0])
	}
	if len(out) < MorselRows/3 || len(out) > 2*MorselRows/3 {
		b.Fatalf("%d of %d rows pass, want about half", len(out), MorselRows)
	}
}
