package vec

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"onlinetuner/internal/datum"
)

// naiveLike is the reference LIKE semantics: % matches any run of
// bytes, _ exactly one byte, everything else literally, byte-wise, no
// escapes. Exponential in the worst case, so tests keep patterns short.
func naiveLike(p, s string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if naiveLike(p[1:], s[i:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && naiveLike(p[1:], s[1:])
	default:
		return s != "" && s[0] == p[0] && naiveLike(p[1:], s[1:])
	}
}

// TestLikeMatcherHandCases pins every shape class and its edges.
func TestLikeMatcherHandCases(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"", "", true}, {"", "a", false},
		{"%", "", true}, {"%", "anything", true},
		{"%%", "x", true},
		{"_", "", false}, {"_", "a", true}, {"_", "ab", false},
		{"abc", "abc", true}, {"abc", "abd", false}, {"abc", "ab", false},
		{"a%", "a", true}, {"a%", "abc", true}, {"a%", "ba", false},
		{"%a", "a", true}, {"%a", "bca", true}, {"%a", "ab", false},
		{"%bc%", "abcd", true}, {"%bc%", "abdc", false},
		{"a_c", "abc", true}, {"a_c", "ac", false}, {"a_c", "abbc", false},
		{"a%b%c", "abc", true}, {"a%b%c", "axbyc", true}, {"a%b%c", "acb", false},
		{"%a_", "xab", true}, {"%a_", "xa", false}, {"%a_", "a", false},
		{"_%", "a", true}, {"_%", "", false},
		{"a_%b", "axb", true}, {"a_%b", "ab", false}, {"a_%b", "axyb", true},
		{"%abc%def%", "xxabcyydefzz", true}, {"%abc%def%", "xxdefyyabczz", false},
		{"ab%ab", "abab", true}, {"ab%ab", "ab", false}, // overlap: suffix needs its own bytes
		{"a%a", "aa", true}, {"a%a", "a", false},
		{"part name 0%", "part name 00042", true}, {"part name 0%", "part name 1", false},
		{"%BRASS", "PROMO BRASS", true}, {"%BRASS", "PROMO TIN", false},
		{"__-URGENT", "1-URGENT", false}, {"_-URGENT", "1-URGENT", true},
	}
	for _, c := range cases {
		m := NewLikeMatcher(c.pattern)
		if got := m.Match(c.s); got != c.want {
			t.Errorf("LIKE %q on %q = %v, want %v (shape %d)", c.pattern, c.s, got, c.want, m.shape)
		}
		if naive := naiveLike(c.pattern, c.s); naive != c.want {
			t.Fatalf("hand case disagrees with reference: LIKE %q on %q, case says %v reference %v",
				c.pattern, c.s, c.want, naive)
		}
	}
}

// TestLikeMatcherRandomized compares the prefiltered matcher against the
// reference on random short patterns and subjects.
func TestLikeMatcherRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	alphabet := "ab%_c"
	subjectAlphabet := "abc"
	for trial := 0; trial < 5000; trial++ {
		var pb, sb strings.Builder
		for i := r.Intn(8); i > 0; i-- {
			pb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		for i := r.Intn(12); i > 0; i-- {
			sb.WriteByte(subjectAlphabet[r.Intn(len(subjectAlphabet))])
		}
		p, s := pb.String(), sb.String()
		m := NewLikeMatcher(p)
		if got, want := m.Match(s), naiveLike(p, s); got != want {
			t.Fatalf("LIKE %q on %q = %v, want %v (shape %d)", p, s, got, want, m.shape)
		}
	}
}

// TestMatchLikeKernelOracle checks the column kernel: strings evaluate
// the matcher; NULLs and non-strings are dropped under BOTH polarities
// (UNKNOWN filters out either way).
func TestMatchLikeKernelOracle(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		rows := randRows(r, 1+r.Intn(64), kindCases[trial%len(kindCases)])
		pats := []string{"%", "a%", "%b", "%ab%", "a_c", "", "ab"}
		m := NewLikeMatcher(pats[trial%len(pats)])
		var c Column
		c.Gather(rows, 0, nil)
		for _, not := range []bool{false, true} {
			got := selToMap(MatchLike(&c, m, not, nil))
			for i, row := range rows {
				d := row[0]
				want := d.Kind() == datum.KString && m.Match(d.Str()) != not
				if got[int32(i)] != want {
					t.Fatalf("trial %d not=%v: row %d (%s LIKE %q): kernel=%v oracle=%v",
						trial, not, i, d, m.pattern, got[int32(i)], want)
				}
			}
		}
	}
}

// FuzzVecKernels drives the comparison, range, set and LIKE kernels
// from fuzzer-derived columns and literals, checking each against its
// scalar oracle. The first byte picks the mode: with its low bit clear
// each value byte picks its own kind, so most columns mix kinds and take
// the per-element paths; with it set the column has one kind (INT, DATE,
// FLOAT or VARCHAR, from the byte's next bits) with NULLs, NaN, -0 and
// integers past 2^53 sprinkled in, which drives the typed loops. Bits 4
// and 5 decode the literal and the range's upper bound with the mixed
// decoder instead of the column's kind.
func FuzzVecKernels(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 250, 251})
	f.Add([]byte("\x00a%bc_d"))
	f.Add([]byte{0, 9, 9, 9, 0, 0, 0, 128, 255, 7})
	for mode := byte(1); mode < 64; mode += 2 {
		f.Add([]byte{mode, 40, 0, 13, 1, 22, 81, 120, 160, 200, 240, 255, 14, 66})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		mode := data[0]
		data = data[1:]
		// Derive a deterministic column, literal and pattern from the input.
		decode := func(b byte) datum.Datum {
			switch b % 7 {
			case 0:
				return datum.Null
			case 1, 2:
				return datum.NewInt(int64(b>>3) - 10)
			case 3:
				return datum.NewFloat(float64(b>>3)/3 - 8)
			case 4:
				return datum.NewString(strings.Repeat("ab", int(b>>6)) + string(rune('a'+b%3)))
			case 5:
				return datum.NewDate(int64(b >> 4))
			default:
				return datum.NewBool(b&8 != 0)
			}
		}
		kinds := []datum.Kind{datum.KInt, datum.KDate, datum.KFloat, datum.KString}
		kind := kinds[mode>>1&3]
		uniform := func(b byte) datum.Datum {
			switch {
			case b%11 == 0:
				return datum.Null
			case kind == datum.KInt && b%19 == 3:
				return datum.NewInt(int64(1)<<53 + int64(b&3))
			case kind == datum.KInt:
				return datum.NewInt(int64(b>>2) - 32)
			case kind == datum.KDate:
				return datum.NewDate(int64(b >> 3))
			case kind == datum.KFloat && b%13 == 1:
				return datum.NewFloat(math.NaN())
			case kind == datum.KFloat && b%17 == 2:
				return datum.NewFloat(math.Copysign(0, -1))
			case kind == datum.KFloat:
				return datum.NewFloat(float64(int(b>>2)-32) / 2)
			}
			return datum.NewString(strings.Repeat("ab", int(b>>6)) + string(rune('a'+b%3)))
		}
		val := decode
		if mode&1 != 0 {
			val = uniform
		}
		n := len(data) - 1
		if n > 64 {
			n = 64
		}
		rows := make([]datum.Row, n)
		for i := 0; i < n; i++ {
			rows[i] = datum.Row{val(data[i+1])}
		}
		lit, hi := val(data[0]), val(data[len(data)-1])
		if mode&16 != 0 {
			lit = decode(data[0])
		}
		if mode&32 != 0 {
			hi = decode(data[len(data)-1])
		}
		var c Column
		c.Gather(rows, 0, nil)
		if mode&1 != 0 && c.Kind != datum.KNull && (!c.Uniform || c.Kind != kind) {
			t.Fatalf("uniform mode gathered kind %v (uniform %v), want %v", c.Kind, c.Uniform, kind)
		}

		for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
			got := selToMap(CmpConst(&c, op, lit, nil))
			for i, row := range rows {
				d := row[0]
				want := !d.IsNull() && !lit.IsNull() && op.keep(d.Compare(lit))
				if got[int32(i)] != want {
					t.Fatalf("CmpConst op %v row %d (%s vs %s): kernel=%v oracle=%v", op, i, d, lit, got[int32(i)], want)
				}
			}
		}
		lo := lit
		for _, inc := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
			got := selToMap(RangeConst(&c, lo, inc[0], hi, inc[1], nil))
			for i, row := range rows {
				d := row[0]
				if want := rangeOracle(d, lo, inc[0], hi, inc[1]); got[int32(i)] != want {
					t.Fatalf("RangeConst inc %v row %d (%s in %s..%s): kernel=%v oracle=%v", inc, i, d, lo, hi, got[int32(i)], want)
				}
			}
		}
		set := []datum.Datum{lit, hi}
		gotIn := selToMap(InConst(&c, NewInSet(set), nil))
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
			if gotIn[int32(i)] != want {
				t.Fatalf("InConst row %d (%s in %v): kernel=%v oracle=%v", i, d, set, gotIn[int32(i)], want)
			}
		}

		// LIKE: reuse the raw bytes as a pattern, capped so the reference
		// matcher's backtracking stays cheap.
		pat := string(data)
		if len(pat) > 10 {
			pat = pat[:10]
		}
		m := NewLikeMatcher(pat)
		for _, row := range rows {
			d := row[0]
			if d.Kind() != datum.KString || len(d.Str()) > 24 {
				continue
			}
			if got, want := m.Match(d.Str()), naiveLike(pat, d.Str()); got != want {
				t.Fatalf("LIKE %q on %q = %v, want %v (shape %d)", pat, d.Str(), got, want, m.shape)
			}
		}
	})
}
