package vec

import (
	"math"

	"onlinetuner/internal/datum"
)

// CmpOp is a comparison operator.
type CmpOp uint8

// The comparison operators, matching the SQL symbols.
const (
	EQ CmpOp = iota // =
	NE              // <>
	LT              // <
	LE              // <=
	GT              // >
	GE              // >=
)

// CmpOpFromString maps a SQL comparison symbol to its CmpOp.
func CmpOpFromString(s string) (CmpOp, bool) {
	switch s {
	case "=":
		return EQ, true
	case "<>":
		return NE, true
	case "<":
		return LT, true
	case "<=":
		return LE, true
	case ">":
		return GT, true
	case ">=":
		return GE, true
	}
	return 0, false
}

// keep reports whether a three-way comparison result c satisfies op.
func (op CmpOp) keep(c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	}
	return c >= 0 // GE
}

// CmpConst appends to out the positions of c whose value compares
// against lit under op, with the scalar engine's exact semantics: a
// NULL on either side is UNKNOWN and never survives, and the three-way
// comparison is datum.Compare's total order.
func CmpConst(c *Column, op CmpOp, lit datum.Datum, out Sel) Sel {
	if lit.IsNull() || c.n == 0 {
		return out
	}
	if !c.Uniform {
		for i, d := range c.Dat {
			if !d.IsNull() && op.keep(d.Compare(lit)) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	lk := lit.Kind()
	switch {
	case c.Kind == datum.KNull:
		return out // all NULL: nothing survives
	case intClass(c.Kind) && lk == c.Kind:
		// Same kind within the integer class: datum compares by the
		// int64 payload directly.
		return cmpConstNum(c.I, lit.Int(), op, c.Nulls, c.HasNulls, out)
	case numeric(c.Kind) && numeric(lk):
		// Cross-kind numerics (and float=float): datum promotes both
		// sides to float64 and uses cmpFloat's NaN-aware total order.
		x := lit.Float()
		if math.IsNaN(x) {
			// cmpFloat(v, NaN) = +1 for every non-NaN v; a NaN v ties.
			return cmpConstNaNLit(c, op, out)
		}
		if c.Kind == datum.KFloat {
			return cmpConstNum(c.F, x, op, c.Nulls, c.HasNulls, out)
		}
		return cmpConstNum(c.I, x, op, c.Nulls, c.HasNulls, out)
	case c.Kind == datum.KString && lk == datum.KString:
		return cmpConstStr(c.S, lit.Str(), op, c.Nulls, c.HasNulls, out)
	}
	// Cross-class (numeric vs string): datum's total-order fallback
	// compares class ranks, so the result is one constant for every
	// non-null position.
	cc := 0
	switch {
	case c.Kind == datum.KString: // string column vs numeric literal
		cc = 1
	default: // numeric column vs string literal
		cc = -1
	}
	if !op.keep(cc) {
		return out
	}
	return appendNonNull(c, out)
}

// cmpConstNum is the shared integer/float compare loop; X(v) promotes in a
// register, so the column stays read-only. The six formulas are exact for
// BOTH element types given a non-NaN x: for int64 the `w != w` terms are
// vacuously false, and for float64 they reproduce cmpFloat's "NaN sorts
// first" placement (NaN < x ⇒ LT/LE/NE hold, EQ/GT/GE fail).
func cmpConstNum[T, X int64 | float64](vals []T, x X, op CmpOp, nulls Bitmap, hasNulls bool, out Sel) Sel {
	switch op {
	case EQ:
		for i, v := range vals {
			if X(v) == x && !(hasNulls && nulls.Get(i)) {
				out = append(out, int32(i))
			}
		}
	case NE:
		for i, v := range vals {
			if X(v) != x && !(hasNulls && nulls.Get(i)) {
				out = append(out, int32(i))
			}
		}
	case LT:
		for i, v := range vals {
			if w := X(v); (w < x || w != w) && !(hasNulls && nulls.Get(i)) {
				out = append(out, int32(i))
			}
		}
	case LE:
		for i, v := range vals {
			if w := X(v); (w <= x || w != w) && !(hasNulls && nulls.Get(i)) {
				out = append(out, int32(i))
			}
		}
	case GT:
		for i, v := range vals {
			if X(v) > x && !(hasNulls && nulls.Get(i)) {
				out = append(out, int32(i))
			}
		}
	case GE:
		for i, v := range vals {
			if X(v) >= x && !(hasNulls && nulls.Get(i)) {
				out = append(out, int32(i))
			}
		}
	}
	return out
}

// cmpConstNaNLit handles a NaN literal: cmpFloat places every non-NaN
// value after NaN (+1) and a NaN value ties (0).
func cmpConstNaNLit(c *Column, op CmpOp, out Sel) Sel {
	for i := 0; i < c.n; i++ {
		if c.HasNulls && c.Nulls.Get(i) {
			continue
		}
		cc := 1
		if v := c.floatAt(i); v != v {
			cc = 0
		}
		if op.keep(cc) {
			out = append(out, int32(i))
		}
	}
	return out
}

func cmpConstStr(vals []string, x string, op CmpOp, nulls Bitmap, hasNulls bool, out Sel) Sel {
	switch op {
	case EQ:
		// Equality prefilter: reject on length, then on first byte,
		// before the full comparison.
		n := len(x)
		var c0 byte
		if n > 0 {
			c0 = x[0]
		}
		for i, v := range vals {
			if len(v) == n && (n == 0 || v[0] == c0) && v == x && !(hasNulls && nulls.Get(i)) {
				out = append(out, int32(i))
			}
		}
	case NE:
		for i, v := range vals {
			if v != x && !(hasNulls && nulls.Get(i)) {
				out = append(out, int32(i))
			}
		}
	case LT:
		for i, v := range vals {
			if v < x && !(hasNulls && nulls.Get(i)) {
				out = append(out, int32(i))
			}
		}
	case LE:
		for i, v := range vals {
			if v <= x && !(hasNulls && nulls.Get(i)) {
				out = append(out, int32(i))
			}
		}
	case GT:
		for i, v := range vals {
			if v > x && !(hasNulls && nulls.Get(i)) {
				out = append(out, int32(i))
			}
		}
	case GE:
		for i, v := range vals {
			if v >= x && !(hasNulls && nulls.Get(i)) {
				out = append(out, int32(i))
			}
		}
	}
	return out
}

func appendNonNull(c *Column, out Sel) Sel {
	if !c.HasNulls {
		for i := 0; i < c.n; i++ {
			out = append(out, int32(i))
		}
		return out
	}
	for i := 0; i < c.n; i++ {
		if !c.Nulls.Get(i) {
			out = append(out, int32(i))
		}
	}
	return out
}

// BetweenConst appends the positions with lo <= v <= hi — the fused
// form of the two conjuncts BETWEEN desugars into. NULL bounds or a
// NULL value never survive (each side is UNKNOWN in the scalar engine).
func BetweenConst(c *Column, lo, hi datum.Datum, out Sel) Sel {
	if lo.IsNull() || hi.IsNull() || c.n == 0 {
		return out
	}
	if c.Uniform && intClass(c.Kind) && lo.Kind() == c.Kind && hi.Kind() == c.Kind {
		return betweenNum(c.I, lo.Int(), hi.Int(), c.Nulls, c.HasNulls, out)
	}
	if c.Uniform && numeric(c.Kind) && numeric(lo.Kind()) && numeric(hi.Kind()) {
		l, h := lo.Float(), hi.Float()
		if !math.IsNaN(l) && !math.IsNaN(h) {
			if c.Kind == datum.KFloat {
				return betweenNum(c.F, l, h, c.Nulls, c.HasNulls, out)
			}
			return betweenNum(c.I, l, h, c.Nulls, c.HasNulls, out)
		}
	}
	if c.Uniform && c.Kind == datum.KString && lo.Kind() == datum.KString && hi.Kind() == datum.KString {
		l, h := lo.Str(), hi.Str()
		for i, v := range c.S {
			if v >= l && v <= h && !(c.HasNulls && c.Nulls.Get(i)) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	// Mixed kinds, NaN bounds, cross-class: per-element total order.
	for i := 0; i < c.n; i++ {
		d := c.DatumAt(i)
		if !d.IsNull() && d.Compare(lo) >= 0 && d.Compare(hi) <= 0 {
			out = append(out, int32(i))
		}
	}
	return out
}

// betweenNum is BetweenConst's numeric loop, converting each value to
// the bounds' type X like cmpConstNum. w >= l is false for a NaN w,
// matching cmpFloat(NaN, l) = -1.
func betweenNum[T, X int64 | float64](vals []T, l, h X, nulls Bitmap, hasNulls bool, out Sel) Sel {
	for i, v := range vals {
		if w := X(v); w >= l && w <= h && !(hasNulls && nulls.Get(i)) {
			out = append(out, int32(i))
		}
	}
	return out
}

// InConst appends the positions whose value equals any member of set —
// the fused form of the OR-of-equalities an IN list desugars into. A
// NULL value matches nothing; NULL members match nothing. Membership is
// datum equality (cross-kind numerics collide, as in the scalar OR).
func InConst(c *Column, set []datum.Datum, out Sel) Sel {
	members := make([]datum.Datum, 0, len(set))
	for _, m := range set {
		if !m.IsNull() {
			members = append(members, m)
		}
	}
	if len(members) == 0 || c.n == 0 {
		return out
	}
	if c.Uniform && intClass(c.Kind) {
		// Fast path only when every member shares the column's kind
		// (same-kind equality is payload equality).
		vals := make([]int64, 0, len(members))
		ok := true
		for _, m := range members {
			if m.Kind() != c.Kind {
				ok = false
				break
			}
			vals = append(vals, m.Int())
		}
		if ok {
			for i, v := range c.I {
				if c.HasNulls && c.Nulls.Get(i) {
					continue
				}
				for _, x := range vals {
					if v == x {
						out = append(out, int32(i))
						break
					}
				}
			}
			return out
		}
	}
	if c.Uniform && c.Kind == datum.KString {
		vals := make([]string, 0, len(members))
		ok := true
		for _, m := range members {
			if m.Kind() != datum.KString {
				ok = false
				break
			}
			vals = append(vals, m.Str())
		}
		if ok {
			for i, v := range c.S {
				if c.HasNulls && c.Nulls.Get(i) {
					continue
				}
				for _, x := range vals {
					// First-byte/length prefilter before the full compare.
					if len(v) == len(x) && (len(x) == 0 || v[0] == x[0]) && v == x {
						out = append(out, int32(i))
						break
					}
				}
			}
			return out
		}
	}
	for i := 0; i < c.n; i++ {
		d := c.DatumAt(i)
		if d.IsNull() {
			continue
		}
		for _, m := range members {
			if d.Compare(m) == 0 {
				out = append(out, int32(i))
				break
			}
		}
	}
	return out
}

// IsNullSel appends the positions that are NULL (or, with not set, the
// positions that are not NULL).
func IsNullSel(c *Column, not bool, out Sel) Sel {
	for i := 0; i < c.n; i++ {
		if c.nullAt(i) != not {
			out = append(out, int32(i))
		}
	}
	return out
}

// MatchLike appends the positions whose string value matches (or, with
// not set, does not match) the compiled pattern. A NULL value is
// UNKNOWN and never survives either polarity; a non-string value never
// survives either polarity (the scalar engine treats a non-string
// scrutinee as UNKNOWN too).
func MatchLike(c *Column, m *LikeMatcher, not bool, out Sel) Sel {
	if c.n == 0 {
		return out
	}
	if c.Uniform && c.Kind == datum.KString {
		for i, v := range c.S {
			if c.HasNulls && c.Nulls.Get(i) {
				continue
			}
			if m.Match(v) != not {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for i := 0; i < c.n; i++ {
		d := c.DatumAt(i)
		if d.IsNull() || d.Kind() != datum.KString {
			continue
		}
		if m.Match(d.Str()) != not {
			out = append(out, int32(i))
		}
	}
	return out
}
