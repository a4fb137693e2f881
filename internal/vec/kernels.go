package vec

import (
	"math"
	"slices"
	"strings"

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
	from := len(out)
	lk := lit.Kind()
	switch {
	case c.Kind == datum.KNull:
		return out // all NULL: nothing survives
	case intClass(c.Kind) && lk == c.Kind:
		// Same kind within the integer class: datum compares by the
		// int64 payload directly.
		out = cmpConstNum(c.I, lit.Int(), op, out)
	case numeric(c.Kind) && numeric(lk):
		// Cross-kind numerics (and float=float): datum promotes both
		// sides to float64 and uses cmpFloat's NaN-aware total order.
		x := lit.Float()
		if math.IsNaN(x) {
			// cmpFloat(v, NaN) = +1 for every non-NaN v; a NaN v ties.
			return cmpConstNaNLit(c, op, out)
		}
		if c.Kind == datum.KFloat {
			out = cmpConstNum(c.F, x, op, out)
		} else {
			out = cmpConstNum(c.I, x, op, out)
		}
	case c.Kind == datum.KString && lk == datum.KString:
		out = cmpConstStr(c.S, lit.Str(), op, out)
	default:
		// Cross-class (numeric vs string): datum's total-order fallback
		// compares class ranks, so the result is one constant for every
		// non-null position — a numeric column sorts before a string
		// literal, a string column after a numeric one.
		cc := -1
		if c.Kind == datum.KString {
			cc = 1
		}
		if !op.keep(cc) {
			return out
		}
		return appendNonNull(c, out)
	}
	return c.dropNulls(out, from)
}

// b2i is 1 for true and 0 for false; the compiler turns it into a flag
// move, so the kernel loops below carry no data-dependent branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// window grows out by room for n positions and returns it (length
// unchanged) with the n-slot window past its end. A kernel writes every
// candidate position into the window and advances over the ones that
// survive — buf[k] = i; k += b2i(keep) — then returns out[:len(out)+k].
func window(out Sel, n int) (Sel, Sel) {
	out = slices.Grow(out, n)
	return out, out[len(out) : len(out)+n]
}

// dropNulls removes the NULL positions from out[from:], in place. A
// typed kernel compares a NULL position's zero value like any other and
// leaves the NULLs to this one pass, which runs only when c has some.
func (c *Column) dropNulls(out Sel, from int) Sel {
	if !c.HasNulls {
		return out
	}
	k := from
	for _, i := range out[from:] {
		out[k] = i
		k += b2i(!c.Nulls.Get(int(i)))
	}
	return out[:k]
}

// cmpConstNum is the shared integer/float compare loop; X(v) promotes in a
// register, so the column stays read-only. The six formulas are exact for
// BOTH element types given a non-NaN x: for int64 the `w != w` terms are
// vacuously false, and for float64 they reproduce cmpFloat's "NaN sorts
// first" placement (NaN < x ⇒ LT/LE/NE hold, EQ/GT/GE fail).
func cmpConstNum[T, X int64 | float64](vals []T, x X, op CmpOp, out Sel) Sel {
	out, buf := window(out, len(vals))
	k := 0
	switch op {
	case EQ:
		for i, v := range vals {
			buf[k] = int32(i)
			k += b2i(X(v) == x)
		}
	case NE:
		for i, v := range vals {
			buf[k] = int32(i)
			k += b2i(X(v) != x)
		}
	case LT:
		for i, v := range vals {
			w := X(v)
			buf[k] = int32(i)
			k += b2i(w < x) | b2i(w != w)
		}
	case LE:
		for i, v := range vals {
			w := X(v)
			buf[k] = int32(i)
			k += b2i(w <= x) | b2i(w != w)
		}
	case GT:
		for i, v := range vals {
			buf[k] = int32(i)
			k += b2i(X(v) > x)
		}
	case GE:
		for i, v := range vals {
			buf[k] = int32(i)
			k += b2i(X(v) >= x)
		}
	}
	return out[:len(out)+k]
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

func cmpConstStr(vals []string, x string, op CmpOp, out Sel) Sel {
	out, buf := window(out, len(vals))
	k := 0
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
			buf[k] = int32(i)
			k += b2i(len(v) == n && (n == 0 || v[0] == c0) && v == x)
		}
	case NE:
		for i, v := range vals {
			buf[k] = int32(i)
			k += b2i(v != x)
		}
	case LT:
		for i, v := range vals {
			buf[k] = int32(i)
			k += b2i(v < x)
		}
	case LE:
		for i, v := range vals {
			buf[k] = int32(i)
			k += b2i(v <= x)
		}
	case GT:
		for i, v := range vals {
			buf[k] = int32(i)
			k += b2i(v > x)
		}
	case GE:
		for i, v := range vals {
			buf[k] = int32(i)
			k += b2i(v >= x)
		}
	}
	return out[:len(out)+k]
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

// RangeConst appends the positions whose value lies above lo (or equals
// it, with loInc) and below hi (or equals it, with hiInc) — the fused
// form of a lower- and an upper-bound comparison on one column, such as
// the two conjuncts BETWEEN desugars into or a half-open lo <= v < hi.
// A NULL bound or a NULL value never survives (each side is UNKNOWN in
// the scalar engine).
func RangeConst(c *Column, lo datum.Datum, loInc bool, hi datum.Datum, hiInc bool, out Sel) Sel {
	if lo.IsNull() || hi.IsNull() || c.n == 0 {
		return out
	}
	from := len(out)
	lk, hk := lo.Kind(), hi.Kind()
	switch {
	case !c.Uniform:
		// Mixed kinds: the per-element loop below.
	case c.Kind == datum.KNull:
		return out // all NULL: nothing survives
	case intClass(c.Kind) && lk == c.Kind && hk == c.Kind:
		// Both bounds compare by the int64 payload, as in CmpConst.
		l, h, ok := intRange(lo.Int(), loInc, hi.Int(), hiInc)
		if !ok {
			return out
		}
		return c.dropNulls(rangeNum(c.I, l, h, out), from)
	case numeric(c.Kind) && numeric(lk) && numeric(hk) && !(intClass(c.Kind) && (lk == c.Kind || hk == c.Kind)):
		// Both bounds promote to float64, as in CmpConst. NaN bounds
		// and a payload bound paired with a promoted one take the
		// per-element loop below.
		l, h := lo.Float(), hi.Float()
		if math.IsNaN(l) || math.IsNaN(h) {
			break
		}
		l, h, ok := floatRange(l, loInc, h, hiInc)
		if !ok {
			return out
		}
		if c.Kind == datum.KFloat {
			return c.dropNulls(rangeNum(c.F, l, h, out), from)
		}
		return c.dropNulls(rangeNum(c.I, l, h, out), from)
	}
	// A three-way result r passes the lower bound when r >= lmin and the
	// upper one when r <= hmax.
	lmin, hmax := 1, -1
	if loInc {
		lmin = 0
	}
	if hiInc {
		hmax = 0
	}
	if c.Uniform && c.Kind == datum.KString && lk == datum.KString && hk == datum.KString {
		l, h := lo.Str(), hi.Str()
		out, buf := window(out, c.n)
		k := 0
		for i, v := range c.S {
			buf[k] = int32(i)
			k += b2i(strings.Compare(v, l) >= lmin && strings.Compare(v, h) <= hmax)
		}
		return c.dropNulls(out[:len(out)+k], from)
	}
	// Mixed kinds, NaN bounds, cross-class: per-element total order.
	for i := 0; i < c.n; i++ {
		d := c.DatumAt(i)
		if !d.IsNull() && d.Compare(lo) >= lmin && d.Compare(hi) <= hmax {
			out = append(out, int32(i))
		}
	}
	return out
}

// intRange makes an int64 range's bounds inclusive; ok is false when no
// int64 lies in it.
func intRange(l int64, loInc bool, h int64, hiInc bool) (int64, int64, bool) {
	if !loInc {
		if l == math.MaxInt64 {
			return 0, 0, false
		}
		l++
	}
	if !hiInc {
		if h == math.MinInt64 {
			return 0, 0, false
		}
		h--
	}
	return l, h, l <= h
}

// floatRange makes a float64 range's non-NaN bounds inclusive through
// their neighbouring floats (v > l ⇔ v >= Nextafter(l, +Inf) for every
// non-NaN v, with -0 and +0 tied as cmpFloat ties them); ok is false when
// no float64 lies in it.
func floatRange(l float64, loInc bool, h float64, hiInc bool) (float64, float64, bool) {
	if !loInc {
		if math.IsInf(l, 1) {
			return 0, 0, false
		}
		l = math.Nextafter(l, math.Inf(1))
	}
	if !hiInc {
		if math.IsInf(h, -1) {
			return 0, 0, false
		}
		h = math.Nextafter(h, math.Inf(-1))
	}
	return l, h, l <= h
}

// rangeNum is RangeConst's numeric loop over inclusive bounds, converting
// each value to the bounds' type X like cmpConstNum. w >= l is false for
// a NaN w, matching cmpFloat(NaN, l) = -1.
func rangeNum[T, X int64 | float64](vals []T, l, h X, out Sel) Sel {
	out, buf := window(out, len(vals))
	k := 0
	for i, v := range vals {
		w := X(v)
		buf[k] = int32(i)
		k += b2i(w >= l) & b2i(w <= h)
	}
	return out[:len(out)+k]
}

// InSet is an IN list compiled once for InConst: its non-NULL members
// and, when they all share one kind, their typed payloads.
type InSet struct {
	members []datum.Datum
	kind    datum.Kind // the members' common kind; KNull when they mix
	ints    []int64    // the payloads of integer-class members
	strs    []string   // the values of VARCHAR members
}

// NewInSet compiles an IN list's members. NULL members match nothing and
// are dropped.
func NewInSet(set []datum.Datum) *InSet {
	s := &InSet{kind: datum.KNull}
	for _, m := range set {
		switch {
		case m.IsNull():
			continue
		case len(s.members) == 0:
			s.kind = m.Kind()
		case m.Kind() != s.kind:
			s.kind = datum.KNull
		}
		s.members = append(s.members, m)
	}
	for _, m := range s.members {
		switch {
		case intClass(s.kind):
			s.ints = append(s.ints, m.Int())
		case s.kind == datum.KString:
			s.strs = append(s.strs, m.Str())
		}
	}
	return s
}

// InConst appends the positions whose value equals any member of set —
// the fused form of the OR-of-equalities an IN list desugars into. A
// NULL value matches nothing. Membership is datum equality (cross-kind
// numerics collide, as in the scalar OR).
func InConst(c *Column, set *InSet, out Sel) Sel {
	if len(set.members) == 0 || c.n == 0 {
		return out
	}
	// When every member shares the column's kind, equality is payload
	// (or string) equality.
	switch from := len(out); {
	case c.Uniform && intClass(c.Kind) && set.kind == c.Kind:
		return c.dropNulls(inTyped(c.I, set.ints, out), from)
	case c.Uniform && c.Kind == datum.KString && set.kind == datum.KString:
		return c.dropNulls(inTyped(c.S, set.strs, out), from)
	}
	for i := 0; i < c.n; i++ {
		d := c.DatumAt(i)
		if d.IsNull() {
			continue
		}
		for _, m := range set.members {
			if d.Compare(m) == 0 {
				out = append(out, int32(i))
				break
			}
		}
	}
	return out
}

// inTyped is InConst's loop over a typed column and typed members.
func inTyped[T int64 | string](vals, members []T, out Sel) Sel {
	out, buf := window(out, len(vals))
	k := 0
	for i, v := range vals {
		buf[k] = int32(i)
		for _, x := range members {
			if v == x {
				k++
				break
			}
		}
	}
	return out[:len(out)+k]
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
