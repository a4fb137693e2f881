// Package datum implements the typed value layer shared by the storage
// engine, executor, optimizer and statistics subsystems. A Datum is an
// immutable scalar: integer, float, string, date (days since epoch), or
// NULL. Comparison follows SQL semantics except that NULL sorts first and
// compares equal to itself, which gives Datum a total order so it can be
// used as a B+-tree key component.
package datum

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
)

// Kind enumerates the runtime types a Datum can take.
type Kind uint8

// The supported datum kinds.
const (
	KNull Kind = iota
	KInt
	KFloat
	KString
	KDate // days since 1970-01-01, stored as int64
	KBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KNull:
		return "NULL"
	case KInt:
		return "INT"
	case KFloat:
		return "FLOAT"
	case KString:
		return "VARCHAR"
	case KDate:
		return "DATE"
	case KBool:
		return "BOOL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Datum is a single immutable scalar value: 32 bytes, a kind tag, one
// word of payload and a string header. Every heap row, index key, batch
// slab and mixed-kind column is a run of these, so the payload word is
// shared by the numeric kinds rather than given a field each.
type Datum struct {
	kind Kind
	i    int64 // KInt, KDate, KBool (0/1); KFloat's IEEE 754 bits
	s    string
}

// Null is the SQL NULL value.
var Null = Datum{kind: KNull}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return Datum{kind: KInt, i: v} }

// NewFloat returns a float datum.
func NewFloat(v float64) Datum { return Datum{kind: KFloat, i: int64(math.Float64bits(v))} }

// NewString returns a string datum.
func NewString(v string) Datum { return Datum{kind: KString, s: v} }

// NewDate returns a date datum holding days since the epoch.
func NewDate(days int64) Datum { return Datum{kind: KDate, i: days} }

// NewBool returns a boolean datum.
func NewBool(v bool) Datum {
	var i int64
	if v {
		i = 1
	}
	return Datum{kind: KBool, i: i}
}

// f is a KFloat datum's value.
func (d Datum) f() float64 { return math.Float64frombits(uint64(d.i)) }

// Kind reports the datum's runtime type.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether the datum is SQL NULL.
func (d Datum) IsNull() bool { return d.kind == KNull }

// Int returns the integer value; it panics on other kinds.
func (d Datum) Int() int64 {
	if d.kind != KInt && d.kind != KDate && d.kind != KBool {
		panic(fmt.Sprintf("datum: Int() on %s", d.kind))
	}
	return d.i
}

// Float returns the float value, converting integers.
func (d Datum) Float() float64 {
	switch d.kind {
	case KFloat:
		return d.f()
	case KInt, KDate, KBool:
		return float64(d.i)
	}
	panic(fmt.Sprintf("datum: Float() on %s", d.kind))
}

// Str returns the string value; it panics on other kinds.
func (d Datum) Str() string {
	if d.kind != KString {
		panic(fmt.Sprintf("datum: Str() on %s", d.kind))
	}
	return d.s
}

// Bool returns the boolean value; it panics on other kinds.
func (d Datum) Bool() bool {
	if d.kind != KBool {
		panic(fmt.Sprintf("datum: Bool() on %s", d.kind))
	}
	return d.i != 0
}

// numericKinds reports whether both datums can be compared numerically.
func numericKinds(a, b Kind) bool {
	num := func(k Kind) bool { return k == KInt || k == KFloat || k == KDate || k == KBool }
	return num(a) && num(b)
}

// Compare returns -1, 0 or +1. NULL sorts before every non-NULL value and
// equal to itself, making the order total. Numeric kinds compare by value
// across int/float/date; mixed non-numeric kinds compare by kind tag so
// the order stays total (such comparisons should not arise from well-typed
// queries).
func (d Datum) Compare(o Datum) int {
	if d.kind == KNull || o.kind == KNull {
		switch {
		case d.kind == KNull && o.kind == KNull:
			return 0
		case d.kind == KNull:
			return -1
		default:
			return 1
		}
	}
	if d.kind == o.kind {
		switch d.kind {
		case KInt, KDate, KBool:
			switch {
			case d.i < o.i:
				return -1
			case d.i > o.i:
				return 1
			}
			return 0
		case KFloat:
			return cmpFloat(d.f(), o.f())
		case KString:
			switch {
			case d.s < o.s:
				return -1
			case d.s > o.s:
				return 1
			}
			return 0
		}
	}
	if numericKinds(d.kind, o.kind) {
		return cmpFloat(d.Float(), o.Float())
	}
	// Total-order fallback across incompatible kinds: every numeric sorts
	// before every string, keeping the order transitive.
	switch {
	case classRank(d.kind) < classRank(o.kind):
		return -1
	case classRank(d.kind) > classRank(o.kind):
		return 1
	}
	return 0
}

// classRank groups kinds into comparison classes: numerics (0) before
// strings (1). NULL is handled before this is consulted.
func classRank(k Kind) int {
	if k == KString {
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case math.IsNaN(a) && !math.IsNaN(b):
		return -1
	case !math.IsNaN(a) && math.IsNaN(b):
		return 1
	}
	return 0
}

// Equal reports whether two datums compare equal.
func (d Datum) Equal(o Datum) bool { return d.Compare(o) == 0 }

// Hash returns a stable hash of the datum, suitable for hash joins and
// grouping. Numeric kinds hash by their float64 value so that equal
// cross-kind numerics collide.
func (d Datum) Hash() uint64 {
	h := fnv.New64a()
	switch d.kind {
	case KNull:
		h.Write([]byte{0})
	case KString:
		h.Write([]byte{1})
		h.Write([]byte(d.s))
	default:
		h.Write([]byte{2})
		f := d.Float()
		var buf [8]byte
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// String renders the datum as AppendKey does: plan and debug output,
// the wire's result cells, and group and join keys are one rendering.
func (d Datum) String() string {
	var buf [32]byte
	return string(d.AppendKey(buf[:0]))
}

// AppendKey appends the datum's rendering to buf: NULL, an integer, a
// float in shortest 'g' form, a quoted string, DATE(days), TRUE or
// FALSE. Grouping and join keys are these bytes, so int 5 and float 5.0
// both render "5" and share a group.
func (d Datum) AppendKey(buf []byte) []byte {
	switch d.kind {
	case KNull:
		return append(buf, "NULL"...)
	case KInt:
		return strconv.AppendInt(buf, d.i, 10)
	case KFloat:
		return strconv.AppendFloat(buf, d.f(), 'g', -1, 64)
	case KString:
		buf = append(buf, '\'')
		buf = append(buf, d.s...)
		return append(buf, '\'')
	case KDate:
		buf = append(buf, "DATE("...)
		buf = strconv.AppendInt(buf, d.i, 10)
		return append(buf, ')')
	case KBool:
		if d.i != 0 {
			return append(buf, "TRUE"...)
		}
		return append(buf, "FALSE"...)
	}
	return append(buf, '?')
}

// Width returns the number of bytes the datum occupies in the storage
// layer's size accounting (not a serialized format; the engine is
// in-memory but sizes drive the paper's storage constraints).
func (d Datum) Width() int {
	switch d.kind {
	case KNull:
		return 1
	case KInt, KDate, KFloat:
		return 8
	case KBool:
		return 1
	case KString:
		return 2 + len(d.s)
	}
	return 1
}

// Add returns d + o for numeric datums; NULL propagates.
func (d Datum) Add(o Datum) (Datum, error) { return arith(d, o, "+") }

// Sub returns d - o for numeric datums; NULL propagates.
func (d Datum) Sub(o Datum) (Datum, error) { return arith(d, o, "-") }

// Mul returns d * o for numeric datums; NULL propagates.
func (d Datum) Mul(o Datum) (Datum, error) { return arith(d, o, "*") }

// Div returns d / o for numeric datums; NULL propagates; division by zero
// yields an error.
func (d Datum) Div(o Datum) (Datum, error) { return arith(d, o, "/") }

func arith(a, b Datum, op string) (Datum, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !numericKinds(a.kind, b.kind) {
		return Null, fmt.Errorf("datum: %s %s %s: non-numeric operands", a.kind, op, b.kind)
	}
	if a.kind == KInt && b.kind == KInt {
		switch op {
		case "+":
			return NewInt(a.i + b.i), nil
		case "-":
			return NewInt(a.i - b.i), nil
		case "*":
			return NewInt(a.i * b.i), nil
		case "/":
			if b.i == 0 {
				return Null, fmt.Errorf("datum: integer division by zero")
			}
			return NewInt(a.i / b.i), nil
		}
	}
	x, y := a.Float(), b.Float()
	switch op {
	case "+":
		return NewFloat(x + y), nil
	case "-":
		return NewFloat(x - y), nil
	case "*":
		return NewFloat(x * y), nil
	case "/":
		if y == 0 {
			return Null, fmt.Errorf("datum: division by zero")
		}
		return NewFloat(x / y), nil
	}
	return Null, fmt.Errorf("datum: unknown operator %q", op)
}

// Row is a tuple of datums. Rows are value-like: Clone before mutating a
// row that may be shared.
type Row []Datum

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Width returns the accounted byte width of the row.
func (r Row) Width() int {
	w := 0
	for _, d := range r {
		w += d.Width()
	}
	return w
}

// Compare compares two rows lexicographically; shorter rows sort first on
// a tie of the common prefix.
func (r Row) Compare(o Row) int {
	n := len(r)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := r[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(r) < len(o):
		return -1
	case len(r) > len(o):
		return 1
	}
	return 0
}

// Hash returns a combined hash of the row's datums.
func (r Row) Hash() uint64 {
	h := uint64(1469598103934665603)
	for _, d := range r {
		h ^= d.Hash()
		h *= 1099511628211
	}
	return h
}

// String renders the row for debug output.
func (r Row) String() string {
	s := "("
	for i, d := range r {
		if i > 0 {
			s += ", "
		}
		s += d.String()
	}
	return s + ")"
}
