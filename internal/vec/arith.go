package vec

import (
	"errors"

	"onlinetuner/internal/datum"
)

// ErrFallback tells the caller to re-evaluate the morsel through the
// scalar path: the operand kinds need per-row handling (mixed-kind
// columns, non-numeric operands whose error the scalar engine must
// raise in exact row order, or an operator the kernels do not cover).
var ErrFallback = errors.New("vec: scalar fallback required")

// Arith computes out[i] = a[i] op b[i] for op in +, -, * with the
// scalar engine's exact semantics: NULL propagates, INT op INT stays
// int64 (wrapping like the scalar engine's int64 arithmetic), every
// other numeric pairing promotes both sides through Float(). Division
// is never vectorized (its by-zero error must surface in scalar row
// order), and any non-numeric operand returns ErrFallback so the
// scalar path can raise its type error at the exact offending row.
//
// Both inputs must be gathered over the same positions; len(a) ==
// len(b).
func Arith(op byte, a, b *Column, out *Column) error {
	if op != '+' && op != '-' && op != '*' {
		return ErrFallback
	}
	if !a.Uniform || !b.Uniform {
		return ErrFallback
	}
	n := a.n
	// An all-NULL side makes every result NULL (NULL propagates before
	// the scalar engine ever checks operand kinds).
	if a.Kind == datum.KNull || b.Kind == datum.KNull {
		out.reset(n)
		out.Kind = datum.KNull
		out.HasNulls = n > 0
		for i := 0; i < n; i++ {
			out.Nulls.set(i)
			out.I = append(out.I, 0)
		}
		return nil
	}
	if !numeric(a.Kind) || !numeric(b.Kind) {
		return ErrFallback
	}
	out.reset(n)
	if a.Kind == datum.KInt && b.Kind == datum.KInt {
		out.Kind = datum.KInt
		for i := 0; i < n; i++ {
			if a.nullAt(i) || b.nullAt(i) {
				out.Nulls.set(i)
				out.HasNulls = true
				out.I = append(out.I, 0)
				continue
			}
			switch op {
			case '+':
				out.I = append(out.I, a.I[i]+b.I[i])
			case '-':
				out.I = append(out.I, a.I[i]-b.I[i])
			default:
				out.I = append(out.I, a.I[i]*b.I[i])
			}
		}
		return nil
	}
	out.Kind = datum.KFloat
	for i := 0; i < n; i++ {
		if a.nullAt(i) || b.nullAt(i) {
			out.Nulls.set(i)
			out.HasNulls = true
			out.F = append(out.F, 0)
			continue
		}
		af, bf := a.floatAt(i), b.floatAt(i)
		switch op {
		case '+':
			out.F = append(out.F, af+bf)
		case '-':
			out.F = append(out.F, af-bf)
		default:
			out.F = append(out.F, af*bf)
		}
	}
	return nil
}

// Broadcast fills c with n copies of d — the column form of a literal
// operand.
func (c *Column) Broadcast(d datum.Datum, n int) {
	c.reset(n)
	if d.IsNull() {
		c.Kind = datum.KNull
		c.HasNulls = n > 0
		for i := 0; i < n; i++ {
			c.Nulls.set(i)
			c.I = append(c.I, 0)
		}
		return
	}
	c.Kind = d.Kind()
	for i := 0; i < n; i++ {
		c.appendTyped(d)
	}
}
