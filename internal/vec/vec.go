// Package vec implements the typed column vectors and predicate kernels
// behind the executor's vectorized engine. A Column is one attribute of
// a morsel (at most one morsel, 4096 rows) gathered out of the row-major
// executor representation into a per-type slice (int64/float64/string)
// plus a null bitmap. Kernels evaluate a whole column against a constant
// and append a selection vector of surviving positions; the typed loops
// do it without a data-dependent branch, writing every position and
// advancing past the ones that pass. Kernels never write the columns
// they read, so goroutines may share a column (storage shares its cached
// chunk columns).
//
// Every kernel replicates the scalar executor's semantics exactly —
// datum.Compare's total order (including its NaN placement and its
// cross-kind numeric promotion through float64), NULL ⇒ UNKNOWN ⇒
// filtered, and the numeric-before-string class order — so the
// vectorized engine is byte-identical to the row engine. Columns whose
// non-null values mix kinds fall back to datum.Compare per element
// inside the kernel; the fast paths only engage on uniform columns,
// which is what table storage produces.
package vec

import (
	"unsafe"

	"onlinetuner/internal/datum"
)

// MorselRows is the executor's morsel size and the RIDs of one storage
// heap chunk, the unit the heap caches columns for; columns are sized to
// it but grow as needed.
const MorselRows = 4096

// Sel is a selection vector: positions (0-based, within one column) of
// the rows that survive a kernel. Positions are strictly increasing.
type Sel []int32

// Bitmap is a fixed-capacity null bitmap; bit i set means position i is
// NULL.
type Bitmap []uint64

// Get reports whether bit i is set.
func (b Bitmap) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// set marks bit i.
func (b Bitmap) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// sized returns a zeroed bitmap with capacity for n bits, reusing b's
// storage when possible.
func (b Bitmap) sized(n int) Bitmap {
	words := (n + 63) >> 6
	if cap(b) < words {
		return make(Bitmap, words)
	}
	b = b[:words]
	for i := range b {
		b[i] = 0
	}
	return b
}

// Column is one gathered attribute of a morsel. Exactly one of the
// typed slices is populated, chosen by Kind: I for the integer class
// (INT, DATE, BOOL — the kinds datum compares by their int64 payload),
// F for FLOAT, S for VARCHAR. Null positions hold the zero value in the
// typed slice and are marked in Nulls.
//
// Uniform reports that every non-null value has kind Kind; when false
// the typed slices are not populated and Dat holds the original datums
// for the per-element fallback. Kind is KNull when the column has no
// non-null values.
type Column struct {
	Kind     datum.Kind
	Uniform  bool
	HasNulls bool
	I        []int64
	F        []float64
	S        []string
	Nulls    Bitmap
	Dat      []datum.Datum
	n        int
}

// Len returns the number of gathered positions.
func (c *Column) Len() int { return c.n }

// intClass reports whether k stores its payload in the int64 slot and
// compares by it when both sides share the kind.
func intClass(k datum.Kind) bool {
	return k == datum.KInt || k == datum.KDate || k == datum.KBool
}

func numeric(k datum.Kind) bool { return k != datum.KString && k != datum.KNull }

// Gather fills c with column slot of the given rows, restricted to the
// positions in sel (nil = all rows). The gathered column's position k
// corresponds to rows[sel[k]] (or rows[k] when sel is nil).
func (c *Column) Gather(rows []datum.Row, slot int, sel Sel) {
	n := len(rows)
	if sel != nil {
		n = len(sel)
	}
	c.reset(n)
	at := func(k int) datum.Datum {
		if sel != nil {
			return rows[sel[k]][slot]
		}
		return rows[k][slot]
	}
	for k := 0; k < n; k++ {
		d := at(k)
		if d.IsNull() {
			c.Nulls.set(k)
			c.HasNulls = true
			c.appendZero()
			continue
		}
		if c.Kind == datum.KNull {
			c.Kind = d.Kind()
			// A leading run of nulls was buffered into I (the default
			// arm of appendZero); migrate it to the discovered kind's
			// slice so slice offsets keep matching positions.
			if c.Kind == datum.KFloat || c.Kind == datum.KString {
				for range c.I {
					c.appendZero()
				}
				c.I = c.I[:0]
			}
		} else if d.Kind() != c.Kind {
			// Mixed kinds: abandon the typed gather and refill Dat with
			// the original datums for the Compare-based fallback.
			c.Uniform = false
			c.Dat = c.Dat[:0]
			for j := 0; j < n; j++ {
				c.Dat = append(c.Dat, at(j))
			}
			return
		}
		c.appendTyped(d)
	}
}

// Select fills c with src's values at the positions in sel, the values a
// Gather of those rows holds; it keeps src's kind and uniformity, which no
// kernel tells apart. src is only read.
func (c *Column) Select(src *Column, sel Sel) {
	c.reset(len(sel))
	c.Kind, c.Uniform = src.Kind, src.Uniform
	if !src.Uniform {
		c.Dat = pick(c.Dat, src.Dat, sel)
		return
	}
	c.I, c.F, c.S = pick(c.I, src.I, sel), pick(c.F, src.F, sel), pick(c.S, src.S, sel)
	for k, i := range sel {
		if src.HasNulls && src.Nulls.Get(int(i)) {
			c.Nulls.set(k)
			c.HasNulls = true
		}
	}
}

// pick appends src[sel[0]], src[sel[1]], … to dst; an unused slice is empty.
func pick[T any](dst, src []T, sel Sel) []T {
	if len(src) == 0 {
		return dst
	}
	for _, i := range sel {
		dst = append(dst, src[i])
	}
	return dst
}

func (c *Column) reset(n int) {
	c.Kind = datum.KNull
	c.Uniform = true
	c.HasNulls = false
	c.I = c.I[:0]
	c.F = c.F[:0]
	c.S = c.S[:0]
	c.Dat = c.Dat[:0]
	c.Nulls = c.Nulls.sized(n)
	c.n = n
}

// Bytes returns the memory c's slices hold; string payloads are the rows'.
func (c *Column) Bytes() int64 {
	return int64(cap(c.I)*8+cap(c.F)*8+cap(c.Nulls)*8) +
		int64(cap(c.S))*int64(unsafe.Sizeof("")) + int64(cap(c.Dat))*int64(unsafe.Sizeof(datum.Datum{}))
}

func (c *Column) appendZero() {
	switch {
	case c.Kind == datum.KFloat:
		c.F = append(c.F, 0)
	case c.Kind == datum.KString:
		c.S = append(c.S, "")
	default:
		c.I = append(c.I, 0)
	}
}

func (c *Column) appendTyped(d datum.Datum) {
	switch c.Kind {
	case datum.KFloat:
		c.F = append(c.F, d.Float())
	case datum.KString:
		c.S = append(c.S, d.Str())
	default:
		c.I = append(c.I, d.Int())
	}
}

// DatumAt reconstructs the datum at position i. For uniform columns the
// reconstruction is exact: the typed slice holds the original payload,
// so the rebuilt datum is structurally identical to the gathered one.
func (c *Column) DatumAt(i int) datum.Datum {
	if !c.Uniform {
		return c.Dat[i]
	}
	if c.HasNulls && c.Nulls.Get(i) {
		return datum.Null
	}
	switch c.Kind {
	case datum.KInt:
		return datum.NewInt(c.I[i])
	case datum.KDate:
		return datum.NewDate(c.I[i])
	case datum.KBool:
		return datum.NewBool(c.I[i] != 0)
	case datum.KFloat:
		return datum.NewFloat(c.F[i])
	case datum.KString:
		return datum.NewString(c.S[i])
	}
	return datum.Null
}

// nullAt reports whether position i is NULL.
func (c *Column) nullAt(i int) bool {
	if !c.Uniform {
		return c.Dat[i].IsNull()
	}
	return c.HasNulls && c.Nulls.Get(i)
}

// floatAt returns position i promoted to float64 — the exact promotion
// datum.Compare and the scalar arithmetic apply across numeric kinds
// (float64(int payload), precision loss included). Valid only for
// uniform numeric columns; a null position holds 0 and must be masked by
// the caller.
func (c *Column) floatAt(i int) float64 {
	if c.Kind == datum.KFloat {
		return c.F[i]
	}
	return float64(c.I[i])
}
