package executor

import (
	"slices"
	"sync"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/vec"
)

// vecMinRows is the engine-selection threshold: an operator whose
// expressions compile to predicate kernels takes the vectorized
// columnar path when its input has at least this many units, and the
// scalar row loop otherwise, since below it the column gather costs
// more than it saves. The decision depends only on input size (which
// is deterministic at every worker count), never on scheduling.
// Point-lookup seeks (IndexSeek) and order-sensitive folds (float
// SUM/AVG accumulation, DISTINCT dedup, sort merges) always stay
// sequential on the coordinator, which is what keeps results
// byte-identical to the reference executor at every worker count.
const vecMinRows = 256

// vecOn decides whether an operator with n input units takes the
// vectorized path, given that its expressions compiled to kernels. A
// reference executor (NewReference) never does.
func (e *run) vecOn(n int) bool { return !e.reference && n >= vecMinRows }

// ---------------------------------------------------------------------
// Vectorized predicate filters
// ---------------------------------------------------------------------

// vecPredKind enumerates the predicate kernel shapes.
type vecPredKind uint8

const (
	vpCmp    vecPredKind = iota // col op literal
	vpRange                     // lo <(=) col <(=) hi (fused conjunct pair)
	vpIn                        // col IN (literals) (fused OR of equalities)
	vpLike                      // col [NOT] LIKE pattern
	vpIsNull                    // col IS [NOT] NULL
)

// vecPred is one compiled predicate kernel application.
type vecPred struct {
	kind         vecPredKind
	slot         int
	op           vec.CmpOp
	lit          datum.Datum
	lo, hi       datum.Datum
	loInc, hiInc bool
	set          *vec.InSet
	like         *vec.LikeMatcher
	not          bool
}

// vecFilter is a conjunction of predicate kernels. It exists only when
// EVERY conjunct compiled — predicate kernels cannot error, so a
// partially-vectorized conjunction could reorder evaluation errors
// relative to the scalar engine; all-or-nothing compilation avoids that
// divergence entirely.
type vecFilter struct {
	preds []vecPred
}

// compileVecFilter compiles a conjunction of predicates to kernels.
// ok is false when any conjunct has a shape the kernels do not cover
// (the operator then uses the scalar path for the whole conjunction).
func compileVecFilter(preds []sql.Expr, schema []plan.ColRef) (*vecFilter, bool) {
	f := &vecFilter{}
	for _, p := range preds {
		if !f.add(p, schema) {
			return nil, false
		}
	}
	f.fuseRanges()
	return f, true
}

// add compiles one conjunct (splitting nested ANDs) into f.preds.
func (f *vecFilter) add(e sql.Expr, schema []plan.ColRef) bool {
	switch x := e.(type) {
	case *sql.BinaryExpr:
		switch x.Op {
		case "AND":
			return f.add(x.Left, schema) && f.add(x.Right, schema)
		case "OR":
			slot, set, ok := inSetOf(x, schema)
			if !ok {
				return false
			}
			f.preds = append(f.preds, vecPred{kind: vpIn, slot: slot, set: vec.NewInSet(set)})
			return true
		case "=", "<>", "<", "<=", ">", ">=":
			op, _ := vec.CmpOpFromString(x.Op)
			if slot, lit, ok := colLit(x.Left, x.Right, schema); ok {
				f.preds = append(f.preds, vecPred{kind: vpCmp, slot: slot, op: op, lit: lit})
				return true
			}
			if slot, lit, ok := colLit(x.Right, x.Left, schema); ok {
				// literal op col: flip to col flipped(op) literal.
				f.preds = append(f.preds, vecPred{kind: vpCmp, slot: slot, op: flipCmp(op), lit: lit})
				return true
			}
			return false
		}
		return false
	case *sql.LikeExpr:
		cr, ok := x.Expr.(*sql.ColumnRef)
		if !ok {
			return false
		}
		slot, err := lookup(schema, cr.Table, cr.Column)
		if err != nil {
			return false
		}
		f.preds = append(f.preds, vecPred{kind: vpLike, slot: slot, like: vec.NewLikeMatcher(x.Pattern), not: x.Not})
		return true
	case *sql.IsNullExpr:
		cr, ok := x.Inner.(*sql.ColumnRef)
		if !ok {
			return false
		}
		slot, err := lookup(schema, cr.Table, cr.Column)
		if err != nil {
			return false
		}
		f.preds = append(f.preds, vecPred{kind: vpIsNull, slot: slot, not: x.Not})
		return true
	}
	return false
}

// colLit matches the (ColumnRef, Literal) operand shape.
func colLit(l, r sql.Expr, schema []plan.ColRef) (int, datum.Datum, bool) {
	cr, ok := l.(*sql.ColumnRef)
	if !ok {
		return 0, datum.Null, false
	}
	lit, ok := r.(*sql.Literal)
	if !ok {
		return 0, datum.Null, false
	}
	slot, err := lookup(schema, cr.Table, cr.Column)
	if err != nil {
		return 0, datum.Null, false
	}
	return slot, lit.Value, true
}

// flipCmp mirrors an operator across swapped operands (5 < col ≡ col > 5).
func flipCmp(op vec.CmpOp) vec.CmpOp {
	switch op {
	case vec.LT:
		return vec.GT
	case vec.LE:
		return vec.GE
	case vec.GT:
		return vec.LT
	case vec.GE:
		return vec.LE
	}
	return op // EQ, NE are symmetric
}

// inSetOf matches an OR-tree of equalities on one column — the shape IN
// lists desugar into — and returns the column slot and member set.
func inSetOf(e sql.Expr, schema []plan.ColRef) (int, []datum.Datum, bool) {
	var slot = -1
	var set []datum.Datum
	var walk func(sql.Expr) bool
	walk = func(e sql.Expr) bool {
		be, ok := e.(*sql.BinaryExpr)
		if !ok {
			return false
		}
		switch be.Op {
		case "OR":
			return walk(be.Left) && walk(be.Right)
		case "=":
			s, lit, ok := colLit(be.Left, be.Right, schema)
			if !ok {
				s, lit, ok = colLit(be.Right, be.Left, schema)
			}
			if !ok || (slot >= 0 && s != slot) {
				return false
			}
			slot = s
			set = append(set, lit)
			return true
		}
		return false
	}
	if !walk(e) || slot < 0 {
		return -1, nil, false
	}
	return slot, set, true
}

// fuseRanges merges each lower-bound comparison (col > lo, col >= lo)
// with the next upper-bound one (col < hi, col <= hi) on the same column,
// in either order, into one range kernel where the first of the two
// stood: BETWEEN's two conjuncts and a half-open lo <= col < hi alike.
// Conjunction is order-independent and kernels cannot error, so fusing
// changes only the number of passes over the column, never the result.
func (f *vecFilter) fuseRanges() {
	fused := make([]bool, len(f.preds))
	out := f.preds[:0]
	for i, p := range f.preds {
		if fused[i] {
			continue
		}
		if side := p.boundSide(); side != 0 {
			for j := i + 1; j < len(f.preds); j++ {
				if q := f.preds[j]; !fused[j] && q.slot == p.slot && q.boundSide() == -side {
					fused[j] = true
					if side < 0 {
						p, q = q, p
					}
					p = vecPred{kind: vpRange, slot: p.slot, lo: p.lit, loInc: p.op == vec.GE, hi: q.lit, hiInc: q.op == vec.LE}
					break
				}
			}
		}
		out = append(out, p)
	}
	f.preds = out
}

// boundSide is +1 for a lower-bound comparison (col > lit, col >= lit),
// -1 for an upper-bound one (col < lit, col <= lit) and 0 otherwise.
func (p *vecPred) boundSide() int {
	if p.kind != vpCmp {
		return 0
	}
	switch p.op {
	case vec.GT, vec.GE:
		return 1
	case vec.LT, vec.LE:
		return -1
	}
	return 0
}

// kernelSlots returns the table columns the kernels read (LIKE and IS
// NULL conjuncts read rows) and whether some conjunct reads rows.
func (f *vecFilter) kernelSlots() (slots []int, rowDirect bool) {
	for _, p := range f.preds {
		if p.kind == vpLike || p.kind == vpIsNull {
			rowDirect = true
		} else {
			slots = append(slots, p.slot)
		}
	}
	return slots, rowDirect
}

// vecApply runs the filter over all rows of one morsel and narrows the
// morsel to the survivors. The first kernel conjunct reads whole columns
// (a heap chunk's column — the cached one, or one gathered from the rows
// and published — or one gathered from a materialized child's rows) and
// writes row indices directly. Each later conjunct reads its column over
// the rows still selected (Column.Select of a chunk's column, or a gather
// through the selection) and maps the positions it keeps back to row
// indices. A filter without conjuncts keeps every row.
//
// The morsel's selection aliases scratch storage owned by s; callers
// consume it before the next vecApply on the same scratch.
func (f *vecFilter) vecApply(s *vecScratch, m *vecMorsel) {
	all := true // every row still selected; sel is not built yet
	sel := s.sel[:0]
	for i := range f.preds {
		if m.total == 0 || !all && len(sel) == 0 {
			break
		}
		p := &f.preds[i]
		out := s.next[:0]
		if p.kind == vpLike || p.kind == vpIsNull {
			// Row-direct: these predicates read one field per selected row
			// and gain nothing from a columnar gather (LIKE runs the same
			// matcher either way), so skipping the gather is pure savings.
			// Semantics match the MatchLike/IsNullSel kernels: NULL or a
			// non-string scrutinee is UNKNOWN under both LIKE polarities.
			n := m.total
			if !all {
				n = len(sel)
			}
			for j := range n {
				k := int32(j)
				if !all {
					k = sel[j]
				}
				d := m.rows[k][p.slot]
				var keep bool
				if p.kind == vpLike {
					keep = d.Kind() == datum.KString && p.like.Match(d.Str()) != p.not
				} else {
					keep = d.IsNull() != p.not
				}
				if keep {
					out = append(out, k)
				}
			}
		} else {
			col := &s.col
			switch {
			case all && m.ch != nil:
				col = m.chunkCol(p.slot)
			case all:
				s.col.Gather(m.rows, p.slot, nil)
			case m.ch != nil:
				s.col.Select(m.chunkCol(p.slot), sel)
			default:
				s.col.Gather(m.rows, p.slot, sel)
			}
			switch p.kind {
			case vpCmp:
				out = vec.CmpConst(col, p.op, p.lit, out)
			case vpRange:
				out = vec.RangeConst(col, p.lo, p.loInc, p.hi, p.hiInc, out)
			case vpIn:
				out = vec.InConst(col, p.set, out)
			}
			if !all {
				// Kernel positions index the selected rows' column: map
				// them back to row indices, in place.
				for j, k := range out {
					out[j] = sel[k]
				}
			}
		}
		s.next, sel, all = sel, out, false
	}
	s.sel = sel
	if all {
		m.sel, m.full = nil, true
		return
	}
	m.selectRows(sel)
}

// vecScratch is the working state of the vectorized filter: one gathered
// column and the selection ping-pong buffers.
type vecScratch struct {
	col       vec.Column
	sel, next vec.Sel
}

// vecWork bundles the scratch state a vectorized morsel needs: the
// filter scratch, the expression-evaluation morsel (with its column
// pool), a reusable row buffer for heap chunk reads, and a hash
// aggregate's morsel state. Works are pooled:
// a fresh scratch per morsel makes the whole engine allocation-bound —
// column gathers churn enough garbage that GC costs more than the
// kernels save, which is exactly backwards for a performance feature.
type vecWork struct {
	s    vecScratch
	m    vecMorsel
	rows []datum.Row
	agg  aggMorsel
}

var vecWorkPool = sync.Pool{New: func() any { return new(vecWork) }}

// getVecWork borrows a scratch bundle from the pool. Results computed
// with it (selections, columns) alias pooled storage and must be
// consumed before putVecWork; datums and strings copied out of columns
// are safe to retain (they share no column-owned buffers).
func getVecWork() *vecWork { return vecWorkPool.Get().(*vecWork) }

// putVecWork returns w to the pool, dropping its references to rows, a
// heap chunk, its columns and an aggregate's keys and values: a pooled
// bundle keeps no table alive.
func putVecWork(w *vecWork) {
	m := &w.m
	m.rows, m.ch, m.chv = nil, nil, storage.Chunk{}
	clear(m.chunk)
	clear(m.cols)
	clear(w.rows)
	w.agg.release()
	vecWorkPool.Put(w)
}

// ---------------------------------------------------------------------
// Vectorized expression evaluation (projection, join/agg keys)
// ---------------------------------------------------------------------

// vecExpr is a compiled column-at-a-time expression. eval returns a
// column of results over the morsel's selected rows; vec.ErrFallback
// means this morsel needs per-row scalar evaluation (mixed kinds or a
// type error the scalar engine must raise in row order).
type vecExpr interface {
	eval(m *vecMorsel) (*vec.Column, error)
}

// vecMorsel is one morsel as an operator evaluates it. Its rows are a
// materialized child's output, all selected (ch nil), or one heap chunk
// read through its scan's filter (ch non-nil). full tells a complete
// selection apart from a partial one, which may be empty: a nil sel never
// means "all rows". A heap chunk's expressions read the chunk's columns,
// and its rows are copied only when a column had to be gathered from them
// or something evaluates rows (rows nil otherwise). The morsel memoizes
// each slot's column, so several expressions over one column read it
// once, and keeps a pool of result columns reused across morsels (Column
// operations reset but keep capacity, so a recycled morsel evaluates
// allocation-free once warm).
type vecMorsel struct {
	rows  []datum.Row
	total int     // rows in the morsel before the selection
	sel   vec.Sel // the selected row indices when !full
	full  bool
	ch    *storage.Chunk
	chv   storage.Chunk
	chunk []*vec.Column // ch's columns by table slot; nil = not read yet
	cols  []*vec.Column // colAt's columns by slot, this morsel
	pool  []*vec.Column
	used  int
}

// reset points the morsel at a materialized child's rows, all selected,
// recycling the column pool and the memo.
func (m *vecMorsel) reset(rows []datum.Row) {
	m.rows, m.total, m.sel, m.full, m.ch = rows, len(rows), nil, true, nil
	m.used = 0
	clear(m.cols)
}

// readChunk points the morsel at heap chunk i, all selected, reading the
// listed table columns' cached chunk columns in the same lock round; its
// rows are copied into buf when withRows is set or a listed column is not
// cached.
func (m *vecMorsel) readChunk(h *storage.Heap, i, width int, slots []int, withRows bool, buf []datum.Row) {
	m.chunk = slices.Grow(m.chunk[:0], width)[:width]
	clear(m.chunk)
	ch, n, rows := h.ReadChunk(i, slots, m.chunk, withRows, buf)
	m.reset(rows)
	m.chv, m.ch, m.total = ch, &m.chv, n
}

// selectRows narrows the morsel to the filter's selection.
func (m *vecMorsel) selectRows(sel vec.Sel) {
	if m.full = len(sel) == m.total; m.full {
		sel = nil
	}
	m.sel = sel
}

// n returns the number of selected rows.
func (m *vecMorsel) n() int {
	if m.full {
		return m.total
	}
	return len(m.sel)
}

// row returns the j-th selected row; the rows must be at hand.
func (m *vecMorsel) row(j int) datum.Row {
	if m.full {
		return m.rows[j]
	}
	return m.rows[m.sel[j]]
}

// newCol hands out a pooled column for this morsel's next result.
func (m *vecMorsel) newCol() *vec.Column {
	if m.used == len(m.pool) {
		m.pool = append(m.pool, &vec.Column{})
	}
	c := m.pool[m.used]
	m.used++
	return c
}

// chunkCol returns the heap chunk's column of a table slot: the one read
// with the chunk, or one gathered from the chunk's rows and published.
// The chunk's rows are at hand whenever a read column was not cached.
func (m *vecMorsel) chunkCol(slot int) *vec.Column {
	if c := m.chunk[slot]; c != nil {
		return c
	}
	c := m.ch.Column(slot, m.rows)
	m.chunk[slot] = c
	return c
}

// colAt returns the selected rows' values of a slot: a heap chunk's
// column itself under a full selection, Column.Select of it under a
// partial one, and a gather only over a materialized child's rows.
func (m *vecMorsel) colAt(slot int) *vec.Column {
	if slot < len(m.cols) && m.cols[slot] != nil {
		return m.cols[slot]
	}
	var c *vec.Column
	switch {
	case m.ch == nil:
		c = m.newCol()
		c.Gather(m.rows, slot, nil)
	case m.full:
		c = m.chunkCol(slot)
	default:
		c = m.newCol()
		c.Select(m.chunkCol(slot), m.sel)
	}
	if slot >= len(m.cols) {
		m.cols = slices.Grow(m.cols, slot+1-len(m.cols))[:slot+1]
	}
	m.cols[slot] = c
	return c
}

type veCol struct{ slot int }

func (v veCol) eval(m *vecMorsel) (*vec.Column, error) { return m.colAt(v.slot), nil }

type veLit struct {
	d datum.Datum
}

func (v veLit) eval(m *vecMorsel) (*vec.Column, error) {
	c := m.newCol()
	c.Broadcast(v.d, m.n())
	return c, nil
}

type veArith struct {
	op   byte
	l, r vecExpr
}

func (v veArith) eval(m *vecMorsel) (*vec.Column, error) {
	l, err := v.l.eval(m)
	if err != nil {
		return nil, err
	}
	r, err := v.r.eval(m)
	if err != nil {
		return nil, err
	}
	out := m.newCol()
	if err := vec.Arith(v.op, l, r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// compileVecExpr compiles an expression to its column form. Division is
// never vectorized (its by-zero error must surface in scalar row
// order); comparisons and boolean operators are filter shapes, not
// projection shapes, and fall back too.
func compileVecExpr(e sql.Expr, schema []plan.ColRef) (vecExpr, bool) {
	switch x := e.(type) {
	case *sql.ColumnRef:
		slot, err := lookup(schema, x.Table, x.Column)
		if err != nil {
			return nil, false
		}
		return veCol{slot: slot}, true
	case *sql.Literal:
		return veLit{d: x.Value}, true
	case *sql.BinaryExpr:
		switch x.Op {
		case "+", "-", "*":
			l, ok := compileVecExpr(x.Left, schema)
			if !ok {
				return nil, false
			}
			r, ok := compileVecExpr(x.Right, schema)
			if !ok {
				return nil, false
			}
			return veArith{op: x.Op[0], l: l, r: r}, true
		}
	}
	return nil, false
}

// compileVecExprs compiles a list all-or-nothing.
func compileVecExprs(exprs []sql.Expr, schema []plan.ColRef) ([]vecExpr, bool) {
	out := make([]vecExpr, len(exprs))
	for i, e := range exprs {
		ve, ok := compileVecExpr(e, schema)
		if !ok {
			return nil, false
		}
		out[i] = ve
	}
	return out, true
}

// evalVecCols evaluates a set of expressions column-at-a-time over one
// morsel, appending the result columns to dst[:0]; a nil expression
// yields a nil column. ok=false means a kernel requested scalar fallback
// for this morsel (mixed kinds, non-numeric arithmetic); the caller
// re-evaluates the morsel with its scalar functions, which reproduces the
// scalar engine's values — or its errors, in its row order.
func evalVecCols(dst []*vec.Column, ves []vecExpr, m *vecMorsel) ([]*vec.Column, bool) {
	dst = dst[:0]
	if m.n() == 0 {
		return dst, true // nothing to evaluate, and no column to read
	}
	for _, ve := range ves {
		if ve == nil {
			dst = append(dst, nil)
			continue
		}
		c, err := ve.eval(m)
		if err != nil {
			return dst, false
		}
		dst = append(dst, c)
	}
	return dst, true
}

// projectVec evaluates projection expressions columnar over the morsel's
// selected rows and scatters the results into the batch row-wise. It
// writes nothing on fallback, so the caller's scalar retry starts from an
// empty batch.
func projectVec(ves []vecExpr, b *datum.Batch, m *vecMorsel) bool {
	cols, ok := evalVecCols(nil, ves, m)
	if !ok {
		return false
	}
	for j := range m.n() {
		row := b.Alloc(len(cols))
		for k, c := range cols {
			row[k] = c.DatumAt(j)
		}
	}
	return true
}

// hashAggEvalVec runs the aggregate eval stage columnar over the morsel's
// selected rows into am, reset for them: group ids from the group key
// columns (see groupIDs) and one argument column per aggregate, which the
// coordinator folds from am.cols. It assigns no group id on fallback, so
// the caller's scalar retry starts from an empty morsel.
func hashAggEvalVec(groupVes, argVes []vecExpr, am *aggMorsel, m *vecMorsel) bool {
	gcols, ok := evalVecCols(am.gcols, groupVes, m)
	am.gcols = gcols
	if !ok {
		return false
	}
	cols, ok := evalVecCols(am.cols, argVes, m)
	am.cols = cols
	if !ok {
		return false
	}
	am.vec = true
	am.groupIDs(gcols, m.n())
	return true
}

// typedKeys bounds the distinct keys groupIDs looks up in a morsel's
// string key column, by a linear scan; the rows after the one that brings
// a further key render their keys instead.
const typedKeys = 16

// groupIDs assigns the morsel's n rows their group ids from the group
// key columns. Without GROUP BY every row is in the one group, whose key
// renders empty. A single uniform, NULL-free VARCHAR column is read from
// its strings, each distinct value rendered once, when it first appears —
// a uniform column's values map one to one onto their rendered keys, so
// ids and keys are exactly those of rendering every row. Any other shape
// renders each row's key through datum.AppendKey, the bytes the scalar
// path renders.
func (am *aggMorsel) groupIDs(gcols []*vec.Column, n int) {
	if n == 0 {
		return
	}
	j := 0
	switch {
	case len(gcols) == 0:
		clear(am.gid)
		am.keys = append(am.keys, "")
		return
	case len(gcols) == 1 && gcols[0].Uniform && !gcols[0].HasNulls && gcols[0].Kind == datum.KString:
		j = stringIDs(am, gcols[0].S[:n])
		if j == n {
			return
		}
		if j > 0 {
			am.index() // the rendered path looks the typed keys up too
		}
	}
	for ; j < n; j++ {
		buf := am.buf[:0]
		for _, c := range gcols {
			buf = c.DatumAt(j).AppendKey(buf)
			buf = append(buf, '\x00')
		}
		am.buf = buf
		am.gid[j] = am.groupID(buf)
	}
}

// stringIDs assigns rows their group ids by their VARCHAR key values,
// kept in first-appearance order for a linear scan, and renders each new
// value once. It returns the rows it assigned: all of them, or those
// before the row bringing key typedKeys+1.
func stringIDs(am *aggMorsel, vals []string) int {
	var seen [typedKeys]string
	d := 0
	for j, v := range vals {
		id := 0
		for id < d && seen[id] != v {
			id++
		}
		if id == d {
			if d == typedKeys {
				return j
			}
			seen[d] = v
			d++
			am.buf = append(datum.NewString(v).AppendKey(am.buf[:0]), '\x00')
			am.keys = append(am.keys, string(am.buf))
		}
		am.gid[j] = int32(id)
	}
	return len(vals)
}

// joinKey is one row's rendered hash-join key; null marks a NULL key
// component (such rows never match).
type joinKey struct {
	k    string
	null bool
}

// joinKeysVec renders hash-join keys columnar over one morsel of rows,
// byte-identical to the scalar keyOf path (AppendKey reproduces rowKey's
// bytes; NULL components short-circuit to a non-matching key).
func joinKeysVec(ves []vecExpr, rows []datum.Row, out []joinKey, m *vecMorsel) bool {
	m.reset(rows)
	cols, ok := evalVecCols(nil, ves, m)
	if !ok {
		return false
	}
	var buf []byte
	for j := range rows {
		buf = buf[:0]
		null := false
		for _, c := range cols {
			d := c.DatumAt(j)
			if d.IsNull() {
				null = true
				break
			}
			buf = d.AppendKey(buf)
			buf = append(buf, '\x00')
		}
		out[j] = joinKey{k: string(buf), null: null}
	}
	return true
}
