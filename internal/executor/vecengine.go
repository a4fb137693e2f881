package executor

import (
	"fmt"
	"sync"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/vec"
)

// EngineMode selects how operators evaluate predicates and expressions.
//
// The selection is adaptive per operator shape, the way coregex picks a
// regex engine per pattern: EngineAuto uses the vectorized columnar
// path for scans, filters, aggregate/join key evaluation and
// projections whenever every expression compiles to predicate kernels
// and the input is large enough to amortize the column gather;
// point-lookup seeks (IndexSeek) and order-sensitive folds (float
// SUM/AVG accumulation, DISTINCT dedup, sort merges) always stay
// sequential row-at-a-time on the coordinator, which is what keeps
// results byte-identical to the row engine at every worker count.
type EngineMode uint8

// The engine modes.
const (
	// EngineAuto picks per operator: vectorized when compilable and the
	// input has at least vecMinRows units, row otherwise.
	EngineAuto EngineMode = iota
	// EngineRow forces the scalar row-at-a-time paths everywhere.
	EngineRow
	// EngineVector forces the vectorized path whenever the expressions
	// compile to kernels (regardless of input size), row otherwise.
	EngineVector
)

// ParseEngineMode parses "auto" | "row" | "vector".
func ParseEngineMode(s string) (EngineMode, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "row":
		return EngineRow, nil
	case "vector":
		return EngineVector, nil
	}
	return EngineAuto, fmt.Errorf("executor: unknown engine mode %q (want auto|row|vector)", s)
}

// vecMinRows is the EngineAuto threshold: below this many input units
// the column gather costs more than it saves, so auto mode keeps the
// row path. The decision depends only on input size (which is
// deterministic at every worker count), never on scheduling.
const vecMinRows = 256

// vecOn decides whether an operator with n input units takes the
// vectorized path, given that its expressions compiled to kernels.
func (e *run) vecOn(n int) bool {
	switch e.mode {
	case EngineRow:
		return false
	case EngineVector:
		return true
	}
	return n >= vecMinRows
}

// ---------------------------------------------------------------------
// Vectorized predicate filters
// ---------------------------------------------------------------------

// vecPredKind enumerates the predicate kernel shapes.
type vecPredKind uint8

const (
	vpCmp     vecPredKind = iota // col op literal
	vpBetween                    // lo <= col <= hi (fused conjunct pair)
	vpIn                         // col IN (literals) (fused OR of equalities)
	vpLike                       // col [NOT] LIKE pattern
	vpIsNull                     // col IS [NOT] NULL
)

// vecPred is one compiled predicate kernel application.
type vecPred struct {
	kind vecPredKind
	slot int
	op   vec.CmpOp
	lit  datum.Datum
	lo   datum.Datum
	hi   datum.Datum
	set  []datum.Datum
	like *vec.LikeMatcher
	not  bool
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
	f.fuseBetween()
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
			f.preds = append(f.preds, vecPred{kind: vpIn, slot: slot, set: set})
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

// fuseBetween merges adjacent (col >= lo, col <= hi) kernel pairs — the
// two conjuncts BETWEEN desugars into — into one fused range kernel.
// The fusion never changes the surviving set (conjunction is order-
// independent), only the number of passes over the column.
func (f *vecFilter) fuseBetween() {
	out := f.preds[:0]
	for i := 0; i < len(f.preds); i++ {
		p := f.preds[i]
		if i+1 < len(f.preds) {
			q := f.preds[i+1]
			if p.kind == vpCmp && q.kind == vpCmp && p.slot == q.slot && p.op == vec.GE && q.op == vec.LE {
				out = append(out, vecPred{kind: vpBetween, slot: p.slot, lo: p.lit, hi: q.lit})
				i++
				continue
			}
		}
		out = append(out, p)
	}
	f.preds = out
}

// vecApply runs the filter over one morsel of rows and returns the
// selection of surviving row indices. Each conjunct reads only its own
// column over the rows still selected. Over a heap chunk (ch non-nil), one
// over all rows reads the cached column, building it on a miss; one over
// a partial selection never builds (a whole-chunk gather for a few rows).
//
// The returned selection aliases scratch storage owned by s; callers
// consume it before the next vecApply on the same scratch.
func (f *vecFilter) vecApply(s *vecScratch, rows []datum.Row, ch *storage.Chunk) vec.Sel {
	sel := s.selAll(len(rows))
	for i := range f.preds {
		if len(sel) == 0 {
			return sel
		}
		p := &f.preds[i]
		if p.kind == vpLike || p.kind == vpIsNull {
			// Row-direct: these predicates read one field per selected row
			// and gain nothing from a columnar gather (LIKE runs the same
			// matcher either way), so skipping the gather is pure savings.
			// Semantics match the MatchLike/IsNullSel kernels: NULL or a
			// non-string scrutinee is UNKNOWN under both LIKE polarities.
			next := s.selB[:0]
			for _, k := range sel {
				d := rows[k][p.slot]
				var keep bool
				if p.kind == vpLike {
					keep = d.Kind() == datum.KString && p.like.Match(d.Str()) != p.not
				} else {
					keep = d.IsNull() != p.not
				}
				if keep {
					next = append(next, k)
				}
			}
			s.selB = sel
			sel = next
			continue
		}
		col := &s.col
		switch {
		case ch == nil:
			s.col.Gather(rows, p.slot, sel)
		case len(sel) == len(rows):
			col = ch.Column(p.slot, rows)
		default:
			if cached := ch.Cached(p.slot); cached != nil {
				s.col.Select(cached, sel)
			} else {
				s.col.Gather(rows, p.slot, sel)
			}
		}
		pos := s.pos[:0]
		switch p.kind {
		case vpCmp:
			pos = vec.CmpConst(col, p.op, p.lit, pos)
		case vpBetween:
			pos = vec.BetweenConst(col, p.lo, p.hi, pos)
		case vpIn:
			pos = vec.InConst(col, p.set, pos)
		}
		s.pos = pos[:0]
		// Remap kernel positions (relative to the gathered column) back
		// to row indices through the current selection.
		next := s.selB[:0]
		for _, k := range pos {
			next = append(next, sel[k])
		}
		s.selB = sel // recycle the old selection's storage
		sel = next
	}
	return sel
}

// vecScratch is the working state of the vectorized filter: one gathered
// column and the selection ping-pong buffers.
type vecScratch struct {
	col  vec.Column
	pos  vec.Sel
	selA vec.Sel
	selB vec.Sel
}

// vecWork bundles the scratch state a vectorized morsel needs: the
// filter scratch, the expression-evaluation morsel (with its column
// pool), and a reusable row buffer for columnar scans. Works are pooled:
// a fresh scratch per morsel makes the whole engine allocation-bound —
// column gathers churn enough garbage that GC costs more than the
// kernels save, which is exactly backwards for a performance feature.
type vecWork struct {
	s    vecScratch
	m    vecMorsel
	rows []datum.Row
}

var vecWorkPool = sync.Pool{New: func() any { return new(vecWork) }}

// getVecWork borrows a scratch bundle from the pool. Results computed
// with it (selections, columns) alias pooled storage and must be
// consumed before putVecWork; datums and strings copied out of columns
// are safe to retain (they share no column-owned buffers).
func getVecWork() *vecWork { return vecWorkPool.Get().(*vecWork) }

func putVecWork(w *vecWork) { vecWorkPool.Put(w) }

// selAll returns the identity selection 0..n-1.
func (s *vecScratch) selAll(n int) vec.Sel {
	sel := s.selA[:0]
	for i := 0; i < n; i++ {
		sel = append(sel, int32(i))
	}
	s.selA = sel
	return sel
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

// vecMorsel is the shared evaluation state for one morsel: the rows, an
// optional selection, a per-slot gather cache so several expressions
// over the same column gather it once, and a pool of result columns
// reused across morsels (Column operations reset but keep capacity, so
// a recycled morsel evaluates allocation-free once warm).
type vecMorsel struct {
	rows []datum.Row
	sel  vec.Sel // nil = all rows
	cols map[int]*vec.Column
	pool []*vec.Column
	used int
}

// reset points the morsel at a new row chunk, recycling the column pool
// and the gather cache's buckets.
func (m *vecMorsel) reset(rows []datum.Row, sel vec.Sel) {
	m.rows, m.sel = rows, sel
	m.used = 0
	for k := range m.cols {
		delete(m.cols, k)
	}
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

func (m *vecMorsel) n() int {
	if m.sel != nil {
		return len(m.sel)
	}
	return len(m.rows)
}

func (m *vecMorsel) colAt(slot int) *vec.Column {
	if c, ok := m.cols[slot]; ok {
		return c
	}
	c := m.newCol()
	c.Gather(m.rows, slot, m.sel)
	if m.cols == nil {
		m.cols = make(map[int]*vec.Column, 4)
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
// morsel. ok=false means a kernel requested scalar fallback for this
// morsel (mixed kinds, non-numeric arithmetic); the caller re-evaluates
// the morsel with its scalar functions, which reproduces the scalar
// engine's values — or its errors, in its row order.
func evalVecCols(ves []vecExpr, m *vecMorsel) ([]*vec.Column, bool) {
	cols := make([]*vec.Column, len(ves))
	for i, ve := range ves {
		c, err := ve.eval(m)
		if err != nil {
			return nil, false
		}
		cols[i] = c
	}
	return cols, true
}

// projectVec evaluates projection expressions columnar and scatters the
// results into the batch row-wise. It writes nothing on fallback, so
// the caller's scalar retry starts from an empty batch.
func projectVec(ves []vecExpr, rows []datum.Row, b *datum.Batch, m *vecMorsel) bool {
	m.reset(rows, nil)
	cols, ok := evalVecCols(ves, m)
	if !ok {
		return false
	}
	for j := range rows {
		row := b.Alloc(len(cols))
		for k, c := range cols {
			row[k] = c.DatumAt(j)
		}
	}
	return true
}

// aggEvalRow is one input row after the aggregate eval stage: rendered
// group key plus evaluated aggregate arguments. The coordinator folds
// these into groups sequentially in input order.
type aggEvalRow struct {
	gkey string
	vals []datum.Datum
}

// hashAggEvalVec runs the aggregate eval stage columnar over one
// morsel: group keys render through datum.AppendKey (the exact bytes
// rowKey produces, so vectorized and scalar runs group identically) and
// aggregate arguments come from gathered columns.
func hashAggEvalVec(groupVes, argVes []vecExpr, rows []datum.Row, out []aggEvalRow, m *vecMorsel) bool {
	m.reset(rows, nil)
	gcols, ok := evalVecCols(groupVes, m)
	if !ok {
		return false
	}
	acols, ok := evalVecCols(argVes, m)
	if !ok {
		return false
	}
	// One slab for the whole morsel's argument datums instead of one
	// allocation per row; the carved slices escape into out, the slab
	// does not get reused.
	slab := make([]datum.Datum, len(rows)*len(acols))
	var buf []byte
	for j := range rows {
		buf = buf[:0]
		for _, c := range gcols {
			buf = c.DatumAt(j).AppendKey(buf)
			buf = append(buf, '\x00')
		}
		vals := slab[j*len(acols) : (j+1)*len(acols) : (j+1)*len(acols)]
		for k, c := range acols {
			vals[k] = c.DatumAt(j)
		}
		out[j] = aggEvalRow{gkey: string(buf), vals: vals}
	}
	return true
}

// joinKey is one row's rendered hash-join key; null marks a NULL key
// component (such rows never match).
type joinKey struct {
	k    string
	null bool
}

// joinKeysVec renders hash-join keys columnar over one morsel, byte-
// identical to the scalar keyOf path (AppendKey reproduces rowKey's
// bytes; NULL components short-circuit to a non-matching key).
func joinKeysVec(ves []vecExpr, rows []datum.Row, out []joinKey, m *vecMorsel) bool {
	m.reset(rows, nil)
	cols, ok := evalVecCols(ves, m)
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
