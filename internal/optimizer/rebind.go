package optimizer

import (
	"math"
	"slices"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
)

// ProbeKind says how a Probe's literals enter the optimizer's arithmetic.
type ProbeKind uint8

// Probe kinds.
const (
	// ProbeEq is a `column = literal` conjunct: selEq of the literal.
	ProbeEq ProbeKind = iota
	// ProbeRange is one column's merged range bounds: selRange of the
	// pair.
	ProbeRange
	// ProbeTruth is a bare literal conjunct (a comma join's ON TRUE, or a
	// user's WHERE FALSE): bind drops it when it is TRUE and keeps it as
	// a residual otherwise.
	ProbeTruth
)

// A Probe is one place where a Generic statement's literals reach the
// optimizer. In a Generic plan literal values decide nothing but these
// numbers: which conjunct bounds a seek, which predicates stay residual
// and what the plan evaluates are fixed by the template, and every cost,
// row estimate and request field is arithmetic over the probes'
// selectivities. Two statements of one template whose probes evaluate to
// the same bits therefore optimize to the same plan shape, costs, rows
// and request tree, differing only in the literal values the plan
// carries.
type Probe struct {
	Kind       ProbeKind
	Table, Col string
	// Lo is the literal of a ProbeEq or ProbeTruth and the lower bound of
	// a ProbeRange; Hi is a ProbeRange's upper bound. An open side is nil.
	Lo, Hi       *sql.Literal
	LoInc, HiInc bool
}

// probesOf lists, in a fixed order, the probes of a Generic query.
func probesOf(bq *boundQuery) []Probe {
	ps := make([]Probe, 0, len(bq.truths)+2)
	for _, l := range bq.truths {
		ps = append(ps, Probe{Kind: ProbeTruth, Lo: l})
	}
	for _, bt := range bq.tables {
		table := bt.ref.Table
		for _, p := range bt.eqs {
			ps = append(ps, Probe{Kind: ProbeEq, Table: table, Col: p.col, Lo: litOf(p.expr)})
		}
		for _, rb := range mergeRanges(bt) {
			ps = append(ps, Probe{
				Kind: ProbeRange, Table: table, Col: rb.col,
				Lo: litOf(rb.loExpr), Hi: litOf(rb.hiExpr), LoInc: rb.loInc, HiInc: rb.hiInc,
			})
		}
	}
	return ps
}

// literalText reports whether a query's literals reach its plan as text
// rather than only as values. An unaliased select item is named after its
// expression, so `SELECT a + 1` and `SELECT a + 2` differ in their result
// columns; group keys are matched to select items and sort keys by their
// text. Such a plan is not Generic.
func literalText(sel *sql.Select) bool {
	for _, it := range sel.Items {
		if !it.Star && it.Alias == "" && hasLiteral(it.Expr) {
			return true
		}
	}
	for _, g := range sel.GroupBy {
		if hasLiteral(g) {
			return true
		}
	}
	return false
}

// hasLiteral reports whether a select-list or group-key expression
// contains a literal (rejectSubqueries keeps subqueries out of both).
func hasLiteral(e sql.Expr) bool {
	switch x := e.(type) {
	case *sql.Literal:
		return true
	case *sql.BinaryExpr:
		return hasLiteral(x.Left) || hasLiteral(x.Right)
	case *sql.NotExpr:
		return hasLiteral(x.Inner)
	case *sql.IsNullExpr:
		return hasLiteral(x.Inner)
	case *sql.LikeExpr:
		return hasLiteral(x.Expr)
	case *sql.FuncExpr:
		return x.Arg != nil && hasLiteral(x.Arg)
	}
	return false
}

// isTrue is bind's test for a bare literal conjunct it may drop.
func isTrue(v datum.Datum) bool { return v.Kind() == datum.KBool && v.Bool() }

// A SlotProbe is a Probe whose literals are resolved to binding slots —
// positions in a statement fingerprint's Bindings — so it can be
// evaluated on any statement of the template.
type SlotProbe struct {
	p      Probe
	lo, hi int // slots of p.Lo and p.Hi; -1 when absent
}

// SlotProbes resolves a Result's probes against lits, the optimized
// statement's literals in binding order. ok is false when a probe's
// literal is not among them.
func SlotProbes(ps []Probe, lits []*sql.Literal) (out []SlotProbe, ok bool) {
	ok = true
	slot := func(l *sql.Literal) int {
		if l == nil {
			return -1
		}
		i := slices.Index(lits, l)
		ok = ok && i >= 0
		return i
	}
	out = make([]SlotProbe, len(ps))
	for i, p := range ps {
		out[i] = SlotProbe{p: p, lo: slot(p.Lo), hi: slot(p.Hi)}
	}
	return out, ok
}

// Selectivities appends to dst the bits of every probe evaluated on vals,
// a statement's bindings: selEq and selRange under the current
// statistics, 1 or 0 for a truth probe. It is a plan-cache key: equal
// bits for the same template, configuration, statistics epoch and sizes
// mean a fresh optimization would return the cached plan's numbers.
func (o *Optimizer) Selectivities(ps []SlotProbe, vals []datum.Datum, dst []uint64) []uint64 {
	for _, sp := range ps {
		var s float64
		switch sp.p.Kind {
		case ProbeTruth:
			if isTrue(vals[sp.lo]) {
				s = 1
			}
		case ProbeEq:
			s = o.selEq(sp.p.Table, sp.p.Col, vals[sp.lo])
		case ProbeRange:
			var lo, hi *datum.Datum
			if sp.lo >= 0 {
				lo = &vals[sp.lo]
			}
			if sp.hi >= 0 {
				hi = &vals[sp.hi]
			}
			s = o.selRange(sp.p.Table, sp.p.Col, lo, hi, sp.p.LoInc, sp.p.HiInc)
		}
		dst = append(dst, math.Float64bits(s))
	}
	return dst
}

// Rebind produces the Result of a statement of a cached Generic plan's
// template by substituting the statement's literal bindings into a clone
// of the plan — generic-plan reuse, the "rebound" hit of the engine's
// plan cache.
//
// lits are the cached statement's literals in fingerprint (traversal)
// order; vals are the new statement's bindings in the same order. The
// cached plan shares its expression nodes with the cached statement's
// AST, so a literal's slot is found by pointer identity.
//
// Cost, rows, rule provenance and the request tree are the cached ones:
// the engine rebinds only for statements whose probes (Selectivities)
// give the bits the plan was optimized with, and for those a fresh
// optimization returns exactly these numbers.
//
// Returns (nil, false) when the plan contains a node that cannot be
// rebound (INSERT literal rows, unknown operators) — the caller then
// falls back to a fresh optimization.
func (o *Optimizer) Rebind(res *Result, lits []*sql.Literal, vals []datum.Datum) (*Result, bool) {
	if res == nil || !res.Generic || len(lits) != len(vals) {
		return nil, false
	}
	rb := &rebinder{lits: lits, vals: vals}
	node, ok := rb.node(res.Plan)
	if !ok {
		return nil, false
	}
	out := *res
	out.Plan = node
	out.FromCache, out.Rebound = true, true
	return &out, true
}

type rebinder struct {
	lits []*sql.Literal
	vals []datum.Datum
}

// expr clones an expression substituting the new binding for every
// statement literal (non-statement literals and column refs are shared).
func (rb *rebinder) expr(e sql.Expr) sql.Expr {
	return sql.MapLiterals(e, func(l *sql.Literal) sql.Expr {
		if i := slices.Index(rb.lits, l); i >= 0 {
			return &sql.Literal{Value: rb.vals[i]}
		}
		return l
	})
}

func (rb *rebinder) exprs(es []sql.Expr) []sql.Expr {
	if len(es) == 0 {
		return es
	}
	out := make([]sql.Expr, len(es))
	for i, e := range es {
		out[i] = rb.expr(e)
	}
	return out
}

// val returns the new binding for a provenance literal, or the cached
// value when the bound has no single-literal source.
func (rb *rebinder) val(l *sql.Literal, cached datum.Datum) datum.Datum {
	if i := slices.Index(rb.lits, l); i >= 0 {
		return rb.vals[i]
	}
	return cached
}

// eqVals substitutes bound values through their literal provenance; ok
// is false when the provenance was not recorded.
func (rb *rebinder) eqVals(vals []datum.Datum, lits []*sql.Literal) ([]datum.Datum, bool) {
	if len(lits) != len(vals) {
		return nil, false
	}
	if len(vals) == 0 {
		return vals, true
	}
	out := make([]datum.Datum, len(vals))
	for i, old := range vals {
		out[i] = rb.val(lits[i], old)
	}
	return out, true
}

// node deep-clones a plan subtree with literals substituted. ok=false
// means the subtree contains an operator that cannot be rebound.
func (rb *rebinder) node(n plan.Node) (plan.Node, bool) {
	switch x := n.(type) {
	case *plan.SeqScan:
		c := *x
		c.Preds = rb.exprs(x.Preds)
		return &c, true
	case *plan.IndexScan:
		c := *x
		c.Preds = rb.exprs(x.Preds)
		return &c, true
	case *plan.IndexSeek:
		eq, ok := rb.eqVals(x.EqVals, x.EqLits)
		if !ok {
			return nil, false
		}
		c := *x
		c.Preds = rb.exprs(x.Preds)
		c.EqVals = eq
		if x.Lo != nil {
			v := rb.val(x.LoLit, *x.Lo)
			c.Lo = &v
		}
		if x.Hi != nil {
			v := rb.val(x.HiLit, *x.Hi)
			c.Hi = &v
		}
		return &c, true
	case *plan.Filter:
		ch, ok := rb.node(x.Child)
		if !ok {
			return nil, false
		}
		c := *x
		c.Child = ch
		c.Preds = rb.exprs(x.Preds)
		return &c, true
	case *plan.Project:
		ch, ok := rb.node(x.Child)
		if !ok {
			return nil, false
		}
		c := *x
		c.Child = ch
		c.Exprs = rb.exprs(x.Exprs)
		return &c, true
	case *plan.Sort:
		ch, ok := rb.node(x.Child)
		if !ok {
			return nil, false
		}
		c := *x
		c.Child = ch
		keys := make([]plan.SortKey, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = plan.SortKey{Expr: rb.expr(k.Expr), Desc: k.Desc}
		}
		c.Keys = keys
		return &c, true
	case *plan.Limit:
		ch, ok := rb.node(x.Child)
		if !ok {
			return nil, false
		}
		c := *x
		c.Child = ch
		return &c, true
	case *plan.TopN:
		ch, ok := rb.node(x.Child)
		if !ok {
			return nil, false
		}
		c := *x
		c.Child = ch
		keys := make([]plan.SortKey, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = plan.SortKey{Expr: rb.expr(k.Expr), Desc: k.Desc}
		}
		c.Keys = keys
		return &c, true
	case *plan.IndexEndpoint:
		eq, ok := rb.eqVals(x.EqVals, x.EqLits)
		if !ok {
			return nil, false
		}
		c := *x
		c.EqVals = eq
		return &c, true
	case *plan.HashSemiJoin:
		l, ok := rb.node(x.Left)
		if !ok {
			return nil, false
		}
		r, ok := rb.node(x.Right)
		if !ok {
			return nil, false
		}
		c := *x
		c.Left, c.Right = l, r
		c.LeftKeys = rb.exprs(x.LeftKeys)
		c.RightKeys = rb.exprs(x.RightKeys)
		return &c, true
	case *plan.Distinct:
		ch, ok := rb.node(x.Child)
		if !ok {
			return nil, false
		}
		c := *x
		c.Child = ch
		return &c, true
	case *plan.HashAgg:
		ch, ok := rb.node(x.Child)
		if !ok {
			return nil, false
		}
		c := *x
		c.Child = ch
		c.GroupBy = rb.exprs(x.GroupBy)
		aggs := make([]plan.AggSpec, len(x.Aggs))
		for i, a := range x.Aggs {
			aggs[i] = a
			if a.Arg != nil {
				aggs[i].Arg = rb.expr(a.Arg)
			}
		}
		c.Aggs = aggs
		return &c, true
	case *plan.HashJoin:
		l, ok := rb.node(x.Left)
		if !ok {
			return nil, false
		}
		r, ok := rb.node(x.Right)
		if !ok {
			return nil, false
		}
		c := *x
		c.Left, c.Right = l, r
		c.LeftKeys = rb.exprs(x.LeftKeys)
		c.RightKeys = rb.exprs(x.RightKeys)
		return &c, true
	case *plan.MergeJoin:
		l, ok := rb.node(x.Left)
		if !ok {
			return nil, false
		}
		r, ok := rb.node(x.Right)
		if !ok {
			return nil, false
		}
		c := *x
		c.Left, c.Right = l, r
		c.LeftKeys = rb.exprs(x.LeftKeys)
		c.RightKeys = rb.exprs(x.RightKeys)
		return &c, true
	case *plan.CrossJoin:
		l, ok := rb.node(x.Left)
		if !ok {
			return nil, false
		}
		r, ok := rb.node(x.Right)
		if !ok {
			return nil, false
		}
		c := *x
		c.Left, c.Right = l, r
		return &c, true
	case *plan.INLJoin:
		outer, ok := rb.node(x.Outer)
		if !ok {
			return nil, false
		}
		c := *x
		c.Outer = outer
		c.OuterKeys = rb.exprs(x.OuterKeys)
		c.Preds = rb.exprs(x.Preds)
		return &c, true
	case *plan.UpdateNode:
		src, ok := rb.node(x.Source)
		if !ok {
			return nil, false
		}
		c := *x
		c.Source = src
		set := make([]sql.Assignment, len(x.Set))
		for i, a := range x.Set {
			set[i] = a
			set[i].Value = rb.expr(a.Value)
		}
		c.Set = set
		return &c, true
	case *plan.DeleteNode:
		src, ok := rb.node(x.Source)
		if !ok {
			return nil, false
		}
		c := *x
		c.Source = src
		return &c, true
	}
	// InsertNode (pre-evaluated literal rows) and anything unrecognized.
	return nil, false
}
