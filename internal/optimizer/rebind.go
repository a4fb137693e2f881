package optimizer

import (
	"math"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
)

// Rebind produces a Result for a statement that fingerprints to the same
// template as a cached one, by substituting the new literal bindings
// into a clone of the cached plan — generic-plan reuse, the "rebound"
// tier of the engine's plan cache.
//
// lits are the cached statement's literals in fingerprint (traversal)
// order; vals are the new statement's bindings in the same order. The
// cached plan shares its expression nodes with the cached statement's
// AST, so a literal's slot is found by pointer identity.
//
// Only plans marked Generic are eligible (see genericPreds): for those,
// swapping literal values cannot change which predicates the plan
// evaluates, so the rebound plan returns exactly the rows a fresh
// optimization would — though possibly via a different access path than
// the fresh optimizer would now pick, the usual generic-plan trade.
// Seek nodes are re-costed cheaply by scaling with the selectivity
// ratio of the new bounds over the old; interior estimates keep their
// template values.
//
// Returns (nil, false) when the plan contains a node that cannot be
// rebound (INSERT literal rows, unknown operators) — the caller then
// falls back to a fresh optimization.
func (o *Optimizer) Rebind(res *Result, lits []*sql.Literal, vals []datum.Datum) (*Result, bool) {
	if res == nil || !res.Generic || len(lits) != len(vals) {
		return nil, false
	}
	rb := &rebinder{o: o, slot: make(map[*sql.Literal]int, len(lits)), vals: vals}
	for i, l := range lits {
		rb.slot[l] = i
	}
	node, ok := rb.node(res.Plan)
	if !ok {
		return nil, false
	}
	return &Result{
		Plan:      node,
		Tree:      res.Tree,
		Cost:      math.Max(0, res.Cost+rb.costDelta),
		Rows:      res.Rows,
		Generic:   true,
		FromCache: true,
		Rebound:   true,
	}, true
}

type rebinder struct {
	o    *Optimizer
	slot map[*sql.Literal]int
	vals []datum.Datum
	// costDelta accumulates the re-costing adjustments of the seek
	// leaves, applied to the Result's total.
	costDelta float64
}

// expr clones an expression substituting the new binding for every
// statement literal (non-statement literals and column refs are shared).
func (rb *rebinder) expr(e sql.Expr) sql.Expr {
	return sql.MapLiterals(e, func(l *sql.Literal) sql.Expr {
		if i, ok := rb.slot[l]; ok {
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
	if l != nil {
		if i, ok := rb.slot[l]; ok {
			return rb.vals[i]
		}
	}
	return cached
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
		return rb.seek(x)
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
		// Endpoint cost is two bounded seeks regardless of the equality
		// bindings, so only the bound values need substitution.
		if len(x.EqLits) != len(x.EqVals) {
			return nil, false
		}
		c := *x
		eq := make([]datum.Datum, len(x.EqVals))
		for i, old := range x.EqVals {
			eq[i] = rb.val(x.EqLits[i], old)
		}
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

// seek rebinds an IndexSeek's bound values through their literal
// provenance and re-costs the node by the selectivity ratio of the new
// bounds over the cached ones.
func (rb *rebinder) seek(x *plan.IndexSeek) (plan.Node, bool) {
	c := *x
	c.Preds = rb.exprs(x.Preds)
	table := x.Index.Table
	oldSel, newSel := 1.0, 1.0

	if len(x.EqVals) > 0 {
		if len(x.EqLits) != len(x.EqVals) {
			return nil, false
		}
		eq := make([]datum.Datum, len(x.EqVals))
		for i, old := range x.EqVals {
			nv := rb.val(x.EqLits[i], old)
			eq[i] = nv
			col := x.Index.Columns[i]
			oldSel *= rb.o.selEq(table, col, old)
			newSel *= rb.o.selEq(table, col, nv)
		}
		c.EqVals = eq
	}
	if x.Lo != nil || x.Hi != nil {
		if x.Lo != nil {
			v := rb.val(x.LoLit, *x.Lo)
			c.Lo = &v
		}
		if x.Hi != nil {
			v := rb.val(x.HiLit, *x.Hi)
			c.Hi = &v
		}
		if len(x.EqVals) < len(x.Index.Columns) {
			col := x.Index.Columns[len(x.EqVals)]
			oldSel *= rb.o.selRange(table, col, x.Lo, x.Hi, x.LoInc, x.HiInc)
			newSel *= rb.o.selRange(table, col, c.Lo, c.Hi, x.LoInc, x.HiInc)
		}
	}

	if oldSel > 0 && newSel != oldSel {
		ratio := newSel / oldSel
		c.Cost = x.Cost * ratio
		c.Rows = math.Max(1, x.Rows*ratio)
		rb.costDelta += c.Cost - x.Cost
	}
	return &c, true
}
