package optimizer

import (
	"fmt"
	"math"
	"strings"

	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/whatif"
)

// This file implements subquery unnesting: IN (SELECT ...) and
// EXISTS (SELECT ...) conjuncts (and their negations) are flattened into
// hash semi/anti joins on top of the outer join tree. Unnesting is the
// only execution strategy the engine has for subqueries, so it runs in
// every rule setting; the RuleUnnest bit gates only the inner side's
// index-aware access path and its what-if request capture. Because the
// semi-join filters the probe stream in order and its build side is a
// set (insertion order irrelevant), toggling the rule can never change
// results — only cost.

// semiSpec is one unnested subquery conjunct, ready to become a hash
// semi/anti join above the outer join tree.
type semiSpec struct {
	probe     []sql.Expr  // outer-side key expressions, noted as required
	innerKeys []sql.Expr  // inner-side key columns (resolved, qualified)
	innerBQ   *boundQuery // single-table inner pseudo-query
	anti      bool        // NOT IN / NOT EXISTS
	nullAware bool        // NOT IN only: NULLs in the build set poison the anti-join
}

func (sp *semiSpec) innerBT() *boundTable { return sp.innerBQ.tables[0] }

// stripSubqueries splits the top-level WHERE conjuncts into subquery
// conjuncts and the rest. The returned select is a shallow copy with the
// subquery conjuncts removed; the original statement is never mutated.
func stripSubqueries(sel *sql.Select) (*sql.Select, []sql.Expr) {
	conjs := splitConjuncts(sel.Where)
	var subs, rest []sql.Expr
	for _, c := range conjs {
		if isSubqueryConjunct(c) {
			subs = append(subs, c)
		} else {
			rest = append(rest, c)
		}
	}
	if len(subs) == 0 {
		return sel, nil
	}
	out := *sel
	out.Where = andAll(rest)
	return &out, subs
}

// isSubqueryConjunct matches the three supported top-level shapes:
// [NOT] IN (SELECT ...), EXISTS (...), NOT EXISTS (...).
func isSubqueryConjunct(e sql.Expr) bool {
	switch x := e.(type) {
	case *sql.InSubquery, *sql.ExistsExpr:
		return true
	case *sql.NotExpr:
		_, ok := x.Inner.(*sql.ExistsExpr)
		return ok
	}
	return false
}

// andAll rebuilds a conjunction (nil for the empty list).
func andAll(es []sql.Expr) sql.Expr {
	var out sql.Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &sql.BinaryExpr{Op: "AND", Left: out, Right: e}
		}
	}
	return out
}

// rejectSubqueries errors when a subquery survives anywhere the planner
// cannot unnest it: below OR/NOT in WHERE, in join conditions, or in the
// select/group/order lists.
func rejectSubqueries(sel *sql.Select) error {
	check := func(e sql.Expr, where string) error {
		if containsSubquery(e) {
			return fmt.Errorf("optimizer: subqueries are only supported as top-level WHERE conjuncts (found in %s)", where)
		}
		return nil
	}
	for _, it := range sel.Items {
		if !it.Star {
			if err := check(it.Expr, "select list"); err != nil {
				return err
			}
		}
	}
	for _, j := range sel.Joins {
		if err := check(j.On, "join condition"); err != nil {
			return err
		}
	}
	if err := check(sel.Where, "WHERE"); err != nil {
		return err
	}
	for _, g := range sel.GroupBy {
		if err := check(g, "GROUP BY"); err != nil {
			return err
		}
	}
	for _, oi := range sel.OrderBy {
		if err := check(oi.Expr, "ORDER BY"); err != nil {
			return err
		}
	}
	return nil
}

// containsSubquery reports whether a subquery node appears anywhere in
// the expression (the subquery's own contents are not walked: a nested
// subquery inside a subquery is caught when the inner one is analyzed).
func containsSubquery(e sql.Expr) bool {
	found := false
	var walk func(sql.Expr)
	walk = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.InSubquery, *sql.ExistsExpr:
			found = true
		case *sql.BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *sql.NotExpr:
			walk(x.Inner)
		case *sql.IsNullExpr:
			walk(x.Inner)
		case *sql.LikeExpr:
			walk(x.Expr)
		case *sql.FuncExpr:
			if x.Arg != nil {
				walk(x.Arg)
			}
		}
	}
	if e != nil {
		walk(e)
	}
	return found
}

// analyzeSubquery turns one subquery conjunct into a semiSpec, binding
// the inner query and noting the outer probe columns as required. This
// must run before outer access paths are chosen.
func (o *Optimizer) analyzeSubquery(bq *boundQuery, e sql.Expr) (*semiSpec, error) {
	switch x := e.(type) {
	case *sql.InSubquery:
		return o.analyzeIn(bq, x)
	case *sql.ExistsExpr:
		return o.analyzeExists(bq, x, false)
	case *sql.NotExpr:
		return o.analyzeExists(bq, x.Inner.(*sql.ExistsExpr), true)
	}
	return nil, fmt.Errorf("optimizer: unsupported subquery conjunct %T", e)
}

// analyzeIn handles expr [NOT] IN (SELECT col FROM t WHERE ...): the
// inner query must be a fully uncorrelated single-table, single-column
// select. NOT IN becomes a null-aware anti join.
func (o *Optimizer) analyzeIn(bq *boundQuery, x *sql.InSubquery) (*semiSpec, error) {
	q := x.Query
	if len(q.Joins) > 0 || len(q.GroupBy) > 0 || q.Distinct || q.Limit >= 0 || len(q.OrderBy) > 0 {
		return nil, fmt.Errorf("optimizer: IN subquery must be a plain single-table select")
	}
	if len(q.Items) != 1 || q.Items[0].Star {
		return nil, fmt.Errorf("optimizer: IN subquery must select exactly one column")
	}
	keyCR, ok := q.Items[0].Expr.(*sql.ColumnRef)
	if !ok {
		return nil, fmt.Errorf("optimizer: IN subquery must select a plain column, got %s", q.Items[0].Expr)
	}
	if containsSubquery(q.Where) || containsSubquery(x.Left) {
		return nil, fmt.Errorf("optimizer: nested subqueries are not supported")
	}

	// Bind the inner as a standalone single-table select; any outer
	// reference in its WHERE fails to resolve there, which is exactly the
	// "must be uncorrelated" restriction.
	pseudo := &sql.Select{
		Items: []sql.SelectItem{{Expr: keyCR}},
		From:  q.From,
		Where: q.Where,
		Limit: -1,
	}
	ibq, err := bind(o.env.Cat, pseudo)
	if err != nil {
		return nil, err
	}
	_, keyCol, err := ibq.resolve(keyCR)
	if err != nil {
		return nil, err
	}
	// The probe expression belongs to the outer scope.
	if err := bq.noteColumns(x.Left); err != nil {
		return nil, err
	}
	return &semiSpec{
		probe:     []sql.Expr{x.Left},
		innerKeys: []sql.Expr{&sql.ColumnRef{Table: ibq.tables[0].name(), Column: keyCol}},
		innerBQ:   ibq,
		anti:      x.Not,
		nullAware: x.Not,
	}, nil
}

// analyzeExists handles [NOT] EXISTS (SELECT ... FROM t WHERE ...): the
// inner WHERE is partitioned into correlation equalities (one side an
// inner column, the other an outer expression) and inner-local
// conjuncts; at least one correlation equality is required. Resolution
// is inner-scope-first, like nested SQL scoping.
func (o *Optimizer) analyzeExists(bq *boundQuery, x *sql.ExistsExpr, not bool) (*semiSpec, error) {
	q := x.Query
	if len(q.Joins) > 0 || len(q.GroupBy) > 0 || q.Distinct || q.Limit >= 0 || len(q.OrderBy) > 0 {
		return nil, fmt.Errorf("optimizer: EXISTS subquery must be a plain single-table select")
	}
	if containsSubquery(q.Where) {
		return nil, fmt.Errorf("optimizer: nested subqueries are not supported")
	}
	innerTbl := o.env.Cat.Table(q.From.Table)
	if innerTbl == nil {
		return nil, fmt.Errorf("optimizer: unknown table %s", q.From.Table)
	}
	innerName := q.From.Name()

	isInnerCol := func(e sql.Expr) (string, bool) {
		cr, ok := e.(*sql.ColumnRef)
		if !ok {
			return "", false
		}
		if cr.Table != "" && !strings.EqualFold(cr.Table, innerName) {
			return "", false
		}
		ord := innerTbl.ColumnIndex(cr.Column)
		if ord < 0 {
			return "", false
		}
		return innerTbl.Columns[ord].Name, true
	}
	isOuter := func(e sql.Expr) bool {
		ok := true
		walkColumns(e, func(cr *sql.ColumnRef) {
			if !ok {
				return
			}
			if _, _, err := bq.resolve(cr); err != nil {
				ok = false
			}
		})
		return ok
	}
	isInnerLocal := func(e sql.Expr) bool {
		ok := true
		walkColumns(e, func(cr *sql.ColumnRef) {
			if !ok {
				return
			}
			if _, inner := isInnerCol(cr); !inner {
				ok = false
			}
		})
		return ok
	}

	var probe, innerKeys []sql.Expr
	var locals []sql.Expr
	for _, c := range splitConjuncts(q.Where) {
		if isInnerLocal(c) {
			locals = append(locals, c)
			continue
		}
		be, ok := c.(*sql.BinaryExpr)
		if !ok || be.Op != "=" {
			return nil, fmt.Errorf("optimizer: EXISTS supports only equality correlation, got %s", c)
		}
		var innerCol string
		var outerSide sql.Expr
		if col, inner := isInnerCol(be.Left); inner && isOuter(be.Right) {
			innerCol, outerSide = col, be.Right
		} else if col, inner := isInnerCol(be.Right); inner && isOuter(be.Left) {
			innerCol, outerSide = col, be.Left
		} else {
			return nil, fmt.Errorf("optimizer: unsupported EXISTS correlation %s", c)
		}
		probe = append(probe, outerSide)
		innerKeys = append(innerKeys, &sql.ColumnRef{Table: innerName, Column: innerCol})
	}
	if len(probe) == 0 {
		return nil, fmt.Errorf("optimizer: EXISTS subquery must correlate with the outer query")
	}
	for _, p := range probe {
		if err := bq.noteColumns(p); err != nil {
			return nil, err
		}
	}

	// Bind the decorrelated inner: the correlation columns become the
	// select list, the inner-local conjuncts the WHERE.
	items := make([]sql.SelectItem, len(innerKeys))
	for i, k := range innerKeys {
		items[i] = sql.SelectItem{Expr: k}
	}
	pseudo := &sql.Select{Items: items, From: q.From, Where: andAll(locals), Limit: -1}
	ibq, err := bind(o.env.Cat, pseudo)
	if err != nil {
		return nil, err
	}
	return &semiSpec{probe: probe, innerKeys: innerKeys, innerBQ: ibq, anti: not}, nil
}

// applySemiJoin plans one unnested subquery as a hash semi/anti join on
// top of the current state. With RuleUnnest on, the inner access path is
// index-aware and its requests are captured as a new OR group (returned
// for the tree); with the rule off, a naive sequential scan executes the
// same set semantics at the same outer row order, with no requests.
func (o *Optimizer) applySemiJoin(st *joinState, sp *semiSpec, rules Rules, applied map[string]bool) *whatif.Node {
	m := o.env.Model
	bt := sp.innerBT()
	var inner *accessPath
	var group *whatif.Node
	if rules.Has(RuleUnnest) {
		inner = o.chooseAccess(bt, nil)
		var leaves []*whatif.Node
		for _, r := range inner.requests {
			leaves = append(leaves, whatif.NewLeaf(r))
		}
		group = whatif.NewOr(leaves...)
		applied["subquery-unnest"] = true
	} else {
		table := bt.ref.Table
		rows := o.env.TableRows(table)
		pages := o.env.TablePages(table)
		preds := allPreds(bt)
		outRows := rows * o.tableSel(bt, o.analyzeRanges(bt))
		if outRows < 1 && rows > 0 {
			outRows = 1
		}
		scan := &plan.SeqScan{Table: table, Alias: bt.name(), Preds: preds}
		scan.Out = bt.schema()
		scan.Cost = m.HeapScan(pages, rows, len(preds))
		scan.Rows = outRows
		inner = &accessPath{node: scan, cost: scan.Cost, rows: outRows}
	}

	n := &plan.HashSemiJoin{
		Left: st.node, Right: inner.node,
		LeftKeys: sp.probe, RightKeys: sp.innerKeys,
		Anti: sp.anti, NullAware: sp.nullAware,
	}
	n.Out = st.node.Schema()
	n.Cost = st.cost + inner.cost + m.HashJoin(inner.rows, st.rows)
	n.Rows = math.Max(1, st.rows*0.5)
	st.node = n
	st.cost = n.Cost
	st.rows = n.Rows
	// st.order is preserved: a semi-join filters the probe stream.
	return group
}
