// Package optimizer implements the cost-based query optimizer: it binds
// a parsed statement against the catalog, classifies predicates,
// enumerates access paths over the active indexes, orders joins
// greedily, and places sorts and aggregates. While generating index
// strategies it captures access-path requests into an AND/OR tree
// (Section 2.1 of the paper) — the instrumentation the online tuner
// consumes.
package optimizer

import (
	"fmt"
	"strings"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
)

// boundTable is one FROM-list table with its single-table predicates.
type boundTable struct {
	ref   sql.TableRef
	tbl   *catalog.Table
	eqs   []sargPred // column = constant
	lows  []sargPred // column >|>= constant
	highs []sargPred // column <|<= constant
	resid []sql.Expr // single-table non-sargable predicates
	// required columns in select-list-then-predicate order
	required []string
	reqSet   map[string]bool
	full     []plan.ColRef // schema()'s result, built on first use
}

func (bt *boundTable) name() string { return bt.ref.Name() }

// schema is the table's full-row schema under the reference's alias,
// built once per optimization and shared (schemas are never mutated) by
// the scan and every full-row seek chooseAccess weighs.
func (bt *boundTable) schema() []plan.ColRef {
	if bt.full == nil {
		bt.full = plan.TableSchema(bt.tbl, bt.name())
	}
	return bt.full
}

func (bt *boundTable) addRequired(col string) {
	key := strings.ToLower(col)
	if bt.reqSet[key] {
		return
	}
	bt.reqSet[key] = true
	bt.required = append(bt.required, col)
}

// sargPred is a sargable predicate column OP constant.
type sargPred struct {
	col  string
	op   string // = < <= > >=
	val  datum.Datum
	expr sql.Expr
}

// joinPred is an equi-join predicate between two bound tables.
type joinPred struct {
	lt, rt int // boundTable indices
	lc, rc string
	expr   sql.Expr
}

// boundQuery is the normalized form the planner works from.
type boundQuery struct {
	sel     *sql.Select
	tables  []*boundTable
	joins   []joinPred
	resid   []sql.Expr // multi-table residual predicates
	hasAggs bool
	// truths are the bare literal conjuncts: dropped when TRUE, residual
	// otherwise (ProbeTruth).
	truths []*sql.Literal
}

// bind resolves a SELECT against the catalog and classifies predicates.
func bind(cat *catalog.Catalog, sel *sql.Select) (*boundQuery, error) {
	bq := &boundQuery{sel: sel}
	addTable := func(ref sql.TableRef) error {
		t := cat.Table(ref.Table)
		if t == nil {
			return fmt.Errorf("optimizer: unknown table %s", ref.Table)
		}
		for _, bt := range bq.tables {
			if strings.EqualFold(bt.name(), ref.Name()) {
				return fmt.Errorf("optimizer: duplicate table reference %s", ref.Name())
			}
		}
		bq.tables = append(bq.tables, &boundTable{ref: ref, tbl: t, reqSet: map[string]bool{}})
		return nil
	}
	if err := addTable(sel.From); err != nil {
		return nil, err
	}
	var conjuncts []sql.Expr
	for _, j := range sel.Joins {
		if err := addTable(j.Right); err != nil {
			return nil, err
		}
		conjuncts = append(conjuncts, splitConjuncts(j.On)...)
	}
	conjuncts = append(conjuncts, splitConjuncts(sel.Where)...)

	// Resolve select list; expand stars.
	for _, item := range sel.Items {
		if item.Star {
			for _, bt := range bq.tables {
				for _, c := range bt.tbl.Columns {
					bt.addRequired(c.Name)
				}
			}
			continue
		}
		if hasAggregate(item.Expr) {
			bq.hasAggs = true
		}
		if err := bq.noteColumns(item.Expr); err != nil {
			return nil, err
		}
	}
	for _, g := range sel.GroupBy {
		if err := bq.noteColumns(g); err != nil {
			return nil, err
		}
	}
	for _, o := range sel.OrderBy {
		// ORDER BY may reference select aliases; those resolve later.
		if cr, ok := o.Expr.(*sql.ColumnRef); ok {
			if _, _, err := bq.resolve(cr); err != nil {
				if !isAlias(sel, cr) {
					return nil, err
				}
				continue
			}
		}
		if err := bq.noteColumns(o.Expr); err != nil {
			return nil, err
		}
	}

	// Classify conjuncts.
	for _, c := range conjuncts {
		if lit, ok := c.(*sql.Literal); ok {
			bq.truths = append(bq.truths, lit)
			if isTrue(lit.Value) {
				continue // ON TRUE from comma joins
			}
		}
		if err := bq.classify(c); err != nil {
			return nil, err
		}
	}
	return bq, nil
}

// isAlias reports whether the column reference names a select alias.
func isAlias(sel *sql.Select, cr *sql.ColumnRef) bool {
	if cr.Table != "" {
		return false
	}
	for _, it := range sel.Items {
		if strings.EqualFold(it.Alias, cr.Column) {
			return true
		}
	}
	return false
}

// resolve finds the bound table owning a column reference.
func (bq *boundQuery) resolve(cr *sql.ColumnRef) (int, string, error) {
	found := -1
	for i, bt := range bq.tables {
		if cr.Table != "" && !strings.EqualFold(bt.name(), cr.Table) {
			continue
		}
		if ord := bt.tbl.ColumnIndex(cr.Column); ord >= 0 {
			if found >= 0 {
				return 0, "", fmt.Errorf("optimizer: ambiguous column %s", cr)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, "", fmt.Errorf("optimizer: unknown column %s", cr)
	}
	// Return the catalog-cased column name.
	t := bq.tables[found].tbl
	return found, t.Columns[t.ColumnIndex(cr.Column)].Name, nil
}

// noteColumns records every column an expression touches as required.
func (bq *boundQuery) noteColumns(e sql.Expr) error {
	var err error
	walkColumns(e, func(cr *sql.ColumnRef) {
		if err != nil {
			return
		}
		ti, col, e2 := bq.resolve(cr)
		if e2 != nil {
			err = e2
			return
		}
		bq.tables[ti].addRequired(col)
	})
	return err
}

// classify routes one conjunct to a table's sargable/residual predicate
// sets or to the join list.
func (bq *boundQuery) classify(c sql.Expr) error {
	if be, ok := c.(*sql.BinaryExpr); ok && isCmpOp(be.Op) {
		// column OP literal / literal OP column.
		if cr, lit, flip := colLit(be); cr != nil {
			ti, col, err := bq.resolve(cr)
			if err != nil {
				return err
			}
			op := be.Op
			if flip {
				op = flipOp(op)
			}
			bt := bq.tables[ti]
			bt.addRequired(col)
			sp := sargPred{col: col, op: op, val: lit.Value, expr: c}
			switch op {
			case "=":
				bt.eqs = append(bt.eqs, sp)
			case ">", ">=":
				bt.lows = append(bt.lows, sp)
			case "<", "<=":
				bt.highs = append(bt.highs, sp)
			default: // <>
				bt.resid = append(bt.resid, c)
			}
			return nil
		}
		// column = column join predicate.
		if be.Op == "=" {
			lcr, lok := be.Left.(*sql.ColumnRef)
			rcr, rok := be.Right.(*sql.ColumnRef)
			if lok && rok {
				li, lc, err := bq.resolve(lcr)
				if err != nil {
					return err
				}
				ri, rc, err := bq.resolve(rcr)
				if err != nil {
					return err
				}
				if li != ri {
					bq.tables[li].addRequired(lc)
					bq.tables[ri].addRequired(rc)
					bq.joins = append(bq.joins, joinPred{lt: li, rt: ri, lc: lc, rc: rc, expr: c})
					return nil
				}
			}
		}
	}
	// Residual: note columns and assign to its table if single-table.
	tables := map[int]bool{}
	var err error
	walkColumns(c, func(cr *sql.ColumnRef) {
		if err != nil {
			return
		}
		ti, col, e2 := bq.resolve(cr)
		if e2 != nil {
			err = e2
			return
		}
		bq.tables[ti].addRequired(col)
		tables[ti] = true
	})
	if err != nil {
		return err
	}
	if len(tables) == 1 {
		for ti := range tables {
			bq.tables[ti].resid = append(bq.tables[ti].resid, c)
		}
		return nil
	}
	bq.resid = append(bq.resid, c)
	return nil
}

// colLit matches column OP literal (flip=false) or literal OP column
// (flip=true).
func colLit(be *sql.BinaryExpr) (*sql.ColumnRef, *sql.Literal, bool) {
	if cr, ok := be.Left.(*sql.ColumnRef); ok {
		if lit, ok := be.Right.(*sql.Literal); ok {
			return cr, lit, false
		}
	}
	if cr, ok := be.Right.(*sql.ColumnRef); ok {
		if lit, ok := be.Left.(*sql.Literal); ok {
			return cr, lit, true
		}
	}
	return nil, nil, false
}

func isCmpOp(op string) bool {
	switch op {
	case "=", "<", "<=", ">", ">=", "<>":
		return true
	}
	return false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// splitConjuncts flattens a predicate tree over AND.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*sql.BinaryExpr); ok && be.Op == "AND" {
		return append(splitConjuncts(be.Left), splitConjuncts(be.Right)...)
	}
	return []sql.Expr{e}
}

// walkColumns visits every column reference in an expression.
func walkColumns(e sql.Expr, fn func(*sql.ColumnRef)) {
	switch x := e.(type) {
	case *sql.ColumnRef:
		fn(x)
	case *sql.BinaryExpr:
		walkColumns(x.Left, fn)
		walkColumns(x.Right, fn)
	case *sql.NotExpr:
		walkColumns(x.Inner, fn)
	case *sql.IsNullExpr:
		walkColumns(x.Inner, fn)
	case *sql.LikeExpr:
		walkColumns(x.Expr, fn)
	case *sql.FuncExpr:
		if x.Arg != nil {
			walkColumns(x.Arg, fn)
		}
	case *sql.InSubquery:
		// Only the outer-side probe expression is visible to the outer
		// binder; the subquery has its own scope.
		walkColumns(x.Left, fn)
	case *sql.ExistsExpr:
		// EXISTS contributes no outer columns directly; its correlation
		// predicates are resolved by the unnesting rule.
	}
}

// hasAggregate reports whether the expression contains an aggregate call.
func hasAggregate(e sql.Expr) bool {
	found := false
	var walk func(sql.Expr)
	walk = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.FuncExpr:
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
		case *sql.InSubquery:
			// Aggregates inside the subquery belong to its own scope.
			walk(x.Left)
		case *sql.ExistsExpr:
			// Nothing: subquery scope.
		}
	}
	walk(e)
	return found
}
