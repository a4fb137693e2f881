package sql

import (
	"fmt"
	"strconv"
	"strings"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/fnv1a"
)

// Fingerprint is the canonical form of a statement: the statement text
// with every literal lifted out and replaced by a positional placeholder
// ($1, $2, ...), identifiers lower-cased, and a stable 64-bit hash of
// that template. Two statements that differ only in literal constants
// (or identifier case) share a template and hash; their constants are
// the Bindings, in template order.
//
// The template is a cache key, not SQL: it is never re-parsed. Lits
// holds the *Literal nodes of the fingerprinted AST in binding order, so
// a caller holding the AST can map each literal pointer to its slot.
type Fingerprint struct {
	Hash     uint64
	Template string
	Bindings []datum.Datum
	Lits     []*Literal
}

// FingerprintOf canonicalizes a statement. It is deterministic: the same
// AST always yields the same template, hash and binding order.
func FingerprintOf(stmt Statement) Fingerprint {
	w := &fpWriter{}
	w.stmt(stmt)
	template := w.sb.String()
	return Fingerprint{
		Hash:     uint64(fnv1a.Init.Str(template)),
		Template: template,
		Bindings: w.bindings,
		Lits:     w.lits,
	}
}

// fpWriter renders the canonical template, lifting literals as it goes.
// The rendering mirrors the AST String() methods so that the template
// order of placeholders equals the syntactic order of literals — the
// same order Rebind substitutes in.
type fpWriter struct {
	sb       strings.Builder
	bindings []datum.Datum
	lits     []*Literal
}

func (w *fpWriter) str(s string)   { w.sb.WriteString(s) }
func (w *fpWriter) ident(s string) { w.sb.WriteString(strings.ToLower(s)) }

func (w *fpWriter) lit(l *Literal) {
	w.bindings = append(w.bindings, l.Value)
	w.lits = append(w.lits, l)
	w.sb.WriteByte('$')
	w.sb.WriteString(strconv.Itoa(len(w.bindings)))
}

func (w *fpWriter) stmt(s Statement) {
	switch x := s.(type) {
	case *Select:
		w.selectStmt(x)
	case *Insert:
		w.insertStmt(x)
	case *Update:
		w.updateStmt(x)
	case *Delete:
		w.deleteStmt(x)
	case *CreateTable:
		w.createTableStmt(x)
	case *CreateIndex:
		w.str("CREATE INDEX ")
		w.ident(x.Name)
		w.str(" ON ")
		w.ident(x.Table)
		w.str(" (")
		w.identList(x.Columns)
		w.str(")")
	case *DropIndex:
		w.str("DROP INDEX ")
		w.ident(x.Name)
	case *Explain:
		w.str("EXPLAIN ")
		w.stmt(x.Stmt)
	default:
		// Unknown statement kinds degrade to their String form (still
		// deterministic, just without literal lifting).
		w.str(fmt.Sprintf("%T:%s", s, s.String()))
	}
}

func (w *fpWriter) identList(cols []string) {
	for i, c := range cols {
		if i > 0 {
			w.str(", ")
		}
		w.ident(c)
	}
}

func (w *fpWriter) selectStmt(s *Select) {
	w.str("SELECT ")
	if s.Distinct {
		w.str("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			w.str(", ")
		}
		switch {
		case it.Star:
			w.str("*")
		default:
			w.expr(it.Expr)
			if it.Alias != "" {
				w.str(" AS ")
				w.ident(it.Alias)
			}
		}
	}
	w.str(" FROM ")
	w.tableRef(s.From)
	for _, j := range s.Joins {
		w.str(" JOIN ")
		w.tableRef(j.Right)
		w.str(" ON ")
		w.expr(j.On)
	}
	if s.Where != nil {
		w.str(" WHERE ")
		w.expr(s.Where)
	}
	if len(s.GroupBy) > 0 {
		w.str(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				w.str(", ")
			}
			w.expr(g)
		}
	}
	if len(s.OrderBy) > 0 {
		w.str(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				w.str(", ")
			}
			w.expr(o.Expr)
			if o.Desc {
				w.str(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		// LIMIT is part of the template, not a binding: it changes the
		// plan shape (a Limit node), not just constants inside it.
		w.str(" LIMIT " + strconv.FormatInt(s.Limit, 10))
	}
}

func (w *fpWriter) tableRef(t TableRef) {
	w.ident(t.Table)
	if t.Alias != "" {
		w.str(" ")
		w.ident(t.Alias)
	}
}

func (w *fpWriter) insertStmt(s *Insert) {
	w.str("INSERT INTO ")
	w.ident(s.Table)
	if len(s.Columns) > 0 {
		w.str(" (")
		w.identList(s.Columns)
		w.str(")")
	}
	if s.Query != nil {
		w.str(" ")
		w.selectStmt(s.Query)
		return
	}
	w.str(" VALUES ")
	for r, row := range s.Rows {
		if r > 0 {
			w.str(", ")
		}
		w.str("(")
		for c, e := range row {
			if c > 0 {
				w.str(", ")
			}
			w.expr(e)
		}
		w.str(")")
	}
}

func (w *fpWriter) updateStmt(s *Update) {
	w.str("UPDATE ")
	w.ident(s.Table)
	w.str(" SET ")
	for i, a := range s.Set {
		if i > 0 {
			w.str(", ")
		}
		w.ident(a.Column)
		w.str(" = ")
		w.expr(a.Value)
	}
	if s.Where != nil {
		w.str(" WHERE ")
		w.expr(s.Where)
	}
}

func (w *fpWriter) deleteStmt(s *Delete) {
	w.str("DELETE FROM ")
	w.ident(s.Table)
	if s.Where != nil {
		w.str(" WHERE ")
		w.expr(s.Where)
	}
}

func (w *fpWriter) createTableStmt(s *CreateTable) {
	w.str("CREATE TABLE ")
	w.ident(s.Table)
	w.str(" (")
	for i, c := range s.Columns {
		if i > 0 {
			w.str(", ")
		}
		w.ident(c.Name)
		w.str(" " + c.Kind.String())
	}
	w.str(", PRIMARY KEY (")
	w.identList(s.PrimaryKey)
	w.str("))")
}

func (w *fpWriter) expr(e Expr) {
	switch x := e.(type) {
	case *ColumnRef:
		if x.Table != "" {
			w.ident(x.Table)
			w.str(".")
		}
		w.ident(x.Column)
	case *Literal:
		w.lit(x)
	case *BinaryExpr:
		w.str("(")
		w.expr(x.Left)
		w.str(" " + x.Op + " ")
		w.expr(x.Right)
		w.str(")")
	case *NotExpr:
		w.str("NOT ")
		w.expr(x.Inner)
	case *IsNullExpr:
		w.expr(x.Inner)
		if x.Not {
			w.str(" IS NOT NULL")
		} else {
			w.str(" IS NULL")
		}
	case *LikeExpr:
		// The pattern stays in the template rather than becoming a
		// binding: the compiled matcher (prefilters included) is part of
		// the cached plan, so different patterns must not share a plan.
		w.expr(x.Expr)
		if x.Not {
			w.str(" NOT LIKE ")
		} else {
			w.str(" LIKE ")
		}
		w.str("'" + x.Pattern + "'")
	case *FuncExpr:
		w.str(x.Name + "(")
		if x.Star {
			w.str("*")
		} else {
			w.expr(x.Arg)
		}
		w.str(")")
	case *InSubquery:
		// Subquery literals are lifted too: the inner SELECT is rendered
		// through selectStmt, so its constants become bindings in the same
		// syntactic order Rebind walks them.
		w.expr(x.Left)
		if x.Not {
			w.str(" NOT IN (")
		} else {
			w.str(" IN (")
		}
		w.selectStmt(x.Query)
		w.str(")")
	case *ExistsExpr:
		w.str("EXISTS (")
		w.selectStmt(x.Query)
		w.str(")")
	default:
		w.str(fmt.Sprintf("%T:%s", e, e.String()))
	}
}

// Rebind deep-clones a statement, substituting the i-th literal (in the
// same traversal order FingerprintOf lifts them) with bindings[i]. It is
// the inverse of fingerprinting: Rebind(stmt, FingerprintOf(stmt).Bindings)
// is structurally equal to stmt.
func Rebind(stmt Statement, bindings []datum.Datum) (Statement, error) {
	rb := &rebinder{bindings: bindings}
	out := rb.stmt(stmt)
	if rb.err != nil {
		return nil, rb.err
	}
	if rb.next != len(bindings) {
		return nil, fmt.Errorf("sql: rebind used %d of %d bindings", rb.next, len(bindings))
	}
	return out, nil
}

type rebinder struct {
	bindings []datum.Datum
	next     int
	err      error
}

func (rb *rebinder) take() datum.Datum {
	if rb.next >= len(rb.bindings) {
		if rb.err == nil {
			rb.err = fmt.Errorf("sql: rebind ran out of bindings after %d", rb.next)
		}
		return datum.Null
	}
	v := rb.bindings[rb.next]
	rb.next++
	return v
}

func (rb *rebinder) stmt(s Statement) Statement {
	switch x := s.(type) {
	case *Select:
		return rb.selectStmt(x)
	case *Insert:
		out := &Insert{Table: x.Table, Columns: append([]string(nil), x.Columns...)}
		for _, row := range x.Rows {
			nrow := make([]Expr, len(row))
			for i, e := range row {
				nrow[i] = rb.expr(e)
			}
			out.Rows = append(out.Rows, nrow)
		}
		if x.Query != nil {
			out.Query = rb.selectStmt(x.Query)
		}
		return out
	case *Update:
		out := &Update{Table: x.Table}
		for _, a := range x.Set {
			out.Set = append(out.Set, Assignment{Column: a.Column, Value: rb.expr(a.Value)})
		}
		if x.Where != nil {
			out.Where = rb.expr(x.Where)
		}
		return out
	case *Delete:
		out := &Delete{Table: x.Table}
		if x.Where != nil {
			out.Where = rb.expr(x.Where)
		}
		return out
	case *CreateTable:
		return &CreateTable{Table: x.Table, Columns: append([]ColumnDef(nil), x.Columns...), PrimaryKey: append([]string(nil), x.PrimaryKey...)}
	case *CreateIndex:
		return &CreateIndex{Name: x.Name, Table: x.Table, Columns: append([]string(nil), x.Columns...)}
	case *DropIndex:
		return &DropIndex{Name: x.Name}
	case *Explain:
		return &Explain{Stmt: rb.stmt(x.Stmt)}
	default:
		if rb.err == nil {
			rb.err = fmt.Errorf("sql: rebind: unsupported statement %T", s)
		}
		return s
	}
}

func (rb *rebinder) selectStmt(s *Select) *Select {
	out := &Select{Distinct: s.Distinct, From: s.From, Limit: s.Limit}
	for _, it := range s.Items {
		nit := SelectItem{Alias: it.Alias, Star: it.Star}
		if it.Expr != nil {
			nit.Expr = rb.expr(it.Expr)
		}
		out.Items = append(out.Items, nit)
	}
	for _, j := range s.Joins {
		out.Joins = append(out.Joins, JoinClause{Right: j.Right, On: rb.expr(j.On)})
	}
	if s.Where != nil {
		out.Where = rb.expr(s.Where)
	}
	for _, g := range s.GroupBy {
		out.GroupBy = append(out.GroupBy, rb.expr(g))
	}
	for _, o := range s.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderItem{Expr: rb.expr(o.Expr), Desc: o.Desc})
	}
	return out
}

func (rb *rebinder) expr(e Expr) Expr {
	switch x := e.(type) {
	case *ColumnRef:
		return &ColumnRef{Table: x.Table, Column: x.Column}
	case *Literal:
		return &Literal{Value: rb.take()}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: rb.expr(x.Left), Right: rb.expr(x.Right)}
	case *NotExpr:
		return &NotExpr{Inner: rb.expr(x.Inner)}
	case *IsNullExpr:
		return &IsNullExpr{Inner: rb.expr(x.Inner), Not: x.Not}
	case *LikeExpr:
		return &LikeExpr{Expr: rb.expr(x.Expr), Pattern: x.Pattern, Not: x.Not}
	case *FuncExpr:
		out := &FuncExpr{Name: x.Name, Star: x.Star}
		if x.Arg != nil {
			out.Arg = rb.expr(x.Arg)
		}
		return out
	case *InSubquery:
		return &InSubquery{Left: rb.expr(x.Left), Query: rb.selectStmt(x.Query), Not: x.Not}
	case *ExistsExpr:
		return &ExistsExpr{Query: rb.selectStmt(x.Query)}
	default:
		if rb.err == nil {
			rb.err = fmt.Errorf("sql: rebind: unsupported expression %T", e)
		}
		return e
	}
}

// MapLiterals clones an expression tree, replacing each *Literal with
// fn(lit). Non-literal leaves (column references) are shared; interior
// nodes are copied, so the input tree is never mutated. fn may return
// its argument to keep a literal as-is.
func MapLiterals(e Expr, fn func(*Literal) Expr) Expr {
	switch x := e.(type) {
	case *Literal:
		return fn(x)
	case *ColumnRef:
		return x
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: MapLiterals(x.Left, fn), Right: MapLiterals(x.Right, fn)}
	case *NotExpr:
		return &NotExpr{Inner: MapLiterals(x.Inner, fn)}
	case *IsNullExpr:
		return &IsNullExpr{Inner: MapLiterals(x.Inner, fn), Not: x.Not}
	case *LikeExpr:
		return &LikeExpr{Expr: MapLiterals(x.Expr, fn), Pattern: x.Pattern, Not: x.Not}
	case *FuncExpr:
		out := &FuncExpr{Name: x.Name, Star: x.Star}
		if x.Arg != nil {
			out.Arg = MapLiterals(x.Arg, fn)
		}
		return out
	case *InSubquery:
		return &InSubquery{Left: MapLiterals(x.Left, fn), Query: mapLiteralsSelect(x.Query, fn), Not: x.Not}
	case *ExistsExpr:
		return &ExistsExpr{Query: mapLiteralsSelect(x.Query, fn)}
	default:
		return e
	}
}

// mapLiteralsSelect clones a subquery Select, applying MapLiterals to
// every expression position in the same order fpWriter renders them.
func mapLiteralsSelect(s *Select, fn func(*Literal) Expr) *Select {
	out := &Select{Distinct: s.Distinct, From: s.From, Limit: s.Limit}
	for _, it := range s.Items {
		nit := SelectItem{Alias: it.Alias, Star: it.Star}
		if it.Expr != nil {
			nit.Expr = MapLiterals(it.Expr, fn)
		}
		out.Items = append(out.Items, nit)
	}
	for _, j := range s.Joins {
		out.Joins = append(out.Joins, JoinClause{Right: j.Right, On: MapLiterals(j.On, fn)})
	}
	if s.Where != nil {
		out.Where = MapLiterals(s.Where, fn)
	}
	for _, g := range s.GroupBy {
		out.GroupBy = append(out.GroupBy, MapLiterals(g, fn))
	}
	for _, o := range s.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderItem{Expr: MapLiterals(o.Expr, fn), Desc: o.Desc})
	}
	return out
}
