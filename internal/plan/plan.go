// Package plan defines the physical plan representation produced by the
// optimizer and consumed by the executor. Every node carries an output
// schema (named columns), an estimated cost and an estimated row count;
// Explain renders the operator tree.
package plan

import (
	"fmt"
	"strings"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/sql"
)

// ColRef names one output column of a plan node: the table alias it
// originates from (empty for computed columns) and the column name.
type ColRef struct {
	Table  string
	Column string
}

func (c ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// Matches reports whether this schema column satisfies a reference with
// optional qualifier.
func (c ColRef) Matches(table, column string) bool {
	if !strings.EqualFold(c.Column, column) {
		return false
	}
	return table == "" || strings.EqualFold(c.Table, table)
}

// Node is a physical plan operator.
type Node interface {
	// Schema returns the output columns.
	Schema() []ColRef
	// EstCost returns the estimated cumulative cost of the subtree.
	EstCost() float64
	// EstRows returns the estimated output cardinality.
	EstRows() float64
	// Children returns input operators.
	Children() []Node
	// Label renders the operator for Explain.
	Label() string
}

// Base carries the estimates shared by all nodes.
type Base struct {
	Cost float64
	Rows float64
	Out  []ColRef
}

// Schema implements Node.
func (b *Base) Schema() []ColRef { return b.Out }

// EstCost implements Node.
func (b *Base) EstCost() float64 { return b.Cost }

// EstRows implements Node.
func (b *Base) EstRows() float64 { return b.Rows }

// SeqScan reads every live row of a table's heap, applying pushed
// predicates. Stop > 0 caps output: the scan halts once that many rows
// have passed its predicates (LIMIT pushed into the access path; only
// legal when no order-sensitive operator sits between scan and limit).
type SeqScan struct {
	Base
	Table string
	Alias string
	Preds []sql.Expr
	Stop  int64
}

func (n *SeqScan) Children() []Node { return nil }

func (n *SeqScan) Label() string {
	return fmt.Sprintf("SeqScan %s%s%s%s", n.Table, aliasSuffix(n.Alias, n.Table), stopSuffix(n.Stop), predSuffix(n.Preds))
}

// IndexScan sequentially reads a covering secondary index, applying
// pushed predicates. Its schema is the index's columns only.
type IndexScan struct {
	Base
	Index *catalog.Index
	Alias string
	Preds []sql.Expr
	Stop  int64 // see SeqScan.Stop
}

func (n *IndexScan) Children() []Node { return nil }

func (n *IndexScan) Label() string {
	return fmt.Sprintf("IndexScan %s on %s%s%s%s", n.Index.Name, n.Index.Table,
		aliasSuffix(n.Alias, n.Index.Table), stopSuffix(n.Stop), predSuffix(n.Preds))
}

// IndexSeek performs a single range/equality seek with constant bounds.
// EqVals bind the leading EqCols of the index; Lo/Hi optionally bound the
// next column. When Fetch is true the matching RIDs are looked up in the
// heap and the schema is the full table row; otherwise the schema is the
// index columns (covering plan).
type IndexSeek struct {
	Base
	Index  *catalog.Index
	Alias  string
	EqVals []datum.Datum
	Lo, Hi *datum.Datum
	LoInc  bool
	HiInc  bool
	Fetch  bool
	Preds  []sql.Expr // residual predicates evaluated after the seek
	Stop   int64      // see SeqScan.Stop

	// Literal provenance for plan-cache rebinding: the statement literals
	// each seek bound was copied from (nil entries mean the bound did not
	// come from a single statement literal and cannot be re-substituted).
	EqLits []*sql.Literal
	LoLit  *sql.Literal
	HiLit  *sql.Literal
}

func (n *IndexSeek) Children() []Node { return nil }

func (n *IndexSeek) Label() string {
	bound := fmt.Sprintf("eq=%d", len(n.EqVals))
	if n.Lo != nil || n.Hi != nil {
		bound += ",range"
	}
	mode := "covering"
	if n.Fetch {
		mode = "fetch"
	}
	return fmt.Sprintf("IndexSeek %s on %s%s (%s, %s)%s%s", n.Index.Name, n.Index.Table,
		aliasSuffix(n.Alias, n.Index.Table), bound, mode, stopSuffix(n.Stop), predSuffix(n.Preds))
}

// IndexEndpoint answers MIN/MAX over an index column with at most two
// single seeks: the smallest non-NULL entry after the equality prefix
// (WantMin) and/or the largest entry (WantMax). It emits at most two
// full heap rows — deduplicated when both endpoints are the same row —
// and an unchanged HashAgg above reduces them to the aggregate answer,
// so the zero-rows → NULL semantics stay exactly the aggregate's own.
type IndexEndpoint struct {
	Base
	Index   *catalog.Index
	Alias   string
	Col     string        // the MIN/MAX column (next index column after EqVals)
	EqVals  []datum.Datum // equality prefix bindings, in index column order
	WantMin bool
	WantMax bool

	EqLits []*sql.Literal // literal provenance (see IndexSeek)
}

func (n *IndexEndpoint) Children() []Node { return nil }

func (n *IndexEndpoint) Label() string {
	var ends []string
	if n.WantMin {
		ends = append(ends, "min")
	}
	if n.WantMax {
		ends = append(ends, "max")
	}
	return fmt.Sprintf("IndexEndpoint %s on %s%s (%s(%s), eq=%d)", n.Index.Name, n.Index.Table,
		aliasSuffix(n.Alias, n.Index.Table), strings.Join(ends, "+"), n.Col, len(n.EqVals))
}

// Filter applies residual predicates.
type Filter struct {
	Base
	Child Node
	Preds []sql.Expr
}

func (n *Filter) Children() []Node { return []Node{n.Child} }

func (n *Filter) Label() string { return "Filter" + predSuffix(n.Preds) }

// Project computes the final select list.
type Project struct {
	Base
	Child Node
	Exprs []sql.Expr
	Names []string
}

func (n *Project) Children() []Node { return []Node{n.Child} }

func (n *Project) Label() string {
	parts := make([]string, len(n.Exprs))
	for i, e := range n.Exprs {
		parts[i] = e.String()
	}
	return "Project [" + strings.Join(parts, ", ") + "]"
}

// SortKey is one ordering key for Sort.
type SortKey struct {
	Expr sql.Expr
	Desc bool
}

// Sort orders its input.
type Sort struct {
	Base
	Child Node
	Keys  []SortKey
}

func (n *Sort) Children() []Node { return []Node{n.Child} }

func (n *Sort) Label() string {
	parts := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort [" + strings.Join(parts, ", ") + "]"
}

// Limit caps output rows.
type Limit struct {
	Base
	Child Node
	N     int64
}

func (n *Limit) Children() []Node { return []Node{n.Child} }

func (n *Limit) Label() string { return fmt.Sprintf("Limit %d", n.N) }

// TopN replaces Sort+Limit: it keeps only the N smallest rows under Keys
// (with the input ordinal as final tiebreak, making it exactly equal to
// a stable full sort truncated to N) using a bounded heap instead of a
// full materialize-and-sort.
type TopN struct {
	Base
	Child Node
	Keys  []SortKey
	N     int64
}

func (n *TopN) Children() []Node { return []Node{n.Child} }

func (n *TopN) Label() string {
	parts := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return fmt.Sprintf("TopN %d [%s]", n.N, strings.Join(parts, ", "))
}

// Distinct removes duplicate rows.
type Distinct struct {
	Base
	Child Node
}

func (n *Distinct) Children() []Node { return []Node{n.Child} }

func (n *Distinct) Label() string { return "Distinct" }

// HashJoin is an equi-join: build on Right, probe with Left.
type HashJoin struct {
	Base
	Left, Right Node
	LeftKeys    []sql.Expr
	RightKeys   []sql.Expr
}

func (n *HashJoin) Children() []Node { return []Node{n.Left, n.Right} }

func (n *HashJoin) Label() string {
	parts := make([]string, len(n.LeftKeys))
	for i := range n.LeftKeys {
		parts[i] = n.LeftKeys[i].String() + "=" + n.RightKeys[i].String()
	}
	return "HashJoin [" + strings.Join(parts, ", ") + "]"
}

// HashSemiJoin emits each Left row at most once depending on whether its
// key exists in the Right-side build set: semi (exists) or, when Anti,
// anti (not exists). NullAware selects NOT IN semantics for the anti
// form: any NULL in the build set suppresses all output, and a NULL
// probe key passes only when the build set is empty. Without NullAware,
// NULL probe keys simply never match (IN / EXISTS / NOT EXISTS treat
// them as non-matching).
type HashSemiJoin struct {
	Base
	Left, Right Node
	LeftKeys    []sql.Expr
	RightKeys   []sql.Expr
	Anti        bool
	NullAware   bool
}

func (n *HashSemiJoin) Children() []Node { return []Node{n.Left, n.Right} }

func (n *HashSemiJoin) Label() string {
	parts := make([]string, len(n.LeftKeys))
	for i := range n.LeftKeys {
		parts[i] = n.LeftKeys[i].String() + "=" + n.RightKeys[i].String()
	}
	kind := "HashSemiJoin"
	if n.Anti {
		kind = "HashAntiJoin"
	}
	if n.NullAware {
		kind += " null-aware"
	}
	return kind + " [" + strings.Join(parts, ", ") + "]"
}

// INLJoin is an index-nested-loop join: for each outer row, seek the
// inner index with key values computed from the outer row.
type INLJoin struct {
	Base
	Outer     Node
	Index     *catalog.Index
	Alias     string // inner table alias
	OuterKeys []sql.Expr
	Fetch     bool // inner rows fetched from heap (index not covering)
	Preds     []sql.Expr
}

func (n *INLJoin) Children() []Node { return []Node{n.Outer} }

func (n *INLJoin) Label() string {
	parts := make([]string, len(n.OuterKeys))
	for i, e := range n.OuterKeys {
		parts[i] = e.String()
	}
	return fmt.Sprintf("INLJoin inner=%s on %s [%s]%s", n.Index.Name, n.Index.Table,
		strings.Join(parts, ", "), predSuffix(n.Preds))
}

// MergeJoin is a sort-merge equi-join: both inputs are brought into join
// key order (the executor sorts a side whose order is not already
// guaranteed) and merged with group-wise matching.
type MergeJoin struct {
	Base
	Left, Right Node
	LeftKeys    []sql.Expr
	RightKeys   []sql.Expr
	// LeftSorted/RightSorted record which inputs the optimizer proved
	// already ordered by the join keys (their sort is free in the cost
	// model; the executor still normalizes defensively).
	LeftSorted  bool
	RightSorted bool
}

func (n *MergeJoin) Children() []Node { return []Node{n.Left, n.Right} }

func (n *MergeJoin) Label() string {
	parts := make([]string, len(n.LeftKeys))
	for i := range n.LeftKeys {
		parts[i] = n.LeftKeys[i].String() + "=" + n.RightKeys[i].String()
	}
	return "MergeJoin [" + strings.Join(parts, ", ") + "]"
}

// CrossJoin is the fallback product join (used when no equi-key exists).
type CrossJoin struct {
	Base
	Left, Right Node
}

func (n *CrossJoin) Children() []Node { return []Node{n.Left, n.Right} }

func (n *CrossJoin) Label() string { return "CrossJoin" }

// AggSpec describes one aggregate output.
type AggSpec struct {
	Func string // COUNT, SUM, AVG, MIN, MAX
	Arg  sql.Expr
	Star bool
	Name string
}

// HashAgg groups and aggregates.
type HashAgg struct {
	Base
	Child   Node
	GroupBy []sql.Expr
	Aggs    []AggSpec
}

func (n *HashAgg) Children() []Node { return []Node{n.Child} }

func (n *HashAgg) Label() string {
	parts := make([]string, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Star {
			parts[i] = a.Func + "(*)"
		} else {
			parts[i] = a.Func + "(" + a.Arg.String() + ")"
		}
	}
	return fmt.Sprintf("HashAgg groups=%d [%s]", len(n.GroupBy), strings.Join(parts, ", "))
}

// InsertNode applies literal rows or a source subplan to a table.
type InsertNode struct {
	Base
	Table    string
	Literals []datum.Row // pre-evaluated literal rows
	Source   Node        // INSERT ... SELECT
}

func (n *InsertNode) Children() []Node {
	if n.Source != nil {
		return []Node{n.Source}
	}
	return nil
}

func (n *InsertNode) Label() string { return "Insert " + n.Table }

// UpdateNode rewrites the rows its Source selects. Source is the access
// path the optimizer costed for the statement's select shell — a SeqScan,
// IndexSeek or IndexScan over Table carrying every WHERE conjunct — and
// the executor runs it to collect (RID, row) pairs before mutating any.
type UpdateNode struct {
	Base
	Table  string
	Set    []sql.Assignment
	Source Node
}

func (n *UpdateNode) Children() []Node { return []Node{n.Source} }

func (n *UpdateNode) Label() string { return "Update " + n.Table }

// DeleteNode removes the rows its Source selects (see UpdateNode).
type DeleteNode struct {
	Base
	Table  string
	Source Node
}

func (n *DeleteNode) Children() []Node { return []Node{n.Source} }

func (n *DeleteNode) Label() string { return "Delete " + n.Table }

func aliasSuffix(alias, table string) string {
	if alias == "" || strings.EqualFold(alias, table) {
		return ""
	}
	return " " + alias
}

func stopSuffix(stop int64) string {
	if stop <= 0 {
		return ""
	}
	return fmt.Sprintf(" stop=%d", stop)
}

func predSuffix(preds []sql.Expr) string {
	if len(preds) == 0 {
		return ""
	}
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return " where " + strings.Join(parts, " AND ")
}

// Explain renders the plan tree with costs.
func Explain(n Node) string {
	var sb strings.Builder
	explain(&sb, n, 0)
	return sb.String()
}

func explain(sb *strings.Builder, n Node, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(sb, "%s (cost=%.2f rows=%.0f)\n", n.Label(), n.EstCost(), n.EstRows())
	for _, c := range n.Children() {
		explain(sb, c, depth+1)
	}
}

// TableSchema builds the full-row schema of a table under an alias.
func TableSchema(t *catalog.Table, alias string) []ColRef {
	if alias == "" {
		alias = t.Name
	}
	out := make([]ColRef, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = ColRef{Table: alias, Column: c.Name}
	}
	return out
}

// IndexSchema builds the schema of a covering index access under an
// alias.
func IndexSchema(ix *catalog.Index, alias string) []ColRef {
	if alias == "" {
		alias = ix.Table
	}
	out := make([]ColRef, len(ix.Columns))
	for i, c := range ix.Columns {
		out[i] = ColRef{Table: alias, Column: c}
	}
	return out
}
