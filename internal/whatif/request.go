// Package whatif implements the access-path request machinery of Section
// 2 of the paper (adapted from Bruno & Chaudhuri [4, 6]): requests are
// captured while the optimizer generates index strategies, stored in an
// AND/OR tree on the final plan, and later used to infer — via local plan
// transformations and without further optimizer calls — the cost of a
// query under hypothetical physical designs. The three primitives the
// online algorithms build on are GetRequests (captured by the optimizer),
// GetBestIndex, and GetCost.
package whatif

import (
	"fmt"
	"strings"

	"onlinetuner/internal/catalog"
)

// Kind classifies a request by the index strategy it encodes.
type Kind int

// Request kinds. A Scan request asks for the request's required columns
// in no particular order (a vertical-partition opportunity); a Seek
// request additionally has sargable columns that an index could seek on;
// an Update request is the "update shell" of a DML statement and encodes
// index maintenance work.
const (
	KindScan Kind = iota
	KindSeek
	KindUpdate
	// KindEndpoint asks for MIN/MAX of one column (stored in RangeCol)
	// under an equality prefix: an index leading with EqCols then the
	// endpoint column answers it in one or two single-row seeks. Emitted
	// by the optimizer's minmax-endpoint rule even when no such index
	// exists — that is exactly the what-if traffic the tuner bids on.
	KindEndpoint
)

func (k Kind) String() string {
	switch k {
	case KindScan:
		return "scan"
	case KindSeek:
		return "seek"
	case KindUpdate:
		return "update"
	case KindEndpoint:
		return "endpoint"
	}
	return "?"
}

// Request encodes the logical properties of any physical sub-plan that
// could implement one table access of a query (Section 2.1). All
// cardinalities are estimates from optimization time.
type Request struct {
	Table string
	Kind  Kind

	// EqCols are equality-sargable columns with per-column selectivities.
	EqCols []string
	EqSels []float64

	// RangeCol is the single range-sargable column ("" if none) and its
	// selectivity.
	RangeCol string
	RangeSel float64

	// Required lists every column needed upwards in the tree, in
	// select-list-then-predicate order (this order shapes GetBestIndex's
	// suffix).
	Required []string

	// SortCols is the output order the parent needs, if any.
	SortCols []string

	// Bindings is how many times the access runs (1 for a plain access,
	// the outer cardinality for an index-nested-loop inner).
	Bindings float64

	// RowsPerBinding is the estimated output rows per binding after the
	// sargable predicates.
	RowsPerBinding float64

	// ResidualPreds counts non-sargable predicates evaluated on output.
	ResidualPreds int

	// TableRows/TablePages snapshot the table size at optimization time.
	TableRows  float64
	TablePages float64

	// CurrentCost is the estimated cost of the sub-plan the optimizer
	// actually chose for this access under the current configuration, and
	// CurrentIndexID the index it used ("" for a heap scan).
	CurrentCost    float64
	CurrentIndexID string

	// UpdateRows is the number of rows changed (Update requests only).
	UpdateRows float64

	// UpdateTouchedIndexes counts maintained indexes (Update requests).
	UpdateTouchedIndexes int
}

// String summarizes the request for logs and tests.
func (r *Request) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "req{%s %s", r.Kind, r.Table)
	if len(r.EqCols) > 0 {
		fmt.Fprintf(&sb, " eq=%v", r.EqCols)
	}
	if r.RangeCol != "" {
		fmt.Fprintf(&sb, " range=%s", r.RangeCol)
	}
	if len(r.Required) > 0 {
		fmt.Fprintf(&sb, " req=%v", r.Required)
	}
	if r.Bindings > 1 {
		fmt.Fprintf(&sb, " bind=%.0f", r.Bindings)
	}
	fmt.Fprintf(&sb, " cost=%.3f}", r.CurrentCost)
	return sb.String()
}

// NodeOp is the AND/OR tree node type.
type NodeOp int

// AND/OR tree operators: And children can all be satisfied
// simultaneously; Or children are mutually exclusive alternatives; Leaf
// wraps a request.
const (
	And NodeOp = iota
	Or
	Leaf
)

// Node is one AND/OR request-tree node (Figure 1 of the paper).
type Node struct {
	Op       NodeOp
	Children []*Node
	Req      *Request
}

// NewLeaf wraps a request.
func NewLeaf(r *Request) *Node { return &Node{Op: Leaf, Req: r} }

// NewAnd groups nodes that can be satisfied simultaneously.
func NewAnd(children ...*Node) *Node { return &Node{Op: And, Children: children} }

// NewOr groups mutually exclusive alternatives.
func NewOr(children ...*Node) *Node { return &Node{Op: Or, Children: children} }

// Requests returns all leaf requests in the tree in depth-first order.
func (n *Node) Requests() []*Request { return n.appendRequests(nil) }

// appendRequests is Requests into one accumulator: a tree costs its
// caller the result slice, not a slice per node.
func (n *Node) appendRequests(out []*Request) []*Request {
	if n == nil {
		return out
	}
	if n.Op == Leaf {
		if n.Req != nil {
			out = append(out, n.Req)
		}
		return out
	}
	for _, c := range n.Children {
		out = c.appendRequests(out)
	}
	return out
}

// ORGroups returns, for each OR node, the set of its leaf requests. The
// tuner uses this to account for shared-OR interactions (only one
// alternative of an OR group can be implemented, Section 3.2.1).
func (n *Node) ORGroups() [][]*Request {
	var out [][]*Request
	var walk func(m *Node)
	walk = func(m *Node) {
		if m == nil || m.Op == Leaf {
			return
		}
		if m.Op == Or {
			g := m.Requests()
			if len(g) > 1 {
				out = append(out, g)
			}
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// String renders the tree structure.
func (n *Node) String() string {
	var sb strings.Builder
	var walk func(m *Node, depth int)
	walk = func(m *Node, depth int) {
		pad := strings.Repeat("  ", depth)
		switch m.Op {
		case Leaf:
			fmt.Fprintf(&sb, "%s%s\n", pad, m.Req)
		case And:
			fmt.Fprintf(&sb, "%sAND\n", pad)
			for _, c := range m.Children {
				walk(c, depth+1)
			}
		case Or:
			fmt.Fprintf(&sb, "%sOR\n", pad)
			for _, c := range m.Children {
				walk(c, depth+1)
			}
		}
	}
	walk(n, 0)
	return sb.String()
}

// GetBestIndex returns the index that yields the cheapest plan
// implementing the request (Section 2.2): for a Seek request the
// equality columns, then the range column, then the sort columns, then
// the remaining required columns; for a Scan request the table's
// clustering (primary-key) columns first — which makes the index
// creation sort-free, the paper's I1 — followed by the remaining required
// columns. Update requests have no best index.
func GetBestIndex(cat *catalog.Catalog, r *Request) *catalog.Index {
	if r.Kind == KindUpdate {
		return nil
	}
	t := cat.Table(r.Table)
	if t == nil {
		return nil
	}
	cols := make([]string, 0, len(r.EqCols)+1+len(r.SortCols)+len(t.PrimaryKey)+len(r.Required))
	add := func(c string) {
		for _, x := range cols {
			if strings.EqualFold(x, c) {
				return
			}
		}
		cols = append(cols, c)
	}
	switch r.Kind {
	case KindSeek, KindEndpoint:
		// An endpoint request wants exactly a seek-shaped index: the
		// equality prefix, then the endpoint column (RangeCol).
		for _, c := range r.EqCols {
			add(c)
		}
		if r.RangeCol != "" {
			add(r.RangeCol)
		}
		for _, c := range r.SortCols {
			add(c)
		}
		for _, c := range r.Required {
			add(c)
		}
	case KindScan:
		if len(r.SortCols) > 0 {
			// An order requirement pins the leading columns.
			for _, c := range r.SortCols {
				add(c)
			}
		} else {
			// No order requirement: lead with the clustering key so the
			// build avoids its sort.
			for _, c := range t.PrimaryKey {
				add(c)
			}
		}
		for _, c := range r.Required {
			add(c)
		}
	}
	if len(cols) == 0 {
		return nil
	}
	ix := (&catalog.Index{
		Name:    "auto_" + r.Table + "_" + strings.Join(cols, "_"),
		Table:   r.Table,
		Columns: cols,
	}).Canonicalize()
	// The clustered primary index is never a "new" best index: if the
	// construction reproduces it, the request is best served by what
	// already exists.
	if pk := cat.PrimaryIndex(r.Table); pk != nil && pk.ID() == ix.ID() {
		return pk
	}
	return ix
}
