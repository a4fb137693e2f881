package optimizer

import (
	"slices"
	"strings"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/whatif"
)

// accessPath is the chosen physical access for one table plus the
// requests captured while the alternatives were generated.
type accessPath struct {
	node  plan.Node
	cost  float64
	rows  float64
	order []string // output order (table-column names), empty if none
	// requests captured for this access (scan request, plus a seek
	// request when sargable predicates exist).
	requests []*whatif.Request
}

// selEq returns the selectivity of column = val, preferring the
// histogram.
func (o *Optimizer) selEq(table, col string, val datum.Datum) float64 {
	if cs := o.env.Stats.Get(table, col); cs != nil && cs.Hist != nil && cs.Rows > 0 {
		s := cs.Hist.SelectivityEq(val)
		if s <= 0 {
			s = 0.5 / float64(max(cs.Rows, 1))
		}
		return s
	}
	return o.env.SelectivityEq(table, col)
}

// selRange returns the selectivity of a column's merged range bounds,
// preferring the histogram.
func (o *Optimizer) selRange(table, col string, lo, hi *datum.Datum, loInc, hiInc bool) float64 {
	if cs := o.env.Stats.Get(table, col); cs != nil && cs.Hist != nil {
		s := cs.Hist.SelectivityRange(lo, hi, loInc, hiInc)
		if s <= 0 {
			s = 0.5 / float64(max(cs.Rows, 1))
		}
		return s
	}
	if lo != nil && hi != nil {
		return whatif.DefaultRangeSel / 2
	}
	return whatif.DefaultRangeSel
}

// rangeBounds aggregates the lows/highs on one column into bounds.
type rangeBounds struct {
	col          string
	lo, hi       *datum.Datum
	loInc, hiInc bool
	sel          float64
	exprs        []sql.Expr
	// loExpr/hiExpr are the predicates that supplied the chosen bounds
	// (literal provenance for plan-cache rebinding).
	loExpr, hiExpr sql.Expr
}

// analyzeRanges merges range predicates per column and estimates their
// selectivity.
func (o *Optimizer) analyzeRanges(bt *boundTable) []*rangeBounds {
	out := mergeRanges(bt)
	for _, rb := range out {
		rb.sel = o.selRange(bt.ref.Table, rb.col, rb.lo, rb.hi, rb.loInc, rb.hiInc)
	}
	return out
}

// mergeRanges merges a table's range predicates into one bound pair per
// column. Columns come back in the order their first bound appears, so
// every product over them is formed in one order and a plan's estimates
// repeat to the bit.
func mergeRanges(bt *boundTable) []*rangeBounds {
	var out []*rangeBounds
	get := func(col string) *rangeBounds {
		if rb := findRange(out, col); rb != nil {
			return rb
		}
		rb := &rangeBounds{col: col, sel: 1}
		out = append(out, rb)
		return rb
	}
	for _, p := range bt.lows {
		rb := get(p.col)
		v := p.val
		inc := p.op == ">="
		if rb.lo == nil || v.Compare(*rb.lo) > 0 {
			rb.lo, rb.loInc = &v, inc
			rb.loExpr = p.expr
		}
		rb.exprs = append(rb.exprs, p.expr)
	}
	for _, p := range bt.highs {
		rb := get(p.col)
		v := p.val
		inc := p.op == "<="
		if rb.hi == nil || v.Compare(*rb.hi) < 0 {
			rb.hi, rb.hiInc = &v, inc
			rb.hiExpr = p.expr
		}
		rb.exprs = append(rb.exprs, p.expr)
	}
	return out
}

// findRange returns the merged bounds on col, or nil.
func findRange(ranges []*rangeBounds, col string) *rangeBounds {
	for _, rb := range ranges {
		if strings.EqualFold(rb.col, col) {
			return rb
		}
	}
	return nil
}

// tableSel returns the combined selectivity of all of the table's
// predicates, and per-piece info for access planning.
func (o *Optimizer) tableSel(bt *boundTable, ranges []*rangeBounds) float64 {
	sel := 1.0
	for _, p := range bt.eqs {
		sel *= o.selEq(bt.ref.Table, p.col, p.val)
	}
	for _, rb := range ranges {
		sel *= rb.sel
	}
	// Residuals: a flat guess each.
	for range bt.resid {
		sel *= 0.5
	}
	if sel < 0 {
		sel = 0
	}
	return sel
}

// allPreds returns every single-table predicate expression of bt.
func allPreds(bt *boundTable) []sql.Expr {
	var out []sql.Expr
	for _, p := range bt.eqs {
		out = append(out, p.expr)
	}
	for _, p := range bt.lows {
		out = append(out, p.expr)
	}
	for _, p := range bt.highs {
		out = append(out, p.expr)
	}
	out = append(out, bt.resid...)
	return out
}

// chooseAccess picks the cheapest access path for a table and captures
// the scan/seek requests.
func (o *Optimizer) chooseAccess(bt *boundTable, sortCols []string) *accessPath {
	table := bt.ref.Table
	alias := bt.name()
	rows := o.env.TableRows(table)
	pages := o.env.TablePages(table)
	ranges := o.analyzeRanges(bt)
	outSel := o.tableSel(bt, ranges)
	outRows := rows * outSel
	if outRows < 1 && rows > 0 {
		outRows = 1
	}
	preds := allPreds(bt)
	npreds := len(preds)

	// Baseline: heap scan.
	best := &accessPath{
		cost: o.env.Model.HeapScan(pages, rows, npreds),
		rows: outRows,
	}
	scan := &plan.SeqScan{Table: table, Alias: alias, Preds: preds}
	scan.Out = bt.schema()
	scan.Cost = best.cost
	scan.Rows = outRows
	best.node = scan
	bestIndexID := ""

	// Index alternatives. The primary participates too: it can seek on
	// its key prefix (a full primary scan is the SeqScan baseline).
	for _, pi := range o.env.Mgr.TableIndexes(table) {
		ix := pi.Def
		if !o.env.Available(ix) {
			continue
		}
		cand, candCost := o.indexAccess(bt, ix, ranges, outRows, npreds)
		if cand != nil && candCost < best.cost {
			best.node = cand
			best.cost = candCost
			bestIndexID = ix.ID()
			best.order = orderFrom(cand)
		}
	}

	// Charge a sort if an order is required and not produced. (The caller
	// decides whether to place a Sort node; this keeps the access cost
	// comparable across alternatives.)

	// Capture requests (Section 2.1). Scan request: required columns in
	// no particular order.
	scanReq := &whatif.Request{
		Table:          table,
		Kind:           whatif.KindScan,
		Required:       append([]string(nil), bt.required...),
		SortCols:       append([]string(nil), sortCols...),
		Bindings:       1,
		RowsPerBinding: outRows,
		ResidualPreds:  npreds,
		TableRows:      rows,
		TablePages:     pages,
		CurrentCost:    best.cost,
		CurrentIndexID: bestIndexID,
	}
	best.requests = append(best.requests, scanReq)

	// Seek request when sargable predicates exist.
	if len(bt.eqs) > 0 || len(ranges) > 0 {
		seekReq := &whatif.Request{
			Table:          table,
			Kind:           whatif.KindSeek,
			Required:       append([]string(nil), bt.required...),
			SortCols:       append([]string(nil), sortCols...),
			Bindings:       1,
			RowsPerBinding: outRows,
			TableRows:      rows,
			TablePages:     pages,
			CurrentCost:    best.cost,
			CurrentIndexID: bestIndexID,
		}
		seen := map[string]bool{}
		for _, p := range bt.eqs {
			key := strings.ToLower(p.col)
			if seen[key] {
				continue
			}
			seen[key] = true
			seekReq.EqCols = append(seekReq.EqCols, p.col)
			seekReq.EqSels = append(seekReq.EqSels, o.selEq(table, p.col, p.val))
		}
		// Pick the most selective range column not already equality-bound.
		var bestRB *rangeBounds
		for _, rb := range ranges {
			if seen[strings.ToLower(rb.col)] {
				continue
			}
			if bestRB == nil || rb.sel < bestRB.sel {
				bestRB = rb
			}
		}
		if bestRB != nil {
			seekReq.RangeCol = bestRB.col
			seekReq.RangeSel = bestRB.sel
		}
		seekReq.ResidualPreds = npreds - len(seekReq.EqCols)
		if seekReq.RangeCol != "" {
			seekReq.ResidualPreds -= len(bestRB.exprs)
			if seekReq.ResidualPreds < 0 {
				seekReq.ResidualPreds = 0
			}
		}
		best.requests = append(best.requests, seekReq)
	}
	return best
}

// indexAccess builds the best plan node using ix for this table, or nil.
func (o *Optimizer) indexAccess(bt *boundTable, ix *catalog.Index, ranges []*rangeBounds, outRows float64, npreds int) (plan.Node, float64) {
	table := bt.ref.Table
	alias := bt.name()
	rows := o.env.TableRows(table)
	tablePages := o.env.TablePages(table)
	ixPages := o.env.IndexPages(ix)

	// Consume leading equality columns in index order. bound collects the
	// conjuncts that become the seek's bounds; every other conjunct — a
	// second equality or a looser second bound on a seek column included —
	// stays a residual, because the seek does not enforce it.
	var eqVals []datum.Datum
	var eqLits []*sql.Literal
	var boundBuf [8]sql.Expr
	bound := boundBuf[:0]
	sel := 1.0
	pos := 0
	for ; pos < len(ix.Columns); pos++ {
		col := ix.Columns[pos]
		p := findEq(bt.eqs, col)
		if p == nil {
			break
		}
		eqVals = append(eqVals, p.val)
		eqLits = append(eqLits, litOf(p.expr))
		bound = append(bound, p.expr)
		sel *= o.selEq(table, col, p.val)
	}
	// Range on the next column.
	var rb *rangeBounds
	if pos < len(ix.Columns) {
		if rb = findRange(ranges, ix.Columns[pos]); rb != nil {
			sel *= rb.sel
			bound = append(bound, rb.loExpr, rb.hiExpr)
		}
	}

	covering := ix.ContainsColumns(bt.required)
	m := o.env.Model

	if len(eqVals) == 0 && rb == nil {
		// Pure scan of the index: only useful when covering and narrower
		// than the heap. A primary scan IS the SeqScan baseline.
		if !covering || ix.Primary {
			return nil, 0
		}
		c := m.IndexScan(ixPages, rows, npreds)
		n := &plan.IndexScan{Index: ix, Alias: alias, Preds: allPreds(bt)}
		n.Out = plan.IndexSchema(ix, alias)
		n.Cost = c
		n.Rows = outRows
		return n, c
	}

	matchRows := rows * sel
	matchPages := ixPages * sel
	if matchPages < 1 {
		matchPages = 1
	}
	c := m.IndexSeek(ixPages, matchPages, matchRows)
	if !covering {
		c += m.RIDLookups(matchRows, tablePages)
	}
	// Residual predicates (not consumed by the seek).
	var resid []sql.Expr
	for _, ps := range [][]sargPred{bt.eqs, bt.lows, bt.highs} {
		for _, p := range ps {
			if !slices.Contains(bound, p.expr) {
				resid = append(resid, p.expr)
			}
		}
	}
	resid = append(resid, bt.resid...)
	c += matchRows * float64(len(resid)) * m.CPUPred

	n := &plan.IndexSeek{Index: ix, Alias: alias, EqVals: eqVals, EqLits: eqLits, Fetch: !covering && !ix.Primary, Preds: resid}
	if rb != nil {
		n.Lo, n.Hi, n.LoInc, n.HiInc = rb.lo, rb.hi, rb.loInc, rb.hiInc
		if rb.lo != nil {
			n.LoLit = litOf(rb.loExpr)
		}
		if rb.hi != nil {
			n.HiLit = litOf(rb.hiExpr)
		}
	}
	if covering && !ix.Primary {
		n.Out = plan.IndexSchema(ix, alias)
	} else {
		// Primary seeks (and non-covering fetches) produce full table rows.
		n.Out = bt.schema()
	}
	n.Cost = c
	n.Rows = outRows
	return n, c
}

// orderFrom reports the column order a node's output is sorted by.
func orderFrom(n plan.Node) []string {
	switch x := n.(type) {
	case *plan.IndexScan:
		return x.Index.Columns
	case *plan.IndexSeek:
		if len(x.EqVals) < len(x.Index.Columns) {
			return x.Index.Columns[len(x.EqVals):]
		}
	}
	return nil
}

// litOf extracts the literal of a `column OP literal` predicate (either
// operand order), or nil when the expression has no single source
// literal.
func litOf(e sql.Expr) *sql.Literal {
	if be, ok := e.(*sql.BinaryExpr); ok {
		if _, lit, _ := colLit(be); lit != nil {
			return lit
		}
	}
	return nil
}

func findEq(eqs []sargPred, col string) *sargPred {
	for i := range eqs {
		if strings.EqualFold(eqs[i].col, col) {
			return &eqs[i]
		}
	}
	return nil
}
