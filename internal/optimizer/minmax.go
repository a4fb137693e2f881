package optimizer

import (
	"math"
	"strings"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/whatif"
)

// tryMinMaxEndpoint recognizes single-table MIN/MAX-only aggregates over
// one column with (at most) equality predicates. Whenever the shape
// matches it captures a KindEndpoint request — a new kind of access-path
// request the tuner can bid on even when no qualifying index exists —
// and when a qualifying index is available and cheaper, it replaces the
// access path with an IndexEndpoint node (at most two single-row seeks).
// The unchanged HashAgg above reduces the endpoint rows, so semantics —
// including zero rows aggregating to a NULL row — are exactly the
// scan-based aggregate's.
func (o *Optimizer) tryMinMaxEndpoint(bq *boundQuery, paths []*accessPath, rules Rules, applied map[string]bool) {
	if !rules.Has(RuleMinMax) || len(bq.tables) != 1 {
		return
	}
	sel := bq.sel
	if len(sel.GroupBy) > 0 || sel.Distinct || !bq.hasAggs {
		return
	}
	bt := bq.tables[0]
	// Only equality predicates, one per column: ranges and residuals
	// would filter rows the endpoint seek never visits, and duplicate
	// equalities on one column cannot all be consumed by the seek.
	if len(bt.lows)+len(bt.highs)+len(bt.resid) > 0 || dupCols(bt.eqs) {
		return
	}
	var col string
	wantMin, wantMax := false, false
	for _, it := range sel.Items {
		fe, ok := it.Expr.(*sql.FuncExpr)
		if !ok || fe.Star {
			return
		}
		cr, ok := fe.Arg.(*sql.ColumnRef)
		if !ok {
			return
		}
		_, c, err := bq.resolve(cr)
		if err != nil {
			return
		}
		if col == "" {
			col = c
		} else if !strings.EqualFold(col, c) {
			return
		}
		switch fe.Name {
		case "MIN":
			wantMin = true
		case "MAX":
			wantMax = true
		default:
			return
		}
	}
	if col == "" || (!wantMin && !wantMax) {
		return
	}

	m := o.env.Model
	table := bt.ref.Table
	tableRows := o.env.TableRows(table)
	tablePages := o.env.TablePages(table)
	endpoints := 0
	if wantMin {
		endpoints++
	}
	if wantMax {
		endpoints++
	}

	// The endpoint request is captured whether or not an index qualifies:
	// this is exactly the what-if traffic the tuner bids on.
	req := &whatif.Request{
		Table:          table,
		Kind:           whatif.KindEndpoint,
		RangeCol:       col,
		RangeSel:       1 / math.Max(1, tableRows),
		Required:       append([]string(nil), bt.required...),
		Bindings:       1,
		RowsPerBinding: float64(endpoints),
		TableRows:      tableRows,
		TablePages:     tablePages,
		CurrentCost:    paths[0].cost,
	}
	for _, eq := range bt.eqs {
		req.EqCols = append(req.EqCols, eq.col)
		req.EqSels = append(req.EqSels, o.selEq(table, eq.col, eq.val))
	}
	paths[0].requests = append(paths[0].requests, req)

	// Find the cheapest qualifying index: every equality column consumed
	// as the leading prefix (in index column order), then the endpoint
	// column immediately next.
	var bestIx *catalog.Index
	bestCost := math.Inf(1)
	var bestEqVals []datum.Datum
	var bestEqLits []*sql.Literal
	for _, pi := range o.env.Mgr.TableIndexes(table) {
		ix := pi.Def
		if !o.env.Available(ix) {
			continue
		}
		var eqVals []datum.Datum
		var eqLits []*sql.Literal
		qualifies := false
		for _, icol := range ix.Columns {
			if len(eqVals) < len(bt.eqs) {
				if eq := findEq(bt.eqs, icol); eq != nil {
					eqVals = append(eqVals, eq.val)
					eqLits = append(eqLits, litOf(eq.expr))
					continue
				}
				break
			}
			qualifies = strings.EqualFold(icol, col)
			break
		}
		if !qualifies || len(eqVals) != len(bt.eqs) {
			continue
		}
		pages := o.env.IndexPages(ix)
		c := float64(endpoints) * m.IndexSeek(pages, 1, 1)
		if !ix.Primary {
			c += m.RIDLookups(float64(endpoints), tablePages)
		}
		if c < bestCost {
			bestIx, bestCost = ix, c
			bestEqVals, bestEqLits = eqVals, eqLits
		}
	}
	if bestIx == nil || bestCost >= paths[0].cost {
		return
	}

	n := &plan.IndexEndpoint{
		Index: bestIx, Alias: bt.name(), Col: col,
		EqVals: bestEqVals, EqLits: bestEqLits,
		WantMin: wantMin, WantMax: wantMax,
	}
	n.Out = bt.schema()
	n.Cost = bestCost
	n.Rows = float64(endpoints)
	req.CurrentCost = bestCost
	req.CurrentIndexID = bestIx.ID()
	paths[0] = &accessPath{node: n, cost: bestCost, rows: n.Rows, requests: paths[0].requests}
	applied["minmax-endpoint"] = true
}
