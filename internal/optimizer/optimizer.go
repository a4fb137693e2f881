package optimizer

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/whatif"
)

// Optimizer plans statements against the current physical configuration.
type Optimizer struct {
	env   *whatif.Env
	rules atomic.Uint32
}

// New returns an optimizer over the given what-if environment (catalog,
// statistics, storage and cost model). All rewrite rules start enabled.
func New(env *whatif.Env) *Optimizer {
	o := &Optimizer{env: env}
	o.rules.Store(uint32(DefaultRules))
	return o
}

// SetRules atomically swaps the rewrite-rule bitset.
func (o *Optimizer) SetRules(r Rules) { o.rules.Store(uint32(r)) }

// Rules returns the active rewrite-rule bitset.
func (o *Optimizer) Rules() Rules { return Rules(o.rules.Load()) }

// Result is an optimized statement: the physical plan, its estimated
// cost/cardinality, and the AND/OR request tree captured during
// optimization (Section 2.1).
type Result struct {
	Plan plan.Node
	Tree *whatif.Node
	Cost float64
	Rows float64

	// Generic marks a plan safe for literal re-substitution (Rebind): no
	// table column carries more than one lower or one upper range bound
	// and no subquery was unnested, so the plan's seek bounds and
	// residual predicates came from exactly one literal each and swapping
	// literals cannot change which predicates the plan evaluates; and no
	// literal is part of a result column's name or a group key
	// (literalText), so swapping them cannot change the output schema.
	Generic bool
	// Probes are a Generic plan's literal-dependent inputs (see Probe);
	// nil for other plans.
	Probes []Probe
	// FromCache/Rebound annotate results served by the engine's plan
	// cache: FromCache means the optimizer was skipped entirely; Rebound
	// additionally means new literals were substituted into the cached
	// plan (generic-plan reuse) rather than matching exactly.
	FromCache bool
	Rebound   bool

	// RulesApplied lists the canonical names of the rewrite rules that
	// actually fired on this plan, in canonical bit order (EXPLAIN
	// provenance: "-- rule: <name>").
	RulesApplied []string
}

// Requests returns all requests in the result's tree.
func (r *Result) Requests() []*whatif.Request { return r.Tree.Requests() }

// Optimize plans any supported statement.
func (o *Optimizer) Optimize(stmt sql.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *sql.Select:
		return o.planSelect(s)
	case *sql.Insert:
		return o.planInsert(s)
	case *sql.Update:
		return o.planUpdate(s)
	case *sql.Delete:
		return o.planDelete(s)
	}
	return nil, fmt.Errorf("optimizer: unsupported statement %T", stmt)
}

// joinState tracks the greedy join enumeration.
type joinState struct {
	node   plan.Node
	cost   float64
	rows   float64
	joined map[int]bool
	order  []plan.ColRef // current output order
}

func (o *Optimizer) planSelect(sel *sql.Select) (*Result, error) {
	rules := o.Rules()
	applied := map[string]bool{}

	// Subquery conjuncts (IN/EXISTS and negations) are split off before
	// binding: the outer query binds without them and each becomes a hash
	// semi-join on top of the join tree. Unnesting itself is unconditional
	// — it is the only way this engine executes subqueries — while the
	// RuleUnnest bit gates only the inner side's index-aware access path
	// and its request capture.
	outerSel, subqs := stripSubqueries(sel)
	if err := rejectSubqueries(outerSel); err != nil {
		return nil, err
	}
	sel = outerSel

	bq, err := bind(o.env.Cat, sel)
	if err != nil {
		return nil, err
	}

	// Analyze subqueries up front: their outer probe/correlation columns
	// must be in the required sets before access paths are chosen, or a
	// covering index scan could omit them.
	semis := make([]*semiSpec, 0, len(subqs))
	for _, e := range subqs {
		sp, err := o.analyzeSubquery(bq, e)
		if err != nil {
			return nil, err
		}
		semis = append(semis, sp)
	}

	// Column-name sort hints for single-table queries feed the requests.
	var sortCols []string
	if len(bq.tables) == 1 && len(sel.GroupBy) == 0 {
		for _, oi := range sel.OrderBy {
			cr, ok := oi.Expr.(*sql.ColumnRef)
			if !ok || oi.Desc {
				sortCols = nil
				break
			}
			sortCols = append(sortCols, cr.Column)
		}
	}

	// Access paths for every table.
	paths := make([]*accessPath, len(bq.tables))
	for i, bt := range bq.tables {
		var sc []string
		if len(bq.tables) == 1 {
			sc = sortCols
		}
		paths[i] = o.chooseAccess(bt, sc)
	}

	// MIN/MAX endpoint rule: may replace the single-table access path and
	// captures the endpoint request whenever the shape matches (semi-joins
	// above would filter rows the endpoint seek never produced, so the
	// rule stands down when subqueries are present).
	if len(semis) == 0 {
		o.tryMinMaxEndpoint(bq, paths, rules, applied)
	}

	// Per-table OR groups of requests.
	orGroups := make([]*whatif.Node, len(bq.tables))
	for i, p := range paths {
		var leaves []*whatif.Node
		for _, r := range p.requests {
			leaves = append(leaves, whatif.NewLeaf(r))
		}
		orGroups[i] = whatif.NewOr(leaves...)
	}

	// Greedy left-deep join order: start from the cheapest access, then
	// repeatedly add the joinable table with the lowest incremental cost.
	st := &joinState{joined: map[int]bool{}}
	start := 0
	for i := 1; i < len(paths); i++ {
		if paths[i].cost+paths[i].rows < paths[start].cost+paths[start].rows {
			start = i
		}
	}
	st.node = paths[start].node
	st.cost = paths[start].cost
	st.rows = paths[start].rows
	st.joined[start] = true
	for _, c := range paths[start].order {
		st.order = append(st.order, plan.ColRef{Table: bq.tables[start].name(), Column: c})
	}

	for len(st.joined) < len(bq.tables) {
		bestIdx, bestJoin := -1, (*joinChoice)(nil)
		for j := range bq.tables {
			if st.joined[j] {
				continue
			}
			jc := o.joinChoiceFor(bq, st, j, paths[j])
			if bestJoin == nil || jc.cost < bestJoin.cost {
				bestIdx, bestJoin = j, jc
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("optimizer: join enumeration stuck")
		}
		// Record the INLJ-alternative request for the joined table under
		// its OR group (the paper's ρ2).
		if bestJoin.inljRequest != nil {
			orGroups[bestIdx].Children = append(orGroups[bestIdx].Children, whatif.NewLeaf(bestJoin.inljRequest))
		}
		st.node = bestJoin.node
		st.cost = bestJoin.cost
		st.rows = bestJoin.rows
		st.order = bestJoin.order
		st.joined[bestIdx] = true
	}

	// Bushy join-order DP over small, order-safe join graphs. Runs after
	// the greedy loop so all greedy-captured requests (including INLJ
	// alternatives) are already in the tree.
	o.tryJoinDP(bq, paths, st, rules, applied)

	// Multi-table residual predicates.
	if len(bq.resid) > 0 {
		rows := st.rows * math.Pow(0.5, float64(len(bq.resid)))
		f := &plan.Filter{Child: st.node, Preds: bq.resid}
		f.Out = st.node.Schema()
		f.Cost = st.cost + st.rows*float64(len(bq.resid))*o.env.Model.CPUPred
		f.Rows = rows
		st.node = f
		st.cost = f.Cost
		st.rows = rows
	}

	// Semi-joins from unnested subqueries sit on top of the join tree:
	// they filter the probe stream in order, so their placement cannot
	// perturb the outer row order between rule settings.
	var extraGroups []*whatif.Node
	for _, sp := range semis {
		g := o.applySemiJoin(st, sp, rules, applied)
		if g != nil {
			extraGroups = append(extraGroups, g)
		}
	}

	// Column pruning below joins: inserts order-preserving narrowing
	// projections only, so row content and order are untouched.
	if rules.Has(RulePrune) && len(bq.tables) > 1 && !hasStar(sel) {
		o.pruneColumns(bq, st, semis, applied)
	}

	if err := o.finishSelect(bq, st, rules, applied); err != nil {
		return nil, err
	}

	var groups []*whatif.Node
	for _, g := range orGroups {
		groups = append(groups, g)
	}
	groups = append(groups, extraGroups...)
	tree := whatif.NewAnd(groups...)
	res := &Result{
		Plan: st.node, Tree: tree, Cost: st.cost, Rows: st.rows,
		Generic:      genericPreds(bq) && len(semis) == 0 && !literalText(sel),
		RulesApplied: appliedNames(applied),
	}
	if res.Generic {
		res.Probes = probesOf(bq)
	}
	return res, nil
}

// hasStar reports whether any select item is a star.
func hasStar(sel *sql.Select) bool {
	for _, it := range sel.Items {
		if it.Star {
			return true
		}
	}
	return false
}

// genericPreds reports whether the bound query's plan shape is
// independent of which literal values appear in its sargable
// predicates. With at most one lower and one upper bound per column,
// analyzeRanges never has to pick the tighter of two bounds by VALUE —
// so a plan built for one set of literals evaluates exactly the same
// predicate set for any other, and the plan cache may rebind it.
// (Duplicate equality predicates are fine: the first is always the one
// consumed by a seek, the rest stay residual, regardless of values.)
func genericPreds(bq *boundQuery) bool {
	for _, bt := range bq.tables {
		if dupCols(bt.lows) || dupCols(bt.highs) {
			return false
		}
	}
	return true
}

// dupCols reports whether two sargable predicates bind the same column.
func dupCols(ps []sargPred) bool {
	if len(ps) < 2 {
		return false
	}
	seen := map[string]bool{}
	for _, p := range ps {
		k := strings.ToLower(p.col)
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}

// joinChoice is one evaluated way to join the next table.
type joinChoice struct {
	node        plan.Node
	cost        float64
	rows        float64
	order       []plan.ColRef
	inljRequest *whatif.Request
}

// distinctOf estimates a column's distinct count.
func (o *Optimizer) distinctOf(table, col string) float64 {
	if cs := o.env.Stats.Get(table, col); cs != nil && cs.Distinct > 0 {
		return float64(cs.Distinct)
	}
	return math.Max(1, math.Sqrt(o.env.TableRows(table)))
}

// joinChoiceFor evaluates hash join vs index-nested-loop join (vs cross
// join when no predicate connects) for adding table j to the current
// state, and captures the INLJ request.
func (o *Optimizer) joinChoiceFor(bq *boundQuery, st *joinState, j int, path *accessPath) *joinChoice {
	bt := bq.tables[j]
	m := o.env.Model

	// Collect join predicates connecting the joined set to j.
	var outerKeys, innerKeys []sql.Expr
	var innerCols []string
	jsel := 1.0
	for _, jp := range bq.joins {
		var oi, oc, ic string
		switch {
		case st.joined[jp.lt] && jp.rt == j:
			oi, oc, ic = bq.tables[jp.lt].name(), jp.lc, jp.rc
		case st.joined[jp.rt] && jp.lt == j:
			oi, oc, ic = bq.tables[jp.rt].name(), jp.rc, jp.lc
		default:
			continue
		}
		outerKeys = append(outerKeys, &sql.ColumnRef{Table: oi, Column: oc})
		innerKeys = append(innerKeys, &sql.ColumnRef{Table: bt.name(), Column: ic})
		innerCols = append(innerCols, ic)
		jsel *= 1 / math.Max(1, math.Max(o.distinctOf(bt.ref.Table, ic), o.distinctOf(bq.tables[indexOfOther(bq, jp, j)].ref.Table, oc)))
	}

	outSchema := append(append([]plan.ColRef(nil), st.node.Schema()...), bt.schema()...)

	// Both join inputs are materialized (hash table, merge run or cross
	// buffer): charge the width-aware term so narrowing projections from
	// the column-prune rule have a cost to save. The term is charged in
	// every rule setting — only the projections depend on the rule bit —
	// so access and join-order choices stay rule-independent.
	widthTerm := m.RowWidth(st.rows, len(st.node.Schema())) + m.RowWidth(path.rows, len(path.node.Schema()))

	if len(outerKeys) == 0 {
		// Cross join fallback.
		rows := st.rows * path.rows
		n := &plan.CrossJoin{Left: st.node, Right: path.node}
		n.Out = append(append([]plan.ColRef(nil), st.node.Schema()...), path.node.Schema()...)
		n.Cost = st.cost + path.cost + rows*m.CPUTuple + widthTerm
		n.Rows = rows
		return &joinChoice{node: n, cost: n.Cost, rows: rows}
	}

	rowsOut := st.rows * path.rows * jsel
	if rowsOut < 1 {
		rowsOut = 1
	}

	// Hash join: build on the new table's access, probe with the current
	// result (preserving its order).
	hj := &plan.HashJoin{Left: st.node, Right: path.node, LeftKeys: outerKeys, RightKeys: innerKeys}
	hj.Out = append(append([]plan.ColRef(nil), st.node.Schema()...), path.node.Schema()...)
	hjCost := st.cost + path.cost + m.HashJoin(path.rows, st.rows) + widthTerm
	hj.Cost = hjCost
	hj.Rows = rowsOut
	best := &joinChoice{node: hj, cost: hjCost, rows: rowsOut, order: st.order}

	// INLJ: seek an index of j on the join column(s) for each outer row.
	table := bt.ref.Table
	tableRows := o.env.TableRows(table)
	tablePages := o.env.TablePages(table)
	var bestINLJ *joinChoice
	var bestINLJIndexID string
	for _, pi := range o.env.Mgr.TableIndexes(table) {
		ix := pi.Def
		if !o.env.Available(ix) {
			continue
		}
		// The index must lead with join columns (consume a prefix). The
		// seek keys are built in the INDEX's column order — the join
		// predicates may list the columns differently, and a misaligned
		// composite seek key would silently match the wrong rows.
		var seekKeys []sql.Expr
		usedPred := make([]bool, len(innerCols))
		sel := 1.0
		for _, col := range ix.Columns {
			k := indexOfFoldStr(innerCols, col)
			if k < 0 || usedPred[k] || len(seekKeys) >= len(innerCols) {
				break
			}
			usedPred[k] = true
			seekKeys = append(seekKeys, outerKeys[k])
			sel *= 1 / math.Max(1, o.distinctOf(table, col))
		}
		consumed := len(seekKeys)
		if consumed == 0 {
			continue
		}
		// Join predicates not consumed by the seek are evaluated post-join.
		var joinResid []sql.Expr
		for k := range innerCols {
			if !usedPred[k] {
				joinResid = append(joinResid, &sql.BinaryExpr{Op: "=", Left: outerKeys[k], Right: innerKeys[k]})
			}
		}
		matchRows := tableRows * sel
		covering := ix.Primary || ix.ContainsColumns(bt.required)
		pages := o.env.IndexPages(ix)
		c := st.cost + m.Seeks(st.rows, pages, math.Max(1, pages*sel), matchRows)
		if !covering {
			c += m.RIDLookups(st.rows*matchRows, tablePages)
		}
		preds := allPreds(bt)
		c += st.rows * matchRows * float64(len(preds)) * m.CPUPred
		// Only the outer stream is materialized through an INLJ.
		c += m.RowWidth(st.rows, len(st.node.Schema()))
		if bestINLJ == nil || c < bestINLJ.cost {
			inlj := &plan.INLJoin{
				Outer:     st.node,
				Index:     ix,
				Alias:     bt.name(),
				OuterKeys: seekKeys,
				Fetch:     !covering && !ix.Primary,
				Preds:     append(append([]sql.Expr(nil), preds...), joinResid...),
			}
			if covering && !ix.Primary {
				inlj.Out = append(append([]plan.ColRef(nil), st.node.Schema()...), plan.IndexSchema(ix, bt.name())...)
			} else {
				inlj.Out = outSchema
			}
			inlj.Cost = c
			inlj.Rows = rowsOut
			bestINLJ = &joinChoice{node: inlj, cost: c, rows: rowsOut, order: st.order}
			bestINLJIndexID = ix.ID()
		}
	}

	// Merge join: worthwhile when one or both inputs already arrive in
	// join-key order (otherwise the explicit sorts usually lose to the
	// hash join).
	leftSorted := orderPrefixMatches(st.order, outerKeys)
	rightSorted := pathOrderMatches(path.order, innerCols, bt.name())
	mjCost := st.cost + path.cost + m.MergeJoinExtra(st.rows, path.rows) + widthTerm
	if !leftSorted {
		mjCost += m.Sort(st.rows)
	}
	if !rightSorted {
		mjCost += m.Sort(path.rows)
	}
	if mjCost < best.cost {
		mj := &plan.MergeJoin{
			Left: st.node, Right: path.node,
			LeftKeys: outerKeys, RightKeys: innerKeys,
			LeftSorted: leftSorted, RightSorted: rightSorted,
		}
		mj.Out = append(append([]plan.ColRef(nil), st.node.Schema()...), path.node.Schema()...)
		mj.Cost = mjCost
		mj.Rows = rowsOut
		// Output arrives in join-key order.
		var order []plan.ColRef
		for _, k := range outerKeys {
			if cr, ok := k.(*sql.ColumnRef); ok {
				order = append(order, plan.ColRef{Table: cr.Table, Column: cr.Column})
			}
		}
		best = &joinChoice{node: mj, cost: mjCost, rows: rowsOut, order: order}
	}

	chosen := best
	chosenID := ""
	if bestINLJ != nil && bestINLJ.cost < best.cost {
		chosen = bestINLJ
		chosenID = bestINLJIndexID
	}

	// Capture the INLJ request (the paper's ρ2): the inner side could be
	// served by a seek with Bindings = outer cardinality.
	if len(innerCols) > 0 && tableRows > 0 {
		req := &whatif.Request{
			Table:          table,
			Kind:           whatif.KindSeek,
			Bindings:       math.Max(1, st.rows),
			Required:       append([]string(nil), bt.required...),
			ResidualPreds:  len(allPreds(bt)),
			TableRows:      tableRows,
			TablePages:     tablePages,
			CurrentCost:    chosen.cost - st.cost,
			CurrentIndexID: chosenID,
		}
		for _, c := range innerCols {
			req.EqCols = append(req.EqCols, c)
			req.EqSels = append(req.EqSels, 1/math.Max(1, o.distinctOf(table, c)))
		}
		req.RowsPerBinding = math.Max(1, tableRows*jsel)
		chosen.inljRequest = req
	}
	return chosen
}

// orderPrefixMatches reports whether the current output order starts
// with the given key expressions (all plain column references).
func orderPrefixMatches(order []plan.ColRef, keys []sql.Expr) bool {
	if len(keys) == 0 || len(order) < len(keys) {
		return false
	}
	for i, k := range keys {
		cr, ok := k.(*sql.ColumnRef)
		if !ok || !order[i].Matches(cr.Table, cr.Column) {
			return false
		}
	}
	return true
}

// pathOrderMatches reports whether a table access's output order starts
// with the inner join columns.
func pathOrderMatches(order []string, innerCols []string, alias string) bool {
	_ = alias
	if len(innerCols) == 0 || len(order) < len(innerCols) {
		return false
	}
	for i, c := range innerCols {
		if !strings.EqualFold(order[i], c) {
			return false
		}
	}
	return true
}

func indexOfOther(bq *boundQuery, jp joinPred, j int) int {
	if jp.lt == j {
		return jp.rt
	}
	return jp.lt
}

// finishSelect places aggregation, distinct, sort, limit and projection.
func (o *Optimizer) finishSelect(bq *boundQuery, st *joinState, rules Rules, applied map[string]bool) error {
	sel := bq.sel
	m := o.env.Model

	names := make([]string, len(sel.Items))
	for i, it := range sel.Items {
		switch {
		case it.Star:
			names[i] = "*"
		case it.Alias != "":
			names[i] = it.Alias
		default:
			names[i] = it.Expr.String()
		}
	}

	aggregated := bq.hasAggs || len(sel.GroupBy) > 0

	// Stop pushdown (RuleTopN): a LIMIT over a single access node whose
	// order requirement is already satisfied (or absent) stops the scan
	// after N passing rows. The Limit node above stays for exactness —
	// the stop is a pure early-exit, so results are byte-identical.
	if rules.Has(RuleTopN) && sel.Limit > 0 && !aggregated && !sel.Distinct {
		satisfied := len(sel.OrderBy) == 0
		if !satisfied {
			satisfied = orderSatisfiedBy(st.order, orderKeys(sel, false, false))
		}
		if satisfied && setScanStop(st.node, sel.Limit) {
			if lim := float64(sel.Limit); st.rows > lim && st.rows > 0 {
				st.cost *= lim / st.rows
				st.rows = lim
				updateBase(st.node, st.cost, st.rows)
			}
			applied["topn-pushdown"] = true
		}
	}
	if aggregated {
		// HashAgg evaluates the whole select list: aggregates accumulate,
		// scalars evaluate on each group's first row.
		agg := &plan.HashAgg{Child: st.node, GroupBy: sel.GroupBy}
		for i, it := range sel.Items {
			if it.Star {
				return fmt.Errorf("optimizer: SELECT * cannot be combined with aggregates")
			}
			spec := plan.AggSpec{Name: names[i]}
			if fe, ok := it.Expr.(*sql.FuncExpr); ok {
				spec.Func = fe.Name
				spec.Arg = fe.Arg
				spec.Star = fe.Star
			} else {
				spec.Func = "FIRST"
				spec.Arg = it.Expr
			}
			agg.Aggs = append(agg.Aggs, spec)
		}
		groups := st.rows
		if len(sel.GroupBy) == 0 {
			groups = 1
		} else {
			g := 1.0
			for _, ge := range sel.GroupBy {
				if cr, ok := ge.(*sql.ColumnRef); ok {
					ti, col, err := bq.resolve(cr)
					if err == nil {
						g *= o.distinctOf(bq.tables[ti].ref.Table, col)
						continue
					}
				}
				g *= 10
			}
			groups = math.Min(g, st.rows)
		}
		schema := make([]plan.ColRef, len(agg.Aggs))
		for i := range agg.Aggs {
			schema[i] = plan.ColRef{Column: agg.Aggs[i].Name}
		}
		agg.Out = schema
		agg.Cost = st.cost + st.rows*m.HashTup
		agg.Rows = math.Max(1, groups)
		st.node = agg
		st.cost = agg.Cost
		st.rows = agg.Rows
		st.order = nil // hash aggregation destroys any input order
	}

	// Projection before Sort when aggregating (sort keys reference output
	// names); otherwise Sort below Project so order keys can use any
	// column.
	projected := false
	project := func() {
		if projected {
			return
		}
		projected = true
		if len(sel.Items) == 1 && sel.Items[0].Star {
			return // SELECT *: pass rows through
		}
		if aggregated {
			return // HashAgg already produced the select list
		}
		exprs := make([]sql.Expr, 0, len(sel.Items))
		outNames := make([]string, 0, len(sel.Items))
		schema := make([]plan.ColRef, 0, len(sel.Items))
		for i, it := range sel.Items {
			if it.Star {
				for _, cr := range st.node.Schema() {
					exprs = append(exprs, &sql.ColumnRef{Table: cr.Table, Column: cr.Column})
					outNames = append(outNames, cr.Column)
					schema = append(schema, cr)
				}
				continue
			}
			exprs = append(exprs, it.Expr)
			outNames = append(outNames, names[i])
			schema = append(schema, plan.ColRef{Column: names[i]})
		}
		p := &plan.Project{Child: st.node, Exprs: exprs, Names: outNames}
		p.Out = schema
		p.Cost = st.cost + st.rows*m.CPUTuple
		p.Rows = st.rows
		st.node = p
		st.cost = p.Cost
	}

	// DISTINCT applies to the projected rows, so project first.
	if sel.Distinct {
		project()
		d := &plan.Distinct{Child: st.node}
		d.Out = st.node.Schema()
		d.Cost = st.cost + st.rows*m.HashTup
		d.Rows = math.Max(1, st.rows/2)
		st.node = d
		st.cost = d.Cost
		st.rows = d.Rows
		st.order = nil
	}

	limitHandled := false
	if len(sel.OrderBy) > 0 {
		keys := orderKeys(sel, aggregated, projected)
		if !orderSatisfiedBy(st.order, keys) {
			if aggregated {
				project() // no-op for agg, kept for symmetry
			}
			if rules.Has(RuleTopN) && sel.Limit >= 0 {
				// TopN pushdown: ORDER BY + LIMIT keeps only the N best rows
				// in a bounded heap instead of a full sort.
				t := &plan.TopN{Child: st.node, Keys: keys, N: sel.Limit}
				t.Out = st.node.Schema()
				t.Cost = st.cost + m.TopN(st.rows, float64(sel.Limit))
				t.Rows = math.Min(st.rows, float64(sel.Limit))
				st.node = t
				st.cost = t.Cost
				st.rows = t.Rows
				limitHandled = true
				applied["topn-pushdown"] = true
			} else {
				s := &plan.Sort{Child: st.node, Keys: keys}
				s.Out = st.node.Schema()
				s.Cost = st.cost + m.Sort(st.rows)
				s.Rows = st.rows
				st.node = s
				st.cost = s.Cost
			}
		}
	}

	project()

	if sel.Limit >= 0 && !limitHandled {
		l := &plan.Limit{Child: st.node, N: sel.Limit}
		l.Out = st.node.Schema()
		l.Cost = st.cost
		l.Rows = math.Min(st.rows, float64(sel.Limit))
		st.node = l
		st.rows = l.Rows
	}
	return nil
}

// orderKeys builds the ORDER BY sort keys, rewriting alias references to
// their select expressions unless the select list has already been
// produced (aggregation or DISTINCT), in which case sort keys reference
// the output's names.
func orderKeys(sel *sql.Select, aggregated, projected bool) []plan.SortKey {
	keys := make([]plan.SortKey, len(sel.OrderBy))
	for i, oi := range sel.OrderBy {
		e := oi.Expr
		if !aggregated && !projected {
			if cr, ok := e.(*sql.ColumnRef); ok && cr.Table == "" {
				for j, it := range sel.Items {
					if strings.EqualFold(it.Alias, cr.Column) && !it.Star {
						e = sel.Items[j].Expr
					}
				}
			}
		}
		keys[i] = plan.SortKey{Expr: e, Desc: oi.Desc}
	}
	return keys
}

// setScanStop pushes a stop row count into a direct access node; any
// other node shape refuses the pushdown.
func setScanStop(n plan.Node, limit int64) bool {
	switch x := n.(type) {
	case *plan.SeqScan:
		x.Stop = limit
	case *plan.IndexScan:
		x.Stop = limit
	case *plan.IndexSeek:
		x.Stop = limit
	default:
		return false
	}
	return true
}

// updateBase rewrites a direct access node's cached estimates after a
// stop pushdown scaled them.
func updateBase(n plan.Node, cost, rows float64) {
	switch x := n.(type) {
	case *plan.SeqScan:
		x.Cost, x.Rows = cost, rows
	case *plan.IndexScan:
		x.Cost, x.Rows = cost, rows
	case *plan.IndexSeek:
		x.Cost, x.Rows = cost, rows
	}
}

// orderSatisfiedBy reports whether the current physical order satisfies
// the sort keys (ascending column references only).
func orderSatisfiedBy(order []plan.ColRef, keys []plan.SortKey) bool {
	if len(keys) > len(order) {
		return false
	}
	for i, k := range keys {
		if k.Desc {
			return false
		}
		cr, ok := k.Expr.(*sql.ColumnRef)
		if !ok || !order[i].Matches(cr.Table, cr.Column) {
			return false
		}
	}
	return true
}

// planInsert plans INSERT ... VALUES and INSERT ... SELECT.
func (o *Optimizer) planInsert(ins *sql.Insert) (*Result, error) {
	t := o.env.Cat.Table(ins.Table)
	if t == nil {
		return nil, fmt.Errorf("optimizer: unknown table %s", ins.Table)
	}
	node := &plan.InsertNode{Table: t.Name}
	var cost, rows float64
	var tree *whatif.Node

	if ins.Query != nil {
		sub, err := o.planSelect(ins.Query)
		if err != nil {
			return nil, err
		}
		if len(sub.Plan.Schema()) != len(t.Columns) && len(ins.Columns) == 0 {
			return nil, fmt.Errorf("optimizer: INSERT SELECT arity mismatch for %s", t.Name)
		}
		node.Source = sub.Plan
		rows = sub.Rows
		cost = sub.Cost
		tree = sub.Tree
	} else {
		ncols := len(t.Columns)
		if len(ins.Columns) > 0 {
			ncols = len(ins.Columns)
		}
		for _, r := range ins.Rows {
			if len(r) != ncols {
				return nil, fmt.Errorf("optimizer: INSERT arity mismatch for %s", t.Name)
			}
			row, err := o.literalRow(t, ins.Columns, r)
			if err != nil {
				return nil, err
			}
			node.Literals = append(node.Literals, row)
		}
		rows = float64(len(node.Literals))
	}

	upReq := o.updateRequest(t, rows)
	cost += o.dmlCost(t, rows, upReq.UpdateTouchedIndexes)
	node.Cost = cost
	node.Rows = rows
	leaf := whatif.NewLeaf(upReq)
	if tree != nil {
		tree = whatif.NewAnd(tree, leaf)
	} else {
		tree = whatif.NewAnd(leaf)
	}
	return &Result{Plan: node, Tree: tree, Cost: cost, Rows: rows}, nil
}

// literalRow evaluates constant insert expressions into a full table row
// (missing columns become NULL).
func (o *Optimizer) literalRow(t *catalog.Table, cols []string, exprs []sql.Expr) (datum.Row, error) {
	row := make(datum.Row, len(t.Columns))
	for i := range row {
		row[i] = datum.Null
	}
	for i, e := range exprs {
		lit, ok := e.(*sql.Literal)
		if !ok {
			return nil, fmt.Errorf("optimizer: INSERT values must be literals, got %s", e)
		}
		ord := i
		if len(cols) > 0 {
			ord = t.ColumnIndex(cols[i])
			if ord < 0 {
				return nil, fmt.Errorf("optimizer: unknown column %s in INSERT", cols[i])
			}
		}
		if ord >= len(row) {
			return nil, fmt.Errorf("optimizer: too many values in INSERT")
		}
		row[ord] = lit.Value
	}
	return row, nil
}

// updateRequest builds the update-shell request for a DML statement.
func (o *Optimizer) updateRequest(t *catalog.Table, rows float64) *whatif.Request {
	touched := 0
	for _, pi := range o.env.Mgr.TableIndexes(t.Name) {
		if !pi.Def.Primary && o.env.Available(pi.Def) {
			touched++
		}
	}
	return &whatif.Request{
		Table:                t.Name,
		Kind:                 whatif.KindUpdate,
		UpdateRows:           rows,
		UpdateTouchedIndexes: touched,
		TableRows:            o.env.TableRows(t.Name),
		TablePages:           o.env.TablePages(t.Name),
		Bindings:             1,
	}
}

// dmlCost is the estimated write cost: base DML work plus maintenance of
// every active secondary index.
func (o *Optimizer) dmlCost(t *catalog.Table, rows float64, touched int) float64 {
	m := o.env.Model
	return m.DMLBase(rows, o.env.TablePages(t.Name)) + float64(touched)*m.IndexMaintenance(rows)
}

// planUpdate plans an UPDATE: the WHERE side is planned (and captured as
// requests) like a select, and its access path becomes the node's Source.
func (o *Optimizer) planUpdate(up *sql.Update) (*Result, error) {
	t := o.env.Cat.Table(up.Table)
	if t == nil {
		return nil, fmt.Errorf("optimizer: unknown table %s", up.Table)
	}
	src, res, err := o.locate(t, up.Where)
	if err != nil {
		return nil, err
	}
	for _, a := range up.Set {
		if t.ColumnIndex(a.Column) < 0 {
			return nil, fmt.Errorf("optimizer: unknown column %s in UPDATE %s", a.Column, t.Name)
		}
	}
	res.Plan = &plan.UpdateNode{Base: plan.Base{Cost: res.Cost, Rows: res.Rows}, Table: t.Name, Set: up.Set, Source: src}
	return res, nil
}

// planDelete plans a DELETE.
func (o *Optimizer) planDelete(del *sql.Delete) (*Result, error) {
	t := o.env.Cat.Table(del.Table)
	if t == nil {
		return nil, fmt.Errorf("optimizer: unknown table %s", del.Table)
	}
	src, res, err := o.locate(t, del.Where)
	if err != nil {
		return nil, err
	}
	res.Plan = &plan.DeleteNode{Base: plan.Base{Cost: res.Cost, Rows: res.Rows}, Table: t.Name, Source: src}
	return res, nil
}

// locate plans an UPDATE/DELETE around its select shell: the pseudo
// SELECT * WHERE ... goes through chooseAccess like any single-table
// select, the update shell is costed on the rows it locates, and both
// shells' requests form the statement's tree. It returns the chosen
// access path — the DML node's Source — and the statement's Result with
// Plan left for the caller to fill.
func (o *Optimizer) locate(t *catalog.Table, where sql.Expr) (plan.Node, *Result, error) {
	pseudo := &sql.Select{
		Items: []sql.SelectItem{{Star: true}},
		From:  sql.TableRef{Table: t.Name},
		Where: where,
		Limit: -1,
	}
	bq, err := bind(o.env.Cat, pseudo)
	if err != nil {
		return nil, nil, err
	}
	path := o.chooseAccess(bq.tables[0], nil)
	// The Source evaluates every WHERE conjunct on the rows it matches —
	// also those the seek bounds stand for and those that name no column
	// (WHERE 1 = 0 binds to no table). A seek is not exact: an upper-bound
	// range starts at the NULL keys, `a = NULL` matches them, and of two
	// equalities on one column only the first bounds the seek. The path's
	// cost and rows are left as chooseAccess priced them.
	setPreds(path.node, append(allPreds(bq.tables[0]), bq.resid...))

	upReq := o.updateRequest(t, path.rows)
	cost := path.cost + o.dmlCost(t, path.rows, upReq.UpdateTouchedIndexes)
	var leaves []*whatif.Node
	for _, r := range path.requests {
		leaves = append(leaves, whatif.NewLeaf(r))
	}
	tree := whatif.NewAnd(whatif.NewLeaf(upReq), whatif.NewOr(leaves...))
	res := &Result{Tree: tree, Cost: cost, Rows: path.rows, Generic: genericPreds(bq)}
	if res.Generic {
		res.Probes = probesOf(bq)
	}
	return path.node, res, nil
}

// setPreds replaces the predicates an access-path leaf evaluates.
func setPreds(n plan.Node, preds []sql.Expr) {
	switch x := n.(type) {
	case *plan.SeqScan:
		x.Preds = preds
	case *plan.IndexScan:
		x.Preds = preds
	case *plan.IndexSeek:
		x.Preds = preds
	}
}

func indexOfFoldStr(ss []string, s string) int {
	for i, x := range ss {
		if strings.EqualFold(x, s) {
			return i
		}
	}
	return -1
}
