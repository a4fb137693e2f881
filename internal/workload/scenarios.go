// Adversarial tuning scenarios. The paper's evaluation (Figures 7/8)
// races OnlinePT on one workload family — repeated TPC-H batches with a
// single disruptive update burst. The scenario matrix below generalizes
// that into the situations online tuners are actually judged on
// (DBA bandits, Perera et al.): workload drift, skewed multi-tenant
// interleaving, ad-hoc never-repeating queries, and update storms that
// punish eager index creation. Every scenario is a pure function of
// (scenario name, seed): statements are drawn from seeded splitmix64
// streams keyed per (scenario, tenant) — see rng.go — so any race cell
// replays byte-identically from those two values alone.
package workload

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"onlinetuner/internal/engine"
	"onlinetuner/internal/tpch"
)

// ScenarioOptions parameterize scenario construction. The zero value of
// every field selects a sensible default; Scale and Seed are the only
// knobs races normally set.
type ScenarioOptions struct {
	Scale tpch.Scale
	Seed  int64
	// Statements is the approximate total statement budget (0 = the
	// scenario's default, roughly 240–320).
	Statements int
	// Tenants is the tenant count for the multi-tenant scenario (0 = 6).
	Tenants int
	// BudgetFraction sets the index budget as a fraction of loaded data
	// bytes (0 = 2.0).
	BudgetFraction float64
}

func (o ScenarioOptions) withDefaults() ScenarioOptions {
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	if o.Tenants <= 0 {
		o.Tenants = 6
	}
	if o.BudgetFraction <= 0 {
		o.BudgetFraction = 2.0
	}
	return o
}

// Scenario is one adversarial workload family.
type Scenario struct {
	Name        string
	Description string
	Build       func(ScenarioOptions) *Workload
}

// Scenarios returns the adversarial matrix in canonical order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "stable",
			Description: "repeated OLAP mix with fresh parameters — the paper's own regime, as a control",
			Build:       buildStable,
		},
		{
			Name:        "drift",
			Description: "OLAP→OLTP flips at epoch boundaries; each epoch rewards a different index set",
			Build:       buildDrift,
		},
		{
			Name:        "tenants",
			Description: "Zipf-skewed multi-tenant interleaving; only hot tenants' indexes pay off",
			Build:       buildTenants,
		},
		{
			Name:        "adhoc",
			Description: "never-repeating query structures; fingerprint caching and index evidence both starve",
			Build:       buildAdhoc,
		},
		{
			Name:        "storm",
			Description: "query lulls followed by wide update storms that punish eager index creation",
			Build:       buildStorm,
		},
	}
}

// ScenarioNames lists the canonical scenario names in order.
func ScenarioNames() []string {
	var out []string
	for _, s := range Scenarios() {
		out = append(out, s.Name)
	}
	return out
}

// BuildScenario constructs one scenario's workload by name.
func BuildScenario(name string, o ScenarioOptions) (*Workload, error) {
	for _, s := range Scenarios() {
		if strings.EqualFold(s.Name, name) {
			return s.Build(o), nil
		}
	}
	return nil, fmt.Errorf("workload: unknown scenario %q (want one of %s)",
		name, strings.Join(ScenarioNames(), "|"))
}

// scenarioDB loads the TPC-H substrate at (scale, seed) and applies the
// index budget — identical for every advisor racing in the cell.
func scenarioDB(o ScenarioOptions) func() *engine.DB {
	return func() *engine.DB {
		db := engine.Open()
		if err := tpch.NewGenerator(o.Scale, o.Seed).Load(db); err != nil {
			panic(err)
		}
		var dataBytes int64
		for _, t := range db.Cat.Tables() {
			if h := db.Mgr.Heap(t.Name); h != nil {
				dataBytes += h.Bytes()
			}
		}
		db.Mgr.SetBudget(int64(float64(dataBytes) * o.BudgetFraction))
		return db
	}
}

// Scenario date range, matching the generated data (see tpch/datagen.go).
const (
	scenarioEpochDay  = 8035 // days from 1970-01-01 to 1992-01-01
	scenarioDateRange = 2405
)

func scenarioDate(days int) string {
	t := time.Unix(int64(days)*86400, 0).UTC()
	return fmt.Sprintf("DATE '%s'", t.Format("2006-01-02"))
}

// ---- statement templates ------------------------------------------------
//
// OLAP shapes reward covering range indexes on the fact tables; OLTP
// shapes reward narrow equality indexes on foreign keys. The split is
// what makes drift adversarial: no single configuration serves both.

// olapLineitemAgg is the Q1/Q6-ish shape: a selective l_shipdate range
// with grouped aggregates. An index on l_shipdate wins big.
func olapLineitemAgg(s *stream) string {
	d := scenarioEpochDay + s.intn(scenarioDateRange-130)
	span := 60 + s.intn(60)
	if s.intn(2) == 0 {
		return fmt.Sprintf(`SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) AS rev
			FROM lineitem WHERE l_shipdate >= %s AND l_shipdate < %s
			GROUP BY l_returnflag ORDER BY l_returnflag`,
			scenarioDate(d), scenarioDate(d+span))
	}
	return fmt.Sprintf(`SELECT SUM(l_extendedprice * l_discount) AS revenue
		FROM lineitem WHERE l_shipdate >= %s AND l_shipdate < %s AND l_quantity < %d`,
		scenarioDate(d), scenarioDate(d+span), 20+s.intn(20))
}

// olapOrdersAgg is a selective o_orderdate range aggregate.
func olapOrdersAgg(s *stream) string {
	d := scenarioEpochDay + s.intn(scenarioDateRange-120)
	return fmt.Sprintf(`SELECT o_orderpriority, COUNT(*) AS cnt
		FROM orders WHERE o_orderdate >= %s AND o_orderdate < %s
		GROUP BY o_orderpriority ORDER BY o_orderpriority`,
		scenarioDate(d), scenarioDate(d+90))
}

// oltpLineitemByPart is a point lookup by l_partkey.
func oltpLineitemByPart(s *stream, rows map[string]int) string {
	return fmt.Sprintf("SELECT l_extendedprice, l_quantity FROM lineitem WHERE l_partkey = %d",
		s.intn(maxRows(rows, "part")))
}

// oltpOrdersByCust is a point lookup by o_custkey.
func oltpOrdersByCust(s *stream, rows map[string]int) string {
	return fmt.Sprintf("SELECT o_orderdate, o_totalprice FROM orders WHERE o_custkey = %d",
		s.intn(maxRows(rows, "customer")))
}

// oltpPartsuppBySupp is a point lookup by ps_suppkey.
func oltpPartsuppBySupp(s *stream, rows map[string]int) string {
	return fmt.Sprintf("SELECT ps_availqty, ps_supplycost FROM partsupp WHERE ps_suppkey = %d",
		s.intn(maxRows(rows, "supplier")))
}

// oltpTouchOrder is the light DML that erodes fact-table indexes during
// OLTP epochs: one order's lineitems get maintained on every lineitem
// index.
func oltpTouchOrder(s *stream, rows map[string]int) string {
	return fmt.Sprintf("UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey = %d",
		s.intn(maxRows(rows, "orders")))
}

// stormUpdate is the wide-range update that makes eager index creation
// lose: a quarter of the order key space per statement, so every held
// lineitem index pays bulk maintenance.
func stormUpdate(s *stream, rows map[string]int) string {
	orders := maxRows(rows, "orders")
	width := orders / 4
	if width < 1 {
		width = 1
	}
	lo := s.intn(orders)
	return fmt.Sprintf(
		"UPDATE lineitem SET l_quantity = l_quantity + 1, l_extendedprice = l_extendedprice + 1 WHERE l_orderkey >= %d AND l_orderkey < %d",
		lo, lo+width)
}

func maxRows(rows map[string]int, table string) int {
	if n := rows[table]; n > 0 {
		return n
	}
	return 1
}

// ---- scenario builders --------------------------------------------------

// buildStable repeats the OLAP mix with fresh parameters — repetition
// the online tuner converts into evidence, like the paper's Figure 7.
func buildStable(o ScenarioOptions) *Workload {
	o = o.withDefaults()
	total := o.Statements
	if total <= 0 {
		total = 300
	}
	s := newStream(o.Seed, "stable", 0)
	w := &Workload{
		Name:  fmt.Sprintf("stable (%d OLAP statements, scale %.2g, seed %d)", total, float64(o.Scale), o.Seed),
		NewDB: scenarioDB(o),
	}
	batch := total / 10
	if batch < 1 {
		batch = 1
	}
	for i := 0; i < total; i++ {
		if i%batch == 0 {
			w.Boundaries = append(w.Boundaries, len(w.Statements))
		}
		switch i % 3 {
		case 0, 1:
			w.Statements = append(w.Statements, olapLineitemAgg(s))
		default:
			w.Statements = append(w.Statements, olapOrdersAgg(s))
		}
	}
	return w
}

// buildDrift alternates OLAP epochs (range aggregates over the fact
// tables) with OLTP epochs (foreign-key point lookups plus light DML
// that maintains — and erodes — the OLAP indexes). Each flip invalidates
// the previous epoch's best configuration.
func buildDrift(o ScenarioOptions) *Workload {
	o = o.withDefaults()
	total := o.Statements
	if total <= 0 {
		total = 320
	}
	const epochs = 4
	epochLen := total / epochs
	if epochLen < 1 {
		epochLen = 1
	}
	rows := o.Scale.Rows()
	s := newStream(o.Seed, "drift", 0)
	w := &Workload{
		Name: fmt.Sprintf("drift (%d epochs × %d, OLAP↔OLTP flips, scale %.2g, seed %d)",
			epochs, epochLen, float64(o.Scale), o.Seed),
		NewDB: scenarioDB(o),
	}
	for e := 0; e < epochs; e++ {
		w.Boundaries = append(w.Boundaries, len(w.Statements))
		olap := e%2 == 0
		for i := 0; i < epochLen; i++ {
			var stmt string
			if olap {
				if i%3 == 2 {
					stmt = olapOrdersAgg(s)
				} else {
					stmt = olapLineitemAgg(s)
				}
			} else {
				switch i % 4 {
				case 0:
					stmt = oltpLineitemByPart(s, rows)
				case 1:
					stmt = oltpOrdersByCust(s, rows)
				case 2:
					stmt = oltpPartsuppBySupp(s, rows)
				default:
					stmt = oltpTouchOrder(s, rows)
				}
			}
			w.Statements = append(w.Statements, stmt)
		}
	}
	return w
}

// tenantStatement draws tenant t's next statement from t's own stream.
// Each tenant's template family targets a different (table, column), so
// the index that serves one tenant is useless to the others.
func tenantStatement(t int, s *stream, rows map[string]int) string {
	switch t % 6 {
	case 0:
		return olapLineitemAgg(s)
	case 1:
		return oltpOrdersByCust(s, rows)
	case 2:
		return oltpLineitemByPart(s, rows)
	case 3:
		return oltpPartsuppBySupp(s, rows)
	case 4:
		lo := 1 + s.intn(44)
		return fmt.Sprintf("SELECT p_partkey, p_retailprice FROM part WHERE p_size >= %d AND p_size < %d", lo, lo+5)
	default:
		return olapOrdersAgg(s)
	}
}

// buildTenants interleaves tenant streams with Zipf-skewed arrival: the
// hot tenants dominate, so their indexes earn creation while the cold
// tail never accumulates enough evidence — the multi-tenant regime of
// the DBA-bandits evaluation. Tenant parameter streams are keyed per
// (scenario, tenant); the interleaving order draws from its own stream,
// so reordering arrivals never perturbs any tenant's statement content.
func buildTenants(o ScenarioOptions) *Workload {
	o = o.withDefaults()
	total := o.Statements
	if total <= 0 {
		total = 300
	}
	rows := o.Scale.Rows()
	arrival := newZipf(newStream(o.Seed, "tenants.arrival", 0), o.Tenants, 1.2)
	streams := make([]*stream, o.Tenants)
	for t := range streams {
		streams[t] = newStream(o.Seed, "tenants", t+1)
	}
	w := &Workload{
		Name: fmt.Sprintf("tenants (%d Zipf-skewed tenants, %d statements, scale %.2g, seed %d)",
			o.Tenants, total, float64(o.Scale), o.Seed),
		NewDB: scenarioDB(o),
	}
	batch := total / 10
	if batch < 1 {
		batch = 1
	}
	for i := 0; i < total; i++ {
		if i%batch == 0 {
			w.Boundaries = append(w.Boundaries, len(w.Statements))
		}
		t := arrival.draw()
		w.Statements = append(w.Statements, tenantStatement(t, streams[t], rows))
	}
	return w
}

// adhocTable describes one table's ad-hoc building blocks.
type adhocTable struct {
	name  string
	preds []adhocPred
	projs [][]string
}

type adhocPred struct {
	col string
	// lo/hi bound integer parameter draws; dateCol switches to date
	// literals over the scenario range.
	lo, hi  int
	dateCol bool
}

func adhocTables(rows map[string]int) []adhocTable {
	return []adhocTable{
		{name: "lineitem",
			preds: []adhocPred{
				{col: "l_quantity", lo: 1, hi: 50},
				{col: "l_orderkey", lo: 0, hi: maxRows(rows, "orders")},
				{col: "l_partkey", lo: 0, hi: maxRows(rows, "part")},
				{col: "l_suppkey", lo: 0, hi: maxRows(rows, "supplier")},
				{col: "l_shipdate", dateCol: true},
			},
			projs: [][]string{
				{"l_orderkey", "l_extendedprice"},
				{"l_quantity", "l_discount", "l_tax"},
				{"l_returnflag", "l_shipmode"},
			}},
		{name: "orders",
			preds: []adhocPred{
				{col: "o_custkey", lo: 0, hi: maxRows(rows, "customer")},
				{col: "o_totalprice", lo: 1000, hi: 5000},
				{col: "o_orderdate", dateCol: true},
				{col: "o_shippriority", lo: 0, hi: 2},
			},
			projs: [][]string{
				{"o_orderkey", "o_totalprice"},
				{"o_orderdate", "o_orderpriority"},
			}},
		{name: "customer",
			preds: []adhocPred{
				{col: "c_nationkey", lo: 0, hi: 25},
				{col: "c_acctbal", lo: -1000, hi: 9000},
			},
			projs: [][]string{
				{"c_name", "c_acctbal"},
				{"c_custkey", "c_mktsegment"},
			}},
		{name: "part",
			preds: []adhocPred{
				{col: "p_size", lo: 1, hi: 50},
				{col: "p_retailprice", lo: 900, hi: 1900},
			},
			projs: [][]string{
				{"p_partkey", "p_name"},
				{"p_brand", "p_size"},
			}},
		{name: "partsupp",
			preds: []adhocPred{
				{col: "ps_availqty", lo: 1, hi: 9999},
				{col: "ps_suppkey", lo: 0, hi: maxRows(rows, "supplier")},
			},
			projs: [][]string{
				{"ps_partkey", "ps_supplycost"},
				{"ps_availqty", "ps_suppkey"},
			}},
	}
}

var adhocOps = []string{"=", ">=", "<", ">", "<=", "between"}

// adhocStatement draws one structurally-unique query: table × predicate
// column × operator × projection × aggregate shape. The signature
// returned excludes literals — two statements with the same signature
// would share a fingerprint after parameter canonicalization, which is
// exactly what this scenario must never allow.
func adhocStatement(s *stream, tables []adhocTable) (string, string) {
	t := tables[s.intn(len(tables))]
	p := t.preds[s.intn(len(t.preds))]
	op := adhocOps[s.intn(len(adhocOps))]
	projIdx := s.intn(len(t.projs) + 1) // last slot = aggregate shape
	var pred string
	switch {
	case p.dateCol:
		d := scenarioEpochDay + s.intn(scenarioDateRange-100)
		switch op {
		case "=":
			pred = fmt.Sprintf("%s = %s", p.col, scenarioDate(d))
		case ">=", ">":
			pred = fmt.Sprintf("%s %s %s", p.col, op, scenarioDate(scenarioEpochDay+scenarioDateRange-90-s.intn(200)))
		case "<", "<=":
			pred = fmt.Sprintf("%s %s %s", p.col, op, scenarioDate(scenarioEpochDay+90+s.intn(200)))
		default:
			pred = fmt.Sprintf("%s BETWEEN %s AND %s", p.col, scenarioDate(d), scenarioDate(d+30+s.intn(60)))
		}
	default:
		v := p.lo + s.intn(maxInt(1, p.hi-p.lo))
		switch op {
		case "=":
			pred = fmt.Sprintf("%s = %d", p.col, v)
		case ">=", ">":
			pred = fmt.Sprintf("%s %s %d", p.col, op, p.hi-maxInt(1, (p.hi-p.lo)/10)-s.intn(maxInt(1, (p.hi-p.lo)/10)))
		case "<", "<=":
			pred = fmt.Sprintf("%s %s %d", p.col, op, p.lo+maxInt(1, (p.hi-p.lo)/10)+s.intn(maxInt(1, (p.hi-p.lo)/10)))
		default:
			span := maxInt(1, (p.hi-p.lo)/8)
			pred = fmt.Sprintf("%s BETWEEN %d AND %d", p.col, v, v+span)
		}
	}
	var sel string
	if projIdx == len(t.projs) {
		sel = fmt.Sprintf("COUNT(*) AS cnt, SUM(%s) AS agg", t.preds[0].colOrQuantity())
	} else {
		sel = strings.Join(t.projs[projIdx], ", ")
	}
	sig := fmt.Sprintf("%s|%s|%s|%d", t.name, p.col, op, projIdx)
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s", sel, t.name, pred), sig
}

// colOrQuantity picks a numeric column safe to SUM.
func (p adhocPred) colOrQuantity() string {
	if p.dateCol {
		return "1"
	}
	return p.col
}

// buildAdhoc draws structurally-unique queries so no fingerprint — and
// no index's evidence — ever repeats enough to matter. The right move
// for every tuner is to mostly abstain; the scenario punishes both
// fingerprint caching and trigger-happy creation.
func buildAdhoc(o ScenarioOptions) *Workload {
	o = o.withDefaults()
	total := o.Statements
	if total <= 0 {
		total = 240
	}
	rows := o.Scale.Rows()
	tables := adhocTables(rows)
	s := newStream(o.Seed, "adhoc", 0)
	seen := map[string]bool{}
	w := &Workload{
		Name: fmt.Sprintf("adhoc (%d never-repeating statements, scale %.2g, seed %d)",
			total, float64(o.Scale), o.Seed),
		NewDB: scenarioDB(o),
	}
	batch := total / 10
	if batch < 1 {
		batch = 1
	}
	for i := 0; i < total; i++ {
		if i%batch == 0 {
			w.Boundaries = append(w.Boundaries, len(w.Statements))
		}
		stmt, sig := adhocStatement(s, tables)
		// Redraw (deterministically) until the structural signature is
		// fresh; the combination space is far larger than any workload, so
		// the bound is never hit in practice.
		for tries := 0; seen[sig] && tries < 200; tries++ {
			stmt, sig = adhocStatement(s, tables)
		}
		seen[sig] = true
		w.Statements = append(w.Statements, stmt)
	}
	return w
}

// buildStorm cycles short query lulls — exactly long enough to tempt an
// eager tuner into creating lineitem indexes — with wide update storms
// whose index maintenance dwarfs the queries' savings. Holding an index
// through a storm is the losing move; the scenario measures who realizes
// it, and when.
func buildStorm(o ScenarioOptions) *Workload {
	o = o.withDefaults()
	total := o.Statements
	if total <= 0 {
		total = 270
	}
	const cycles = 3
	perCycle := total / cycles
	if perCycle < 3 {
		perCycle = 3
	}
	lull := perCycle / 3
	storm := perCycle - lull
	rows := o.Scale.Rows()
	s := newStream(o.Seed, "storm", 0)
	w := &Workload{
		Name: fmt.Sprintf("storm (%d cycles: %d queries then %d wide updates, scale %.2g, seed %d)",
			cycles, lull, storm, float64(o.Scale), o.Seed),
		NewDB: scenarioDB(o),
	}
	for c := 0; c < cycles; c++ {
		w.Boundaries = append(w.Boundaries, len(w.Statements))
		for i := 0; i < lull; i++ {
			w.Statements = append(w.Statements, olapLineitemAgg(s))
		}
		w.Boundaries = append(w.Boundaries, len(w.Statements))
		for i := 0; i < storm; i++ {
			w.Statements = append(w.Statements, stormUpdate(s, rows))
		}
	}
	return w
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ScenarioSignature renders a workload's statement stream as one byte
// string — the determinism tests' comparison unit, and a convenient
// debugging artifact when two runs of a cell diverge.
func ScenarioSignature(w *Workload) string {
	var sb strings.Builder
	sb.WriteString(w.Name)
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "boundaries=%v\n", w.Boundaries)
	for i, s := range w.Statements {
		fmt.Fprintf(&sb, "%4d %s\n", i, s)
	}
	return sb.String()
}

// sortedScenarioNames is used by error paths and tests.
func sortedScenarioNames() []string {
	out := ScenarioNames()
	sort.Strings(out)
	return out
}
