package tpch

import (
	"fmt"
	"math/rand"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/engine"
)

// Reference dates: TPC-H covers orders from 1992-01-01 to 1998-08-02.
const (
	dateEpoch1992 = 8035 // days from 1970-01-01 to 1992-01-01
	dateRangeDays = 2405 // ≈ 6.6 years
)

var (
	regionNames  = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDEAST"}
	segments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities   = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"}
	shipModes    = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	containers   = []string{"SM CASE", "SM BOX", "LG CASE", "LG BOX", "MED BAG", "JUMBO JAR"}
	typeSyllable = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeMetal    = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	brands       = []string{"Brand#11", "Brand#12", "Brand#23", "Brand#34", "Brand#45"}
	returnFlags  = []string{"R", "A", "N"}
	lineStatuses = []string{"O", "F"}
	orderStatus  = []string{"O", "F", "P"}
)

// Generator produces deterministic TPC-H data and statements.
type Generator struct {
	ScaleFactor Scale
	rng         *rand.Rand
	rows        map[string]int
	// nextOrderKey feeds the refresh (insert) stream.
	nextOrderKey int
}

// NewGenerator returns a deterministic generator for the given scale and
// seed.
func NewGenerator(scale Scale, seed int64) *Generator {
	return &Generator{
		ScaleFactor: scale,
		rng:         rand.New(rand.NewSource(seed)),
		rows:        scale.Rows(),
	}
}

// Load creates the schema, populates every table, and builds statistics.
// Rows are inserted through the storage manager directly (bulk path) —
// the load is not part of any measured workload.
func (g *Generator) Load(db *engine.DB) error {
	if err := CreateSchema(db); err != nil {
		return err
	}
	ins := func(table string, row datum.Row) error {
		_, _, err := db.Mgr.Insert(table, row)
		return err
	}
	for i := 0; i < g.rows["region"]; i++ {
		if err := ins("region", datum.Row{
			datum.NewInt(int64(i)), datum.NewString(regionNames[i%len(regionNames)]),
		}); err != nil {
			return err
		}
	}
	for i := 0; i < g.rows["nation"]; i++ {
		if err := ins("nation", datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("NATION%02d", i)),
			datum.NewInt(int64(i % g.rows["region"])),
		}); err != nil {
			return err
		}
	}
	for i := 0; i < g.rows["supplier"]; i++ {
		if err := ins("supplier", datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("Supplier#%05d", i)),
			datum.NewInt(int64(g.rng.Intn(g.rows["nation"]))),
			datum.NewFloat(float64(g.rng.Intn(1000000))/100 - 1000),
		}); err != nil {
			return err
		}
	}
	for i := 0; i < g.rows["customer"]; i++ {
		if err := ins("customer", datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("Customer#%06d", i)),
			datum.NewInt(int64(g.rng.Intn(g.rows["nation"]))),
			datum.NewString(segments[g.rng.Intn(len(segments))]),
			datum.NewFloat(float64(g.rng.Intn(1000000))/100 - 1000),
		}); err != nil {
			return err
		}
	}
	for i := 0; i < g.rows["part"]; i++ {
		if err := ins("part", datum.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("part name %05d", i)),
			datum.NewString(fmt.Sprintf("Mfgr#%d", 1+i%5)),
			datum.NewString(brands[g.rng.Intn(len(brands))]),
			datum.NewString(g.partType()),
			datum.NewInt(int64(1 + g.rng.Intn(50))),
			datum.NewString(containers[g.rng.Intn(len(containers))]),
			datum.NewFloat(900 + float64(i%1000)),
		}); err != nil {
			return err
		}
	}
	perPart := g.rows["partsupp"] / max(1, g.rows["part"])
	if perPart < 1 {
		perPart = 1
	}
	for p := 0; p < g.rows["part"]; p++ {
		for k := 0; k < perPart; k++ {
			if err := ins("partsupp", datum.Row{
				datum.NewInt(int64(p)),
				datum.NewInt(int64((p*perPart + k) % max(1, g.rows["supplier"]))),
				datum.NewInt(int64(1 + g.rng.Intn(9999))),
				datum.NewFloat(float64(g.rng.Intn(100000)) / 100),
			}); err != nil {
				return err
			}
		}
	}
	linesPerOrder := g.rows["lineitem"] / max(1, g.rows["orders"])
	if linesPerOrder < 1 {
		linesPerOrder = 1
	}
	for o := 0; o < g.rows["orders"]; o++ {
		if err := ins("orders", g.orderRow(o)); err != nil {
			return err
		}
		nl := 1 + g.rng.Intn(2*linesPerOrder)
		for l := 0; l < nl; l++ {
			if err := ins("lineitem", g.lineitemRow(o, l)); err != nil {
				return err
			}
		}
	}
	g.nextOrderKey = g.rows["orders"]
	for _, table := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
		if err := db.Analyze(table); err != nil {
			return err
		}
	}
	return nil
}

func (g *Generator) orderRow(key int) datum.Row {
	return datum.Row{
		datum.NewInt(int64(key)),
		datum.NewInt(int64(g.rng.Intn(max(1, g.rows["customer"])))),
		datum.NewString(orderStatus[g.rng.Intn(len(orderStatus))]),
		datum.NewFloat(1000 + float64(g.rng.Intn(400000))/100),
		datum.NewDate(int64(dateEpoch1992 + g.rng.Intn(dateRangeDays))),
		datum.NewString(priorities[g.rng.Intn(len(priorities))]),
		datum.NewInt(int64(g.rng.Intn(2))),
	}
}

func (g *Generator) lineitemRow(orderKey, line int) datum.Row {
	ship := int64(dateEpoch1992 + g.rng.Intn(dateRangeDays))
	return datum.Row{
		datum.NewInt(int64(orderKey)),
		datum.NewInt(int64(line)),
		datum.NewInt(int64(g.rng.Intn(max(1, g.rows["part"])))),
		datum.NewInt(int64(g.rng.Intn(max(1, g.rows["supplier"])))),
		datum.NewFloat(float64(1 + g.rng.Intn(50))),
		datum.NewFloat(float64(g.rng.Intn(10000)) / 100),
		datum.NewFloat(float64(g.rng.Intn(11)) / 100),
		datum.NewFloat(float64(g.rng.Intn(9)) / 100),
		datum.NewString(returnFlags[g.rng.Intn(len(returnFlags))]),
		datum.NewString(lineStatuses[g.rng.Intn(len(lineStatuses))]),
		datum.NewDate(ship),
		datum.NewDate(ship + int64(g.rng.Intn(30))),
		datum.NewDate(ship + int64(g.rng.Intn(30))),
		datum.NewString(shipModes[g.rng.Intn(len(shipModes))]),
	}
}

func (g *Generator) partType() string {
	return typeSyllable[g.rng.Intn(len(typeSyllable))] + " " + typeMetal[g.rng.Intn(len(typeMetal))]
}

// DisruptiveUpdates returns a burst of statements that mostly touch
// lineitem — the Figure 7(c)/(d) scenario. Each statement updates a key
// range of lineitem rows; a few insert fresh orders.
func (g *Generator) DisruptiveUpdates(count int) []string {
	var out []string
	orders := g.rows["orders"]
	for i := 0; i < count; i++ {
		switch i % 4 {
		case 0, 1, 2:
			lo := g.rng.Intn(max(1, orders))
			hi := lo + max(1, orders/6)
			out = append(out, fmt.Sprintf(
				"UPDATE lineitem SET l_quantity = l_quantity + 1, l_extendedprice = l_extendedprice + 1 WHERE l_orderkey >= %d AND l_orderkey < %d", lo, hi))
		default:
			key := g.nextOrderKey
			g.nextOrderKey++
			out = append(out, fmt.Sprintf(
				"INSERT INTO orders VALUES (%d, %d, 'O', %d.0, DATE '1998-08-01', '1-URGENT', 0)",
				key, g.rng.Intn(max(1, g.rows["customer"])), 1000+g.rng.Intn(100000)))
		}
	}
	return out
}

// RefreshInsert (TPC-H RF1) returns statements inserting `orders` new
// orders, each with 1–3 lineitems — the benchmark's insert refresh
// stream. Keys continue from the loaded data so repeated refreshes never
// collide.
func (g *Generator) RefreshInsert(orders int) []string {
	var out []string
	for i := 0; i < orders; i++ {
		key := g.nextOrderKey
		g.nextOrderKey++
		date := dateStr(dateEpoch1992 + g.rng.Intn(dateRangeDays))
		out = append(out, fmt.Sprintf(
			"INSERT INTO orders VALUES (%d, %d, '%s', %d.0, %s, '%s', %d)",
			key, g.rng.Intn(max(1, g.rows["customer"])),
			orderStatus[g.rng.Intn(len(orderStatus))],
			1000+g.rng.Intn(100000), date,
			priorities[g.rng.Intn(len(priorities))], g.rng.Intn(2)))
		nl := 1 + g.rng.Intn(3)
		for l := 0; l < nl; l++ {
			ship := dateEpoch1992 + g.rng.Intn(dateRangeDays)
			out = append(out, fmt.Sprintf(
				"INSERT INTO lineitem VALUES (%d, %d, %d, %d, %d.0, %d.0, 0.0%d, 0.0%d, '%s', '%s', %s, %s, %s, '%s')",
				key, l,
				g.rng.Intn(max(1, g.rows["part"])),
				g.rng.Intn(max(1, g.rows["supplier"])),
				1+g.rng.Intn(50), g.rng.Intn(10000),
				g.rng.Intn(10), g.rng.Intn(9),
				returnFlags[g.rng.Intn(len(returnFlags))],
				lineStatuses[g.rng.Intn(len(lineStatuses))],
				dateStr(ship), dateStr(ship+g.rng.Intn(30)), dateStr(ship+g.rng.Intn(30)),
				shipModes[g.rng.Intn(len(shipModes))]))
		}
	}
	return out
}

// RefreshDelete (TPC-H RF2) returns statements deleting `orders` order
// keys and their lineitems, drawn from the low end of the key space.
func (g *Generator) RefreshDelete(orders int) []string {
	var out []string
	for i := 0; i < orders; i++ {
		key := g.rng.Intn(max(1, g.rows["orders"]))
		out = append(out,
			fmt.Sprintf("DELETE FROM lineitem WHERE l_orderkey = %d", key),
			fmt.Sprintf("DELETE FROM orders WHERE o_orderkey = %d", key))
	}
	return out
}
