package bench

import (
	"fmt"
	"testing"

	"onlinetuner/internal/engine"
	"onlinetuner/internal/tpch"
)

// scanFilterBatch is the engine-comparison workload: wide scans with
// string prefilters, range predicates and grouped aggregates — the
// shapes the vectorized kernels target. Fixed parameters so row and
// vector runs replay identical work.
func scanFilterBatch() []string {
	return []string{
		`SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN 10 AND 40 AND l_discount <= 0.06`,
		`SELECT l_shipmode, COUNT(*) FROM lineitem WHERE l_shipmode LIKE '%AI%' GROUP BY l_shipmode ORDER BY l_shipmode`,
		`SELECT COUNT(*) FROM part WHERE p_name LIKE 'part name 0%'`,
		`SELECT COUNT(*) FROM part WHERE p_type LIKE '%BRASS'`,
		`SELECT COUNT(*) FROM orders WHERE o_orderpriority NOT LIKE '_-URGENT'`,
		`SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem WHERE l_quantity < 30 GROUP BY l_returnflag ORDER BY l_returnflag`,
		`SELECT COUNT(*) FROM lineitem WHERE l_shipmode IN ('AIR', 'RAIL', 'SHIP')`,
		// scan_olap's two stable lineitem shapes: a half-open ship-date
		// range, alone under a GROUP BY and with Q6's quantity bound.
		`SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) AS rev FROM lineitem
			WHERE l_shipdate >= DATE '1994-03-01' AND l_shipdate < DATE '1994-05-15'
			GROUP BY l_returnflag ORDER BY l_returnflag`,
		`SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem
			WHERE l_shipdate >= DATE '1994-03-01' AND l_shipdate < DATE '1994-05-15' AND l_quantity < 30`,
	}
}

// BenchmarkVecProfile times each scanFilterBatch statement on the
// reference executor ("row") and the default one at one worker, plan
// cache off. Every table these statements scan is past vecMinRows at
// scale 2, so the default vectorizes them. At scale 2 lineitem fits in
// the CPU cache, which hides what a filter's gather from rows costs; q0,
// q6 and the two scan_olap shapes q7 and q8 run again at scale 16, the
// scan_olap scale, where it does not.
func BenchmarkVecProfile(b *testing.B) {
	for _, mode := range []string{"row", "default"} {
		for i, q := range scanFilterBatch() {
			b.Run(fmt.Sprintf("%s/q%d", mode, i), func(b *testing.B) { benchStatement(b, mode, 2, q) })
		}
		for _, i := range []int{0, 6, 7, 8} {
			q := scanFilterBatch()[i]
			b.Run(fmt.Sprintf("%s/q%d/scale16", mode, i), func(b *testing.B) { benchStatement(b, mode, 16, q) })
		}
	}
}

// benchStatement times q on a fresh TPC-H database of the given scale,
// on the reference executor when mode is "row" and on the default one
// otherwise, after one warm-up run.
func benchStatement(b *testing.B, mode string, scale tpch.Scale, q string) {
	db := engine.OpenConfig(engine.Config{ExecWorkers: 1, ExecEngine: mode})
	gen := tpch.NewGenerator(scale, 1)
	if err := gen.Load(db); err != nil {
		b.Fatal(err)
	}
	db.BypassPlanCache()
	if _, _, err := db.Exec(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}
