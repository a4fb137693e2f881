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
	}
}

// BenchmarkVecProfile times each scanFilterBatch statement under the row
// and the vector engine at one worker, plan cache off.
func BenchmarkVecProfile(b *testing.B) {
	for _, mode := range []string{"row", "vector"} {
		for i, q := range scanFilterBatch() {
			b.Run(fmt.Sprintf("%s/q%d", mode, i), func(b *testing.B) {
				db := engine.OpenConfig(engine.Config{ExecWorkers: 1, ExecEngine: mode})
				gen := tpch.NewGenerator(2, 1)
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
			})
		}
	}
}
