package engine_test

import (
	"runtime"
	"testing"

	"onlinetuner/internal/core"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/tpch"
)

// TestPointStatementAllocBudget is the allocation budget of the served
// hot path's in-process half: the two point_served templates, repeated
// (statement-text and exact plan-cache hits), with the tuner observing
// every execution. Memory per statement must be proportional to the rows
// it touches — one order, or that order's handful of lineitems — so the
// byte budget is a few KB. It was ≈ 165 KB while every operator batch
// carved its first row from a full 4096-datum slab.
func TestPointStatementAllocBudget(t *testing.T) {
	db := engine.Open()
	if err := tpch.NewGenerator(1, 7).Load(db); err != nil {
		t.Fatal(err)
	}
	tuner := core.Attach(db, core.DefaultOptions())
	defer tuner.Close()

	for _, tc := range []struct {
		name, sql string
		maxBytes  uint64
		maxAllocs float64
	}{
		// Measured, tuner included: 2.1 KB / 45 objects and 2.5 KB / 52
		// (165 KB / 138 and 4.6 KB / 212 before the executor's batches
		// grew with their rows, 49 and 56 while the table-lock set was a
		// map, two slices and a closure per table); the ceilings leave
		// headroom for Go-version drift, not for a regression.
		{"orders PK select", "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = 77", 4 << 10, 56},
		{"one-order COUNT/SUM", "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS rev FROM lineitem WHERE l_orderkey = 77", 4 << 10, 66},
	} {
		run := func() {
			rs, info, err := db.Exec(tc.sql)
			if err != nil || len(rs.Rows) != 1 {
				t.Fatalf("%s: %d rows, err %v", tc.name, len(rs.Rows), err)
			}
			if !info.Result.FromCache {
				t.Fatalf("%s: plan was optimized fresh on a repeated text", tc.name)
			}
		}
		// Warm the caches and let the tuner settle: the index it may build
		// for the lineitem template changes the plan once.
		for i := 0; i < 200; i++ {
			if _, _, err := db.Exec(tc.sql); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 1000
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		perStmt := (m1.TotalAlloc - m0.TotalAlloc) / runs
		allocs := testing.AllocsPerRun(runs, run)
		t.Logf("%s: %d B and %.0f objects per statement", tc.name, perStmt, allocs)
		if perStmt > tc.maxBytes {
			t.Errorf("%s allocates %d B per statement, budget %d", tc.name, perStmt, tc.maxBytes)
		}
		if allocs > tc.maxAllocs {
			t.Errorf("%s allocates %.0f objects per statement, ceiling %.0f", tc.name, allocs, tc.maxAllocs)
		}
	}
}
