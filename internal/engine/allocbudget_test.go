package engine_test

import (
	"fmt"
	"runtime"
	"testing"

	"onlinetuner/internal/core"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/tpch"
)

// TestPointStatementAllocBudget is the allocation budget of the served
// hot path's in-process half: the two point_served templates, with the
// tuner observing every execution. Repeated texts are statement-tier and
// exact plan hits; the point_served shape proper cycles both templates
// over keys never seen before, so every statement misses the statement
// tier, is parsed and fingerprinted, and is served its template's plan
// rebound to the new key. Memory per statement must be proportional to
// the rows it touches — one order, or that order's handful of lineitems —
// so the byte budget is a few KB. It was ≈ 165 KB while every operator
// batch carved its first row from a full 4096-datum slab.
func TestPointStatementAllocBudget(t *testing.T) {
	db := engine.Open()
	if err := tpch.NewGenerator(1, 7).Load(db); err != nil {
		t.Fatal(err)
	}
	tuner := core.Attach(db, core.DefaultOptions())
	defer tuner.Close()

	const (
		pk    = "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d"
		count = "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS rev FROM lineitem WHERE l_orderkey = %d"
	)
	// The point_served mix draws a new key per statement and alternates
	// the templates. Its warm-up takes every tenth order, which visits
	// every histogram bucket of l_orderkey — so every selectivity the
	// measured keys can have is cached — and the measured statements take
	// the keys in between, none of them seen before.
	fresh, warm := 0, true
	mix := func() string {
		fresh++
		k := fresh / 2 * 10 % 1500
		if !warm {
			k = fresh/2%1350 + fresh/2%1350/9 + 1 // skips the multiples of 10
		}
		if fresh%2 == 0 {
			return fmt.Sprintf(pk, k)
		}
		return fmt.Sprintf(count, k)
	}
	for _, tc := range []struct {
		name      string
		sql       func() string
		maxBytes  uint64
		maxAllocs float64
	}{
		// Measured, tuner and the test's own Sprintf included: 1.3 KB / 28
		// objects, 1.7 KB / 32 and 4.3 KB / 70 (2.1 KB / 45 and 2.5 KB / 52
		// while the tuner re-derived its what-if terms per statement, and
		// the fresh-key mix re-optimized every statement; 165 KB / 138 and
		// 4.6 KB / 212 before the executor's batches grew with their rows);
		// the ceilings leave headroom for Go-version drift, not for a
		// regression.
		{"orders PK select", func() string { return fmt.Sprintf(pk, 77) }, 3 << 10, 34},
		{"one-order COUNT/SUM", func() string { return fmt.Sprintf(count, 77) }, 3 << 10, 38},
		{"point_served mix, fresh keys", mix, 6 << 10, 80},
	} {
		run := func() {
			q := tc.sql()
			rs, info, err := db.Exec(q)
			if err != nil || len(rs.Rows) != 1 {
				t.Fatalf("%s: %q: %d rows, err %v", tc.name, q, len(rs.Rows), err)
			}
			if !info.Result.FromCache {
				t.Fatalf("%s: %q was optimized fresh", tc.name, q)
			}
		}
		// Warm the caches and let the tuner settle: the index it may build
		// for the lineitem template changes the plan once.
		warm = true
		for i := 0; i < 400; i++ {
			if _, _, err := db.Exec(tc.sql()); err != nil {
				t.Fatal(err)
			}
		}
		warm = false
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
