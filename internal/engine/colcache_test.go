package engine

import (
	"fmt"
	"strings"
	"testing"

	"onlinetuner/internal/fault"
	"onlinetuner/internal/vec"
	"onlinetuner/internal/wal"
)

// TestScanColumnsFollowWrites warms the heap's column cache with
// filtered SELECTs over a table of three chunks, then writes to it every
// way a chunk can change — UPDATE, DELETE, an INSERT into recycled slots,
// an INSERT … SELECT failed half-way, and a checkpoint followed by a
// restart — and after each requires every SELECT to answer exactly as
// a reference database given the same writes, whose executor reads no
// column, and the storage consistency check, which compares each cached
// column with its chunk's rows.
func TestScanColumnsFollowWrites(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(Config{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	ref := OpenConfig(Config{ExecEngine: "row"})
	both := func(q string) {
		db.MustExec(q)
		ref.MustExec(q)
	}
	both("CREATE TABLE T (id INT, a INT, b INT, s VARCHAR(8), PRIMARY KEY (id))")
	const rows = 2*vec.MorselRows + 1000
	for lo := 0; lo < rows; lo += 500 {
		var vals []string
		for i := lo; i < lo+500 && i < rows; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d, 'x%d')", i, i%100, i%5, i%40))
		}
		both("INSERT INTO T VALUES " + strings.Join(vals, ", "))
	}
	queries := []string{
		"SELECT id, a, s FROM T WHERE a < 30 AND b >= 2",
		"SELECT id FROM T WHERE b >= 2 AND a < 30.5", // a through a partial selection
		"SELECT COUNT(*) FROM T WHERE s LIKE 'x1%' AND a BETWEEN 10 AND 60",
		"SELECT id, s FROM T WHERE a IN (3, 50, 77) AND s IS NOT NULL",
	}
	check := func(db *DB, label string) {
		t.Helper()
		for _, q := range queries {
			sameResult(t, label+": "+q, db.MustExec(q), ref.MustExec(q))
		}
		if err := db.Mgr.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}

	check(db, "cold")
	hits := counterVal(t, db, "storage.colcache_hits")
	check(db, "warm")
	if counterVal(t, db, "storage.colcache_hits") == hits {
		t.Fatal("the warm pass read no cached column")
	}
	both("UPDATE T SET a = a + 7 WHERE b = 1")
	check(db, "update")
	both("DELETE FROM T WHERE b = 3")
	check(db, "delete")
	both("INSERT INTO T VALUES (900001, 5, 2, 'x15'), (900002, 20, 4, 'x1'), (900003, 50, 3, NULL)")
	check(db, "recycled insert")

	inj := fault.New(9).Plan(fault.PageWrite, fault.Rule{Prob: 1, After: 300, Count: 1})
	db.SetFaults(inj)
	inj.Arm()
	if _, _, err := db.Exec("INSERT INTO T SELECT id + 1000000, a, b, s FROM T WHERE a < 50"); !fault.Is(err) {
		t.Fatalf("INSERT … SELECT: err = %v, want the injected write fault", err)
	}
	db.SetFaults(nil)
	check(db, "failed insert … select")

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	both("UPDATE T SET b = b + 1 WHERE a < 20")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDurable(Config{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2, "restart")
	check(db2, "restart, warm")
}
