package engine

import (
	"fmt"
	"testing"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/wal"
)

// primaryShares counts the entries of table's primary tree whose key is
// the heap row itself (same backing array) and fails on any entry whose
// key does not equal its live row's primary key by value.
func primaryShares(t *testing.T, db *DB, table string) (shared, entries int) {
	t.Helper()
	tab := db.Cat.Table(table)
	pk := db.Cat.PrimaryIndex(table)
	heap := db.Mgr.Heap(table)
	for it := db.Mgr.Index(pk.ID()).Tree().Scan(); it.Valid(); it.Next() {
		e := it.Entry()
		row := heap.Get(e.RID)
		if row == nil {
			t.Fatalf("%s: primary entry for dead rid %d", table, e.RID)
		}
		if want := db.Mgr.KeyFor(tab, pk, row); e.Key.Compare(want) != 0 || cap(e.Key) != len(e.Key) {
			t.Fatalf("%s: rid %d key %v (cap %d), want %v", table, e.RID, e.Key, cap(e.Key), want)
		}
		if &e.Key[0] == &row[0] {
			shared++
		}
		entries++
	}
	if entries != heap.Len() {
		t.Fatalf("%s: primary holds %d entries, heap %d rows", table, entries, heap.Len())
	}
	return shared, entries
}

// TestPrimaryKeySharesHeapRow pins "each table row lives in memory once":
// when the primary key leads the table, the clustered primary index's key
// for a row is the heap's row, through every path that makes or replaces
// one — DML, statement rollback, log replay and snapshot restore. A table
// whose primary key does not lead copies its keys and answers the same.
func TestPrimaryKeySharesHeapRow(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(Config{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	allShared := func(label string) {
		t.Helper()
		checkConsistent(t, db)
		if shared, n := primaryShares(t, db, "R"); shared != n || n == 0 {
			t.Fatalf("%s: %d of %d primary keys share the heap row", label, shared, n)
		}
	}
	db.MustExec("CREATE TABLE R (id INT, a INT, b INT, PRIMARY KEY (id))")
	db.MustExec("CREATE INDEX r_a ON R (a)")
	for i := 0; i < 300; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d, %d)", i, i%7, i%3))
	}
	allShared("insert")
	db.MustExec("UPDATE R SET b = b + 10 WHERE a = 2")
	allShared("update of a non-key column")
	db.MustExec("UPDATE R SET b = b WHERE a = 4")
	allShared("update to equal values")
	db.MustExec("UPDATE R SET id = id + 1000 WHERE a = 3")
	allShared("update of the key")
	db.MustExec("DELETE FROM R WHERE a = 5")
	allShared("delete")

	before := heapDump(db, "R")
	inj := fault.New(3).Plan(fault.PageWrite, fault.Rule{Prob: 1, After: 100, Count: 1})
	db.SetFaults(inj)
	inj.Arm()
	if _, _, err := db.Exec("UPDATE R SET b = b + 1, id = id + 5000"); !fault.Is(err) {
		t.Fatalf("err = %v, want the injected write fault", err)
	}
	db.SetFaults(nil)
	sameLines(t, "rolled-back update", heapDump(db, "R"), before)
	allShared("statement rollback")

	want := stateDigest(t, db)
	db.Crash()
	if db, err = OpenDurable(Config{Dir: dir, Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	if db.Recovery().ReplayedBatches == 0 || db.Recovery().SnapshotSeq != 0 {
		t.Fatalf("recovery %+v, want a pure log replay", *db.Recovery())
	}
	if stateDigest(t, db) != want {
		t.Fatal("log replay changed the state")
	}
	allShared("log replay")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	if db, err = OpenDurable(Config{Dir: dir, Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Recovery().SnapshotSeq == 0 {
		t.Fatal("recovery ignored the snapshot")
	}
	if stateDigest(t, db) != want {
		t.Fatal("snapshot restore changed the state")
	}
	allShared("snapshot restore")

	// A row a primary-key covering seek hands out is the heap row with
	// cap == len: an append reallocates and leaves the heap alone.
	pk := db.Mgr.Index(db.Cat.PrimaryIndex("R").ID())
	key := datum.Row{datum.NewInt(1)}
	it := pk.Tree().Seek(key, true, key, true)
	if !it.Valid() {
		t.Fatal("seek on id = 1 found nothing")
	}
	e := it.Entry()
	heapRow := db.Mgr.Heap("R").Get(e.RID)
	orig := heapRow.String()
	grown := append(e.Key, datum.NewInt(-1))
	grown[0] = datum.NewInt(-99)
	rs := db.MustExec("SELECT * FROM R WHERE id = 1")
	if len(rs.Rows) != 1 {
		t.Fatalf("SELECT id = 1 returned %d rows", len(rs.Rows))
	}
	grown = append(rs.Rows[0], datum.NewInt(-1))
	grown[0] = datum.NewInt(-98)
	if got := db.Mgr.Heap("R").Get(e.RID); got.String() != orig || len(got) != 3 {
		t.Fatalf("heap row became %v after appends to handed-out rows, want %s", got, orig)
	}
	allShared("appends to handed-out rows")

	// The primary key does not lead: every key is a copy, and the table
	// answers exactly as R does.
	db.MustExec("CREATE TABLE T (v INT, k INT, PRIMARY KEY (k))")
	for i := 0; i < 50; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO T VALUES (%d, %d)", i*3, i))
	}
	db.MustExec("UPDATE T SET v = v + 1 WHERE k < 10")
	db.MustExec("DELETE FROM T WHERE k >= 40")
	checkConsistent(t, db)
	if shared, n := primaryShares(t, db, "T"); shared != 0 || n != 40 {
		t.Fatalf("T: %d of %d primary keys share the heap row, want 0 of 40", shared, n)
	}
	for _, q := range []string{"SELECT v, k FROM T WHERE k = 5", "SELECT v, k FROM T WHERE k = 25"} {
		rs := db.MustExec(q)
		if len(rs.Rows) != 1 {
			t.Fatalf("%s: %d rows", q, len(rs.Rows))
		}
		k := rs.Rows[0][1].Int()
		want := k * 3
		if k < 10 {
			want++
		}
		if v := rs.Rows[0][0].Int(); v != want {
			t.Fatalf("%s: v = %d, want %d", q, v, want)
		}
	}
}
