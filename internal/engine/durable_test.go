package engine

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/vec"
	"onlinetuner/internal/wal"
)

// stateDigest renders the database's full logical state — catalog
// tables, live heap contents in RID order, and secondary-index defs
// with lifecycle states — into a hash. Two databases with equal digests
// are indistinguishable to any query.
func stateDigest(t *testing.T, db *DB) string {
	t.Helper()
	h := sha256.New()
	for _, tab := range db.Cat.Tables() {
		fmt.Fprintf(h, "table %s pk=%v cols=%d\n", tab.Name, tab.PrimaryKey, len(tab.Columns))
		heap := db.Mgr.Heap(tab.Name)
		if heap == nil {
			t.Fatalf("table %s not materialized", tab.Name)
		}
		heap.Scan(func(rid storage.RID, r datum.Row) bool {
			fmt.Fprintf(h, "%d|", rid)
			for _, d := range r {
				fmt.Fprintf(h, "%s,", d.String())
			}
			fmt.Fprintln(h)
			return true
		})
	}
	for _, ix := range db.Cat.Indexes() {
		if ix.Primary {
			continue
		}
		state := "absent"
		if pi := db.Mgr.Index(ix.ID()); pi != nil {
			state = pi.State().String()
		}
		fmt.Fprintf(h, "index %s %s\n", ix.ID(), state)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func checkConsistent(t *testing.T, db *DB) {
	t.Helper()
	if err := db.Mgr.CheckConsistency(); err != nil {
		t.Fatalf("recovered state inconsistent: %v", err)
	}
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		_ = in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestDurableCloseReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE R (id INT, a INT, b INT, PRIMARY KEY (id))")
	for i := 0; i < 50; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d, %d)", i, i%7, i%3))
	}
	db.MustExec("CREATE INDEX R_a ON R (a)")
	db.MustExec("UPDATE R SET b = 99 WHERE a = 2")
	db.MustExec("DELETE FROM R WHERE a = 3")
	want := stateDigest(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDurable(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkConsistent(t, db2)
	if got := stateDigest(t, db2); got != want {
		t.Fatal("reopened state differs from closed state")
	}
	if db2.Recovery().ReplayedBatches == 0 {
		t.Fatal("reopen replayed nothing")
	}
	// The recovered DB keeps working durably.
	db2.MustExec("INSERT INTO R VALUES (100, 1, 1)")
	rs := db2.MustExec("SELECT id FROM R WHERE a = 1")
	if len(rs.Rows) == 0 {
		t.Fatal("index lost after recovery")
	}
}

// TestDurableReplaysSingleRecordIndexCreate recovers a log written before
// CREATE INDEX ran the online build protocol: one IndexCreate record with
// no BuildStart before it. (The BuildStart + IndexCreate{Published} pair
// every build logs now is what TestDurableCloseReopen replays.)
func TestDurableReplaysSingleRecordIndexCreate(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE R (id INT, a INT, PRIMARY KEY (id))")
	for i := 0; i < 30; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d)", i, i%5))
	}
	old := &wal.Record{Kind: wal.KindIndexCreate, Index: &wal.IndexDef{Name: "R_a", Table: "R", Columns: []string{"a"}}}
	if _, err := db.WAL().Append([]*wal.Record{old}); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO R VALUES (30, 0)")
	db.Crash()

	db2, err := OpenDurable(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkConsistent(t, db2)
	ix := db2.Cat.Index("R_a")
	if ix == nil {
		t.Fatal("replayed index is not in the catalog")
	}
	if pi := db2.Mgr.Index(ix.ID()); pi == nil || pi.State() != storage.StateActive || pi.Tree().Len() != 31 {
		t.Fatalf("replayed index is not an active tree over all 31 rows: %+v", pi)
	}
}

// TestDurableRecoveryBuildsKeySlabs recovers an index over a column
// uncorrelated with RID order twice — by replaying its build from the
// log, then by restoring it from a checkpoint — and checks that each
// recovered tree keeps its keys in key-ordered slabs (cap == len, each
// key right after its predecessor within a slab of vec.MorselRows
// entries) and stays consistent under later DML.
func TestDurableRecoveryBuildsKeySlabs(t *testing.T) {
	const n = 2*vec.MorselRows + 100
	dir := t.TempDir()
	db, err := OpenDurable(Config{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE R (id INT, a INT, PRIMARY KEY (id))")
	var vals []string
	for i := 0; i < n; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, (i*7919)%n))
		if len(vals) == 500 || i == n-1 {
			db.MustExec("INSERT INTO R VALUES " + strings.Join(vals, ", "))
			vals = vals[:0]
		}
	}
	db.MustExec("CREATE INDEX R_a ON R (a)")
	db.Crash()

	slabs := func(label string, db *DB) {
		t.Helper()
		tree := db.Mgr.Index("r(a)").Tree()
		var prev datum.Row
		i := 0
		for it := tree.Scan(); it.Valid(); it.Next() {
			k := it.Entry().Key
			if len(k) != 1 || cap(k) != 1 {
				t.Fatalf("%s: entry %d key len %d cap %d, want 1", label, i, len(k), cap(k))
			}
			if i%vec.MorselRows != 0 && unsafe.Pointer(&k[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), unsafe.Sizeof(k[0])) {
				t.Fatalf("%s: entry %d's key is not stored right after entry %d's", label, i, i-1)
			}
			prev = k
			i++
		}
		if i != n {
			t.Fatalf("%s: tree holds %d entries, want %d", label, i, n)
		}
	}
	db, err = OpenDurable(Config{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	slabs("log replay", db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Crash()

	db, err = OpenDurable(Config{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Recovery().SnapshotSeq == 0 {
		t.Fatal("recovery ignored the snapshot")
	}
	slabs("snapshot restore", db)
	db.MustExec("DELETE FROM R WHERE a < 300")
	db.MustExec("INSERT INTO R VALUES (-1, 5), (-2, 100000)")
	checkConsistent(t, db)
}

func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE R (id INT, a INT, PRIMARY KEY (id))")
	for i := 0; i < 30; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d)", i, i%5))
	}
	want := stateDigest(t, db)
	db.Crash()
	// Post-crash statements must fail and roll back, as with a real
	// process death: nothing after the crash point may be acknowledged.
	if _, _, err := db.Exec("INSERT INTO R VALUES (999, 0)"); err == nil {
		t.Fatal("statement succeeded after crash")
	}

	db2, err := OpenDurable(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkConsistent(t, db2)
	if got := stateDigest(t, db2); got != want {
		t.Fatal("recovered state differs from pre-crash acknowledged state")
	}
}

func TestDurableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE R (id INT, a INT, PRIMARY KEY (id))")
	for i := 0; i < 40; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d)", i, i%5))
	}
	db.MustExec("CREATE INDEX R_a ON R (a)")
	if err := db.Mgr.SuspendIndex("r(a)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint history lives only in the fresh segment.
	db.MustExec("INSERT INTO R VALUES (100, 2)")
	db.MustExec("DELETE FROM R WHERE id = 3")
	want := stateDigest(t, db)
	db.Crash()

	// The old segments are gone: only the snapshot plus the suffix
	// segment remain.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, segs int
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".snap") {
			snaps++
		}
		if strings.HasSuffix(e.Name(), ".log") {
			segs++
		}
	}
	if snaps != 1 || segs != 1 {
		t.Fatalf("after checkpoint: %d snapshots, %d segments", snaps, segs)
	}

	db2, err := OpenDurable(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkConsistent(t, db2)
	if db2.Recovery().SnapshotSeq == 0 {
		t.Fatal("recovery ignored the snapshot")
	}
	if got := stateDigest(t, db2); got != want {
		t.Fatal("checkpoint + suffix recovery differs from pre-crash state")
	}
	// The suspended index survived as suspended.
	pi := db2.Mgr.Index("r(a)")
	if pi == nil || pi.State() != storage.StateSuspended {
		t.Fatalf("suspended index state lost: %v", pi)
	}
}

// tornWorkload runs a small deterministic workload and returns the set
// of every acknowledged-statement state digest, in order. The digest at
// index i is the state after the i-th acknowledged statement (index 0
// is the empty database).
func tornWorkload(t *testing.T, db *DB, checkpointAt int) []string {
	t.Helper()
	stmts := []string{
		"CREATE TABLE R (id INT, a INT, PRIMARY KEY (id))",
		"CREATE TABLE S (id INT, x INT, PRIMARY KEY (id))",
	}
	for i := 0; i < 8; i++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO R VALUES (%d, %d)", i, i%3))
		stmts = append(stmts, fmt.Sprintf("INSERT INTO S VALUES (%d, %d)", i, i%2))
	}
	stmts = append(stmts,
		"CREATE INDEX R_a ON R (a)",
		"UPDATE R SET a = 7 WHERE a = 1",
		"DELETE FROM S WHERE x = 0",
		"INSERT INTO R VALUES (50, 7)",
	)
	digests := []string{stateDigest(t, db)}
	for i, s := range stmts {
		if i == checkpointAt {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		db.MustExec(s)
		digests = append(digests, stateDigest(t, db))
	}
	return digests
}

// TestDurableTornWriteEveryOffset is the torn-write property test: the
// recorded log is truncated at EVERY byte offset, and recovery from
// each truncation must land exactly on some acknowledged-statement
// prefix — never a partially applied statement, never an inconsistent
// index.
func TestDurableTornWriteEveryOffset(t *testing.T) {
	for _, ckptAt := range []int{-1, 10} {
		name := "no-checkpoint"
		if ckptAt >= 0 {
			name = "mid-checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			src := t.TempDir()
			db, err := OpenDurable(Config{Dir: src, Sync: wal.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			digests := tornWorkload(t, db, ckptAt)
			db.Crash()
			allowed := make(map[string]int, len(digests))
			for i, d := range digests {
				allowed[d] = i
			}

			// Find the live suffix segment (post-checkpoint there is
			// exactly one log file).
			ents, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			var segName string
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".log") {
					if segName != "" {
						t.Fatalf("expected one live segment, found %s and %s", segName, e.Name())
					}
					segName = e.Name()
				}
			}
			data, err := os.ReadFile(filepath.Join(src, segName))
			if err != nil {
				t.Fatal(err)
			}
			if testing.Short() && len(data) > 2048 {
				t.Skipf("log is %d bytes; full per-byte sweep skipped in -short", len(data))
			}

			lastPrefix := -1
			for off := 0; off <= len(data); off++ {
				dir := copyDir(t, src)
				if err := os.Truncate(filepath.Join(dir, segName), int64(off)); err != nil {
					t.Fatal(err)
				}
				rdb, err := OpenDurable(Config{Dir: dir, Sync: wal.SyncNone})
				if err != nil {
					t.Fatalf("offset %d: recovery failed: %v", off, err)
				}
				got := stateDigest(t, rdb)
				idx, ok := allowed[got]
				if !ok {
					t.Fatalf("offset %d: recovered state matches no acknowledged prefix", off)
				}
				if idx < lastPrefix {
					t.Fatalf("offset %d: recovery regressed from prefix %d to %d", off, lastPrefix, idx)
				}
				lastPrefix = idx
				if err := rdb.Mgr.CheckConsistency(); err != nil {
					t.Fatalf("offset %d: %v", off, err)
				}
				rdb.Crash()
			}
			if lastPrefix != len(digests)-1 {
				t.Fatalf("full log recovered prefix %d, want %d", lastPrefix, len(digests)-1)
			}
		})
	}
}

// TestDurableBitFlipEveryRecord flips one byte inside every record of
// the recorded log; recovery must stop at the corrupted record's batch
// boundary (or earlier) and still land on an acknowledged prefix.
func TestDurableBitFlipEveryRecord(t *testing.T) {
	src := t.TempDir()
	db, err := OpenDurable(Config{Dir: src, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	digests := tornWorkload(t, db, -1)
	db.Crash()
	allowed := make(map[string]bool, len(digests))
	for _, d := range digests {
		allowed[d] = true
	}

	segName := wal.SegmentName(0)
	data, err := os.ReadFile(filepath.Join(src, segName))
	if err != nil {
		t.Fatal(err)
	}
	// Locate record boundaries by decoding the intact log.
	var bounds []int
	for off := 0; off < len(data); {
		_, n, err := wal.DecodeRecord(data[off:])
		if err != nil {
			t.Fatalf("intact log undecodable at %d: %v", off, err)
		}
		bounds = append(bounds, off)
		off += n
	}
	for i, off := range bounds {
		end := len(data)
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		dir := copyDir(t, src)
		path := filepath.Join(dir, segName)
		mut := append([]byte(nil), data...)
		mut[off+(end-off)/2] ^= 0x20
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		rdb, err := OpenDurable(Config{Dir: dir, Sync: wal.SyncNone})
		if err != nil {
			t.Fatalf("record %d: recovery failed: %v", i, err)
		}
		if !rdb.Recovery().Torn {
			t.Fatalf("record %d: corruption not detected", i)
		}
		if got := stateDigest(t, rdb); !allowed[got] {
			t.Fatalf("record %d: recovered state matches no acknowledged prefix", i)
		}
		if err := rdb.Mgr.CheckConsistency(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		rdb.Crash()
	}
}
