package chaostest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/core"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/tpch"
	"onlinetuner/internal/wal"
)

// The kill-and-restart suite: the chaos workload runs on a DURABLE
// database, the process "dies" at a fault-injected point (a WAL append
// fault, a WAL fsync fault, or mid-checkpoint), the directory is
// reopened, and the recovered database must match — live row for live
// row, RID for RID — a fault-free oracle that executed exactly the
// statements the faulty run acknowledged before the crash.
//
// Reproduce a failing cell locally:
//
//	CHAOS_SEEDS=<seed> EXEC_WORKERS=<n> go test -race -run TestChaosCrashRecovery ./internal/fault/chaostest

var tpchTables = []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}

// heapDump renders a table's live rows in RID order — the byte-for-byte
// comparison surface between a recovered database and its oracle.
func heapDump(db *engine.DB, table string) string {
	var buf bytes.Buffer
	db.Mgr.Heap(table).Scan(func(rid storage.RID, r datum.Row) bool {
		fmt.Fprintf(&buf, "%d|", rid)
		for _, d := range r {
			buf.WriteString(d.String())
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
		return true
	})
	return buf.String()
}

// loadDurableChaosDB opens a durable database, bulk-loads it with the
// WAL in no-sync mode (the load is not the test subject), checkpoints
// the loaded state, and switches to group commit for the scripted
// phase.
func loadDurableChaosDB(t *testing.T, seed uint64, dir string) (*engine.DB, *tpch.Generator) {
	t.Helper()
	db, err := engine.OpenDurable(engine.Config{Dir: dir, ExecWorkers: execWorkers(t), Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	g := tpch.NewGenerator(chaosScale, int64(seed))
	if err := g.Load(db); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.WAL().SetPolicy(wal.SyncGroup)
	return db, g
}

// TestChaosCrashRecovery is the seed-matrix kill-and-restart suite.
// Crash placement varies by seed: seed%3==0 dies mid-checkpoint,
// seed%3==1 dies at an injected WAL append fault, seed%3==2 at an
// injected WAL fsync fault (falling back to an end-of-script crash if
// the probabilistic fault never fires). The fsync-fault mode runs a
// second writer beside the script, so commits share flushes and either
// committer may be the one that draws the fault.
func TestChaosCrashRecovery(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer func() {
				if t.Failed() {
					writeArtifact(t, seed, "TestChaosCrashRecovery failed; see -v output for details")
				}
			}()
			runCrashSeed(t, seed)
		})
	}
}

// startSideWriter runs a second committer on supplier, a table the
// script reads but never writes. Each tick lets it run one more UPDATE, which
// keeps it in step with the script; stop waits for it and returns the
// statements it was told succeeded. It stops by itself once the log does.
func startSideWriter(t *testing.T, db *engine.DB) (tick func(), stop func() []string) {
	ticks, done := make(chan struct{}, 1), make(chan struct{})
	var acked []string
	go func() {
		defer close(done)
		for n := 1; ; n++ {
			if _, ok := <-ticks; !ok {
				return
			}
			q := fmt.Sprintf("UPDATE supplier SET s_acctbal = %d.5 WHERE s_suppkey = 1", n)
			_, _, err := db.Exec(q)
			var fe *fault.Error
			switch {
			case err == nil:
				acked = append(acked, q)
			case !fault.Is(err):
				t.Errorf("side writer: non-fault error %v", err)
				return
			case errors.As(err, &fe) && fe.Site == fault.WALFsync:
				return
			}
		}
	}()
	tick = func() {
		select {
		case ticks <- struct{}{}:
		default: // still busy with the previous one
		}
	}
	stop = func() []string {
		close(ticks)
		<-done
		return acked
	}
	return tick, stop
}

func runCrashSeed(t *testing.T, seed uint64) {
	dir := t.TempDir()
	db, g := loadDurableChaosDB(t, seed, dir)
	opts := core.DefaultOptions()
	opts.Async = true
	opts.UseSuspend = seed%2 == 0
	opts.CooldownQueries = 2
	tn := core.Attach(db, opts)
	db.SetRetryBackoff(time.Microsecond)
	script := chaosScript(g)

	mode := seed % 3
	inj := chaosInjector(seed)
	switch mode {
	case 1:
		inj = inj.Plan(fault.WALAppend, fault.Rule{Prob: 0.01})
	case 2:
		inj = inj.Plan(fault.WALFsync, fault.Rule{Prob: 0.03})
	}
	db.SetFaults(inj)
	inj.Arm()
	tick, stopSide := func() {}, func() []string { return nil }
	if mode == 2 {
		tick, stopSide = startSideWriter(t, db)
	}

	crashed := false
	var succeededIdx []int
	var sideAcked []string
	for i, stmt := range script {
		if mode == 0 && i == len(script)/2 {
			// Mid-checkpoint crash: a one-shot WAL fault fails the
			// checkpoint partway (its begin record, its snapshot-bracket
			// fsync, or its roll), and the process dies right there.
			site := fault.WALFsync
			if seed%2 == 0 {
				site = fault.WALAppend
			}
			ck := fault.New(seed).Plan(site, fault.Rule{Prob: 1, Count: 1})
			ck.Arm()
			db.SetFaults(ck)
			if err := db.Checkpoint(); err == nil {
				t.Fatalf("seed %d: mid-crash checkpoint succeeded despite armed %s fault", seed, site)
			}
			db.Crash()
			crashed = true
			break
		}
		tick()
		rs, _, err := db.Exec(stmt)
		if err != nil {
			if !fault.Is(err) {
				t.Fatalf("seed %d stmt %d: non-fault error %v\n%s", seed, i, err, stmt)
			}
			var fe *fault.Error
			if errors.As(err, &fe) && (fe.Site == fault.WALAppend || fe.Site == fault.WALFsync) {
				// The durability layer itself failed: this is the
				// kill point for WAL-fault modes. The side writer's
				// in-flight statement is answered first, so the log
				// holds no commit whose fate nobody was told.
				sideAcked = stopSide()
				db.Crash()
				crashed = true
				break
			}
			continue
		}
		_ = rs
		succeededIdx = append(succeededIdx, i)
	}
	if !crashed {
		sideAcked = stopSide()
		db.Crash() // probabilistic fault never fired; die at end of script
	}
	inj.Disarm()
	t.Logf("seed %d: %d script and %d side-writer statements acknowledged, fault-killed=%v", seed, len(succeededIdx), len(sideAcked), crashed)
	if len(succeededIdx) == 0 {
		t.Fatalf("seed %d: crash before any acknowledged statement; nothing to verify", seed)
	}
	// Post-crash writes must fail: nothing may be acknowledged after the
	// kill point. (Reads still work — the in-memory structures are alive
	// — but they commit nothing.)
	for _, stmt := range script {
		if isQuery(stmt) {
			continue
		}
		if _, _, err := db.Exec(stmt); err == nil {
			t.Fatalf("seed %d: write acknowledged after crash:\n%s", seed, stmt)
		}
		break
	}
	tn.Close()

	// ---- Restart: recover the directory. ----
	rdb, err := engine.OpenDurable(engine.Config{Dir: dir, ExecWorkers: execWorkers(t)})
	if err != nil {
		t.Fatalf("seed %d: recovery failed: %v", seed, err)
	}
	defer rdb.Close()
	if err := rdb.Mgr.CheckConsistency(); err != nil {
		t.Fatalf("seed %d: recovered state inconsistent: %v", seed, err)
	}

	// ---- Oracle: fresh in-memory load, no faults, no tuner; replay
	// exactly the acknowledged statements. ----
	oracle, _ := loadChaosDB(t, seed)
	for _, idx := range succeededIdx {
		if _, _, err := oracle.Exec(script[idx]); err != nil {
			t.Fatalf("seed %d: oracle failed on stmt %d: %v\n%s", seed, idx, err, script[idx])
		}
	}
	for _, q := range sideAcked {
		if _, _, err := oracle.Exec(q); err != nil {
			t.Fatalf("seed %d: oracle failed on side-writer statement: %v\n%s", seed, err, q)
		}
	}

	// Byte-for-byte: every table's live rows, in RID order, with exact
	// RIDs. Statement rollback restores the heap free list exactly, so
	// acknowledged statements take identical RIDs in both histories.
	for _, table := range tpchTables {
		if got, want := heapDump(rdb, table), heapDump(oracle, table); got != want {
			t.Errorf("seed %d: recovered %s differs from oracle (%d vs %d bytes)",
				seed, table, len(got), len(want))
		}
	}

	// Recovered database answers queries identically to the oracle (its
	// physical configuration may differ — the tuner's recovered indexes —
	// but results may not).
	compared := 0
	for _, idx := range succeededIdx {
		if !isQuery(script[idx]) || compared >= 4 {
			continue
		}
		rrs, err := rdb.Query(script[idx])
		if err != nil {
			t.Fatalf("seed %d: recovered DB failed query %d: %v", seed, idx, err)
		}
		ors, err := oracle.Query(script[idx])
		if err != nil {
			t.Fatalf("seed %d: oracle failed query %d: %v", seed, idx, err)
		}
		if fingerprint(rrs) != fingerprint(ors) {
			t.Errorf("seed %d: query %d diverged after recovery:\n%s", seed, idx, script[idx])
		}
		compared++
	}
	if compared == 0 {
		t.Fatalf("seed %d: no acknowledged queries to compare", seed)
	}

	// The recovered engine keeps serving and keeps being durable.
	if _, err := rdb.Query("SELECT COUNT(*) FROM lineitem"); err != nil {
		t.Fatalf("seed %d: recovered engine not serving: %v", seed, err)
	}
	if err := rdb.Checkpoint(); err != nil {
		t.Fatalf("seed %d: checkpoint after recovery: %v", seed, err)
	}
}

// TestChaosCrashBuildReconciliation crashes deterministically in the
// middle of a background index build and checks that recovery discards
// the dangling build and records a "recovery-abandon" decision the
// tuner adopts. Tuner evidence saved before the crash loads cleanly
// after it, and build counters reconcile.
func TestChaosCrashBuildReconciliation(t *testing.T) {
	dir := t.TempDir()
	db, err := engine.OpenDurable(engine.Config{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE r (id INT, a INT, b INT, PRIMARY KEY (id))")
	for i := 0; i < 200; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO r VALUES (%d, %d, %d)", i, i%13, i%7))
	}

	// A tuner observes some workload pre-crash so there is evidence to
	// carry across the restart.
	tn := core.Attach(db, core.DefaultOptions())
	for i := 0; i < 5; i++ {
		db.MustExec("SELECT COUNT(*) FROM r WHERE a = 3")
	}
	var saved bytes.Buffer
	if err := tn.SaveState(&saved); err != nil {
		t.Fatal(err)
	}
	tn.Close()

	// Start a background build, run it, apply delta DML — and crash
	// before the publish. The WAL holds a BuildStart with no matching
	// IndexCreate or BuildAbort.
	ix := (&catalog.Index{Name: "r_a", Table: "r", Columns: []string{"a"}}).Canonicalize()
	b, err := db.Mgr.StartBuild(ix)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO r VALUES (500, 1, 1)")
	db.MustExec("DELETE FROM r WHERE id = 3")
	db.Crash()

	rdb, err := engine.OpenDurable(engine.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	info := rdb.Recovery()
	if len(info.Abandoned) != 1 || info.Abandoned[0] != ix.ID() {
		t.Fatalf("abandoned = %v, want [%s]", info.Abandoned, ix.ID())
	}
	if rdb.Mgr.Index(ix.ID()) != nil || rdb.Cat.IndexByID(ix.ID()) != nil {
		t.Fatal("abandoned build left a materialized or cataloged index")
	}
	if err := rdb.Mgr.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The delta DML that committed during the build survived.
	rs := rdb.MustExec("SELECT COUNT(*) FROM r WHERE id = 500")
	if rs.Rows[0][0].Int() != 1 {
		t.Fatal("acknowledged delta statement lost")
	}

	// The tuner adopts the recovery decision and reloads its evidence.
	rtn := core.Attach(rdb, core.DefaultOptions())
	rtn.AdoptRecovery(info)
	if err := rtn.LoadState(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatalf("tuner state did not survive the crash: %v", err)
	}
	found := false
	for _, d := range rtn.Decisions() {
		if d.Kind == "recovery-abandon" && d.Index == ix.ID() && d.Table == "r" {
			found = true
		}
	}
	if !found {
		t.Fatal("no recovery-abandon decision in the adopted log")
	}
	m := rtn.Metrics()
	if m.BuildsStarted != m.BuildsCompleted+m.BuildsAborted+m.BuildsFailed {
		t.Fatalf("build counters do not reconcile after recovery: started=%d completed=%d aborted=%d failed=%d",
			m.BuildsStarted, m.BuildsCompleted, m.BuildsAborted, m.BuildsFailed)
	}
	// Catalog and storage agree on the published configuration.
	for _, ax := range rdb.Configuration() {
		pi := rdb.Mgr.Index(ax.ID())
		if pi == nil || pi.State() != storage.StateActive {
			t.Fatalf("configuration lists %s but storage disagrees", ax.ID())
		}
	}
	rtn.Close()
	_ = rdb.Close()
}
