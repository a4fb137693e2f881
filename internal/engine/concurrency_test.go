package engine_test

// Race/stress coverage for the concurrent engine: N goroutines submit
// INSERT/SELECT/UPDATE statements while the online tuner observes every
// one of them and creates indexes on background goroutines. Run with
// -race; the assertions themselves are schedule-independent (no lost
// updates, index/heap consistency, clean shutdown).

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"onlinetuner/internal/core"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/storage"
)

// newStressDB builds two tables: acct, hammered by read-modify-write
// updates, and evt, growing under inserts — both carrying non-key
// columns the read workload filters on, so the tuner wants indexes on
// tables that are being written concurrently.
func newStressDB(t *testing.T, acctRows, evtRows int) *engine.DB {
	t.Helper()
	db := engine.Open()
	db.MustExec("CREATE TABLE acct (id INT, grp INT, bal INT, PRIMARY KEY (id))")
	db.MustExec("CREATE TABLE evt (id INT, k INT, v INT, PRIMARY KEY (id))")
	for i := 0; i < acctRows; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO acct (id, grp, bal) VALUES (%d, %d, 0)", i, i%10))
	}
	for i := 0; i < evtRows; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO evt (id, k, v) VALUES (%d, %d, %d)", i, i%50, i))
	}
	for _, tbl := range []string{"acct", "evt"} {
		if err := db.Analyze(tbl); err != nil {
			t.Fatalf("analyze %s: %v", tbl, err)
		}
	}
	return db
}

func TestConcurrentStatementsWithTuner(t *testing.T) {
	const (
		acctRows = 200
		evtRows  = 500
		updaters = 4
		readers  = 3
		writers  = 2 // evt inserters
		iters    = 150
	)
	db := newStressDB(t, acctRows, evtRows)
	tn := core.Attach(db, core.Options{
		ThrottleEvery:   1,
		Async:           true,
		CooldownQueries: 5,
	})
	defer tn.Close()

	var (
		wg         sync.WaitGroup
		increments int64
		incMu      sync.Mutex
		errs       = make(chan error, updaters+readers+writers)
	)

	for w := 0; w < updaters; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			local := int64(0)
			for i := 0; i < iters; i++ {
				id := rng.Intn(acctRows)
				rs, _, err := db.Exec(fmt.Sprintf("UPDATE acct SET bal = bal + 1 WHERE id = %d", id))
				if err != nil {
					errs <- fmt.Errorf("update: %w", err)
					return
				}
				local += int64(rs.Affected)
			}
			incMu.Lock()
			increments += local
			incMu.Unlock()
		}(int64(w + 1))
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				var q string
				if i%2 == 0 {
					q = fmt.Sprintf("SELECT v FROM evt WHERE k = %d", rng.Intn(50))
				} else {
					q = fmt.Sprintf("SELECT bal FROM acct WHERE grp = %d", rng.Intn(10))
				}
				if _, err := db.Query(q); err != nil {
					errs <- fmt.Errorf("select: %w", err)
					return
				}
			}
		}(int64(100 + w))
	}
	inserted := make([]int, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := evtRows + n*iters + i
				_, _, err := db.Exec(fmt.Sprintf("INSERT INTO evt (id, k, v) VALUES (%d, %d, %d)", id, id%50, id))
				if err != nil {
					errs <- fmt.Errorf("insert: %w", err)
					return
				}
				inserted[n]++
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// No lost updates: the balance total must equal the number of
	// single-row UPDATEs that reported success.
	rs, err := db.Query("SELECT bal FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range rs.Rows {
		total += r[0].Int()
	}
	if total != increments {
		t.Errorf("lost updates: balance total %d, applied increments %d", total, increments)
	}

	// No lost inserts.
	wantEvt := evtRows
	for _, n := range inserted {
		wantEvt += n
	}
	if got := db.Mgr.Heap("evt").Len(); got != wantEvt {
		t.Errorf("evt rows = %d, want %d", got, wantEvt)
	}

	// Every index the tuner built concurrently with the DML must be
	// complete: one entry per live row of its table.
	for _, ix := range db.Configuration() {
		pi := db.Mgr.Index(ix.ID())
		if pi == nil || pi.State() != storage.StateActive {
			t.Errorf("configuration index %s not active", ix)
			continue
		}
		if got, want := pi.Tree().Len(), db.Mgr.Heap(ix.Table).Len(); got != want {
			t.Errorf("index %s has %d entries, table has %d rows", ix, got, want)
		}
	}

	m := tn.Metrics()
	if m.Queries == 0 {
		t.Error("tuner observed no statements")
	}
}

// TestConcurrentDDLAndDML interleaves manual index DDL with reads and
// writes over the same table: DDL takes the table's exclusive lock, so
// every statement must either run before or after it, never mid-build.
func TestConcurrentDDLAndDML(t *testing.T) {
	const iters = 60
	db := newStressDB(t, 100, 0)
	var wg sync.WaitGroup
	errs := make(chan error, 3)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			if _, _, err := db.Exec("CREATE INDEX acct_grp ON acct (grp, id)"); err != nil {
				errs <- fmt.Errorf("create: %w", err)
				return
			}
			if _, _, err := db.Exec("DROP INDEX acct_grp"); err != nil {
				errs <- fmt.Errorf("drop: %w", err)
				return
			}
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				var err error
				if i%2 == 0 {
					_, err = db.Query(fmt.Sprintf("SELECT bal FROM acct WHERE grp = %d", rng.Intn(10)))
				} else {
					_, _, err = db.Exec(fmt.Sprintf("UPDATE acct SET bal = bal + 1 WHERE id = %d", rng.Intn(100)))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentDDLChurnWithPlanCache hammers the plan cache's
// invalidation path: readers replay a handful of query templates with
// varying literals (exact hits, rebind hits and misses) while one
// goroutine churns index DDL and Analyze on the read table — each bumps
// an epoch the cached entries are keyed by — and another inserts into a
// second table. acct's contents never change, so every count a reader
// sees has exactly one correct value no matter which cached or fresh
// plan produced it. The churn starts once every reader has run, and the
// readers keep going until it ends, so the two always overlap.
func TestConcurrentDDLChurnWithPlanCache(t *testing.T) {
	const (
		acctRows = 200
		readers  = 4
		iters    = 150
	)
	db := newStressDB(t, acctRows, 50)

	var wg sync.WaitGroup
	errs := make(chan error, readers+2)
	var started sync.WaitGroup
	started.Add(readers)
	var churnDone atomic.Bool

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer churnDone.Store(true)
		started.Wait()
		for i := 0; i < iters/6; i++ {
			if _, _, err := db.Exec("CREATE INDEX acct_grp ON acct (grp, id)"); err != nil {
				errs <- fmt.Errorf("create: %w", err)
				return
			}
			if err := db.Analyze("acct"); err != nil {
				errs <- fmt.Errorf("analyze: %w", err)
				return
			}
			if _, _, err := db.Exec("DROP INDEX acct_grp"); err != nil {
				errs <- fmt.Errorf("drop: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			id := 1000 + i
			if _, _, err := db.Exec(fmt.Sprintf("INSERT INTO evt (id, k, v) VALUES (%d, %d, %d)", id, id%50, id)); err != nil {
				errs <- fmt.Errorf("insert: %w", err)
				return
			}
		}
	}()
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters || !churnDone.Load(); i++ {
				grp := rng.Intn(10)
				rs, err := db.Query(fmt.Sprintf("SELECT id FROM acct WHERE grp = %d", grp))
				if i == 0 {
					started.Done()
				}
				if err != nil {
					errs <- fmt.Errorf("select: %w", err)
					return
				}
				if len(rs.Rows) != acctRows/10 {
					errs <- fmt.Errorf("grp %d: got %d rows, want %d", grp, len(rs.Rows), acctRows/10)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := db.PlanCacheStats()
	if s.Hits+s.RebindHits == 0 {
		t.Errorf("plan cache never hit under churn: %+v", s)
	}
	if s.Invalidations == 0 {
		t.Errorf("DDL churn caused no invalidations: %+v", s)
	}
}

// TestConcurrentAnalyze runs Analyze against a table under concurrent
// DML: the shared statement lock must yield a mutually consistent column
// sample (same length for every column).
func TestConcurrentAnalyze(t *testing.T) {
	db := newStressDB(t, 100, 0)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if err := db.Analyze("acct"); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 120; i++ {
			id := 100 + i
			if _, _, err := db.Exec(fmt.Sprintf("INSERT INTO acct (id, grp, bal) VALUES (%d, %d, 0)", id, id%10)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cs := db.Stats.Get("acct", "grp"); cs == nil {
		t.Fatal("no stats for acct.grp")
	}
}

// TestTunerCloseMidBuild shuts the tuner down while statements are still
// flowing and a background build is in flight: Close must cancel and join
// the build, count it as aborted with a "closed" decision (so the build
// counters reconcile), charge the schedule nothing, leave no half-built
// structure behind, and be safe to call twice. The other sessions run
// cheap primary-key lookups, so the build's cost gate stays open for
// several of the driving session's scans.
func TestTunerCloseMidBuild(t *testing.T) {
	db := newStressDB(t, 50, 300)
	tn := core.Attach(db, core.Options{ThrottleEvery: 1, Async: true, CooldownQueries: 1})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = db.Query(fmt.Sprintf("SELECT v FROM evt WHERE id = %d", rng.Intn(300)))
			}
		}(int64(w))
	}
	// Accumulate evidence until a build is in flight, then close the tuner
	// underneath the running statements.
	inFlight := func(m core.Metrics) bool {
		return m.BuildsStarted > m.BuildsCompleted+m.BuildsAborted+m.BuildsFailed
	}
	before := tn.Metrics()
	for i := 0; i < 300 && !inFlight(before); i++ {
		db.MustExec(fmt.Sprintf("SELECT v FROM evt WHERE k = %d", i%50))
		before = tn.Metrics()
	}
	if !inFlight(before) {
		t.Fatalf("no build in flight to close: %+v", before)
	}
	events := len(tn.Events())
	tn.Close()
	tn.Close() // idempotent
	close(stop)
	wg.Wait()

	after := tn.Metrics()
	if inFlight(after) {
		t.Errorf("Close left the build counters unreconciled: %+v", after)
	}
	// The other sessions' lookups may open the gate between the snapshot
	// and Close; otherwise the closed build is an abort that costs nothing.
	if after.BuildsCompleted == before.BuildsCompleted {
		ds := tn.Decisions()
		if last := ds[len(ds)-1]; after.BuildsAborted != before.BuildsAborted+1 ||
			last.Kind != core.EvAbort.String() || last.Reason != "closed" {
			t.Errorf("Close did not count the build as aborted: aborted %d → %d, last decision %+v",
				before.BuildsAborted, after.BuildsAborted, last)
		}
		if after.TransitionCost != before.TransitionCost || len(tn.Events()) != events {
			t.Errorf("Close charged the schedule: transition %v → %v, events %d → %d",
				before.TransitionCost, after.TransitionCost, events, len(tn.Events()))
		}
	}

	for _, pi := range db.Mgr.TableIndexes("evt") {
		if pi.State() != storage.StateActive {
			t.Errorf("Close left %v in state %v", pi.Def, pi.State())
		}
	}
	if err := db.Mgr.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
