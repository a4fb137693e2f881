package core

// Deterministic unit tests for the tuner's one index-creation protocol
// (a background build published once its accounted gate opens: B_I^s
// with Options.Async, zero by default), driven entirely through the
// tuner's change log: every assertion keys off a logged record, never
// off sleeps or wall-clock timing. The workload is replayed
// single-threaded, so record order is exact; the
// background build goroutine is synchronized by the publish gate (the
// tuner waits on its completion channel when the accounted B_I^s cost
// has elapsed), which keeps even the physical build deterministic.

import (
	"testing"

	"onlinetuner/internal/engine"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/storage"
)

// firstEvent returns the earliest logged record of the given kind at or
// after position from, and its position (-1 if there is none).
func firstEvent(tn *Tuner, kind EventKind, from int) (Event, int) {
	evs := tn.Events()
	for i := from; i < len(evs); i++ {
		if evs[i].Kind == kind {
			return evs[i], i
		}
	}
	return Event{}, -1
}

// runUntil replays statement q until the change log holds a record of
// the given kind, or the budget of executions runs out; it returns that
// record and whether it appeared.
func runUntil(t *testing.T, db *engine.DB, tn *Tuner, q string, budget int, kind EventKind) (Event, bool) {
	t.Helper()
	for i := 0; ; i++ {
		if ev, at := firstEvent(tn, kind, 0); at >= 0 {
			return ev, true
		}
		if i == budget {
			return Event{}, false
		}
		if _, _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

func TestAsyncBuildCompletesThroughEvents(t *testing.T) {
	db := paperDB(t, 2000)
	opts := DefaultOptions()
	opts.Async = true
	tn := Attach(db, opts)
	defer tn.Close()

	created, ok := runUntil(t, db, tn, q1, 300, EvCreate)
	if !ok {
		t.Fatalf("async build never completed; events = %v", tn.Events())
	}

	// The build must have been announced before it was published, for
	// the same index.
	started, startAt := firstEvent(tn, EvBuildStart, 0)
	_, createAt := firstEvent(tn, EvCreate, 0)
	if startAt < 0 || startAt > createAt {
		t.Fatalf("bad record order: build-start at %d, create at %d (%v)", startAt, createAt, tn.Events())
	}
	if started.Index.ID() != created.Index.ID() {
		t.Errorf("build-start index %s != created index %s", started.Index, created.Index)
	}
	if created.Reason != "published" {
		t.Errorf("create reason = %q, want published", created.Reason)
	}

	// The published structure is real, active, and complete.
	pi := db.Mgr.Index(created.Index.ID())
	if pi == nil || pi.State() != storage.StateActive {
		t.Fatalf("published index %s not active", created.Index)
	}
	if got, want := pi.Tree().Len(), db.Mgr.Heap("R").Len(); got != want {
		t.Errorf("index entries = %d, rows = %d", got, want)
	}
	if db.Cat.IndexByID(created.Index.ID()) == nil {
		t.Error("published index missing from catalog")
	}

	m := tn.Metrics()
	if m.BuildsStarted < 1 || m.BuildsCompleted < 1 {
		t.Errorf("metrics: started=%d completed=%d", m.BuildsStarted, m.BuildsCompleted)
	}
}

func TestAsyncBuildAbortsOnErosion(t *testing.T) {
	db := paperDB(t, 3000)
	opts := DefaultOptions()
	opts.Async = true
	tn := Attach(db, opts)
	defer tn.Close()

	started, ok := runUntil(t, db, tn, q1, 300, EvBuildStart)
	if !ok {
		t.Fatal("no build ever started")
	}
	if _, at := firstEvent(tn, EvCreate, 0); at >= 0 {
		t.Skipf("build completed before updates could erode it: %v", tn.Events())
	}

	// Full-table updates erode the candidate's benefit; the paper's rule
	// cancels the build once the erosion exceeds B_I^s.
	up := "UPDATE R SET b = b + 1, c = c + 1, d = d + 1, e = e + 1 WHERE id >= 0"
	aborted, ok := runUntil(t, db, tn, up, 100, EvAbort)
	if !ok {
		t.Fatalf("build never aborted under update burst; events = %v", tn.Events())
	}
	if aborted.Index.ID() != started.Index.ID() || aborted.Reason != "erosion" {
		t.Errorf("abort %+v does not match build-start %+v", aborted, started)
	}

	// The half-built structure must be discarded entirely: no physical
	// index, no catalog entry, no pending build.
	if pi := db.Mgr.Index(started.Index.ID()); pi != nil {
		t.Errorf("aborted build left physical index in state %v", pi.State())
	}
	if db.Cat.IndexByID(started.Index.ID()) != nil {
		t.Error("aborted build left catalog entry")
	}
	if tn.pending != nil {
		t.Error("aborted build left pending state")
	}
	if m := tn.Metrics(); m.BuildsAborted != 1 {
		t.Errorf("BuildsAborted = %d", m.BuildsAborted)
	}
}

func TestAsyncSuspendThenRestart(t *testing.T) {
	db := paperDB(t, 2000)
	opts := DefaultOptions()
	opts.Async = true
	opts.UseSuspend = true
	opts.CooldownQueries = 5
	tn := Attach(db, opts)
	defer tn.Close()

	// Phase 1: reads until an index is built and published.
	created, ok := runUntil(t, db, tn, q1, 300, EvCreate)
	if !ok {
		t.Fatalf("no index created; events = %v", tn.Events())
	}

	// Phase 2: update-only workload until the index is suspended (drops
	// are replaced by suspends under UseSuspend).
	up := "UPDATE R SET b = b + 1, c = c + 1, d = d + 1, e = e + 1 WHERE id >= 0"
	if _, ok := runUntil(t, db, tn, up, 200, EvSuspend); !ok {
		t.Fatalf("index never suspended; events = %v", tn.Events())
	}
	pi := db.Mgr.Index(created.Index.ID())
	if pi == nil || pi.State() != storage.StateSuspended {
		t.Fatalf("expected %s suspended", created.Index)
	}

	// Phase 3: reads again until the suspended structure restarts. A
	// restart is an asynchronous creation without a physical rebuild —
	// the existing structure replays its missed changes at publish time.
	if _, ok := runUntil(t, db, tn, q1, 400, EvRestart); !ok {
		t.Fatalf("index never restarted; events = %v", tn.Events())
	}
	if pi.State() != storage.StateActive {
		t.Fatalf("restarted index is %v", pi.State())
	}
	if got, want := pi.Tree().Len(), db.Mgr.Heap("R").Len(); got != want {
		t.Errorf("restarted index entries = %d, rows = %d", got, want)
	}

	// The restart must have been announced like any other build: a
	// build-start for the same index after the suspend, before the
	// restart.
	_, suspendAt := firstEvent(tn, EvSuspend, 0)
	restartStart, at := firstEvent(tn, EvBuildStart, suspendAt)
	_, restartAt := firstEvent(tn, EvRestart, 0)
	if at < 0 || at > restartAt || restartStart.Index.ID() != created.Index.ID() {
		t.Errorf("no build-start announcement for the restart; events = %v", tn.Events())
	}
}

// TestZeroGateBuildProtocol runs the paper's default options, whose
// build gate is zero: every creation still goes through the background
// build protocol, announced by a build-start at the statement that
// published it, and no index is left building when a statement returns.
// Under a certain BuildStep fault each attempt reads build-start then
// build-failed, and the build counters reconcile.
func TestZeroGateBuildProtocol(t *testing.T) {
	run := func(t *testing.T, db *engine.DB, tn *Tuner, q string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, _, err := db.Exec(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			for _, table := range []string{"R", "S"} {
				for _, pi := range db.Mgr.TableIndexes(table) {
					if pi.State() == storage.StateBuilding {
						t.Fatalf("statement %d returned with %v building; events = %v",
							tn.Metrics().Queries, pi.Def, tn.Events())
					}
				}
			}
		}
	}
	// follows reports whether record i is directly preceded by a
	// build-start for the same index at the same statement.
	follows := func(ds []Event, i int) bool {
		return i > 0 && ds[i-1].Kind == EvBuildStart &&
			ds[i-1].Index.ID() == ds[i].Index.ID() && ds[i-1].AtQuery == ds[i].AtQuery
	}
	reconciles := func(t *testing.T, m Metrics) {
		t.Helper()
		if m.BuildsStarted != m.BuildsCompleted+m.BuildsAborted+m.BuildsFailed {
			t.Errorf("build counters do not reconcile: %+v", m)
		}
	}

	t.Run("published", func(t *testing.T) {
		db := paperDB(t, 2000)
		tn := Attach(db, DefaultOptions())
		defer tn.Close()
		run(t, db, tn, q1, 100)
		run(t, db, tn, q2, 100)

		ds := tn.Events()
		creates := 0
		for i, d := range ds {
			if d.Kind != EvCreate {
				continue
			}
			creates++
			if !follows(ds, i) || d.Reason != "published" {
				t.Errorf("create %+v is not published right after its build-start; events = %v", d, ds)
			}
		}
		if creates == 0 {
			t.Fatalf("no index created; events = %v", ds)
		}
		reconciles(t, tn.Metrics())
	})

	t.Run("faulted", func(t *testing.T) {
		db := paperDB(t, 2000)
		tn := Attach(db, DefaultOptions())
		defer tn.Close()
		inj := fault.New(1).Plan(fault.BuildStep, fault.Rule{Prob: 1})
		db.SetFaults(inj)
		inj.Arm()
		run(t, db, tn, q1, 200)

		ds := tn.Events()
		failed := 0
		for i, d := range ds {
			switch d.Kind {
			case EvFail:
				failed++
				if !follows(ds, i) {
					t.Errorf("build-failed %+v does not follow its build-start; events = %v", d, ds)
				}
			case EvBuildStart:
				if i+1 == len(ds) || ds[i+1].Kind != EvFail {
					t.Errorf("build-start %+v is not followed by build-failed; events = %v", d, ds)
				}
			case EvCreate:
				t.Errorf("a build published under a certain fault: %+v", d)
			}
		}
		m := tn.Metrics()
		if failed == 0 || m.BuildsFailed != int64(failed) {
			t.Errorf("BuildsFailed = %d, build-failed records = %d", m.BuildsFailed, failed)
		}
		reconciles(t, m)
	})
}

// TestAsyncCreateStartsNoCooldown pins a known gap in the cooldown
// (ROADMAP item 19). Lines 9–21 start a cooldown only when they append a
// change other than a build-start. Under the zero gate the create is
// published inside them, so it starts one. Under Async it is published
// by progressBuild, before lines 9–21 run, and its build-start was
// appended statements earlier; so the served daemon, which runs Async,
// creates without the post-create cooldown the paper replays have.
func TestAsyncCreateStartsNoCooldown(t *testing.T) {
	for _, async := range []bool{false, true} {
		db := paperDB(t, 3000)
		opts := DefaultOptions()
		opts.Async = async
		tn := Attach(db, opts)
		created, ok := runUntil(t, db, tn, q1, 300, EvCreate)
		if !ok {
			t.Fatalf("async=%v: no index created; events = %v", async, tn.Events())
		}
		want := created.AtQuery + int64(opts.CooldownQueries)
		if async {
			want = 0
		}
		if tn.cooldownUntil != want {
			t.Errorf("async=%v: create at q%d left cooldownUntil = %d, want %d",
				async, created.AtQuery, tn.cooldownUntil, want)
		}
		tn.Close()
	}
}
