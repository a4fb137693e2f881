package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/fault"
)

// TestFailPenalty pins the backoff curve: doubling per failure, capped
// at 64×, reset on successful creation.
func TestFailPenalty(t *testing.T) {
	s := NewIndexStats(&catalog.Index{Table: "R", Name: "x", Columns: []string{"a"}})
	want := []float64{1, 2, 4, 8, 16, 32, 64, 64, 64}
	for i, w := range want {
		if got := s.FailPenalty(); got != w {
			t.Fatalf("streak %d: penalty = %v, want %v", i, got, w)
		}
		s.FailStreak++
	}
	s.OnCreated()
	if s.FailStreak != 0 || s.FailPenalty() != 1 {
		t.Fatalf("OnCreated did not reset the streak: %d", s.FailStreak)
	}
}

// TestBuildFailureBookkeeping checks noteBuildFailure's contract in
// isolation: candidate cooled down, metric moved, one EvFail record
// that charges nothing.
func TestBuildFailureBookkeeping(t *testing.T) {
	db := paperDB(t, 200)
	tn := NewTuner(db, DefaultOptions())
	ix := &catalog.Index{Table: "R", Name: "ix_a", Columns: []string{"a"}}
	st := NewIndexStats(ix)
	st.Add(Level1, 100, 10) // Δ = 90
	st.Creating = true
	tn.tracked[ix.ID()] = st

	tn.mu.Lock()
	tn.noteBuildFailure(st, 42, errors.New("disk on fire"))
	tn.mu.Unlock()

	if st.Creating {
		t.Error("candidate still marked Creating after failure")
	}
	if st.FailStreak != 1 {
		t.Errorf("FailStreak = %d, want 1", st.FailStreak)
	}
	if st.DeltaMin != st.Delta() {
		t.Errorf("DeltaMin = %v, want reset to Δ = %v", st.DeltaMin, st.Delta())
	}
	if got := tn.Metrics().BuildsFailed; got != 1 {
		t.Errorf("BuildsFailed = %d, want 1", got)
	}
	evs := tn.Events()
	if len(evs) == 0 || evs[len(evs)-1].Kind != EvFail {
		t.Fatalf("change log missing EvFail: %v", evs)
	}
	// The failed build weighed B_I^s but charged the schedule nothing.
	if ev := evs[len(evs)-1]; ev.BuildCost != 42 || ev.Cost != 0 || ev.Reason != "build-failed: disk on fire" {
		t.Errorf("EvFail record = %+v", ev)
	}
	if got := tn.Metrics().TransitionCost; got != 0 {
		t.Errorf("TransitionCost = %v after a failed build, want 0", got)
	}
}

// TestSyncBuildFaultDegradesGracefully forces every index build under
// the default zero gate to fail and verifies the degradation contract: statements keep
// serving, the catalog stays clean, failures are counted and backed
// off, and once the fault clears the candidate is eventually created.
func TestSyncBuildFaultDegradesGracefully(t *testing.T) {
	db := paperDB(t, 3000)
	tn := Attach(db, DefaultOptions())
	inj := fault.New(1).Plan(fault.BuildStep, fault.Rule{Prob: 1})
	db.SetFaults(inj)
	inj.Arm()

	runN(t, db, q1, 200) // would have created an index many times over

	m := tn.Metrics()
	if m.BuildsFailed == 0 {
		t.Fatal("no build failures despite a certain fault")
	}
	if m.BuildsStarted != m.BuildsCompleted+m.BuildsAborted+m.BuildsFailed {
		t.Fatalf("build counters do not reconcile: started=%d completed=%d aborted=%d failed=%d",
			m.BuildsStarted, m.BuildsCompleted, m.BuildsAborted, m.BuildsFailed)
	}
	// Exponential backoff: evidence resets on failure and the required
	// benefit doubles, so the failure count stays far below the ~13
	// attempts a plain cooldown-limited hot loop would reach.
	if m.BuildsFailed > 8 {
		t.Errorf("BuildsFailed = %d; backoff is not slowing retries", m.BuildsFailed)
	}
	for _, ix := range db.Cat.Indexes() {
		if !ix.Primary {
			t.Errorf("failed builds left catalog entry %v", ix)
		}
	}
	if err := db.Mgr.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	streak := 0
	for _, st := range tn.Candidates() {
		if st.FailStreak > streak {
			streak = st.FailStreak
		}
	}
	if streak == 0 {
		t.Error("no candidate carries a failure streak")
	}

	// The fault clears; with enough further evidence the penalized
	// candidate re-arms and the creation succeeds.
	inj.Disarm()
	created := false
	for i := 0; i < 4000 && !created; i++ {
		runN(t, db, q1, 1)
		created = len(db.Configuration()) > 0
	}
	if !created {
		t.Fatalf("candidate never re-created after fault cleared (streak %d)", streak)
	}
	for _, id := range configIDs(tn) {
		if st := tn.Stats(id); st != nil && st.FailStreak != 0 {
			t.Errorf("successful creation did not reset FailStreak: %d", st.FailStreak)
		}
	}
	if err := db.Mgr.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncBuildFaultMidBuild fails the background build goroutine
// itself (snapshot-phase fault) and verifies the publish path discards
// the build cleanly: reservation released, no catalog entry, failure
// counted, tuner still serving.
func TestAsyncBuildFaultMidBuild(t *testing.T) {
	db := paperDB(t, 3000)
	opts := DefaultOptions()
	opts.Async = true
	tn := Attach(db, opts)
	inj := fault.New(2).Plan(fault.BuildStep, fault.Rule{Prob: 1})
	db.SetFaults(inj)
	inj.Arm()

	runN(t, db, q1, 400)

	m := tn.Metrics()
	if m.BuildsFailed == 0 {
		t.Skip("no async build reached the publish gate at this scale")
	}
	if m.BuildsStarted != m.BuildsCompleted+m.BuildsAborted+m.BuildsFailed {
		t.Fatalf("build counters do not reconcile: started=%d completed=%d aborted=%d failed=%d",
			m.BuildsStarted, m.BuildsCompleted, m.BuildsAborted, m.BuildsFailed)
	}
	for _, ix := range db.Cat.Indexes() {
		if !ix.Primary {
			t.Errorf("failed async build left catalog entry %v", ix)
		}
	}
	if used := db.Mgr.UsedBytes(); used != 0 {
		t.Errorf("failed async build leaked %d reserved bytes", used)
	}
	if err := db.Mgr.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Still serving.
	db.MustExec(q1)
}

// TestCrashReplayMidBuild snapshots the tuner while an asynchronous
// build is in flight, "crashes" (Close aborts the build, as a process
// death would), and reloads into a fresh tuner: candidate evidence
// survives byte-for-byte, the in-flight build is abandoned, and the
// workload resumes cleanly.
func TestCrashReplayMidBuild(t *testing.T) {
	db := paperDB(t, 3000)
	opts := DefaultOptions()
	opts.Async = true
	tn := Attach(db, opts)
	started := false
	for i := 0; i < 400 && !started; i++ {
		runN(t, db, q1, 1)
		tn.mu.Lock()
		started = tn.pending != nil
		tn.mu.Unlock()
	}
	if !started {
		t.Skip("no async build started at this scale")
	}
	tn.mu.Lock()
	buildingID := tn.pending.st.Ix.ID()
	tn.mu.Unlock()

	// Snapshot mid-build, then crash. SaveState skips Creating entries,
	// so the in-flight build is abandoned by construction.
	var buf bytes.Buffer
	tn.mu.Lock()
	savedStats := map[string][2]float64{}
	for id, st := range tn.tracked {
		if !st.Creating {
			savedStats[id] = [2]float64{st.Delta(), st.DeltaMin}
		}
	}
	tn.mu.Unlock()
	if err := tn.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	db.SetObserver(nil)
	tn.Close() // aborts the in-flight build, like a restart

	if db.Mgr.Index(buildingID) != nil {
		t.Fatalf("crashed build left physical structure for %s", buildingID)
	}
	if used := db.Mgr.UsedBytes(); used != 0 {
		t.Fatalf("crashed build leaked %d reserved bytes", used)
	}

	tn2 := NewTuner(db, opts)
	if err := tn2.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	db.SetObserver(tn2)
	if st := tn2.Stats(buildingID); st != nil {
		if st.Creating {
			t.Error("abandoned build restored as Creating")
		}
	}
	for id, want := range savedStats {
		st := tn2.Stats(id)
		if st == nil {
			t.Errorf("candidate %s lost across restart", id)
			continue
		}
		if st.Delta() != want[0] || st.DeltaMin != want[1] {
			t.Errorf("%s: Δ/Δmin = %v/%v, want %v/%v", id, st.Delta(), st.DeltaMin, want[0], want[1])
		}
	}
	// Workload resumes; the storage layer is consistent.
	runN(t, db, q1, 20)
	if err := db.Mgr.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestSaveLoadPropertyRoundTrip round-trips randomized bookkeeping —
// including failure streaks — through SaveState/LoadState and asserts
// every persisted field survives exactly.
func TestSaveLoadPropertyRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		db := paperDB(t, 100)
		tn := NewTuner(db, DefaultOptions())
		cols := []string{"a", "b", "c", "d", "e"}
		type snap struct {
			o, n       [4]float64
			dmin, dmax float64
			derived    bool
			streak     int
		}
		want := map[string]snap{}
		for i := 0; i < 1+rng.Intn(len(cols)); i++ {
			ix := &catalog.Index{Table: "R", Name: "rt_" + cols[i], Columns: cols[:i+1]}
			st := NewIndexStats(ix)
			for l := 0; l <= LevelU; l++ {
				st.Add(l, rng.Float64()*100, rng.Float64()*50)
			}
			st.Derived = rng.Intn(3) == 0
			st.FailStreak = rng.Intn(5)
			tn.tracked[ix.ID()] = st
			want[ix.ID()] = snap{
				o: st.O, n: st.N, dmin: st.DeltaMin, dmax: st.DeltaMax,
				derived: st.Derived, streak: st.FailStreak,
			}
		}
		tn.queries = rng.Int63n(10000)
		var buf bytes.Buffer
		if err := tn.SaveState(&buf); err != nil {
			t.Fatal(err)
		}

		tn2 := NewTuner(db, DefaultOptions())
		if err := tn2.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		if tn2.queries != tn.queries {
			t.Errorf("seed %d: queries = %d, want %d", seed, tn2.queries, tn.queries)
		}
		if len(tn2.tracked) != len(want) {
			t.Fatalf("seed %d: %d tracked after load, want %d", seed, len(tn2.tracked), len(want))
		}
		for id, w := range want {
			st := tn2.tracked[id]
			if st == nil {
				t.Fatalf("seed %d: %s lost", seed, id)
			}
			if st.O != w.o || st.N != w.n || st.DeltaMin != w.dmin || st.DeltaMax != w.dmax ||
				st.Derived != w.derived || st.FailStreak != w.streak {
				t.Errorf("seed %d: %s round-trip mismatch:\ngot  %+v\nwant %+v", seed, id, st, w)
			}
		}
	}
}
