package core

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMetricsConcurrentWithAsyncBuilds is the -race regression test for
// the Metrics snapshot: a dashboard goroutine hammers Metrics(),
// Decisions() and the registry snapshot while statements execute and
// background builds publish. Before the counters moved to atomic
// registry cells this was a data race on the Metrics struct fields.
func TestMetricsConcurrentWithAsyncBuilds(t *testing.T) {
	db := paperDB(t, 2000)
	opts := DefaultOptions()
	opts.Async = true
	tn := Attach(db, opts)
	defer tn.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				m := tn.Metrics()
				if m.Queries < 0 || m.BuildsCompleted > m.BuildsStarted {
					t.Errorf("inconsistent snapshot: %+v", m)
					return
				}
				_ = tn.Decisions()
				_ = db.Observability().Reg.Snapshot()
			}
		}()
	}
	runN(t, db, q1, 150)
	runN(t, db, q2, 150)
	stop.Store(true)
	wg.Wait()

	if tn.Metrics().Queries != 300 {
		t.Errorf("Queries = %d, want 300", tn.Metrics().Queries)
	}
}

// TestReportWhileObserving is the -race regression test for the readers
// that walk the tuner's bookkeeping: Report (which also fills the build
// cost cache) and SaveState run from another goroutine while statements
// are observed and the tuner creates and drops indexes.
func TestReportWhileObserving(t *testing.T) {
	db := paperDB(t, 2000)
	tn := Attach(db, DefaultOptions())

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if r := tn.Report(0); r.LowerBound < 0 {
				t.Errorf("negative bound %v", r.LowerBound)
				return
			}
			if err := tn.SaveState(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	runN(t, db, q1, 100)
	runN(t, db, q2, 100)
	stop.Store(true)
	wg.Wait()
	if len(tn.Events()) == 0 {
		t.Error("the tuner never changed the design; nothing raced")
	}
}

// TestTunerCountersReconcileWithRegistry checks the Metrics() snapshot
// and the registry snapshot agree exactly at quiescence — the tuner's
// counters ARE registry cells, not copies that could drift.
func TestTunerCountersReconcileWithRegistry(t *testing.T) {
	db := paperDB(t, 3000)
	tn := Attach(db, DefaultOptions())
	runN(t, db, q1, 60)
	runN(t, db, q3, 8)
	runN(t, db, q2, 60)

	m := tn.Metrics()
	snap := db.Observability().Reg.Snapshot()
	checks := map[string]int64{
		"tuner.queries":          m.Queries,
		"tuner.total_ns":         int64(m.Total),
		"tuner.line1_ns":         int64(m.Line1),
		"tuner.lines2_8_ns":      int64(m.Lines28),
		"tuner.lines9_18_ns":     int64(m.Lines918),
		"tuner.line18_ns":        int64(m.Line18),
		"tuner.builds_started":   m.BuildsStarted,
		"tuner.builds_completed": m.BuildsCompleted,
		"tuner.builds_aborted":   m.BuildsAborted,
	}
	for name, want := range checks {
		if got := snap[name]; got != want {
			t.Errorf("snapshot[%q] = %v, Metrics says %d", name, got, want)
		}
	}
	if got := snap["tuner.transition_cost"]; got != m.TransitionCost {
		t.Errorf("snapshot[tuner.transition_cost] = %v, Metrics says %v", got, m.TransitionCost)
	}
	if got := snap["tuner.decisions"]; got != int64(len(tn.Decisions())) {
		t.Errorf("snapshot[tuner.decisions] = %v but log holds %d records", got, len(tn.Decisions()))
	}
	if m.BuildsStarted == 0 {
		t.Error("workload built no indexes; reconciliation checked nothing")
	}
	if m.Total < m.Line1+m.Lines28+m.Lines918+m.Line18 {
		t.Errorf("per-module overhead exceeds total: %+v", m)
	}
}

// TestDecisionLogMatchesEvents: every physical design change reported
// through the event stream has a structured decision record carrying
// the evidence, with matching kind and index.
func TestDecisionLogMatchesEvents(t *testing.T) {
	db := paperDB(t, 3000)
	tn := Attach(db, DefaultOptions())
	runN(t, db, q1, 60)
	runN(t, db, q3, 6)
	runN(t, db, q2, 40)

	evs := tn.Events()
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	decs := tn.Decisions()
	type key struct{ kind, index string }
	have := map[key]int{}
	for _, d := range decs {
		have[key{d.Kind, d.Index}]++
		if d.Reason == "" {
			t.Errorf("decision %+v has no reason", d)
		}
	}
	for _, ev := range evs {
		k := key{ev.Kind.String(), ev.Index.ID()}
		if have[k] == 0 {
			t.Errorf("event %v %v has no decision record", ev.Kind, ev.Index)
			continue
		}
		have[k]--
	}
	// Creation decisions must carry the budget the rule fired against:
	// the benefit rule fires at build-start, whatever the build's gate.
	starts := 0
	for _, d := range decs {
		if d.Kind != "build-start" {
			continue
		}
		starts++
		if d.Reason != "benefit" || d.BuildCost <= 0 {
			t.Errorf("build-start decision without the benefit rule's B_I: %+v", d)
		}
	}
	if starts == 0 {
		t.Error("no build-start decision; the B_I check checked nothing")
	}
}
