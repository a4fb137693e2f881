package storage

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/vec"
	"onlinetuner/internal/wal"
)

// This file holds the model-based property tests for the storage layer:
// randomized DML/DDL sequences run against the real manager under
// injected faults, mirrored into a trivial in-memory model. After every
// operation the outcome must agree with the model (all-or-nothing: a
// failed op changes nothing), and the structural invariant checkers
// must pass throughout.

// propModel mirrors the live rows the manager should hold.
type propModel struct {
	rows   map[RID]datum.Row
	rids   []RID
	nextID int64
}

func (p *propModel) clone() *propModel {
	return &propModel{rows: maps.Clone(p.rows), rids: slices.Clone(p.rids), nextID: p.nextID}
}

// step applies one random row operation to the manager and, when it
// succeeds, to the model. The error is the manager's.
func (p *propModel) step(rng *rand.Rand, m *Manager) error {
	switch r := rng.Intn(9); {
	case r < 5 || len(p.rids) == 0: // insert
		p.nextID++
		row := row(p.nextID, rng.Int63n(200), rng.Int63n(1000))
		rid, _, err := m.Insert("R", row)
		if err != nil {
			return err
		}
		p.rows[rid] = row
		p.rids = append(p.rids, rid)
	case r < 7: // delete
		i := rng.Intn(len(p.rids))
		rid := p.rids[i]
		if _, err := m.Delete("R", rid); err != nil {
			return err
		}
		delete(p.rows, rid)
		p.rids[i] = p.rids[len(p.rids)-1]
		p.rids = p.rids[:len(p.rids)-1]
	default: // update
		rid := p.rids[rng.Intn(len(p.rids))]
		newRow := row(p.rows[rid][0].Int(), rng.Int63n(200), rng.Int63n(1000))
		if _, err := m.Update("R", rid, newRow); err != nil {
			return err
		}
		p.rows[rid] = newRow
	}
	return nil
}

// propState is everything a rolled-back statement must leave as it found
// it: the heap physically (slot count and free-list order decide which
// RID the next insert gets), every active tree's entries, and the log's
// position.
type propState struct {
	slots   int
	rows    []HeapRow
	free    []RID
	trees   map[string][]Entry
	seq     uint64
	appends int64
}

func captureState(m *Manager) propState {
	st := propState{trees: map[string][]Entry{}, seq: m.WAL().Seq(), appends: m.WAL().Appends()}
	st.slots, st.rows, st.free = m.Heap("R").dumpState()
	for _, pi := range m.TableIndexes("R") {
		if pi.State() != StateActive {
			continue
		}
		var es []Entry
		for it := pi.Tree().Scan(); it.Valid(); it.Next() {
			es = append(es, it.Entry())
		}
		st.trees[pi.Def.ID()] = es
	}
	return st
}

// diff reports the first difference of got from want. Trees are
// compared when active in both, the log position only when sameLog.
func (want propState) diff(got propState, sameLog bool) error {
	if want.slots != got.slots || !slices.Equal(want.free, got.free) {
		return fmt.Errorf("heap slots/free list %d %v, want %d %v", got.slots, got.free, want.slots, want.free)
	}
	sameRow := func(x, y HeapRow) bool { return x.RID == y.RID && x.Row.Compare(y.Row) == 0 }
	if !slices.EqualFunc(want.rows, got.rows, sameRow) {
		return fmt.Errorf("heap rows differ (%d live, want %d)", len(got.rows), len(want.rows))
	}
	for id, es := range want.trees {
		if now, ok := got.trees[id]; ok && !slices.EqualFunc(now, es, func(x, y Entry) bool { return compareEntry(x, y) == 0 }) {
			return fmt.Errorf("entries of active index %s differ (%d, want %d)", id, len(now), len(es))
		}
	}
	if sameLog && (want.seq != got.seq || want.appends != got.appends) {
		return fmt.Errorf("wal seq/appends %d/%d, want %d/%d", got.seq, got.appends, want.seq, want.appends)
	}
	return nil
}

// readColumns reads every column of every chunk of R the way a filtering
// scan does, which fills the column cache, and checks the cache against
// the live rows. A write that forgot to drop its chunk's columns shows up
// at the first read after it.
func readColumns(t *testing.T, label string, m *Manager) {
	t.Helper()
	h := m.Heap("R")
	slots, cols := []int{0, 1, 2}, make([]*vec.Column, 3)
	for i := 0; i*vec.MorselRows < h.Slots(); i++ {
		ch, _, rows := h.ReadChunk(i, slots, cols, false, nil)
		for _, slot := range slots {
			if cols[slot] == nil {
				ch.Column(slot, rows)
			}
		}
	}
	if _, err := h.checkColumns(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestBTreePropertyUnderFaults drives a bare B+-tree with random
// inserts and deletes under alloc/split faults and checks the full
// structural invariant set after every operation.
func TestBTreePropertyUnderFaults(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		inj := fault.New(uint64(seed)).
			Plan(fault.PageAlloc, fault.Rule{Prob: 0.02}).
			Plan(fault.BTreeSplit, fault.Rule{Prob: 0.2})
		inj.Arm()
		tree := NewBTree()
		tree.faults = inj

		entryKey := func(e Entry) string {
			return fmt.Sprintf("%v|%d", e.Key, e.RID)
		}
		model := map[string]bool{}
		var present []Entry
		for op := 0; op < 4000; op++ {
			if len(present) == 0 || rng.Intn(3) != 0 {
				e := Entry{
					Key: datum.Row{datum.NewInt(rng.Int63n(500)), datum.NewInt(rng.Int63n(1000))},
					RID: RID(op),
				}
				err := tree.Insert(e)
				if err == nil {
					model[entryKey(e)] = true
					present = append(present, e)
				} else if !fault.Is(err) {
					t.Fatalf("seed %d op %d: unexpected insert error: %v", seed, op, err)
				}
			} else {
				i := rng.Intn(len(present))
				e := present[i]
				if !tree.Delete(e) {
					t.Fatalf("seed %d op %d: delete of present entry %v failed", seed, op, e)
				}
				delete(model, entryKey(e))
				present[i] = present[len(present)-1]
				present = present[:len(present)-1]
			}
			if op%97 == 0 {
				if err := tree.CheckInvariants(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("seed %d final: %v", seed, err)
		}
		if tree.Len() != len(model) {
			t.Fatalf("seed %d: tree has %d entries, model %d", seed, tree.Len(), len(model))
		}
		for it := tree.Scan(); it.Valid(); it.Next() {
			if !model[entryKey(it.Entry())] {
				t.Fatalf("seed %d: tree holds entry %v not in model", seed, it.Entry())
			}
		}
		if inj.FiredTotal() == 0 {
			t.Fatalf("seed %d: no faults fired; schedule too weak to test anything", seed)
		}
	}
}

// TestManagerPropertyUnderFaults runs a randomized DML + index-DDL
// sequence against a logged manager under write/alloc/split/append
// faults, over a primary, two active secondaries (one of them churned
// through suspend → restart), a secondary that is suspended on and off
// and one that is mid-build on and off. Row operations run alone
// (autocommit) and inside statement frames of 1–20 operations that end
// in a commit, an explicit abort at a random position, an injected fault
// or a failed commit append — with StartBuild / FinishBuild / DropIndex /
// SuspendIndex / RestartIndex landing between two rows of the open
// statement. The all-or-nothing contract is checked against a model and
// against the storage itself: after every failed operation or statement
// the heap (physically), every active tree and the log position equal
// the pre-statement state, and CheckConsistency validates
// cross-structure agreement — which, for an index published after
// straddling an aborted statement, is the check that its tree equals the
// heap's keys. Columns are read before every unit and before a statement
// frame ends, so every write and every rollback step lands on a filled
// column cache and must drop it.
func TestManagerPropertyUnderFaults(t *testing.T) {
	// Outcome counts over all seeds: map iteration order makes each run's
	// fault schedule its own, so strength is asserted on the total.
	var applied, failed, committed, aborted, faulted, failedCommits, midStmtChurns int
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		cat, m := newTestDB(t)
		w, err := wal.OpenWriter(wal.Options{Dir: t.TempDir(), Policy: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		m.SetWAL(w)
		inj := fault.New(uint64(seed)).
			Plan(fault.PageWrite, fault.Rule{Prob: 0.05}).
			Plan(fault.PageAlloc, fault.Rule{Prob: 0.01}).
			Plan(fault.BTreeSplit, fault.Rule{Prob: 0.3}).
			Plan(fault.BuildStep, fault.Rule{Prob: 0.001}).
			Plan(fault.WALAppend, fault.Rule{Prob: 0.03})
		m.SetFaults(inj)
		w.SetFaults(inj)
		inj.Arm()

		ixA := &catalog.Index{Table: "R", Name: "ix_a", Columns: []string{"a"}}
		ixB := &catalog.Index{Table: "R", Name: "ix_ab", Columns: []string{"a", "b"}}
		ixS := &catalog.Index{Table: "R", Name: "ix_b", Columns: []string{"b"}}       // suspended on and off
		ixM := &catalog.Index{Table: "R", Name: "ix_ba", Columns: []string{"b", "a"}} // mid-build on and off
		for _, ix := range []*catalog.Index{ixA, ixB, ixS, ixM} {
			if err := cat.AddIndex(ix); err != nil {
				t.Fatal(err)
			}
		}
		// injected reports whether err is one of the schedule's faults;
		// any other error fails the test.
		injected := func(what string, err error) bool {
			if err != nil && !fault.Is(err) {
				t.Fatalf("seed %d: %s: %v", seed, what, err)
			}
			return err != nil
		}
		untilOK := func(what string, f func() error) {
			for injected(what, f()) {
			}
		}
		for _, ix := range []*catalog.Index{ixA, ixB, ixS} {
			untilOK("build "+ix.Name, func() error { _, err := m.BuildIndex(ix); return err })
		}

		// churn moves ixM or ixS one step along its lifecycle.
		var build *Build
		finishBuild := func() error {
			err := build.Run(context.Background())
			if err == nil {
				_, err = m.FinishBuild(build)
			}
			return err
		}
		churn := func() {
			if rng.Intn(2) == 0 {
				switch pi := m.Index(ixM.ID()); {
				case pi == nil:
					b, err := m.StartBuild(ixM)
					if !injected("start build", err) {
						build = b
					}
				case pi.State() == StateBuilding:
					if injected("finish build", finishBuild()) {
						m.AbortBuild(build)
					}
				default:
					injected("drop", m.DropIndex(ixM.ID()))
				}
				return
			}
			if m.Index(ixS.ID()).State() == StateActive {
				injected("suspend", m.SuspendIndex(ixS.ID()))
			} else {
				_, err := m.RestartIndex(ixS.ID())
				injected("restart", err)
			}
		}

		model := &propModel{rows: map[RID]datum.Row{}}
		for op := 0; op < 2000; op++ {
			label := fmt.Sprintf("seed %d op %d", seed, op)
			switch r := rng.Intn(12); {
			case r < 10:
				// One unit of work on a copy of the model: a lone row
				// operation, or a statement frame. It either takes effect
				// whole (the copy becomes the model) or leaves no trace.
				readColumns(t, label, m)
				before, work := captureState(m), model.clone()
				var err error
				churned, explicit := false, false
				if r < 7 {
					err = work.step(rng, m)
				} else {
					n := 1 + rng.Intn(20)
					stop := rng.Intn(2*n + 1) // <= n: explicit abort after stop rows
					churnAt := rng.Intn(2 * n)
					m.BeginStmt("R")
					for i := 0; i < n && i != stop && err == nil; i++ {
						if i == churnAt {
							churn()
							churned = true
							midStmtChurns++
						}
						err = work.step(rng, m)
					}
					if err == nil {
						// The rollback below starts on a filled cache.
						readColumns(t, label, m)
					}
					switch {
					case err != nil:
						m.AbortStmt("R")
						faulted++
					case stop <= n:
						m.AbortStmt("R")
						explicit = true
						aborted++
					default:
						if err = m.CommitStmt("R"); err != nil {
							failedCommits++
						} else {
							committed++
						}
					}
				}
				if !injected(label, err) && !explicit {
					model = work
					applied++
					break
				}
				failed++
				if err := before.diff(captureState(m), !churned); err != nil {
					t.Fatalf("%s: failed unit left a trace: %v", label, err)
				}
				if err := m.CheckConsistency(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			default: // index DDL churn: suspend → restart, and one lifecycle step
				if err := m.SuspendIndex(ixA.ID()); err == nil {
					untilOK("restart", func() error { _, err := m.RestartIndex(ixA.ID()); return err })
				}
				churn()
			}
			if op%211 == 0 {
				if err := m.CheckConsistency(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
		// Bring every index to active, faults off (a failed FinishBuild can
		// only be aborted, not retried) — a build still in flight has by
		// now straddled aborted statements — and check them all against the
		// heap.
		inj.Disarm()
		if pi := m.Index(ixM.ID()); pi != nil && pi.State() == StateBuilding {
			injected("final publish", finishBuild())
		}
		if m.Index(ixS.ID()).State() == StateSuspended {
			_, err := m.RestartIndex(ixS.ID())
			injected("final restart", err)
		}
		if err := m.CheckConsistency(); err != nil {
			t.Fatalf("seed %d final: %v", seed, err)
		}
		// The surviving rows must be exactly the model's.
		h := m.Heap("R")
		if h.Len() != len(model.rows) {
			t.Fatalf("seed %d: heap has %d rows, model %d", seed, h.Len(), len(model.rows))
		}
		h.Scan(func(rid RID, r datum.Row) bool {
			want, ok := model.rows[rid]
			if !ok {
				t.Fatalf("seed %d: heap holds rid %d not in model", seed, rid)
			}
			if want.Compare(r) != 0 {
				t.Fatalf("seed %d: rid %d holds %v, want %v", seed, rid, r, want)
			}
			return true
		})
	}
	if failed == 0 || aborted == 0 || faulted == 0 || failedCommits == 0 {
		t.Fatalf("schedule too weak: %d failed units, %d aborted / %d faulted statements, %d failed commits",
			failed, aborted, faulted, failedCommits)
	}
	if applied == 0 || committed == 0 || midStmtChurns == 0 {
		t.Fatalf("schedule too strong: %d applied units, %d committed statements, %d mid-statement lifecycle steps",
			applied, committed, midStmtChurns)
	}
}

// TestMidBuildFaultLeavesNoTrace injects a fault mid-way through an
// online build (snapshot phase, then delta phase) and asserts the abort
// path leaves no state behind: no index entry, reservation released,
// consistency clean.
func TestMidBuildFaultLeavesNoTrace(t *testing.T) {
	for _, site := range []fault.Site{fault.BuildStep, fault.BuildFinish} {
		cat, m := newTestDB(t)
		for i := int64(0); i < 500; i++ {
			if _, _, err := m.Insert("R", row(i, i%7, i%13)); err != nil {
				t.Fatal(err)
			}
		}
		ix := &catalog.Index{Table: "R", Name: "ix_fail", Columns: []string{"a"}}
		if err := cat.AddIndex(ix); err != nil {
			t.Fatal(err)
		}
		inj := fault.New(1).Plan(site, fault.Rule{Prob: 1, After: 20, Count: 1})
		m.SetFaults(inj)
		inj.Arm()

		before := m.ConfigVersion()
		b, err := m.StartBuild(ix)
		if err != nil {
			t.Fatalf("%s: StartBuild: %v", site, err)
		}
		// DML during the build populates the delta log (the BuildFinish
		// case needs >20 delta ops for its fault to land mid-replay).
		for i := int64(0); i < 60; i++ {
			if _, _, err := m.Insert("R", row(1000+i, i, i)); err != nil {
				t.Fatal(err)
			}
		}
		runErr := b.Run(context.Background())
		if site == fault.BuildStep {
			if !fault.Is(runErr) {
				t.Fatalf("BuildStep: Run err = %v, want injected fault", runErr)
			}
		} else {
			if runErr != nil {
				t.Fatalf("BuildFinish: Run err = %v", runErr)
			}
			if _, err := m.FinishBuild(b); !fault.Is(err) {
				t.Fatalf("BuildFinish: FinishBuild err = %v, want injected fault", err)
			}
		}
		m.AbortBuild(b)
		if err := cat.DropIndex(ix.Name); err != nil {
			t.Fatal(err)
		}
		if m.Index(ix.ID()) != nil {
			t.Fatalf("%s: aborted index still materialized", site)
		}
		if m.ConfigVersion() != before {
			t.Fatalf("%s: aborted build bumped ConfigVersion %d -> %d", site, before, m.ConfigVersion())
		}
		if used := m.UsedBytes(); used != 0 {
			t.Fatalf("%s: aborted build leaked %d reserved bytes", site, used)
		}
		if err := m.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", site, err)
		}
	}
}
