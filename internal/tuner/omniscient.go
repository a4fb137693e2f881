package tuner

import (
	"fmt"
	"sort"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/tuner/offline"
	"onlinetuner/internal/whatif"
	"onlinetuner/internal/workload"
)

// Omniscient replays an offline advisor's plan behind the Advisor
// shell: at Start it profiles the ENTIRE statement stream on a throwaway
// copy of the database — knowledge no online policy has — and commits to
// the configuration the plan wants at each statement, transitioning into
// it through BeforeStatement. As Offline-Seq (the CoPhy-shaped baseline)
// its realized total is the reference race cells anchor regret against
// and Table 1's Cost_opt; as Offline-Set it creates one fixed set of
// indexes before statement 0.
type Omniscient struct {
	name          string
	maxCandidates int
	plan          func(p *offline.Profile, maxCandidates int) [][]*catalog.Index
	db            *engine.DB
	active        [][]*catalog.Index
	live          map[string]*catalog.Index
	liveOrder     []string
	creates       int
	counters      Counters
}

// NewOmniscient wraps the offline sequence advisor; maxCandidates ≤ 0
// selects the offline package's default sizing.
func NewOmniscient(maxCandidates int) *Omniscient {
	return newOmniscient("Offline-Seq", maxCandidates, func(p *offline.Profile, n int) [][]*catalog.Index {
		return offline.SeqBased(p, n).Active
	})
}

// NewOfflineSet wraps the offline set advisor: its recommended indexes
// are wanted at every statement, so they are all created, and charged,
// before statement 0.
func NewOfflineSet(maxCandidates int) *Omniscient {
	return newOmniscient("Offline-Set", maxCandidates, func(p *offline.Profile, n int) [][]*catalog.Index {
		set := offline.SetBased(p, n).Indexes
		active := make([][]*catalog.Index, len(p.Queries))
		for i := range active {
			active[i] = set
		}
		return active
	})
}

func newOmniscient(name string, maxCandidates int, plan func(*offline.Profile, int) [][]*catalog.Index) *Omniscient {
	if maxCandidates <= 0 {
		maxCandidates = 32
	}
	return &Omniscient{name: name, maxCandidates: maxCandidates, plan: plan, live: map[string]*catalog.Index{}}
}

func (o *Omniscient) Name() string { return o.name }

// Start profiles the full workload on a fresh database instance (the
// race cell's own database must not see the profiling replay) and
// computes the plan.
func (o *Omniscient) Start(db *engine.DB, w *workload.Workload) error {
	o.db = db
	profDB := w.NewDB()
	p, err := offline.ProfileWorkload(profDB, w.Statements)
	profDB.Close()
	if err != nil {
		return fmt.Errorf("tuner: omniscient profile: %w", err)
	}
	o.active = o.plan(p, o.maxCandidates)
	return nil
}

// BeforeStatement transitions into the planned configuration for
// statement i, charging build costs; drops are free, as in the paper's
// cost model. Iteration is over sorted ids so the transition order — and
// with it the decision log and index names — is deterministic.
func (o *Omniscient) BeforeStatement(i int) (float64, error) {
	want := map[string]*catalog.Index{}
	if i < len(o.active) {
		for _, ix := range o.active[i] {
			want[ix.ID()] = ix
		}
	}
	transition := 0.0
	for _, id := range append([]string{}, o.liveOrder...) {
		if want[id] == nil {
			if err := o.db.DropIndex(o.live[id]); err != nil {
				return transition, fmt.Errorf("tuner: omniscient drop: %w", err)
			}
			o.counters.IndexesDropped++
			delete(o.live, id)
			o.liveOrder = removeString(o.liveOrder, id)
		}
	}
	wantIDs := make([]string, 0, len(want))
	for id := range want {
		wantIDs = append(wantIDs, id)
	}
	sort.Strings(wantIDs)
	for _, id := range wantIDs {
		if o.live[id] != nil {
			continue
		}
		ix := want[id]
		clone := &catalog.Index{Name: fmt.Sprintf("seq_%d", o.creates), Table: ix.Table, Columns: ix.Columns}
		o.creates++
		transition += whatif.BuildCost(o.db.WhatIfEnv(), clone)
		o.counters.BuildsStarted++
		if err := o.db.CreateIndex(clone); err != nil {
			o.counters.BuildsFailed++
			return transition, fmt.Errorf("tuner: omniscient create %v: %w", clone, err)
		}
		o.counters.BuildsCompleted++
		o.counters.IndexesCreated++
		o.live[id] = clone.Canonicalize()
		o.liveOrder = append(o.liveOrder, id)
	}
	return transition, nil
}

func (o *Omniscient) AfterStatement(int, *engine.QueryInfo) (float64, error) { return 0, nil }
func (o *Omniscient) Close()                                                 {}
func (o *Omniscient) Counters() Counters                                     { return o.counters }

func removeString(xs []string, s string) []string {
	out := xs[:0]
	for _, x := range xs {
		if x != s {
			out = append(out, x)
		}
	}
	return out
}
