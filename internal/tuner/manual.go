package tuner

import (
	"fmt"
	"sort"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/whatif"
	"onlinetuner/internal/workload"
)

// The manual-DBA control's racing constants: the DBA looks at the first
// 30 statements and commits to the top 3 candidates.
const (
	// manualWarmup is how many statements the DBA watches before acting.
	manualWarmup = 30
	// manualTopK is how many indexes the DBA creates in the one-shot
	// action.
	manualTopK = 3
)

// ManualDBA models the human baseline the paper argues against: observe
// a warmup window, create the indexes that would have helped it most,
// then never revisit the decision. On stable workloads this is nearly
// optimal; on drift it tunes for the wrong epoch; on update storms its
// eager creations pay maintenance forever — which is exactly the
// contrast the race is built to expose.
type ManualDBA struct {
	db  *engine.DB
	env *whatif.Env

	// benefit accumulates warmup query savings per candidate id.
	benefit  map[string]float64
	cand     map[string]*catalog.Index
	order    []string
	acted    bool
	counters Counters
}

// NewManualDBA constructs the manual-DBA control.
func NewManualDBA() *ManualDBA {
	return &ManualDBA{benefit: map[string]float64{}, cand: map[string]*catalog.Index{}}
}

func (m *ManualDBA) Name() string { return "ManualDBA" }

func (m *ManualDBA) Start(db *engine.DB, _ *workload.Workload) error {
	m.db = db
	m.env = db.WhatIfEnv()
	return nil
}

// BeforeStatement fires the one-shot creation right after the warmup
// window closes; the build costs are charged as that statement's
// transition.
func (m *ManualDBA) BeforeStatement(i int) (float64, error) {
	if m.acted || i < manualWarmup {
		return 0, nil
	}
	m.acted = true

	type scored struct {
		id  string
		ben float64
	}
	var ranked []scored
	for _, id := range m.order {
		if m.benefit[id] > 0 {
			ranked = append(ranked, scored{id, m.benefit[id]})
		}
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].ben != ranked[b].ben {
			return ranked[a].ben > ranked[b].ben
		}
		return ranked[a].id < ranked[b].id
	})
	if len(ranked) > manualTopK {
		ranked = ranked[:manualTopK]
	}
	transition := 0.0
	for n, s := range ranked {
		ix := m.cand[s.id]
		clone := &catalog.Index{Name: fmt.Sprintf("dba_%d", n), Table: ix.Table, Columns: ix.Columns}
		build := whatif.BuildCost(m.env, clone)
		m.counters.BuildsStarted++
		if err := m.db.CreateIndex(clone); err != nil {
			m.counters.BuildsFailed++
			return transition, fmt.Errorf("tuner: manual-dba create %v: %w", clone, err)
		}
		m.counters.BuildsCompleted++
		m.counters.IndexesCreated++
		transition += build
	}
	return transition, nil
}

// AfterStatement accumulates warmup evidence; once the DBA has acted it
// stops looking entirely.
func (m *ManualDBA) AfterStatement(i int, info *engine.QueryInfo) (float64, error) {
	if m.acted || info.Result == nil {
		return 0, nil
	}
	reqs := info.Result.Tree.Requests()
	for _, r := range reqs {
		if r.Kind == whatif.KindUpdate {
			continue
		}
		ix := whatif.GetBestIndex(m.db.Cat, r)
		if ix == nil || ix.Primary {
			continue
		}
		ix = ix.Canonicalize()
		id := ix.ID()
		if m.cand[id] == nil {
			m.cand[id] = ix
			m.order = append(m.order, id)
		}
		saving := whatif.GetCost(m.env, r, nil) - whatif.GetCost(m.env, r, []*catalog.Index{ix})
		if saving > 0 {
			m.benefit[id] += saving
		}
	}
	return 0, nil
}

func (m *ManualDBA) Close()             {}
func (m *ManualDBA) Counters() Counters { return m.counters }
