package tuner

import (
	"fmt"
	"math"
	"sort"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/whatif"
	"onlinetuner/internal/workload"
)

// The safety-budgeted bandit's racing constants.
const (
	// banditSafetyFactor is the k of the safety budget: the bandit never
	// creates an index unless its realized spend (query cost plus all
	// transition costs plus the new build) stays within k× the estimated
	// no-index cost of the stream so far. Must be > 1 — with no indexes
	// the two sides are equal, so k=1 admits nothing.
	banditSafetyFactor = 1.5
	// banditMinPlays is the exploration floor: an arm must be observed
	// this many times before it can be created.
	banditMinPlays = 6
	// banditCreateMargin is the required ratio of accumulated net benefit
	// to build cost before creation (the bandit's exploitation
	// threshold).
	banditCreateMargin = 1.0
	// banditUCB scales the optimism bonus added to each arm's accumulated
	// net benefit: UCB × sqrt(ln(t) / plays) × meanSample.
	banditUCB = 0.5
	// banditGrace is how many statements a created index is held before
	// the regression check may drop it.
	banditGrace = 10
	// banditDropFraction drops a created index once its realized net
	// benefit since creation falls below −DropFraction × build cost.
	banditDropFraction = 0.25
	// banditMaxArms bounds the candidate pool (first-come, by discovery
	// order).
	banditMaxArms = 32
)

// arm is one candidate index's bandit state.
type arm struct {
	ix    *catalog.Index
	plays int
	// net is the accumulated per-statement benefit sample: query savings
	// minus update maintenance the index would have cost.
	net float64
	// absSum accumulates |sample| for the optimism bonus scale.
	absSum float64
	// backoff divides the arm's score after each regression drop.
	backoff float64
	// live is the created clone (nil while hypothetical).
	live *catalog.Index
	// sinceCreate is the realized net benefit since creation.
	sinceCreate float64
	createdAt   int
	buildCost   float64
}

// Bandit is a deterministic UCB-style index tuner with a hard safety
// budget, modeled on the DBA-bandits line of work: each candidate index
// is an arm; each statement pays out a what-if benefit sample; creation
// requires both enough accumulated evidence (net ≥ margin × build) and
// the safety gate (spend stays within k× the no-index baseline); a
// created arm that regresses is dropped and its score backed off.
// Everything is derived from what-if costs and counters — no wall clock,
// no randomness — so a race cell replays byte-identically.
type Bandit struct {
	// safety is the budget's k: banditSafetyFactor (tests lower it).
	safety float64
	db     *engine.DB
	env    *whatif.Env

	arms  map[string]*arm
	order []string // arm ids in discovery order (deterministic iteration)

	// realized spend and no-index baseline, both cumulative.
	cumActual     float64
	cumBase       float64
	cumTransition float64

	n        int // statements observed
	creates  int
	counters Counters
}

// NewBandit constructs the bandit advisor.
func NewBandit() *Bandit {
	return &Bandit{safety: banditSafetyFactor, arms: map[string]*arm{}}
}

func (b *Bandit) Name() string { return "Bandit" }

func (b *Bandit) Start(db *engine.DB, _ *workload.Workload) error {
	b.db = db
	b.env = db.WhatIfEnv()
	return nil
}

func (b *Bandit) BeforeStatement(int) (float64, error) { return 0, nil }

func (b *Bandit) Close()             {}
func (b *Bandit) Counters() Counters { return b.counters }

// AfterStatement observes statement i, updates the baseline and every
// arm's evidence, applies regression drops, and — if an arm has earned
// it and the safety budget allows — creates at most one index.
func (b *Bandit) AfterStatement(i int, info *engine.QueryInfo) (float64, error) {
	b.n++
	b.cumActual += info.EstCost
	var reqs []*whatif.Request
	if info.Result != nil {
		reqs = info.Result.Tree.Requests()
	}
	config := b.db.Configuration()

	// No-index baseline: the statement's cost had no secondary index ever
	// existed. Queries get more expensive without indexes; updates get
	// cheaper (no maintenance). Both directions flow through the same
	// what-if delta.
	base := info.EstCost
	for _, r := range reqs {
		base += whatif.GetCost(b.env, r, nil) - whatif.GetCost(b.env, r, config)
	}
	if base < 0 {
		base = 0
	}
	b.cumBase += base

	b.observeArms(i, reqs, config)
	b.applyRegressionDrops(i, reqs, config)
	transition, err := b.maybeCreate(i)
	b.cumTransition += transition
	return transition, err
}

// observeArms discovers candidates from the statement's requests and
// pays every arm its benefit sample.
func (b *Bandit) observeArms(i int, reqs []*whatif.Request, config []*catalog.Index) {
	for _, r := range reqs {
		if r.Kind == whatif.KindUpdate {
			continue
		}
		ix := whatif.GetBestIndex(b.db.Cat, r)
		if ix == nil || ix.Primary {
			continue
		}
		ix = ix.Canonicalize()
		id := ix.ID()
		if b.arms[id] == nil {
			if len(b.order) >= banditMaxArms {
				continue
			}
			b.arms[id] = &arm{ix: ix, backoff: 1}
			b.order = append(b.order, id)
		}
	}
	for _, id := range b.order {
		a := b.arms[id]
		if a.live != nil {
			continue // created arms accrue sinceCreate instead
		}
		sample := 0.0
		with := append(append([]*catalog.Index{}, config...), a.ix)
		for _, r := range reqs {
			sample += whatif.GetCost(b.env, r, config) - whatif.GetCost(b.env, r, with)
		}
		a.plays++
		a.net += sample
		a.absSum += math.Abs(sample)
	}
}

// applyRegressionDrops charges live arms their realized delta and drops
// any whose net since creation has sunk below the back-off threshold.
func (b *Bandit) applyRegressionDrops(i int, reqs []*whatif.Request, config []*catalog.Index) {
	for _, id := range b.order {
		a := b.arms[id]
		if a.live == nil {
			continue
		}
		without := configWithout(config, a.live.ID())
		delta := 0.0
		for _, r := range reqs {
			delta += whatif.GetCost(b.env, r, without) - whatif.GetCost(b.env, r, config)
		}
		a.sinceCreate += delta
		if i-a.createdAt < banditGrace {
			continue
		}
		if a.sinceCreate < -banditDropFraction*a.buildCost {
			// Regression: the index costs more (maintenance) than it saves.
			// Drop it and back the arm off so re-creation needs twice the
			// evidence.
			if err := b.db.DropIndex(a.live); err == nil {
				b.counters.IndexesDropped++
			}
			a.live = nil
			a.backoff *= 2
			a.net = 0
			a.absSum = 0
			a.plays = 0
			a.sinceCreate = 0
			config = b.db.Configuration()
		}
	}
}

// maybeCreate creates the best-scoring eligible arm, if any, under the
// safety budget. Returns the transition (build) cost charged.
func (b *Bandit) maybeCreate(i int) (float64, error) {
	bestID := ""
	bestScore := 0.0
	for _, id := range b.order {
		a := b.arms[id]
		if a.live != nil || a.plays < banditMinPlays {
			continue
		}
		mean := a.absSum / float64(a.plays)
		bonus := banditUCB * math.Sqrt(math.Log(float64(b.n+1))/float64(a.plays)) * mean
		score := (a.net + bonus) / a.backoff
		build := whatif.BuildCost(b.env, a.ix)
		if score < banditCreateMargin*build {
			continue
		}
		if bestID == "" || score > bestScore {
			bestID, bestScore = id, score
		}
	}
	if bestID == "" {
		return 0, nil
	}
	a := b.arms[bestID]
	build := whatif.BuildCost(b.env, a.ix)

	// Safety gate: realized spend plus this build must stay within k× the
	// no-index baseline. The violations counter only moves if a creation
	// proceeds while over budget — by construction it never does, and the
	// harness asserts it stays zero.
	if b.cumActual+b.cumTransition+build > b.safety*b.cumBase {
		b.counters.SafetyDeferrals++
		return 0, nil
	}
	if over := b.cumActual + b.cumTransition + build - b.safety*b.cumBase; over > 0 {
		b.counters.SafetyViolations++
	}

	clone := &catalog.Index{
		Name:    fmt.Sprintf("bandit_%d", b.creates),
		Table:   a.ix.Table,
		Columns: a.ix.Columns,
	}
	b.creates++
	b.counters.BuildsStarted++
	if err := b.db.CreateIndex(clone); err != nil {
		b.counters.BuildsFailed++
		return 0, fmt.Errorf("tuner: bandit create %v: %w", clone, err)
	}
	b.counters.BuildsCompleted++
	b.counters.IndexesCreated++
	a.live = clone.Canonicalize()
	a.createdAt = i
	a.sinceCreate = 0
	a.buildCost = build
	return build, nil
}

// configWithout filters one index out of a configuration.
func configWithout(config []*catalog.Index, id string) []*catalog.Index {
	out := make([]*catalog.Index, 0, len(config))
	for _, ix := range config {
		if ix.ID() != id {
			out = append(out, ix)
		}
	}
	return out
}

// sortedArmIDs is a testing hook: the arm ids in deterministic order.
func (b *Bandit) sortedArmIDs() []string {
	out := append([]string{}, b.order...)
	sort.Strings(out)
	return out
}
