package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/obs"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/whatif"
)

// Options configure OnlinePT's refinements (Section 3.3).
type Options struct {
	// ThrottleEvery runs the analysis phase (lines 9–21 of Figure 6) once
	// every N queries; the bookkeeping phase (lines 1–8) always runs.
	// Zero or one means every query.
	ThrottleEvery int
	// MergeEvery considers index merging (line 18) on every M-th analysis
	// round. Zero disables merging; one merges every round; the default
	// (4) follows the paper's own throttling advice for line 18.
	MergeEvery int
	// Async sets the publish gate of online index creation, Section 3.3.
	// Every automatic creation takes the same protocol: the B+-tree is
	// built by a background goroutine from a snapshot plus a side delta
	// log (storage.StartBuild/FinishBuild) and published atomically into
	// the catalog. With Async the index becomes usable once as much
	// query-cost as B_I^s has passed — the paper's cost accounting, kept
	// so replayed schedules are deterministic — and the build is
	// cancelled (context + storage abort) when updates erode the
	// candidate's benefit by more than B_I^s while building. Without it
	// the gate is zero: the build is joined and published before the
	// statement that decided it returns, which is the paper's evaluation
	// ("before evaluating new queries", Section 4).
	Async bool
	// UseSuspend replaces drops with suspends; suspended indexes restart
	// (cheaper than a rebuild) when they become beneficial again.
	UseSuspend bool
	// CooldownQueries pauses the analysis phase for this many statements
	// after every physical change, so Δ values re-measure against the
	// new configuration before the next decision (prevents cascades of
	// overlapping creations). Zero uses the default; negative disables.
	CooldownQueries int
	// DisableDamping turns off the Section 3.2.2 oscillation rule — for
	// ablation experiments only.
	DisableDamping bool
}

// maxCandidates caps |H|; the lowest-benefit candidates are evicted.
const maxCandidates = 128

// maxEvents caps the change log: Events keeps the newest records, so a
// long-lived daemon's log stays bounded. The largest paper replay makes
// about 150.
const maxEvents = 4096

// DefaultOptions mirror the paper's evaluated configuration: each
// change is published before the next query (a zero build gate), and
// merging is on (throttled per the paper's own advice).
func DefaultOptions() Options {
	return Options{
		ThrottleEvery:   1,
		MergeEvery:      4, // the paper's own throttle: merge "a fraction of the executions"
		CooldownQueries: 15,
	}
}

// EventKind classifies physical design changes made by the tuner.
type EventKind int

// Tuner event kinds.
const (
	EvCreate EventKind = iota
	EvDrop
	EvSuspend
	EvRestart
	EvAbort
	// EvFail marks a build that failed (storage error, injected fault)
	// rather than being aborted by the erosion rule. The candidate's
	// evidence is reset and its build cost is penalized exponentially,
	// so a persistently failing build cannot hot-loop.
	EvFail
	// EvBuildStart marks a creation or restart the benefit rule decided;
	// its create, restart, abort or build-failed record follows. It
	// changes nothing in the configuration.
	EvBuildStart
)

func (k EventKind) String() string {
	switch k {
	case EvCreate:
		return "create"
	case EvDrop:
		return "drop"
	case EvSuspend:
		return "suspend"
	case EvRestart:
		return "restart"
	case EvAbort:
		return "abort"
	case EvFail:
		return "build-failed"
	case EvBuildStart:
		return "build-start"
	}
	return "?"
}

// Event is one record of the tuner's change log: a physical design
// change or attempted change, with the evidence behind it. Together the
// records reconstruct the tuner's schedule — Table 1's C(I)/D(I)
// notation — and the Δ/Δmin/B_I values each rule fired on.
type Event struct {
	Kind  EventKind
	Index *catalog.Index
	// Cost is the transition cost charged to the schedule: B_I^s for a
	// create or restart, the work already accounted for an erosion
	// abort, and 0 for every other record.
	Cost    float64
	AtQuery int64 // 1-based query count when the change happened
	// Delta and DeltaMin are the candidate's Δ trackers at decision time
	// (Section 3.1's Δ = ΣO − ΣN and its running minimum).
	Delta, DeltaMin float64
	// BuildCost is B_I^s, the transition cost the rule weighed (for
	// drops, the residual's build-cost term).
	BuildCost float64
	// Reason names the rule that fired: "benefit" (Δ−Δmin > B_I),
	// "residual" (line 9 drop), "swap" (evicted to make room),
	// "erosion" or "closed" (build aborts), "manual", "published", or
	// "build-failed" (with the storage error appended after a colon).
	Reason string
}

func (e Event) String() string {
	switch e.Kind {
	case EvCreate, EvRestart:
		return fmt.Sprintf("C(%s)[%.2f]", e.Index, e.BuildCost)
	case EvDrop:
		return fmt.Sprintf("D(%s)", e.Index)
	case EvSuspend:
		return fmt.Sprintf("S(%s)", e.Index)
	case EvAbort:
		return fmt.Sprintf("A(%s)[%.2f]", e.Index, e.Cost)
	case EvFail:
		return fmt.Sprintf("F(%s)[%.2f]", e.Index, e.BuildCost)
	case EvBuildStart:
		return fmt.Sprintf("B(%s)[%.2f]", e.Index, e.BuildCost)
	}
	return "?"
}

// Metrics is a snapshot of the per-module overhead that Figure 9
// reports, plus background-build counters. The live values are atomic
// counters in the DB's obs registry (under "tuner.*"); this struct is
// assembled on demand by Metrics() and is safe to read while statements
// execute.
type Metrics struct {
	Queries        int64
	Total          time.Duration
	Line1          time.Duration // request-tree retrieval
	Lines28        time.Duration // Δ bookkeeping
	Lines918       time.Duration // analysis (drop/create decisions)
	Line18         time.Duration // index merging (subset of Lines918)
	TransitionCost float64       // Σ B_I of all physical changes

	BuildsStarted   int64 // automatic builds started (restarts included)
	BuildsCompleted int64 // builds published
	BuildsAborted   int64 // builds cancelled (erosion, or Close)
	BuildsFailed    int64 // builds that errored (storage fault)
}

// pendingBuild tracks one automatic index creation. The index becomes
// usable once `remaining` query-cost has been accounted (B_I^s with
// Options.Async, kept for deterministic schedules; zero otherwise); the
// physical B+-tree is meanwhile constructed by a background goroutine
// whose result arrives on done. Suspended-index restarts carry no
// physical build (build is nil): the suspended structure is replayed in
// place at finish.
type pendingBuild struct {
	st        *IndexStats
	buildCost float64
	remaining float64

	build  *storage.Build
	cancel context.CancelFunc
	done   chan error
}

// Tuner is the OnlinePT algorithm of Figure 6, attached to a DB as its
// execution observer.
//
// Concurrency: the tuner is internally serialized by one mutex — the
// engine may deliver OnExecuted from many statement goroutines at once,
// and the tuner observes them one at a time. The only tuner work outside
// the mutex is the background build goroutine, which touches nothing but
// its private snapshot (storage.Build.Run).
type Tuner struct {
	db   *engine.DB
	env  *whatif.Env
	opts Options
	// maxCandidates caps |H| and maxEvents the change log: the package
	// constants, which tests lower.
	maxCandidates int
	maxEvents     int

	mu     sync.Mutex
	closed bool

	// tracked holds bookkeeping for every index under consideration: the
	// candidate set H plus the current configuration members.
	tracked  map[string]*IndexStats
	inConfig map[string]bool

	queries  int64
	analyses int64
	pending  *pendingBuild

	// events is the change log, a ring of at most maxEvents records whose
	// oldest sits at eventsHead once the ring is full. changes counts the
	// records other than build-start ever appended: the analysis phase
	// starts a cooldown when it moves.
	events     []Event
	eventsHead int
	changes    int64

	// Overhead metrics live as atomic registry counters so readers
	// (dashboards, benchmark reporters) never contend with — or race
	// against — the observation path. Durations accumulate as
	// nanoseconds; TransitionCost as a float counter.
	mQueries         *obs.Counter
	mTotalNS         *obs.Counter
	mLine1NS         *obs.Counter
	mLines28NS       *obs.Counter
	mLines918NS      *obs.Counter
	mLine18NS        *obs.Counter
	mTransitionCost  *obs.FloatCounter
	mBuildsStarted   *obs.Counter
	mBuildsCompleted *obs.Counter
	mBuildsAborted   *obs.Counter
	mBuildsFailed    *obs.Counter
	mDecisions       *obs.Counter

	// cooldownUntil suppresses the analysis phase until this query count
	// after a physical change.
	cooldownUntil int64

	// buildCostCache memoizes B_I^s per index while the table size and
	// configuration are unchanged.
	buildCostCache map[string]buildCostEntry

	// memo caches what-if cost evaluations across the repeated
	// GetCost/ImplCost calls of lines 2–8, keyed so a hit is exactly the
	// value a fresh computation would produce. Used only under t.mu.
	memo *whatif.Memo
}

type buildCostEntry struct {
	rows    float64
	version int64
	cost    float64
}

// NewTuner attaches a fresh OnlinePT instance to a database. Call
// db.SetObserver(tuner) (or use Attach) to activate it.
func NewTuner(db *engine.DB, opts Options) *Tuner {
	if opts.ThrottleEvery < 1 {
		opts.ThrottleEvery = 1
	}
	reg := db.Observability().Reg
	return &Tuner{
		db:               db,
		env:              db.WhatIfEnv(),
		opts:             opts,
		maxCandidates:    maxCandidates,
		maxEvents:        maxEvents,
		tracked:          make(map[string]*IndexStats),
		inConfig:         make(map[string]bool),
		buildCostCache:   make(map[string]buildCostEntry),
		memo:             whatif.NewMemo(db.WhatIfEnv()),
		mQueries:         reg.Counter("tuner.queries"),
		mTotalNS:         reg.Counter("tuner.total_ns"),
		mLine1NS:         reg.Counter("tuner.line1_ns"),
		mLines28NS:       reg.Counter("tuner.lines2_8_ns"),
		mLines918NS:      reg.Counter("tuner.lines9_18_ns"),
		mLine18NS:        reg.Counter("tuner.line18_ns"),
		mTransitionCost:  reg.FloatCounter("tuner.transition_cost"),
		mBuildsStarted:   reg.Counter("tuner.builds_started"),
		mBuildsCompleted: reg.Counter("tuner.builds_completed"),
		mBuildsAborted:   reg.Counter("tuner.builds_aborted"),
		mBuildsFailed:    reg.Counter("tuner.builds_failed"),
		mDecisions:       reg.Counter("tuner.decisions"),
	}
}

// Attach creates a tuner and registers it as the DB's observer.
func Attach(db *engine.DB, opts Options) *Tuner {
	t := NewTuner(db, opts)
	db.SetObserver(t)
	return t
}

// Events returns a copy of the change log, oldest first: one record per
// physical design change or attempted change, build-starts included. It
// holds the newest maxEvents records; the tuner.decisions counter counts
// them all.
func (t *Tuner) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(append([]Event(nil), t.events[t.eventsHead:]...), t.events[:t.eventsHead]...)
}

// Metrics returns a snapshot of the overhead counters. All fields are
// atomic registry counters, so this is safe to call at any time — from
// a dashboard goroutine while statements execute, without taking the
// tuner's mutex.
func (t *Tuner) Metrics() Metrics {
	return Metrics{
		Queries:         t.mQueries.Value(),
		Total:           time.Duration(t.mTotalNS.Value()),
		Line1:           time.Duration(t.mLine1NS.Value()),
		Lines28:         time.Duration(t.mLines28NS.Value()),
		Lines918:        time.Duration(t.mLines918NS.Value()),
		Line18:          time.Duration(t.mLine18NS.Value()),
		TransitionCost:  t.mTransitionCost.Value(),
		BuildsStarted:   t.mBuildsStarted.Value(),
		BuildsCompleted: t.mBuildsCompleted.Value(),
		BuildsAborted:   t.mBuildsAborted.Value(),
		BuildsFailed:    t.mBuildsFailed.Value(),
	}
}

// decide appends one record about st's index to the change log and
// charges cost to the schedule's transition cost. The caller holds the
// mutex and calls it before OnCreated / OnDropped reset st's Δ.
func (t *Tuner) decide(kind EventKind, st *IndexStats, cost, buildCost float64, reason string) {
	t.mDecisions.Inc()
	if kind != EvBuildStart {
		t.changes++
	}
	if cost != 0 {
		t.mTransitionCost.Add(cost)
	}
	ev := Event{
		Kind: kind, Index: st.Ix, Cost: cost, AtQuery: t.queries,
		Delta: st.Delta(), DeltaMin: st.DeltaMin, BuildCost: buildCost, Reason: reason,
	}
	if len(t.events) < t.maxEvents {
		t.events = append(t.events, ev)
		return
	}
	t.events[t.eventsHead] = ev
	t.eventsHead = (t.eventsHead + 1) % len(t.events)
}

// MemoStats returns the what-if cost memo's hit/miss counters.
func (t *Tuner) MemoStats() whatif.MemoStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.memo.Stats()
}

// Stats returns the bookkeeping for an index ID, or nil.
func (t *Tuner) Stats(id string) *IndexStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tracked[id]
}

// Candidates returns the current candidate set H (tracked indexes not in
// the configuration).
func (t *Tuner) Candidates() []*IndexStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.candidatesLocked()
}

func (t *Tuner) candidatesLocked() []*IndexStats {
	var out []*IndexStats
	for id, st := range t.tracked {
		if !t.inConfig[id] {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ix.ID() < out[j].Ix.ID() })
	return out
}

// OnExecuted implements engine.Observer: the body of Figure 6, run once
// per executed statement. Concurrent statements are observed one at a
// time in arrival order at the mutex.
func (t *Tuner) OnExecuted(info *engine.QueryInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.queries++
	t.mQueries.Inc()
	start := time.Now()
	// One memo statement span: refresh the index-size snapshot, and keep
	// (or drop) cost entries depending on whether the physical design or
	// the statistics moved since the previous statement.
	t.memo.BeginStatement(t.db.Mgr.ConfigVersion(), t.db.Stats.Epoch())

	// Line 1: retrieve the AND/OR request tree captured at optimization.
	// A tree the plan cache served to earlier statements comes with the
	// what-if terms they already computed (whatif.Terms).
	l1 := time.Now()
	terms := t.memo.Terms(info.Result.Tree, info.Result.FromCache)
	t.mLine1NS.Add(time.Since(l1).Nanoseconds())

	// Lines 2–8: update Δ values (in-memory scalars only). The
	// configuration s is read only if a term has to be computed.
	l2 := time.Now()
	var config []*catalog.Index
	haveConfig := false
	configOnce := func() []*catalog.Index {
		if !haveConfig {
			config, haveConfig = t.db.Configuration(), true
		}
		return config
	}
	// First pass: candidate updates, remembering which candidates gained
	// from this query — they are genuine replacement contenders and are
	// exempt from oscillation damping below.
	var gained map[string]bool
	for i := range terms.Reqs {
		if rt := &terms.Reqs[i]; rt.Req.Kind != whatif.KindUpdate {
			if id := t.noteCandidate(rt, configOnce); id != "" {
				if gained == nil {
					gained = make(map[string]bool)
				}
				gained[id] = true
			}
		}
	}
	// Used-index credit is attributed once per OR group: only one
	// alternative of an OR group is implemented in the plan, so crediting
	// every sibling would double-count the index's value.
	for g := range terms.Groups {
		if rt := t.memo.Attribution(terms, g); rt != nil {
			t.noteUsed(rt, configOnce, gained)
		}
	}
	for i := range terms.Reqs {
		if rt := &terms.Reqs[i]; rt.Req.Kind == whatif.KindUpdate {
			t.noteUpdate(rt)
		}
	}
	t.mLines28NS.Add(time.Since(l2).Nanoseconds())

	t.progressBuild(info.EstCost)
	t.maybeBuildStats()
	t.evictCandidates()

	// Lines 9–21: throttled, and paused while a recent physical change
	// is still being re-measured.
	if t.queries%int64(t.opts.ThrottleEvery) == 0 && t.queries >= t.cooldownUntil {
		l9 := time.Now()
		before := t.changes
		t.dropBadIndexes()
		t.analyzeAndCreate()
		if t.changes != before {
			cd := t.opts.CooldownQueries
			if cd == 0 {
				cd = 15
			}
			if cd > 0 {
				t.cooldownUntil = t.queries + int64(cd)
			}
		}
		t.mLines918NS.Add(time.Since(l9).Nanoseconds())
	}
	t.mTotalNS.Add(time.Since(start).Nanoseconds())
}

// noteCandidate implements lines 3–4: the request's best index joins H
// and its Δ is updated. It returns the candidate's ID when the increment
// was positive, "" otherwise.
func (t *Tuner) noteCandidate(rt *whatif.ReqTerms, config func() []*catalog.Index) string {
	id := t.memo.BestID(rt)
	if id == "" || t.inConfig[id] {
		return "" // no candidate, or already in s (handled by noteUsed)
	}
	st := t.tracked[id]
	if st == nil {
		st = NewIndexStats(rt.NewBest())
		t.tracked[id] = st
	}
	o, n := t.memo.CandidateCosts(rt, config, st.Ix)
	if st.Add(UsageLevel(rt.Req), o, n) > 0 {
		return id
	}
	return ""
}

// noteUsed implements lines 5–6: the configuration index implementing
// the request accumulates the value it provides.
func (t *Tuner) noteUsed(rt *whatif.ReqTerms, config func() []*catalog.Index, gained map[string]bool) {
	r := rt.Req
	id := r.CurrentIndexID
	if id == "" || !t.inConfig[id] {
		return
	}
	st := t.tracked[id]
	if st == nil {
		ix := t.env.Cat.IndexByID(id)
		if ix == nil {
			return
		}
		st = NewIndexStats(ix)
		t.tracked[id] = st
	}
	o := t.memo.UsedCost(rt, config)
	n := r.CurrentCost
	// The optimizer chose this index for a read, so its value for the
	// request is non-negative; a negative difference here is noise
	// between the request-level approximation and the plan's cost, and
	// letting it erode Δ would drop marginal-but-useful indexes and churn
	// them. Genuine penalties arrive through the update shell.
	if o < n {
		o = n
	}
	wasAtPeak := st.AtPeak()
	d := st.Add(UsageLevel(r), o, n)
	// Oscillation damping (Section 3.2.2): while a configuration index
	// keeps proving useful at its peak, decay outside candidates'
	// benefit by the same δ — but never below zero benefit (the paper's
	// max(0, benefit−δ)), so evidence up to the creation threshold is
	// preserved and only runaway excess is shaved. Candidates that
	// gained from this very query are exempt: noteUsed runs after
	// noteCandidate, and shaving the increment the same query just
	// produced would deadlock legitimate contenders (the paper's W1
	// swap).
	if wasAtPeak && d > 0 && !t.opts.DisableDamping {
		for cid, cst := range t.tracked {
			if !t.inConfig[cid] && !cst.Creating && !gained[cid] {
				cst.DecayBenefit(d, t.buildCostFor(cst.Ix))
			}
		}
	}
}

// noteUpdate implements lines 7–8: every tracked index over the updated
// table accrues the update-shell penalty.
func (t *Tuner) noteUpdate(rt *whatif.ReqTerms) {
	maint := rt.Maint
	if maint <= 0 {
		return
	}
	for _, st := range t.tracked {
		if !strings.EqualFold(st.Ix.Table, rt.Req.Table) || st.Ix.Primary {
			continue
		}
		st.Add(LevelU, 0, maint)
		// Abort an in-flight build whose benefit collapsed (Section 3.3).
		if st.Creating && t.pending != nil && t.pending.st == st {
			if st.deltaAtCreateStart-st.Delta() > t.pending.buildCost {
				t.cancelBuild("erosion")
			}
		}
	}
}

// buildCostFor returns B_I^s for a candidate: when a suspended structure
// exists, the cheaper of replaying its missed changes and a full rebuild
// (after heavy update bursts a rebuild can win); otherwise the full
// build cost.
func (t *Tuner) buildCostFor(ix *catalog.Index) float64 {
	id := ix.ID()
	rows := t.env.TableRows(ix.Table)
	version := t.env.Mgr.ConfigVersion()
	if e, ok := t.buildCostCache[id]; ok && e.rows == rows && e.version == version {
		return e.cost
	}
	full := whatif.BuildCost(t.env, ix)
	if pi := t.env.Mgr.Index(id); pi != nil && pi.State() == storage.StateSuspended {
		restart := t.env.Model.RestartIndex(float64(pi.PendingOps()) + 1)
		if restart < full {
			full = restart
		}
	}
	t.buildCostCache[id] = buildCostEntry{rows: rows, version: version, cost: full}
	return full
}

// effectiveBuildCost is B_I^s scaled by the candidate's failure
// penalty: a build that keeps failing must earn exponentially more
// evidence before the tuner tries it again.
func (t *Tuner) effectiveBuildCost(st *IndexStats) float64 {
	return t.buildCostFor(st.Ix) * st.FailPenalty()
}

// noteBuildFailure is the graceful-degradation bookkeeping for a build
// that errored (as opposed to an erosion abort): the candidate's
// evidence is reset to the creation threshold, its failure streak grows
// (doubling the effective build cost the benefit rule must clear), and
// the failure is surfaced through the metric and an EvFail record, which
// charges nothing: the schedule never paid for the failed work. The
// tuner itself keeps serving — a failed build never propagates past
// this point.
func (t *Tuner) noteBuildFailure(st *IndexStats, buildCost float64, err error) {
	st.Creating = false
	st.FailStreak++
	st.DeltaMin = st.Delta()
	t.mBuildsFailed.Inc()
	reason := "build-failed"
	if err != nil {
		reason = fmt.Sprintf("build-failed: %v", err)
	}
	t.decide(EvFail, st, 0, buildCost, reason)
}

// dropBadIndexes implements line 9: drop (or suspend) every
// configuration index whose residual went negative. Members are visited
// in ID order so the change log is deterministic for a deterministic
// workload.
func (t *Tuner) dropBadIndexes() {
	ids := make([]string, 0, len(t.inConfig))
	for id := range t.inConfig {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := t.tracked[id]
		if st == nil {
			continue
		}
		b := t.buildCostFor(st.Ix)
		if st.Residual(b) < 0 {
			t.removeIndex(st, "residual", t.opts.UseSuspend)
		}
	}
}

// removeIndex drops (or, with suspend, suspends) a configuration index
// and applies the Section 3.2.1 drop adjustments to the remaining tracked
// indexes. A storage error leaves the tuner's state untouched.
func (t *Tuner) removeIndex(st *IndexStats, reason string, suspend bool) error {
	id := st.Ix.ID()
	b := t.buildCostFor(st.Ix) // captured before the drop bumps the config version
	kind := EvDrop
	if suspend {
		if err := t.env.Mgr.SuspendIndex(id); err != nil {
			return err
		}
		kind = EvSuspend
	} else if err := t.db.DropIndex(st.Ix); err != nil {
		return err
	}
	t.decide(kind, st, 0, b, reason)
	delete(t.inConfig, id)
	beta := st.BetaFor()
	st.OnDropped()
	for oid, other := range t.tracked {
		if oid == id {
			continue
		}
		other.AdjustAfterDrop(st.Ix, beta)
	}
	return nil
}

// analyzeAndCreate implements lines 10–21: evaluate candidates (and
// lazily merged ones), pick the best achievable design change, and apply
// it.
func (t *Tuner) analyzeAndCreate() {
	if t.pending != nil {
		return // one pending build at a time
	}
	t.analyses++
	mergeRound := t.opts.MergeEvery > 0 && t.analyses%int64(t.opts.MergeEvery) == 0

	type scored struct {
		st     *IndexStats
		b      float64
		bCost  float64
		sPrime []*IndexStats
	}
	var queue []*IndexStats
	for id, st := range t.tracked {
		if t.inConfig[id] || st.Creating {
			continue
		}
		if st.Benefit(t.effectiveBuildCost(st)) > 0 {
			queue = append(queue, st)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i].Ix.ID() < queue[j].Ix.ID() })

	budget := t.env.Mgr.Budget()
	free := t.env.Mgr.FreeBytes()
	var best *scored
	seenMerge := map[string]bool{}

	for qi := 0; qi < len(queue); qi++ {
		st := queue[qi]
		bCost := t.buildCostFor(st.Ix)
		// Scoring clears the failure-penalized cost, but the transition
		// accounting below uses the real B_I^s: the penalty gates when a
		// failing build re-arms, it is not work actually paid.
		b := st.Benefit(bCost * st.FailPenalty())
		if b <= 0 {
			continue
		}
		size := t.env.IndexBytes(st.Ix)
		if budget > 0 && size > budget {
			continue // can never fit
		}
		var sPrime []*IndexStats
		if budget > 0 && size > free {
			need := size - free
			members := t.configByResidualPerSize()
			var freed int64
			for _, m := range members {
				if freed >= need {
					break
				}
				sPrime = append(sPrime, m)
				freed += t.env.IndexBytes(m.Ix)
				b -= m.Residual(t.buildCostFor(m.Ix))
			}
			if freed < need {
				continue // cannot make room even dropping everything chosen
			}
		}
		if b > 0 && (best == nil || b > best.b) {
			best = &scored{st: st, b: b, bCost: bCost, sPrime: sPrime}
		}

		// Line 18: lazily generate merged indexes for later analysis.
		if mergeRound {
			l18 := time.Now()
			t.generateMerges(st, queue, seenMerge, func(ms *IndexStats) {
				queue = append(queue, ms)
			})
			t.mLine18NS.Add(time.Since(l18).Nanoseconds())
		}
	}

	if best == nil {
		return
	}
	// Lines 19–21: make room, then create.
	for _, m := range best.sPrime {
		t.removeIndex(m, "swap", t.opts.UseSuspend)
	}
	t.createIndex(best.st, best.bCost)
}

// configByResidualPerSize returns configuration members sorted ascending
// by residual/size, so large or nearly-droppable indexes are reclaimed
// first (Figure 6, line 14).
func (t *Tuner) configByResidualPerSize() []*IndexStats {
	type ranked struct {
		st  *IndexStats
		key float64
	}
	var rs []ranked
	for id := range t.inConfig {
		st := t.tracked[id]
		if st == nil {
			continue
		}
		size := float64(t.env.IndexBytes(st.Ix))
		if size <= 0 {
			size = 1
		}
		rs = append(rs, ranked{st: st, key: st.Residual(t.buildCostFor(st.Ix)) / size})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].key != rs[j].key {
			return rs[i].key < rs[j].key
		}
		return rs[i].st.Ix.ID() < rs[j].st.Ix.ID()
	})
	out := make([]*IndexStats, len(rs))
	for i := range rs {
		out[i] = rs[i].st
	}
	return out
}

// generateMerges adds merge(I, I') candidates for I' in s ∪ ITC.
func (t *Tuner) generateMerges(st *IndexStats, queue []*IndexStats, seen map[string]bool, add func(*IndexStats)) {
	var partners []*catalog.Index
	for id := range t.inConfig {
		if other := t.tracked[id]; other != nil {
			partners = append(partners, other.Ix)
		}
	}
	sort.Slice(partners, func(i, j int) bool { return partners[i].ID() < partners[j].ID() })
	for _, other := range queue {
		partners = append(partners, other.Ix)
	}
	const maxPartners = 16
	if len(partners) > maxPartners {
		partners = partners[:maxPartners]
	}
	for _, p := range partners {
		if p.ID() == st.Ix.ID() || !strings.EqualFold(p.Table, st.Ix.Table) {
			continue
		}
		for _, pair := range [][2]*catalog.Index{{st.Ix, p}, {p, st.Ix}} {
			m, err := catalog.Merge(pair[0], pair[1])
			if err != nil {
				continue
			}
			id := m.ID()
			if seen[id] || t.env.Cat.IndexByID(id) != nil {
				continue
			}
			if prev := t.tracked[id]; prev != nil && !prev.Derived {
				continue
			}
			seen[id] = true
			size := t.env.Mgr.EstimateIndexBytes(m)
			if budget := t.env.Mgr.Budget(); budget > 0 && size > budget {
				continue
			}
			// Derived candidates are re-inferred from their constituents'
			// current aggregates on every merge round. Configuration
			// members are excluded as inference sources: their accumulated
			// value is already being delivered by the current design, so a
			// merge inheriting it would always look better than the config
			// it wants to replace and the tuner would churn through merge
			// variants. The merged index's advantage must come from demand
			// the configuration does not serve.
			ms := InferFromSubOptimal(m, size, t.candidateList(), func(ix *catalog.Index) int64 {
				return t.env.IndexBytes(ix)
			})
			ms.Derived = true
			// Re-inference rebuilds the aggregates, but a failure streak is
			// history, not evidence — it survives regeneration so failed
			// merge builds back off like any other candidate's.
			if prev := t.tracked[id]; prev != nil {
				ms.FailStreak = prev.FailStreak
			}
			if ms.Benefit(t.effectiveBuildCost(ms)) > 0 {
				// Track only merges whose inferred evidence already clears
				// the threshold: others are regenerated on demand, and
				// keeping them would flood the candidate set.
				t.tracked[id] = ms
				add(ms)
			} else if prev := t.tracked[id]; prev != nil && prev.Derived {
				delete(t.tracked, id)
			}
		}
	}
}

// candidateList returns the non-derived, out-of-configuration tracked
// stats — the valid inference sources for merged candidates. Derived
// stats would double-count their constituents; configuration members'
// value is already realized by the current design.
func (t *Tuner) candidateList() []*IndexStats {
	out := make([]*IndexStats, 0, len(t.tracked))
	for id, st := range t.tracked {
		if !st.Derived && !t.inConfig[id] {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ix.ID() < out[j].Ix.ID() })
	return out
}

// createIndex applies a creation decision (lines 19–21) by the online
// build protocol of Section 3.3. The accounted gate is B_I^s with
// Options.Async and zero otherwise; a zero gate is joined and published
// here, so the next statement already sees the index.
func (t *Tuner) createIndex(st *IndexStats, buildCost float64) {
	pb := &pendingBuild{st: st, buildCost: buildCost}
	if t.opts.Async {
		pb.remaining = buildCost
	}
	id := st.Ix.ID()
	if pi := t.env.Mgr.Index(id); pi == nil || pi.State() != storage.StateSuspended {
		// Fresh build: snapshot the table and hand the B+-tree
		// construction to a background goroutine. DML from here on is
		// captured by the build's delta log, off the statement hot path.
		// The build itself sorts its snapshot with the manager's parallel
		// worker budget (engine.SetExecWorkers) and bulk-loads the tree,
		// producing an identical structure at every worker count — the
		// build cost the tuner accounted (buildCost) stays the same
		// sequential-equivalent estimate either way.
		b, err := t.env.Mgr.StartBuild(st.Ix)
		if err != nil {
			// Budget race or storage fault: the attempt counts as a started
			// build that immediately failed, so the metric reconciliation
			// started == completed + aborted + failed (+pending) holds.
			t.mBuildsStarted.Inc()
			t.noteBuildFailure(st, buildCost, err)
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		pb.build = b
		pb.cancel = cancel
		pb.done = make(chan error, 1)
		go func() { pb.done <- b.Run(ctx) }()
	}
	// Suspended candidates need no physical build: the structure is
	// replayed in place when the accounted restart cost has passed.
	st.Creating = true
	st.deltaAtCreateStart = st.Delta()
	t.pending = pb
	t.mBuildsStarted.Inc()
	t.decide(EvBuildStart, st, 0, buildCost, "benefit")
	t.progressBuild(0)
}

// finishCreate materializes the index and applies the Section 3.2.1
// create adjustments. For automatic creations b carries the finished
// background build to publish, or is nil for a suspended restart; a
// DBA's ManualCreate passes nil and builds synchronously. reason names
// the record's rule ("published" for automatic creations, "manual"
// for a DBA's). A storage error (budget race, fault) leaves the
// configuration untouched; the automatic caller then resets the
// candidate's evidence with noteBuildFailure.
func (t *Tuner) finishCreate(st *IndexStats, buildCost float64, b *storage.Build, reason string) error {
	id := st.Ix.ID()
	kind := EvCreate
	if pi := t.env.Mgr.Index(id); b == nil && pi != nil && pi.State() == storage.StateSuspended {
		if _, err := t.env.Mgr.RestartIndex(id); err != nil {
			return err
		}
		kind = EvRestart
	} else {
		// Give auto-generated candidates a stable catalog name.
		if t.env.Cat.Index(st.Ix.Name) != nil {
			st.Ix.Name = fmt.Sprintf("%s_%d", st.Ix.Name, t.queries)
		}
		var err error
		if b != nil {
			err = t.db.PublishIndex(st.Ix, b)
		} else {
			err = t.db.CreateIndex(st.Ix)
		}
		if err != nil {
			return err
		}
	}
	t.decide(kind, st, buildCost, buildCost, reason)
	t.inConfig[id] = true
	st.OnCreated()

	sizeCreated := t.env.IndexBytes(st.Ix)
	for oid, other := range t.tracked {
		if oid == id {
			continue
		}
		// Same-query OR alternatives are covered by this containment
		// adjustment (their column sets overlap); cross-query candidates
		// with unrelated columns keep their evidence and self-correct as
		// future queries are measured against the new configuration.
		other.AdjustAfterCreate(st.Ix, t.env.IndexBytes(other.Ix), sizeCreated)
	}
	st.Derived = false
	return nil
}

// progressBuild advances the pending build's accounting by the cost of
// the just-executed query; the index is published when the accounted
// work reaches its gate (Section 3.3). The gate is cost-based — not
// wall-clock — so replayed schedules are deterministic; by the time a
// B_I^s gate opens, the background goroutine has normally long
// finished, and waiting on it here costs nothing. A zero gate opens at
// once (createIndex calls this with 0) and waits for the build.
func (t *Tuner) progressBuild(queryCost float64) {
	if t.pending == nil {
		return
	}
	t.pending.remaining -= queryCost
	if t.pending.remaining > 0 {
		return
	}
	pb := t.pending
	t.pending = nil
	if pb.build != nil {
		if err := <-pb.done; err != nil {
			// The build goroutine itself failed (nobody cancelled it —
			// erosion aborts go through abortBuild). The abort path rolls
			// back the reservation and delta log; the catalog never saw the
			// index, so the configuration is untouched and the tuner keeps
			// serving with the candidate cooled down.
			t.env.Mgr.AbortBuild(pb.build)
			t.noteBuildFailure(pb.st, pb.buildCost, err)
			return
		}
	}
	if err := t.finishCreate(pb.st, pb.buildCost, pb.build, "published"); err != nil {
		t.noteBuildFailure(pb.st, pb.buildCost, err)
		return
	}
	t.mBuildsCompleted.Inc()
}

// cancelBuild cancels the in-flight creation, if any: the background
// goroutine is cancelled and joined, the half-built structure discarded,
// and the build counted as aborted with an EvAbort record naming reason.
// An erosion abort charges the work already accounted as wasted
// transition cost; a "closed" abort charges nothing.
func (t *Tuner) cancelBuild(reason string) {
	pb := t.pending
	if pb == nil {
		return
	}
	t.pending = nil
	if pb.build != nil {
		pb.cancel()
		<-pb.done
		t.env.Mgr.AbortBuild(pb.build)
	}
	pb.st.Creating = false
	t.mBuildsAborted.Inc()
	wasted := 0.0
	if reason == "erosion" {
		wasted = pb.buildCost - pb.remaining
	}
	t.decide(EvAbort, pb.st, wasted, pb.buildCost, reason)
}

// Close shuts the tuner down cleanly: an in-flight background build is
// cancelled and counted as aborted (reason "closed"), without charging
// the schedule. Statements may still execute
// afterwards; their observations are ignored.
func (t *Tuner) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	t.cancelBuild("closed")
}

// statsTriggerFraction is the share of a candidate's build cost B_I^s
// its evidence Δ−Δmin must pass before statistics are built on its
// leading column.
const statsTriggerFraction = 0.8

// statsStaleFraction is the relative table-size change beyond which
// existing statistics are considered stale and rebuilt on the next
// trigger check.
const statsStaleFraction = 0.3

// maybeBuildStats implements the "supporting statistics" policy: once a
// candidate's evidence crosses statsTriggerFraction of its build cost,
// statistics for its leading column are created — or refreshed, when
// the table has grown or shrunk enough since they were built that the
// histogram no longer reflects it.
func (t *Tuner) maybeBuildStats() {
	for id, st := range t.tracked {
		if t.inConfig[id] || st.Creating {
			continue
		}
		lead := st.Ix.LeadingColumn()
		if lead == "" {
			continue
		}
		if cs := t.env.Stats.Get(st.Ix.Table, lead); cs != nil {
			rows := t.env.TableRows(st.Ix.Table)
			base := float64(cs.Rows)
			if base < 1 {
				base = 1
			}
			if math.Abs(rows-base)/base <= statsStaleFraction {
				continue // fresh enough
			}
			// Stale: fall through and rebuild regardless of evidence —
			// the optimizer is already consuming these statistics.
			t.db.AnalyzeColumn(st.Ix.Table, lead)
			continue
		}
		b := t.buildCostFor(st.Ix)
		if st.Delta()-st.DeltaMin > statsTriggerFraction*b {
			t.db.AnalyzeColumn(st.Ix.Table, lead)
		}
	}
}

// evictCandidates bounds |H| by evicting the weakest candidates.
func (t *Tuner) evictCandidates() {
	n := 0
	for id := range t.tracked {
		if !t.inConfig[id] {
			n++
		}
	}
	if n <= t.maxCandidates {
		return
	}
	cands := t.candidatesLocked()
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].Delta()-cands[i].DeltaMin < cands[j].Delta()-cands[j].DeltaMin
	})
	for i := 0; i < n-t.maxCandidates && i < len(cands); i++ {
		if cands[i].Creating {
			continue
		}
		delete(t.tracked, cands[i].Ix.ID())
	}
}

// ManualCreate lets a DBA create an index through the tuner so the Δ
// adjustments of Section 3.2.1 are applied exactly as for automatic
// changes (Section 3.3 "manual intervention"). The index keeps the DBA's
// name and definition: a clash is an error, not a rename.
func (t *Tuner) ManualCreate(ix *catalog.Index) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.env.Cat.CheckIndex(ix); err != nil {
		return err
	}
	id := ix.ID()
	st := t.tracked[id]
	if st == nil {
		st = NewIndexStats(ix)
	}
	cand := st.Ix
	st.Ix = ix
	if err := t.finishCreate(st, t.buildCostFor(ix), nil, "manual"); err != nil {
		st.Ix = cand
		return err
	}
	t.tracked[id] = st
	return nil
}

// ManualDrop drops an index through the tuner, applying the drop
// adjustments.
func (t *Tuner) ManualDrop(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := t.env.Cat.Index(name)
	if ix == nil {
		return fmt.Errorf("core: unknown index %s", name)
	}
	st := t.tracked[ix.ID()]
	if st == nil {
		st = NewIndexStats(ix)
	}
	st.Ix = ix
	return t.removeIndex(st, "manual", false)
}
