package obs

import (
	"encoding/json"
	"sync"
)

// Decision is one structured record of a physical design change (or
// attempted change) made by the online tuner. Together the records
// reconstruct the tuner's whole schedule — Table 1's C(I)/D(I)
// notation — and carry the evidence behind each choice, so the paper's
// Figure 9-style overhead and regret analyses are reproducible from
// telemetry alone.
type Decision struct {
	// Seq is the record's 1-based position in the log.
	Seq int64 `json:"seq"`
	// AtQuery is the 1-based statement count when the decision was made.
	AtQuery int64 `json:"at_query"`
	// Kind is the change kind: create, drop, suspend, restart, abort,
	// build-start or build-failed (or, adopted from crash recovery,
	// recovery-abandon).
	Kind string `json:"kind"`
	// Index is the catalog index ID the decision concerns.
	Index string `json:"index"`
	// Table is the index's table.
	Table string `json:"table"`
	// Delta and DeltaMin are the candidate's Δ trackers at decision
	// time (Section 3.1's Δ = ΣO − ΣN and its running minimum).
	Delta    float64 `json:"delta"`
	DeltaMin float64 `json:"delta_min"`
	// BuildCost is B_I^s, the transition cost the decision weighed
	// (for drops, the residual's build-cost term).
	BuildCost float64 `json:"build_cost"`
	// Reason names the rule that fired: "benefit" (Δ−Δmin > B_I),
	// "residual" (line 9 drop), "swap" (evicted to make room),
	// "erosion" or "closed" (build aborts), "manual", "published", or
	// "build-failed" (with the storage error appended after a colon).
	Reason string `json:"reason"`
}

// DecisionLog is a bounded, concurrency-safe log of tuner decisions.
// When full, the oldest records are discarded (the capacity default is
// far above any schedule the evaluation produces).
type DecisionLog struct {
	mu    sync.Mutex
	cap   int
	seq   int64
	recs  []Decision
	start int
	count int
}

// DefaultDecisionCap bounds a decision log unless a capacity is given.
const DefaultDecisionCap = 4096

// NewDecisionLog returns a log retaining up to capacity records
// (DefaultDecisionCap when capacity <= 0).
func NewDecisionLog(capacity int) *DecisionLog {
	if capacity <= 0 {
		capacity = DefaultDecisionCap
	}
	return &DecisionLog{cap: capacity, recs: make([]Decision, capacity)}
}

// Append assigns the record's sequence number and stores it.
func (l *DecisionLog) Append(d Decision) {
	l.mu.Lock()
	l.seq++
	d.Seq = l.seq
	idx := (l.start + l.count) % l.cap
	if l.count == l.cap {
		l.recs[l.start] = d
		l.start = (l.start + 1) % l.cap
	} else {
		l.recs[idx] = d
		l.count++
	}
	l.mu.Unlock()
}

// Len returns the number of retained records.
func (l *DecisionLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Records returns a copy of the retained records, oldest first.
func (l *DecisionLog) Records() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Decision, 0, l.count)
	for i := 0; i < l.count; i++ {
		out = append(out, l.recs[(l.start+i)%l.cap])
	}
	return out
}

// JSON renders the retained records as indented JSON.
func (l *DecisionLog) JSON() ([]byte, error) {
	return json.MarshalIndent(l.Records(), "", "  ")
}
