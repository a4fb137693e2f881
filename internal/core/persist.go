package core

import (
	"encoding/json"
	"fmt"
	"io"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/storage"
)

// savedState is the JSON representation of the tuner's accumulated
// evidence. An always-on tuner must survive process restarts without
// re-learning the workload from scratch; the state is a constant amount
// per tracked index, exactly the paper's bookkeeping.
type savedState struct {
	Version int               `json:"version"`
	Queries int64             `json:"queries"`
	Tracked []savedIndexState `json:"tracked"`
}

type savedIndexState struct {
	Name     string     `json:"name"`
	Table    string     `json:"table"`
	Columns  []string   `json:"columns"`
	O        [4]float64 `json:"o"`
	N        [4]float64 `json:"n"`
	DeltaMin float64    `json:"delta_min"`
	DeltaMax float64    `json:"delta_max"`
	InConfig bool       `json:"in_config"`
	Derived  bool       `json:"derived,omitempty"`
	// FailStreak carries build-failure backoff across restarts, so a
	// candidate whose build failed repeatedly before the restart does not
	// immediately hot-loop after it. Omitted when zero; the format stays
	// readable by version-1 loaders.
	FailStreak int `json:"fail_streak,omitempty"`
}

const stateVersion = 1

// SaveState serializes the tuner's evidence (candidate set H plus
// configuration bookkeeping) as JSON. In-flight builds are not saved: a
// restart aborts them, like a server restart would.
func (t *Tuner) SaveState(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := savedState{Version: stateVersion, Queries: t.queries}
	for id, s := range t.tracked {
		if s.Creating {
			continue
		}
		st.Tracked = append(st.Tracked, savedIndexState{
			Name:       s.Ix.Name,
			Table:      s.Ix.Table,
			Columns:    s.Ix.Columns,
			O:          s.O,
			N:          s.N,
			DeltaMin:   s.DeltaMin,
			DeltaMax:   s.DeltaMax,
			InConfig:   t.inConfig[id],
			Derived:    s.Derived,
			FailStreak: s.FailStreak,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(st)
}

// LoadState restores previously saved evidence into a fresh tuner. The
// physical world wins over the snapshot: an entry marked in-configuration
// whose index is no longer active is demoted to a candidate (its
// evidence kept), and entries for tables that no longer exist are
// dropped. Loading into a tuner that has already observed queries is an
// error — state belongs at startup. Fields this version no longer keeps
// (such as an older file's "or_n") are ignored.
func (t *Tuner) LoadState(r io.Reader) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.queries > 0 {
		return fmt.Errorf("core: LoadState after %d observed queries; load at startup", t.queries)
	}
	var st savedState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("core: decoding tuner state: %w", err)
	}
	if st.Version != stateVersion {
		return fmt.Errorf("core: tuner state version %d unsupported (want %d)", st.Version, stateVersion)
	}
	t.queries = st.Queries
	t.mQueries.Add(st.Queries - t.mQueries.Value())
	for _, e := range st.Tracked {
		if t.env.Cat.Table(e.Table) == nil {
			continue // table dropped since the snapshot
		}
		ix := &catalog.Index{Name: e.Name, Table: e.Table, Columns: e.Columns}
		s := NewIndexStats(ix)
		s.O, s.N = e.O, e.N
		s.DeltaMin, s.DeltaMax = e.DeltaMin, e.DeltaMax
		s.Derived = e.Derived
		s.FailStreak = e.FailStreak
		id := ix.ID()
		t.tracked[id] = s
		if e.InConfig {
			if pi := t.env.Mgr.Index(id); pi != nil && pi.State() == storage.StateActive {
				t.inConfig[id] = true
			}
			// Otherwise: demoted to candidate; its accumulated Δ makes it
			// an immediate re-creation contender, which is the right
			// behavior after losing an index across the restart.
		}
	}
	return nil
}

// AdoptRecovery merges the engine's crash-recovery decisions (kind
// "recovery-abandon", one per background build the crash interrupted)
// into the tuner's decision log, so a single log tells the
// physical-design story across the restart. Call it right after Attach
// on a database opened with engine.OpenDurable.
func (t *Tuner) AdoptRecovery(info *engine.RecoveryInfo) {
	if info == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range info.Decisions {
		t.mDecisions.Inc()
		t.decisions.Append(d)
	}
}
