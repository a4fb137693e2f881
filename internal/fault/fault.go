// Package fault is a zero-dependency, deterministic fault-injection
// layer. Production code declares named injection sites (a page write,
// a B+-tree split, a background build step) and consults an Injector at
// each one; tests arm the injector with a seeded schedule and replay
// workloads under it. Two properties make the layer usable everywhere,
// including hot paths:
//
//   - Determinism. Each site draws from its own splitmix64 stream,
//     seeded from (injector seed, site name), and fires on its own hit
//     counter. A sequential workload replayed with the same seed sees
//     exactly the same faults at exactly the same operations, so a
//     failing chaos seed reproduces with one environment variable.
//
//   - An inert fast path. A nil *Injector is a valid receiver, and a
//     disarmed injector answers Hit with a single atomic load. Sites
//     can therefore stay compiled into release binaries: the disabled
//     cost is one predictable branch (see the root package's
//     BenchmarkHotPathSeekCachedFaultDisabled).
//
// Faults are errors, not panics: every site returns *Error and the
// surrounding layer is responsible for degrading gracefully — rolling
// back partial mutations, aborting cleanly, or retrying transient
// failures. The chaos suite in internal/fault/chaostest locks that
// contract in.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Site names one injection point. Sites are dot-separated, layer-first,
// so schedules can target a layer by prefix.
type Site string

// The injection sites threaded through the engine.
const (
	// PageRead fires on executor read paths: heap scans, index scans,
	// index seeks, index-nested-loop lookups. Reads mutate nothing, so a
	// read fault aborts the statement with no state to roll back.
	PageRead Site = "storage.page_read"
	// PageWrite fires at the head of storage DML (insert/delete/update),
	// before any heap or index structure is touched.
	PageWrite Site = "storage.page_write"
	// PageAlloc fires when a structure would allocate: on every B+-tree
	// insert (node/page allocation) and at the head of index builds and
	// restarts. Checked before mutation, so a failed allocation leaves
	// the structure exactly as it was.
	PageAlloc Site = "storage.page_alloc"
	// BTreeSplit fires when a leaf insert would split a full page.
	// Checked before the split, so the tree is never left mid-split.
	BTreeSplit Site = "storage.btree_split"
	// BuildStep fires per row while a background build constructs its
	// tree from the snapshot (mid-snapshot failure).
	BuildStep Site = "storage.build_step"
	// BuildFinish fires while FinishBuild replays the DML delta into the
	// built tree (mid-delta failure), before the index is published.
	BuildFinish Site = "storage.build_finish"
	// ExecStmt fires once per statement execution attempt in the engine,
	// between planning and execution. Typically planned Transient, to
	// exercise the engine's bounded retry-with-backoff.
	ExecStmt Site = "engine.exec"
	// WALAppend fires at the head of a WAL batch append, before any byte
	// reaches the log. A fired append fails the committing statement, whose
	// in-memory effects the executor then rolls back.
	WALAppend Site = "wal.append"
	// WALFsync fires when the WAL would fsync. A fired fsync is fail-stop,
	// like a real one: the writer truncates the unflushed tail back to the
	// last durable offset and stops for good. Every statement in or behind
	// that tail fails, reads of the tables they wrote fail, no later write
	// is acknowledged, and reopening the directory recovers exactly the
	// acknowledged statements.
	WALFsync Site = "wal.fsync"
)

// Error is the failure returned by a fired injection site.
type Error struct {
	Site Site
	// Hit is the 1-based hit count at the site when it fired.
	Hit int64
	// Transient marks faults the engine may retry (with backoff); a
	// permanent fault fails the operation immediately.
	Transient bool
}

func (e *Error) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("fault: injected %s failure at %s (hit %d)", kind, e.Site, e.Hit)
}

// Is reports whether err is (or wraps) an injected fault.
func Is(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// IsTransient reports whether err is an injected fault marked transient
// — the engine's cue to retry with backoff.
func IsTransient(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Transient
}

// Rule schedules faults at one site.
type Rule struct {
	// Prob is the firing probability per hit, in [0, 1].
	Prob float64
	// After skips the first After hits entirely (the draw is not even
	// made), so a rule can target steady state. With Prob 1 and Count 1
	// it pins the fault to exactly hit After+1.
	After int64
	// Count caps the number of fires; 0 means unlimited.
	Count int64
	// Transient marks the produced errors retryable.
	Transient bool
}

// siteState is one site's schedule plus its deterministic draw state.
type siteState struct {
	rule    Rule
	prng    atomic.Uint64 // splitmix64 state; Add(gamma) then mix per draw
	hits    atomic.Int64
	fired   atomic.Int64
	keySeed uint64 // immutable per-site seed for HitKeyed draws
	// Keyed traffic counts separately so the unkeyed ordinal stream
	// (hits, and through it After/Count) stays independent of how many
	// keyed draws happen or in what order workers make them.
	khits  atomic.Int64
	kfired atomic.Int64
}

// Injector decides, per site hit, whether to fail. The zero of use is a
// nil pointer: every method is nil-safe and a nil injector never fires,
// so production structs hold a plain *Injector field with no setup.
type Injector struct {
	armed atomic.Bool
	seed  uint64
	mu    sync.Mutex                          // serializes Plan
	sites atomic.Pointer[map[Site]*siteState] // copy-on-write
}

// New returns a disarmed injector whose site streams derive from seed.
func New(seed uint64) *Injector {
	i := &Injector{seed: seed}
	m := map[Site]*siteState{}
	i.sites.Store(&m)
	return i
}

// Plan installs (or replaces) the rule for a site. Planning re-seeds the
// site's stream from the injector seed and the site name, so the
// schedule is a pure function of (seed, rules, hit sequence).
func (i *Injector) Plan(site Site, r Rule) *Injector {
	i.mu.Lock()
	defer i.mu.Unlock()
	old := *i.sites.Load()
	next := make(map[Site]*siteState, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	st := &siteState{rule: r, keySeed: splitmix64(i.seed ^ hashSite(site) ^ 0xA5A5A5A5A5A5A5A5)}
	st.prng.Store(splitmix64(i.seed ^ hashSite(site)))
	next[site] = st
	i.sites.Store(&next)
	return i
}

// Arm enables fault firing.
func (i *Injector) Arm() { i.armed.Store(true) }

// Disarm disables fault firing; schedules and counters are kept.
func (i *Injector) Disarm() {
	if i != nil {
		i.armed.Store(false)
	}
}

// Armed reports whether the injector is firing.
func (i *Injector) Armed() bool { return i != nil && i.armed.Load() }

// Hit consults the site's schedule and returns an *Error when the fault
// fires, nil otherwise. The disabled path — nil injector, disarmed, or
// no rule for the site — costs at most one atomic load plus a map probe.
func (i *Injector) Hit(site Site) error {
	if i == nil || !i.armed.Load() {
		return nil
	}
	s := (*i.sites.Load())[site]
	if s == nil {
		return nil
	}
	n := s.hits.Add(1)
	r := s.rule
	if n <= r.After {
		return nil
	}
	if r.Count > 0 && s.fired.Load() >= r.Count {
		return nil
	}
	if r.Prob < 1 {
		// 53-bit uniform draw in [0, 1).
		z := splitmix64(s.prng.Add(0x9E3779B97F4A7C15))
		if float64(z>>11)/(1<<53) >= r.Prob {
			return nil
		}
	}
	s.fired.Add(1)
	return &Error{Site: site, Hit: n, Transient: r.Transient}
}

// HitOrd consults the site like Hit but also returns the 1-based hit
// ordinal that was consumed, whether or not the fault fired. Callers use
// the ordinal as a stable identity for the operation (e.g. the scan a
// statement performs), typically to derive HitKeyed keys for its
// sub-operations.
func (i *Injector) HitOrd(site Site) (int64, error) {
	if i == nil || !i.armed.Load() {
		return 0, nil
	}
	s := (*i.sites.Load())[site]
	if s == nil {
		return 0, nil
	}
	// Re-implements Hit so the ordinal and the decision come from the
	// same counter increment.
	n := s.hits.Add(1)
	r := s.rule
	if n <= r.After {
		return n, nil
	}
	if r.Count > 0 && s.fired.Load() >= r.Count {
		return n, nil
	}
	if r.Prob < 1 {
		z := splitmix64(s.prng.Add(0x9E3779B97F4A7C15))
		if float64(z>>11)/(1<<53) >= r.Prob {
			return n, nil
		}
	}
	s.fired.Add(1)
	return n, &Error{Site: site, Hit: n, Transient: r.Transient}
}

// HitKeyed consults the site's schedule for a keyed operation — one
// whose identity is a stable value (a morsel id, a page range) rather
// than an arrival ordinal. The per-key Prob decision is a pure function
// of (injector seed, site, key): concurrent workers hitting the same
// keys in any interleaving observe exactly the same draws, which is what
// keeps a seeded chaos run reproducible under parallel execution.
//
// After and Count keep their ordinal meaning, enforced against the keyed
// counters: the first After keyed draws at the site pass, and at most
// Count keyed faults fire (budgeted atomically, separate from the
// unkeyed stream so neither perturbs the other). A rule like
// {Prob: 1, Count: 1} therefore injects exactly one failure on the keyed
// path too, not one per draw. Note that which arrivals consume an
// After/Count budget depends on worker interleaving — only Prob-and-
// Transient-only rules (the chaos suite's shape) are fully
// interleaving-independent. Error.Hit carries the key.
func (i *Injector) HitKeyed(site Site, key uint64) error {
	if i == nil || !i.armed.Load() {
		return nil
	}
	s := (*i.sites.Load())[site]
	if s == nil {
		return nil
	}
	r := s.rule
	n := s.khits.Add(1)
	if n <= r.After {
		return nil
	}
	if r.Prob <= 0 {
		return nil
	}
	if r.Prob < 1 {
		z := splitmix64(s.keySeed ^ splitmix64(key))
		if float64(z>>11)/(1<<53) >= r.Prob {
			return nil
		}
	}
	if r.Count > 0 {
		// Claim one unit of the keyed fire budget; draws that lose the
		// race or arrive after exhaustion pass.
		for {
			f := s.kfired.Load()
			if f >= r.Count {
				return nil
			}
			if s.kfired.CompareAndSwap(f, f+1) {
				break
			}
		}
	} else {
		s.kfired.Add(1)
	}
	return &Error{Site: site, Hit: int64(key), Transient: r.Transient}
}

// SiteStats is one site's observed traffic.
type SiteStats struct {
	Hits  int64
	Fired int64
}

// Stats returns per-site hit and fire counts for every planned site.
func (i *Injector) Stats() map[Site]SiteStats {
	out := map[Site]SiteStats{}
	if i == nil {
		return out
	}
	for site, s := range *i.sites.Load() {
		out[site] = SiteStats{
			Hits:  s.hits.Load() + s.khits.Load(),
			Fired: s.fired.Load() + s.kfired.Load(),
		}
	}
	return out
}

// FiredTotal returns the total number of faults fired across all sites.
func (i *Injector) FiredTotal() int64 {
	var total int64
	for _, s := range i.Stats() {
		total += s.Fired
	}
	return total
}

// String renders the schedule and counters, for failure logs.
func (i *Injector) String() string {
	if i == nil {
		return "fault.Injector(nil)"
	}
	m := *i.sites.Load()
	sites := make([]string, 0, len(m))
	for site := range m {
		sites = append(sites, string(site))
	}
	sort.Strings(sites)
	out := fmt.Sprintf("fault.Injector(seed=%d armed=%v", i.seed, i.Armed())
	for _, name := range sites {
		s := m[Site(name)]
		out += fmt.Sprintf(" %s{p=%g after=%d count=%d hits=%d fired=%d keyed=%d/%d}",
			name, s.rule.Prob, s.rule.After, s.rule.Count,
			s.hits.Load(), s.fired.Load(), s.kfired.Load(), s.khits.Load())
	}
	return out + ")"
}

// splitmix64 is the SplitMix64 output mix — a full-avalanche 64-bit
// permutation, used both to derive per-site seeds and as the per-draw
// generator over a Weyl sequence.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// hashSite folds a site name into 64 bits (FNV-1a).
func hashSite(s Site) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
