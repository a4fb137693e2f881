package engine

import (
	"container/list"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/fnv1a"
	"onlinetuner/internal/obs"
	"onlinetuner/internal/optimizer"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
)

// CacheMode selects how aggressively the engine reuses cached plans.
type CacheMode int32

const (
	// CacheExact (the default) serves a cached plan only when a fresh
	// optimization would provably return the identical Result: same
	// statement template, same literal bindings, and unchanged physical
	// configuration, statistics epoch, and table/index sizes. Every
	// recorded experiment therefore produces byte-identical output with
	// the cache on or off — the cache only removes redundant work.
	CacheExact CacheMode = iota
	// CacheRebind additionally reuses a cached Generic plan for a
	// statement with the same template but different literals,
	// substituting the new bindings into a clone of the plan
	// (generic-plan semantics: results are exact, cost estimates are
	// cheap ratio re-costs, and the access path is the one chosen for
	// the original literals).
	CacheRebind
	// CacheOff disables both tiers; every statement is optimized fresh.
	CacheOff
)

const (
	planShards   = 8
	planShardCap = 64 // per shard; 512 cached plans total
	stmtShardCap = 64 // per shard; 512 parsed statements total
)

// PlanCacheStats are the cache's observability counters.
type PlanCacheStats struct {
	Hits          int64 // exact plan hits (optimizer skipped)
	RebindHits    int64 // generic-plan reuses with literal substitution
	Misses        int64 // lookups that fell through to the optimizer
	Invalidations int64 // entries dropped on a config/stats epoch change
	Evictions     int64 // entries dropped by LRU capacity
	StmtHits      int64 // statement-text hits (parser + fingerprint skipped)
}

// planEntry is one cached optimization, valid for the exact
// (configVersion, statsEpoch, sizeSig) it was computed under. The
// stored Result's plan shares expression nodes with the fingerprinted
// statement's AST, so lits give literal slots by pointer identity for
// rebinding. Entries are immutable after insertion; all fields are read
// under the shard lock or from the (read-only) Result.
type planEntry struct {
	hash       uint64
	template   string
	bindings   []datum.Datum
	lits       []*sql.Literal
	res        *optimizer.Result
	cfgVersion int64
	statsEpoch int64
	sizeSig    uint64
	rules      optimizer.Rules
}

type planShard struct {
	mu     sync.Mutex
	ll     *list.List // front = most recently used
	byHash map[uint64]*list.Element
}

// stmtEntry caches one parsed statement text: the AST plus its
// fingerprint (nil for non-cacheable statements). Both are immutable
// and shared read-only across executions.
type stmtEntry struct {
	text string
	stmt sql.Statement
	fp   *sql.Fingerprint
}

type stmtShard struct {
	mu     sync.Mutex
	ll     *list.List
	byText map[string]*list.Element
}

// planCache is the engine's two-tier statement cache: a statement-text
// tier (text → parsed AST + fingerprint) and a plan tier (fingerprint →
// optimizer Result keyed by configVersion/statsEpoch/sizes). Both tiers
// are sharded LRUs safe for concurrent statements.
type planCache struct {
	mode  atomic.Int32
	plans [planShards]planShard
	stmts [planShards]stmtShard

	// The counters ARE the registry's metrics (not mirrors of them):
	// PlanCacheStats and the obs snapshot read the same atomics, so the
	// two views reconcile exactly by construction.
	hits          *obs.Counter
	rebindHits    *obs.Counter
	misses        *obs.Counter
	invalidations *obs.Counter
	evictions     *obs.Counter
	stmtHits      *obs.Counter
}

func newPlanCache(reg *obs.Registry) *planCache {
	pc := &planCache{
		hits:          reg.Counter("plancache.hits"),
		rebindHits:    reg.Counter("plancache.rebind_hits"),
		misses:        reg.Counter("plancache.misses"),
		invalidations: reg.Counter("plancache.invalidations"),
		evictions:     reg.Counter("plancache.evictions"),
		stmtHits:      reg.Counter("plancache.stmt_hits"),
	}
	for i := range pc.plans {
		pc.plans[i].ll = list.New()
		pc.plans[i].byHash = make(map[uint64]*list.Element)
	}
	for i := range pc.stmts {
		pc.stmts[i].ll = list.New()
		pc.stmts[i].byText = make(map[string]*list.Element)
	}
	return pc
}

// SetPlanCacheMode switches the plan cache mode at runtime.
func (db *DB) SetPlanCacheMode(m CacheMode) { db.pc.mode.Store(int32(m)) }

// PlanCacheMode returns the current plan cache mode.
func (db *DB) PlanCacheMode() CacheMode { return CacheMode(db.pc.mode.Load()) }

// PlanCacheStats returns a snapshot of the cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          db.pc.hits.Value(),
		RebindHits:    db.pc.rebindHits.Value(),
		Misses:        db.pc.misses.Value(),
		Invalidations: db.pc.invalidations.Value(),
		Evictions:     db.pc.evictions.Value(),
		StmtHits:      db.pc.stmtHits.Value(),
	}
}

// cacheable reports whether a statement's optimization may be cached.
// INSERTs are excluded: every insert changes the table size, so an
// exact hit could never validate — caching them only pollutes slots.
func cacheable(stmt sql.Statement) bool {
	switch stmt.(type) {
	case *sql.Select, *sql.Update, *sql.Delete:
		return true
	}
	return false
}

// stmtShardOf picks the statement-text shard of a text; ExecContext
// computes it once and hands it to both lookupStmt and storeStmt.
func (pc *planCache) stmtShardOf(text string) *stmtShard {
	return &pc.stmts[fnv1a.Init.Str(text)%planShards]
}

// lookupStmt returns the cached parse of a statement text, or nil.
func (pc *planCache) lookupStmt(sh *stmtShard, text string) *stmtEntry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.byText[text]
	if !ok {
		return nil
	}
	sh.ll.MoveToFront(el)
	pc.stmtHits.Inc()
	return el.Value.(*stmtEntry)
}

func (pc *planCache) storeStmt(sh *stmtShard, e *stmtEntry) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.byText[e.text]; ok {
		el.Value = e
		sh.ll.MoveToFront(el)
		return
	}
	sh.byText[e.text] = sh.ll.PushFront(e)
	if sh.ll.Len() > stmtShardCap {
		back := sh.ll.Back()
		delete(sh.byText, back.Value.(*stmtEntry).text)
		sh.ll.Remove(back)
	}
}

// lookupPlan probes the plan tier. cfgV/statsE/sizeSig are the caller's
// freshly captured validity tokens; a template-matching entry from an
// older epoch is dropped (counted as an invalidation). Exact hits
// return a shallow copy of the cached Result flagged FromCache; in
// CacheRebind mode a Generic entry additionally serves different
// bindings through Optimizer.Rebind.
func (db *DB) lookupPlan(fp *sql.Fingerprint, mode CacheMode, cfgV, statsE int64, sizeSig uint64, rules optimizer.Rules) *optimizer.Result {
	pc := db.pc
	sh := &pc.plans[fp.Hash%planShards]
	sh.mu.Lock()
	el, ok := sh.byHash[fp.Hash]
	if !ok {
		sh.mu.Unlock()
		pc.misses.Inc()
		return nil
	}
	e := el.Value.(*planEntry)
	if e.template != fp.Template {
		sh.mu.Unlock() // hash collision: treat as a plain miss
		pc.misses.Inc()
		return nil
	}
	// The rule set is part of the plan-cache key: a plan optimized under
	// one setting must never serve a statement running under another.
	if e.cfgVersion != cfgV || e.statsEpoch != statsE || e.rules != rules {
		sh.ll.Remove(el)
		delete(sh.byHash, fp.Hash)
		sh.mu.Unlock()
		pc.invalidations.Inc()
		pc.misses.Inc()
		return nil
	}
	if e.sizeSig == sizeSig && bindingsEqual(e.bindings, fp.Bindings) {
		sh.ll.MoveToFront(el)
		res := e.res
		sh.mu.Unlock()
		pc.hits.Inc()
		out := *res
		out.FromCache = true
		return &out
	}
	if mode != CacheRebind || !e.res.Generic {
		sh.mu.Unlock()
		pc.misses.Inc()
		return nil
	}
	sh.ll.MoveToFront(el)
	res, lits := e.res, e.lits
	sh.mu.Unlock()
	if out, ok := db.Opt.Rebind(res, lits, fp.Bindings); ok {
		pc.rebindHits.Inc()
		return out
	}
	pc.misses.Inc()
	return nil
}

func (pc *planCache) storePlan(e *planEntry) {
	sh := &pc.plans[e.hash%planShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.byHash[e.hash]; ok {
		el.Value = e
		sh.ll.MoveToFront(el)
		return
	}
	sh.byHash[e.hash] = sh.ll.PushFront(e)
	if sh.ll.Len() > planShardCap {
		back := sh.ll.Back()
		delete(sh.byHash, back.Value.(*planEntry).hash)
		sh.ll.Remove(back)
		pc.evictions.Inc()
	}
}

func bindingsEqual(a, b []datum.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// sizeSigFor hashes the physical sizes an optimization of stmt depends
// on: heap rows/pages of every referenced table plus the identity and
// page count of each of its active secondary indexes. Together with
// configVersion and statsEpoch this pins every input of the optimizer,
// making an exact cache hit equivalent to re-running it.
func (db *DB) sizeSigFor(stmt sql.Statement) uint64 {
	reads, writes := db.lockTablesFor(stmt)
	names := make([]string, 0, len(reads)+len(writes))
	for _, t := range reads {
		names = append(names, strings.ToLower(t))
	}
	for _, t := range writes {
		names = append(names, strings.ToLower(t))
	}
	sort.Strings(names)
	h := fnv1a.Init
	prev := ""
	for _, t := range names {
		if t == prev {
			continue
		}
		prev = t
		h = h.Str(t).Byte(0xff)
		if hp := db.Mgr.Heap(t); hp != nil {
			h = h.Uint64(uint64(hp.Len())).Uint64(uint64(hp.Pages()))
		}
		for _, pi := range db.Mgr.TableIndexes(t) {
			if pi.Def.Primary || pi.State() != storage.StateActive {
				continue
			}
			h = h.Str(pi.Def.ID()).Byte(0xfe).Uint64(uint64(pi.Pages()))
		}
	}
	return uint64(h)
}

// optimizeMaybeCached is the cache-aware optimizer entry point for the
// statement hot path. fpp threads a lazily computed fingerprint so one
// execution (including its stale-index retries) fingerprints at most
// once, and so Exec's statement-text tier can hand in a precomputed one.
func (db *DB) optimizeMaybeCached(stmt sql.Statement, fpp **sql.Fingerprint) (*optimizer.Result, error) {
	mode := db.PlanCacheMode()
	if mode == CacheOff || !cacheable(stmt) {
		return db.Opt.Optimize(stmt)
	}
	if *fpp == nil {
		f := sql.FingerprintOf(stmt)
		*fpp = &f
	}
	fp := *fpp
	cfgV := db.Mgr.ConfigVersion()
	statsE := db.Stats.Epoch()
	sizeSig := db.sizeSigFor(stmt)
	rules := db.Opt.Rules()
	if res := db.lookupPlan(fp, mode, cfgV, statsE, sizeSig, rules); res != nil {
		return res, nil
	}
	res, err := db.Opt.Optimize(stmt)
	if err != nil {
		return nil, err
	}
	// Store only when no physical, statistics or rule-set change raced
	// with the optimization: the counters are monotonic, so equality
	// means the Result still describes the state the validity tokens
	// name.
	if db.Mgr.ConfigVersion() == cfgV && db.Stats.Epoch() == statsE && db.Opt.Rules() == rules {
		db.pc.storePlan(&planEntry{
			hash:       fp.Hash,
			template:   fp.Template,
			bindings:   fp.Bindings,
			lits:       fp.Lits,
			res:        res,
			cfgVersion: cfgV,
			statsEpoch: statsE,
			sizeSig:    sizeSig,
			rules:      rules,
		})
	}
	return res, nil
}

// cacheMarker renders the provenance line ExplainString and EXPLAIN
// prepend to plan output.
func cacheMarker(res *optimizer.Result) string {
	switch {
	case res.Rebound:
		return "-- plan: cached (rebound)"
	case res.FromCache:
		return "-- plan: cached (exact)"
	default:
		return "-- plan: fresh"
	}
}

// ruleMarkers renders one "-- rule: <name>" provenance line per rewrite
// rule the optimizer applied to this plan, in canonical rule order.
func ruleMarkers(res *optimizer.Result) []string {
	out := make([]string, 0, len(res.RulesApplied))
	for _, name := range res.RulesApplied {
		out = append(out, "-- rule: "+name)
	}
	return out
}
