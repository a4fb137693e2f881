package engine

import (
	"container/list"
	"slices"
	"sort"
	"strings"
	"sync"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/fnv1a"
	"onlinetuner/internal/obs"
	"onlinetuner/internal/optimizer"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
)

const (
	planShards   = 8
	planShardCap = 64 // per shard; 512 cached plans total
	stmtShardCap = 64 // per shard; 512 parsed statements total
	tmplShardCap = 64 // per shard; 512 template probe records total
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

// lru is one shard of a bounded least-recently-used map.
type lru[K comparable, V comparable] struct {
	mu sync.Mutex
	ll *list.List // of *lruItem[K, V]; front = most recently used
	m  map[K]*list.Element
}

type lruItem[K comparable, V comparable] struct {
	key K
	val V
}

func (c *lru[K, V]) init() {
	c.ll = list.New()
	c.m = make(map[K]*list.Element)
}

// get returns the value under k and marks it most recently used.
func (c *lru[K, V]) get(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return v, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// put stores v under k as most recently used and reports whether the
// least recently used entry was evicted to stay within capacity.
func (c *lru[K, V]) put(k K, v V, capacity int) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*lruItem[K, V]).val = v
		c.ll.MoveToFront(el)
		return false
	}
	c.m[k] = c.ll.PushFront(&lruItem[K, V]{key: k, val: v})
	if c.ll.Len() <= capacity {
		return false
	}
	back := c.ll.Back()
	delete(c.m, back.Value.(*lruItem[K, V]).key)
	c.ll.Remove(back)
	return true
}

// drop removes k if it still holds v.
func (c *lru[K, V]) drop(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok && el.Value.(*lruItem[K, V]).val == v {
		delete(c.m, k)
		c.ll.Remove(el)
	}
}

// stmtEntry caches one parsed statement text: the AST plus its
// fingerprint (nil for non-cacheable statements). Both are immutable
// and shared read-only across executions.
type stmtEntry struct {
	stmt sql.Statement
	fp   *sql.Fingerprint
}

// template is the plan tier's record of a statement template, written by
// its first optimization: whether its plans are Generic and, if they
// are, the probes whose selectivities key them, resolved to binding
// slots. Immutable.
type template struct {
	text    string
	generic bool
	probes  []optimizer.SlotProbe
}

// validity is everything besides the statement that an optimization
// reads: a cached plan is served only while all of it is unchanged.
type validity struct {
	cfgVersion int64
	statsEpoch int64
	sizeSig    uint64
	rules      optimizer.Rules
}

// planEntry is one cached optimization. The stored Result's plan shares
// expression nodes with the optimized statement's AST, so lits give
// literal slots by pointer identity for rebinding. Immutable after
// insertion.
type planEntry struct {
	template string
	sels     []uint64 // probe bits the plan was optimized with (Generic templates)
	bindings []datum.Datum
	lits     []*sql.Literal
	res      *optimizer.Result
	valid    validity
}

// planCache is the engine's statement cache, three sharded LRUs safe for
// concurrent statements:
//
//   - the statement-text tier: text → parsed AST + fingerprint;
//   - the template tier: fingerprint → template (the probe records);
//   - the plan tier: plan key → optimizer Result and its validity.
//
// A Generic template's plan key is its probes' selectivity bits, so
// every statement whose literals give those bits shares one plan,
// request tree and — in the tuner — one set of what-if terms; any other
// template's key is the template alone, served to its exact bindings.
type planCache struct {
	// bypass is set by the test hook BypassPlanCache.
	bypass bool

	stmts     [planShards]lru[string, *stmtEntry]
	templates [planShards]lru[uint64, *template]
	plans     [planShards]lru[uint64, *planEntry]

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
	for i := 0; i < planShards; i++ {
		pc.stmts[i].init()
		pc.templates[i].init()
		pc.plans[i].init()
	}
	return pc
}

// BypassPlanCache is a test hook: every later statement is parsed and
// optimized afresh, skipping all three tiers — the uncached reference
// the cache is checked against. Call it while no statement runs.
func (db *DB) BypassPlanCache() { db.pc.bypass = true }

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
// INSERTs are excluded: every insert changes the table size, so a hit
// could never validate — caching them only pollutes slots.
func cacheable(stmt sql.Statement) bool {
	switch stmt.(type) {
	case *sql.Select, *sql.Update, *sql.Delete:
		return true
	}
	return false
}

// parse returns a statement text's AST and fingerprint (nil when the
// plan tier does not cache the statement) through the statement-text
// tier; hit reports that the text was cached.
func (db *DB) parse(text string) (stmt sql.Statement, fp *sql.Fingerprint, hit bool, err error) {
	pc := db.pc
	if pc.bypass {
		stmt, err = sql.Parse(text)
		return stmt, nil, false, err
	}
	h := uint64(fnv1a.Init.Str(text))
	sh := &pc.stmts[h%planShards]
	if e, ok := sh.get(text); ok {
		pc.stmtHits.Inc()
		return e.stmt, e.fp, true, nil
	}
	if stmt, err = sql.Parse(text); err != nil {
		return nil, nil, false, err
	}
	if cacheable(stmt) {
		f := sql.FingerprintOf(stmt)
		fp = &f
	}
	sh.put(text, &stmtEntry{stmt: stmt, fp: fp}, stmtShardCap)
	return stmt, fp, false, nil
}

// planKey returns a statement's plan-tier key: for a Generic template
// the hash of the template and its probes' selectivity bits (returned as
// sels, appended to buf), otherwise the template hash. ok is false when
// the statistics moved while the probes read them.
func (db *DB) planKey(tp *template, fp *sql.Fingerprint, statsEpoch int64, buf []uint64) (key uint64, sels []uint64, ok bool) {
	if !tp.generic {
		return fp.Hash, nil, true
	}
	sels = db.Opt.Selectivities(tp.probes, fp.Bindings, buf)
	if db.Stats.Epoch() != statsEpoch {
		return 0, nil, false
	}
	h := fnv1a.Init.Uint64(fp.Hash)
	for _, s := range sels {
		h = h.Uint64(s)
	}
	return uint64(h), sels, true
}

// lookupPlan probes the plan tier. An entry under the key from an older
// configuration, statistics epoch or rule set is dropped (counted as an
// invalidation). A hit on the entry's own bindings returns a shallow
// copy of its Result flagged FromCache; other bindings of a Generic
// template get the plan rebound to their literals.
func (db *DB) lookupPlan(key uint64, tp *template, fp *sql.Fingerprint, sels []uint64, v validity) *optimizer.Result {
	pc := db.pc
	sh := &pc.plans[key%planShards]
	e, ok := sh.get(key)
	if !ok || e.template != fp.Template || !slices.Equal(e.sels, sels) {
		pc.misses.Inc() // absent, or a hash collision
		return nil
	}
	if e.valid.cfgVersion != v.cfgVersion || e.valid.statsEpoch != v.statsEpoch || e.valid.rules != v.rules {
		sh.drop(key, e)
		pc.invalidations.Inc()
		pc.misses.Inc()
		return nil
	}
	if e.valid.sizeSig != v.sizeSig {
		pc.misses.Inc()
		return nil
	}
	if bindingsEqual(e.bindings, fp.Bindings) {
		pc.hits.Inc()
		out := *e.res
		out.FromCache = true
		return &out
	}
	if tp.generic {
		if out, ok := db.Opt.Rebind(e.res, e.lits, fp.Bindings); ok {
			pc.rebindHits.Inc()
			return out
		}
	}
	pc.misses.Inc()
	return nil
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
//
// A served plan is the one a fresh optimization would return — the same
// plan shape, cost and rows bits, request tree and rule provenance — with
// the statement's own literals substituted in.
func (db *DB) optimizeMaybeCached(stmt sql.Statement, fpp **sql.Fingerprint) (*optimizer.Result, error) {
	pc := db.pc
	if pc.bypass || !cacheable(stmt) {
		return db.Opt.Optimize(stmt)
	}
	if *fpp == nil {
		f := sql.FingerprintOf(stmt)
		*fpp = &f
	}
	fp := *fpp
	v := validity{
		cfgVersion: db.Mgr.ConfigVersion(),
		statsEpoch: db.Stats.Epoch(),
		sizeSig:    db.sizeSigFor(stmt),
		rules:      db.Opt.Rules(),
	}
	var buf [8]uint64
	var key uint64
	var sels []uint64
	keyed := false
	tmpls := &pc.templates[fp.Hash%planShards]
	tp, _ := tmpls.get(fp.Hash)
	if tp != nil && tp.text != fp.Template {
		tp = nil // hash collision
	}
	if tp != nil {
		key, sels, keyed = db.planKey(tp, fp, v.statsEpoch, buf[:0])
	}
	if !keyed {
		pc.misses.Inc()
	} else if res := db.lookupPlan(key, tp, fp, sels, v); res != nil {
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
	if db.Mgr.ConfigVersion() != v.cfgVersion || db.Stats.Epoch() != v.statsEpoch || db.Opt.Rules() != v.rules {
		return res, nil
	}
	// The key computed before optimizing stands: the statistics epoch has
	// not moved since. Only a template this optimization created needs one.
	if tp == nil {
		tp = &template{text: fp.Template}
		tp.probes, tp.generic = optimizer.SlotProbes(res.Probes, fp.Lits)
		tp.generic = tp.generic && res.Generic
		tmpls.put(fp.Hash, tp, tmplShardCap)
		key, sels, keyed = db.planKey(tp, fp, v.statsEpoch, buf[:0])
	}
	if keyed {
		e := &planEntry{
			template: fp.Template,
			sels:     slices.Clone(sels),
			bindings: fp.Bindings,
			lits:     fp.Lits,
			res:      res,
			valid:    v,
		}
		if pc.plans[key%planShards].put(key, e, planShardCap) {
			pc.evictions.Inc()
		}
	}
	return res, nil
}

// provenanceOf names a result's plan-cache provenance: "fresh",
// "cached (exact)" or "cached (rebound)".
func provenanceOf(res *optimizer.Result) string {
	switch {
	case res.Rebound:
		return "cached (rebound)"
	case res.FromCache:
		return "cached (exact)"
	default:
		return "fresh"
	}
}

// cacheMarker renders the provenance line ExplainString and EXPLAIN
// prepend to plan output.
func cacheMarker(res *optimizer.Result) string { return "-- plan: " + provenanceOf(res) }

// ruleMarkers renders one "-- rule: <name>" provenance line per rewrite
// rule the optimizer applied to this plan, in canonical rule order.
func ruleMarkers(res *optimizer.Result) []string {
	out := make([]string, 0, len(res.RulesApplied))
	for _, name := range res.RulesApplied {
		out = append(out, "-- rule: "+name)
	}
	return out
}
