package executor

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/par"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/vec"
)

// ErrStaleIndex reports that a plan referenced an index that is no
// longer active — under concurrency the tuner may drop an index between
// a statement's optimization and its execution. The engine treats this
// as retryable: it re-optimizes under the current configuration.
var ErrStaleIndex = errors.New("index not active")

// Executor runs physical plans against a storage manager. Scans and
// CPU-heavy operators execute morsel-parallel on a bounded worker pool
// (see parallel.go); results are byte-identical to sequential execution
// at every worker setting.
type Executor struct {
	cat *catalog.Catalog
	mgr *storage.Manager
	// pool bounds intra-query parallelism; swapped atomically so the
	// engine can reconfigure while statements run (in-flight statements
	// keep the pool they resolved at start).
	pool atomic.Pointer[par.Pool]
	// Metric hooks (nil = no-op): morselsAdd counts morsels dispatched
	// to parallel regions, busyAdd tracks extra workers in flight. The
	// executor cannot import the metrics registry (the engine owns it),
	// so the engine injects adders.
	morselsAdd atomic.Pointer[func(int64)]
	busyAdd    atomic.Pointer[func(int64)]
	// reference runs the scalar row loop everywhere (see vecOn); fixed
	// at construction.
	reference bool
}

// New returns an executor with a worker pool sized to GOMAXPROCS. Each
// operator whose expressions compile to kernels vectorizes over inputs
// of at least vecMinRows units (see vecOn).
func New(cat *catalog.Catalog, mgr *storage.Manager) *Executor {
	e := &Executor{cat: cat, mgr: mgr}
	e.pool.Store(par.NewPool(0))
	return e
}

// NewReference returns the reference executor: it evaluates every
// predicate and expression with the scalar row loop, the test oracle
// New's results are byte-identical to.
func NewReference(cat *catalog.Catalog, mgr *storage.Manager) *Executor {
	e := New(cat, mgr)
	e.reference = true
	return e
}

// SetWorkers resizes the intra-query worker pool; n <= 0 selects
// GOMAXPROCS. Results are byte-identical at every setting.
func (e *Executor) SetWorkers(n int) { e.pool.Store(par.NewPool(n)) }

// SetPool installs an externally owned worker pool, letting the engine
// share one slot budget between the executor and other parallel
// consumers (index-build sorts).
func (e *Executor) SetPool(p *par.Pool) { e.pool.Store(p) }

// Workers returns the configured intra-query worker count.
func (e *Executor) Workers() int { return e.pool.Load().Workers() }

// SetParallelMetrics installs the engine's metric adders: morsels
// receives the morsel count of each parallel region, busy the delta of
// extra workers entering (+) and leaving (-) parallel regions.
func (e *Executor) SetParallelMetrics(morsels, busy func(int64)) {
	if morsels != nil {
		e.morselsAdd.Store(&morsels)
	}
	if busy != nil {
		e.busyAdd.Store(&busy)
	}
}

// ResultSet is the materialized output of a statement.
type ResultSet struct {
	Columns  []string
	Rows     []datum.Row
	Affected int // rows changed by DML
}

// Run executes a plan and returns its result set.
func (e *Executor) Run(p plan.Node) (*ResultSet, error) {
	return e.RunContext(context.Background(), p, nil)
}

// RunCollected executes a plan recording per-operator actuals (rows,
// scanned entries, page traffic, timings) into the collector — the
// execution side of EXPLAIN ANALYZE. A nil collector makes it
// equivalent to Run: the instrumentation reduces to a nil check.
func (e *Executor) RunCollected(p plan.Node, c *Collector) (*ResultSet, error) {
	return e.RunContext(context.Background(), p, c)
}

// ctxCheckEvery bounds how many rows an operator processes between
// context polls: cancellation and deadlines take effect mid-scan, not
// only at operator boundaries.
const ctxCheckEvery = 1024

// run is the per-execution state threaded through the operator tree:
// the caller's context, the storage layer's fault injector (resolved
// once per statement), and the row countdown to the next context poll.
// It embeds the shared Executor, so operator code reads e.cat/e.mgr
// unchanged.
type run struct {
	*Executor
	ctx       context.Context
	faults    *fault.Injector
	pool      *par.Pool
	countdown int
}

// metricMorsels / metricBusy feed the engine-injected metric adders;
// both are nil-safe no-ops when the engine has not wired metrics.
func (e *run) metricMorsels(n int64) {
	if f := e.morselsAdd.Load(); f != nil {
		(*f)(n)
	}
}

func (e *run) metricBusy(n int64) {
	if f := e.busyAdd.Load(); f != nil {
		(*f)(n)
	}
}

// tick is called once per scanned row; every ctxCheckEvery rows it
// polls the context so a cancelled statement stops promptly.
func (e *run) tick() error {
	e.countdown--
	if e.countdown > 0 {
		return nil
	}
	e.countdown = ctxCheckEvery
	return e.ctx.Err()
}

// RunContext executes a plan under a context: cancellation or deadline
// expiry aborts the statement between operators and (for scans) every
// ctxCheckEvery rows. Read operators consult the storage manager's
// fault injector (PageRead), so injected read failures surface here as
// statement errors with nothing to roll back.
func (e *Executor) RunContext(ctx context.Context, p plan.Node, c *Collector) (*ResultSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &run{Executor: e, ctx: ctx, faults: e.mgr.Faults(), pool: e.pool.Load(), countdown: ctxCheckEvery}
	switch n := p.(type) {
	case *plan.InsertNode:
		return r.timedDML(p, c, func() (*ResultSet, error) { return r.runInsert(n, c) })
	case *plan.UpdateNode:
		return r.timedDML(p, c, func() (*ResultSet, error) { return r.runUpdate(n, c) })
	case *plan.DeleteNode:
		return r.timedDML(p, c, func() (*ResultSet, error) { return r.runDelete(n, c) })
	}
	rows, err := r.exec(p, c)
	if err != nil {
		return nil, err
	}
	return &ResultSet{Columns: schemaColumns(p.Schema()), Rows: rows}, nil
}

// exec evaluates a read-only subtree outside a full statement run —
// unit tests and internal callers that hold a plan fragment rather
// than a statement root.
func (e *Executor) exec(p plan.Node, c *Collector) ([]datum.Row, error) {
	r := &run{Executor: e, ctx: context.Background(), faults: e.mgr.Faults(), pool: e.pool.Load(), countdown: ctxCheckEvery}
	return r.exec(p, c)
}

// timedDML wraps a DML root so its affected-row count and duration are
// collected like any other operator's.
func (e *run) timedDML(p plan.Node, c *Collector, run func() (*ResultSet, error)) (*ResultSet, error) {
	if c == nil {
		return run()
	}
	start := time.Now()
	rs, err := run()
	st := c.at(p)
	st.addDuration(time.Since(start))
	if rs != nil {
		st.addRows(int64(rs.Affected))
	}
	return rs, err
}

// exec evaluates a read-only operator subtree, recording actuals into
// the collector when one is attached.
func (e *run) exec(p plan.Node, c *Collector) ([]datum.Row, error) {
	return e.execInto(p, c, nil)
}

// execInto is exec with a row buffer an IndexSeek at p appends its rows
// to (see morselSource); every other operator ignores it.
func (e *run) execInto(p plan.Node, c *Collector, buf []datum.Row) ([]datum.Row, error) {
	if c == nil {
		return e.execNode(p, nil, buf)
	}
	start := time.Now()
	rows, err := e.execNode(p, c, buf)
	st := c.at(p)
	st.addDuration(time.Since(start))
	st.addRows(int64(len(rows)))
	return rows, err
}

func (e *run) execNode(p plan.Node, c *Collector, buf []datum.Row) ([]datum.Row, error) {
	switch n := p.(type) {
	case *plan.SeqScan:
		return e.seqScan(n, c, nil)
	case *plan.IndexScan:
		return e.indexScan(n, c, nil)
	case *plan.IndexSeek:
		return e.indexSeek(n, c, nil, buf)
	case *plan.IndexEndpoint:
		return e.indexEndpoint(n, c)
	case *plan.Filter:
		return e.filter(n, c)
	case *plan.Project:
		return e.project(n, c)
	case *plan.Sort:
		return e.sortNode(n, c)
	case *plan.Limit:
		return e.limit(n, c)
	case *plan.TopN:
		return e.topN(n, c)
	case *plan.Distinct:
		return e.distinct(n, c)
	case *plan.HashJoin:
		return e.hashJoin(n, c)
	case *plan.HashSemiJoin:
		return e.hashSemiJoin(n, c)
	case *plan.MergeJoin:
		return e.mergeJoin(n, c)
	case *plan.CrossJoin:
		return e.crossJoin(n, c)
	case *plan.INLJoin:
		return e.inlJoin(n, c)
	case *plan.HashAgg:
		return e.hashAgg(n, c)
	}
	return nil, fmt.Errorf("executor: unsupported node %T", p)
}

// ridSink receives the RID of every row a leaf operator outputs, in
// output order. SELECT plans pass nil; a DML node's Source passes a sink
// (see locate). A leaf feeding a sink evaluates row-at-a-time (the
// columnar emission drops RIDs) and runs its morsels in order on the
// calling goroutine, like a stopped scan, so RIDs append directly.
type ridSink = *[]storage.RID

// take appends rid when a sink is attached.
func take(sink ridSink, rid storage.RID) {
	if sink != nil {
		*sink = append(*sink, rid)
	}
}

// markEngine records an operator's resolved evaluation strategy for
// EXPLAIN ANALYZE provenance.
func markEngine(c *Collector, n plan.Node, vectorized bool) {
	if c != nil {
		c.at(n).setEngine(vectorized)
	}
}

func (e *run) indexScan(n *plan.IndexScan, c *Collector, rids ridSink) ([]datum.Row, error) {
	pi := e.mgr.Index(n.Index.ID())
	if pi == nil || pi.State() != storage.StateActive {
		return nil, fmt.Errorf("executor: index %s: %w", n.Index.Name, ErrStaleIndex)
	}
	ord, err := e.faults.HitOrd(fault.PageRead)
	if err != nil {
		return nil, fmt.Errorf("executor: scan of index %s: %w", n.Index.Name, err)
	}
	// Shards are leaf runs of the tree — a pure function of its contents,
	// so the morsel decomposition (and the fault keys below) are identical
	// at every worker count.
	shards := pi.Tree().Shards(vec.MorselRows)
	entries := 0
	for _, s := range shards {
		entries += s.N
	}
	vf, vok := compileVecFilter(n.Preds, n.Schema())
	useVec := vok && rids == nil && e.vecOn(entries)
	markEngine(c, n, useVec)
	var pred func(datum.Row) (bool, error)
	if !useVec {
		if pred, err = compilePreds(n.Preds, n.Schema()); err != nil {
			return nil, err
		}
	}
	var scanned atomic.Int64
	work := func(i int) (*datum.Batch, error) {
		if ferr := e.faults.HitKeyed(fault.PageRead, morselKey(ord, i)); ferr != nil {
			return nil, fmt.Errorf("executor: scan of index %s: %w", n.Index.Name, ferr)
		}
		b := datum.NewBatch(0)
		it := shards[i].It
		if useVec {
			w := getVecWork()
			rows := w.rows[:0]
			for k := 0; k < shards[i].N; k++ {
				rows = append(rows, it.Entry().Key)
				it.Next()
			}
			w.m.reset(rows)
			for _, k := range vf.vecApply(&w.s, &w.m) {
				b.Append(rows[k])
			}
			scanned.Add(int64(shards[i].N))
			w.rows = rows
			putVecWork(w)
			return b, nil
		}
		for k := 0; k < shards[i].N; k++ {
			ent := it.Entry()
			it.Next()
			ok, perr := pred(ent.Key)
			if perr != nil {
				return nil, perr
			}
			if ok {
				b.Append(ent.Key)
				take(rids, ent.RID)
			}
		}
		scanned.Add(int64(shards[i].N))
		return b, nil
	}
	visited := len(shards)
	var out []datum.Row
	if n.Stop > 0 || rids != nil {
		out, visited, err = e.runStopped(len(shards), n.Stop, work)
	} else {
		err = runMorsels(e, "indexscan "+n.Index.Name, len(shards), work,
			func(_ int, b *datum.Batch) error {
				out = append(out, b.Rows()...)
				return nil
			})
	}
	if c != nil {
		st := c.at(n)
		st.addScanned(scanned.Load())
		pages := pi.Pages() // a full scan reads the whole index
		if visited < len(shards) && len(shards) > 0 {
			pages = pages * int64(visited) / int64(len(shards))
		}
		st.addPages(pages)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// indexSeek appends the seek's rows to out, which may be nil.
func (e *run) indexSeek(n *plan.IndexSeek, c *Collector, rids ridSink, out []datum.Row) ([]datum.Row, error) {
	pi := e.mgr.Index(n.Index.ID())
	if pi == nil || pi.State() != storage.StateActive {
		return nil, fmt.Errorf("executor: index %s: %w", n.Index.Name, ErrStaleIndex)
	}
	if err := e.faults.Hit(fault.PageRead); err != nil {
		return nil, fmt.Errorf("executor: seek on index %s: %w", n.Index.Name, err)
	}
	// Point-lookup fast path: a seek touches few rows and is inherently
	// ordered, so it always stays row-at-a-time regardless of mode.
	markEngine(c, n, false)
	h := e.mgr.Heap(n.Index.Table)
	pred, err := compilePreds(n.Preds, n.Schema())
	if err != nil {
		return nil, err
	}
	// A comparison with NULL is never true, while the tree orders NULL
	// keys like any other value (first): a NULL bound selects nothing, and
	// a range with no lower bound starts at the prefix's NULL keys, which
	// the loop below skips.
	lo := append(datum.Row(nil), n.EqVals...)
	hi := append(datum.Row(nil), n.EqVals...)
	loInc, hiInc := true, true
	nullPos := -1 // position of the range column when its NULL keys are in the seek range
	if n.Lo != nil {
		lo = append(lo, *n.Lo)
		loInc = n.LoInc
	} else if n.Hi != nil {
		nullPos = len(lo)
		lo = append(lo, datum.Null)
	}
	if n.Hi != nil {
		hi = append(hi, *n.Hi)
		hiInc = n.HiInc
	}
	if slices.ContainsFunc(hi, datum.Datum.IsNull) || (n.Lo != nil && n.Lo.IsNull()) {
		return out, nil
	}
	it := pi.Tree().Seek(lo, loInc, hi, hiInc)
	base := len(out)
	var scanned, keyBytes, fetches int64
	for ; it.Valid(); it.Next() {
		ent := it.Entry()
		scanned++
		// Per-batch cancellation tick: a seek is inherently ordered, so it
		// stays sequential but polls the context every vec.MorselRows entries.
		if scanned%vec.MorselRows == 0 {
			if err := e.ctx.Err(); err != nil {
				return nil, err
			}
		}
		if c != nil {
			keyBytes += int64(ent.Key.Width())
		}
		if nullPos >= 0 && ent.Key[nullPos].IsNull() {
			continue
		}
		var row datum.Row
		if n.Fetch || n.Index.Primary {
			row = h.Get(ent.RID)
			if row == nil {
				return nil, fmt.Errorf("executor: dangling rid %d in index %s", ent.RID, n.Index.Name)
			}
			fetches++
		} else {
			row = ent.Key
		}
		ok, err := pred(row)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, row)
			take(rids, ent.RID)
			if n.Stop > 0 && int64(len(out)-base) >= n.Stop {
				break
			}
		}
	}
	if c != nil {
		// Key pages actually traversed, plus one random heap page per
		// fetched row — the cost model's random-I/O unit.
		st := c.at(n)
		st.addScanned(scanned)
		st.addPages(storage.PagesFor(keyBytes) + fetches)
	}
	return out, nil
}

func (e *run) filter(n *plan.Filter, c *Collector) ([]datum.Row, error) {
	in, err := e.exec(n.Child, c)
	if err != nil {
		return nil, err
	}
	vf, vok := compileVecFilter(n.Preds, n.Child.Schema())
	useVec := vok && e.vecOn(len(in))
	markEngine(c, n, useVec)
	var pred func(datum.Row) (bool, error)
	if !useVec {
		if pred, err = compilePreds(n.Preds, n.Child.Schema()); err != nil {
			return nil, err
		}
	}
	var out []datum.Row
	err = runMorsels(e, "filter", chunkBounds(len(in)),
		func(i int) (*datum.Batch, error) {
			b := datum.NewBatch(0)
			rows := chunkOf(in, i)
			if useVec {
				w := getVecWork()
				w.m.reset(rows)
				for _, k := range vf.vecApply(&w.s, &w.m) {
					b.Append(rows[k])
				}
				putVecWork(w)
				return b, nil
			}
			for _, r := range rows {
				ok, perr := pred(r)
				if perr != nil {
					return nil, perr
				}
				if ok {
					b.Append(r)
				}
			}
			return b, nil
		},
		func(_ int, b *datum.Batch) error {
			out = append(out, b.Rows()...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (e *run) project(n *plan.Project, c *Collector) ([]datum.Row, error) {
	fns := make([]evalFunc, len(n.Exprs))
	for i, ex := range n.Exprs {
		f, err := compile(ex, n.Child.Schema())
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	ves, vok := compileVecExprs(n.Exprs, n.Child.Schema())
	src, err := e.source(n.Child, c, vok, ves)
	if err != nil {
		return nil, err
	}
	useVec := vok && e.vecOn(src.units)
	markEngine(c, n, useVec)
	// A fused scan's output size is known only once every morsel is
	// filtered, so the batches are kept and out is sized from their sum.
	bs := make([]*datum.Batch, src.n)
	err = runMorsels(e, "project", src.n,
		func(i int) (*datum.Batch, error) {
			w := getVecWork()
			defer putVecWork(w)
			if err := src.load(i, w); err != nil {
				return nil, err
			}
			m := &w.m
			// Output rows are carved from the batch's arena slab instead of
			// one allocation per row.
			b := datum.NewBatch(m.n())
			if useVec {
				if projectVec(ves, b, m) {
					return b, nil
				}
				src.needRows(i, w)
			}
			// Scalar path, also the per-morsel kernel fallback (mixed-kind
			// columns, non-numeric arithmetic that must error in row order).
			for j := range m.n() {
				r := m.row(j)
				row := b.Alloc(len(fns))
				for k, f := range fns {
					v, ferr := f(r)
					if ferr != nil {
						return nil, ferr
					}
					row[k] = v
				}
			}
			return b, nil
		},
		func(i int, b *datum.Batch) error {
			bs[i] = b
			return nil
		})
	src.finish(c)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, b := range bs {
		total += b.Len()
	}
	out := make([]datum.Row, 0, total)
	for _, b := range bs {
		out = append(out, b.Rows()...)
	}
	return out, nil
}

func (e *run) sortNode(n *plan.Sort, c *Collector) ([]datum.Row, error) {
	in, err := e.exec(n.Child, c)
	if err != nil {
		return nil, err
	}
	// Sort merges are order-sensitive and stay row-at-a-time.
	markEngine(c, n, false)
	fns := make([]evalFunc, len(n.Keys))
	for i, k := range n.Keys {
		f, err := compile(k.Expr, n.Child.Schema())
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	type keyed struct {
		row  datum.Row
		keys datum.Row
	}
	// Key extraction is chunk-parallel: workers write disjoint index
	// ranges of ks, so no synchronization is needed beyond runMorsels'.
	ks := make([]keyed, len(in))
	err = runMorsels(e, "sort-keys", chunkBounds(len(in)),
		func(i int) (struct{}, error) {
			lo := i * vec.MorselRows
			for j, r := range chunkOf(in, i) {
				keys := make(datum.Row, len(fns))
				for k, f := range fns {
					v, ferr := f(r)
					if ferr != nil {
						return struct{}{}, ferr
					}
					keys[k] = v
				}
				ks[lo+j] = keyed{row: r, keys: keys}
			}
			return struct{}{}, nil
		},
		func(int, struct{}) error { return nil })
	if err != nil {
		return nil, err
	}
	// A stable sort's output is unique, so the parallel merge sort yields
	// exactly what sort.SliceStable did. Sort workers come out of the
	// statement pool's slot budget, like every other parallel region.
	par.SortStablePooled(e.pool, ks, func(a, b keyed) int {
		for j := range fns {
			c := a.keys[j].Compare(b.keys[j])
			if n.Keys[j].Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
	out := make([]datum.Row, len(ks))
	for i := range ks {
		out[i] = ks[i].row
	}
	return out, nil
}

func (e *run) limit(n *plan.Limit, c *Collector) ([]datum.Row, error) {
	in, err := e.exec(n.Child, c)
	if err != nil {
		return nil, err
	}
	if int64(len(in)) > n.N {
		in = in[:n.N]
	}
	return in, nil
}

func (e *run) distinct(n *plan.Distinct, c *Collector) ([]datum.Row, error) {
	in, err := e.exec(n.Child, c)
	if err != nil {
		return nil, err
	}
	// Dedup is first-occurrence-order-sensitive and stays row-at-a-time.
	markEngine(c, n, false)
	// Key rendering is the expensive part; parallelize it into disjoint
	// ranges, then dedup sequentially in input order (first occurrence
	// wins, as before).
	keys := make([]string, len(in))
	err = runMorsels(e, "distinct-keys", chunkBounds(len(in)),
		func(i int) (struct{}, error) {
			lo := i * vec.MorselRows
			for j, r := range chunkOf(in, i) {
				keys[lo+j] = rowKey(r)
			}
			return struct{}{}, nil
		},
		func(int, struct{}) error { return nil })
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []datum.Row
	for i, r := range in {
		if !seen[keys[i]] {
			seen[keys[i]] = true
			out = append(out, r)
		}
	}
	return out, nil
}

// rowKey builds a collision-free grouping key: each datum's AppendKey
// bytes (its String()) terminated by NUL. The vectorized key paths produce these exact
// bytes, so both engines group and join identically.
func rowKey(r datum.Row) string {
	buf := make([]byte, 0, 16*len(r))
	for _, d := range r {
		buf = d.AppendKey(buf)
		buf = append(buf, '\x00')
	}
	return string(buf)
}

func (e *run) hashJoin(n *plan.HashJoin, c *Collector) ([]datum.Row, error) {
	left, err := e.exec(n.Left, c)
	if err != nil {
		return nil, err
	}
	right, err := e.exec(n.Right, c)
	if err != nil {
		return nil, err
	}
	lf := make([]evalFunc, len(n.LeftKeys))
	rf := make([]evalFunc, len(n.RightKeys))
	for i := range n.LeftKeys {
		if lf[i], err = compile(n.LeftKeys[i], n.Left.Schema()); err != nil {
			return nil, err
		}
		if rf[i], err = compile(n.RightKeys[i], n.Right.Schema()); err != nil {
			return nil, err
		}
	}
	lves, lok := compileVecExprs(n.LeftKeys, n.Left.Schema())
	rves, rok := compileVecExprs(n.RightKeys, n.Right.Schema())
	useVec := lok && rok && e.vecOn(len(left)+len(right))
	markEngine(c, n, useVec)
	// Build side: key evaluation is chunk-parallel (columnar when the key
	// expressions compile to kernels); the map insert stays sequential in
	// input order, so per-bucket row order (and therefore output order)
	// matches the sequential executor.
	rkeys := make([]joinKey, len(right))
	err = runMorsels(e, "hashjoin-build", chunkBounds(len(right)),
		func(i int) (struct{}, error) {
			lo := i * vec.MorselRows
			rows := chunkOf(right, i)
			if useVec {
				w := getVecWork()
				ok := joinKeysVec(rves, rows, rkeys[lo:lo+len(rows)], &w.m)
				putVecWork(w)
				if ok {
					return struct{}{}, nil
				}
			}
			for j, r := range rows {
				k, null, kerr := keyOf(r, rf)
				if kerr != nil {
					return struct{}{}, kerr
				}
				rkeys[lo+j] = joinKey{k: k, null: null}
			}
			return struct{}{}, nil
		},
		func(int, struct{}) error { return nil })
	if err != nil {
		return nil, err
	}
	table := make(map[string][]datum.Row, len(right))
	for i, r := range right {
		if rkeys[i].null {
			continue
		}
		table[rkeys[i].k] = append(table[rkeys[i].k], r)
	}
	// Probe side: the table is read-only now; probe chunks of the left
	// input in parallel and concatenate in probe order. Key rendering is
	// columnar per morsel when possible, then matching walks row-wise.
	var out []datum.Row
	err = runMorsels(e, "hashjoin-probe", chunkBounds(len(left)),
		func(i int) (*datum.Batch, error) {
			b := datum.NewBatch(0)
			rows := chunkOf(left, i)
			var pkeys []joinKey
			if useVec {
				pkeys = make([]joinKey, len(rows))
				w := getVecWork()
				ok := joinKeysVec(lves, rows, pkeys, &w.m)
				putVecWork(w)
				if !ok {
					pkeys = nil // mixed kinds: scalar fallback for this morsel
				}
			}
			for j, l := range rows {
				var k string
				var null bool
				if pkeys != nil {
					k, null = pkeys[j].k, pkeys[j].null
				} else {
					var kerr error
					if k, null, kerr = keyOf(l, lf); kerr != nil {
						return nil, kerr
					}
				}
				if null {
					continue
				}
				for _, r := range table[k] {
					combined := b.Alloc(len(l) + len(r))
					copy(combined, l)
					copy(combined[len(l):], r)
				}
			}
			return b, nil
		},
		func(_ int, b *datum.Batch) error {
			out = append(out, b.Rows()...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func keyOf(r datum.Row, fns []evalFunc) (string, bool, error) {
	key := make(datum.Row, len(fns))
	for i, f := range fns {
		v, err := f(r)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", true, nil
		}
		key[i] = v
	}
	return rowKey(key), false, nil
}

// mergeJoin sorts both inputs by their join keys (defensively, even when
// the optimizer believes an input is pre-ordered) and merges them with
// group-wise matching so duplicate keys produce the full cross product
// of their groups. Rows with NULL keys never match, as in every join.
func (e *run) mergeJoin(n *plan.MergeJoin, c *Collector) ([]datum.Row, error) {
	left, err := e.exec(n.Left, c)
	if err != nil {
		return nil, err
	}
	right, err := e.exec(n.Right, c)
	if err != nil {
		return nil, err
	}
	lKeyed, err := e.sortByKeys(left, n.LeftKeys, n.Left.Schema())
	if err != nil {
		return nil, err
	}
	rKeyed, err := e.sortByKeys(right, n.RightKeys, n.Right.Schema())
	if err != nil {
		return nil, err
	}
	var out []datum.Row
	i, j := 0, 0
	for i < len(lKeyed) && j < len(rKeyed) {
		c := lKeyed[i].key.Compare(rKeyed[j].key)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Find both groups of equal keys and emit their product.
			iEnd := i + 1
			for iEnd < len(lKeyed) && lKeyed[iEnd].key.Compare(lKeyed[i].key) == 0 {
				iEnd++
			}
			jEnd := j + 1
			for jEnd < len(rKeyed) && rKeyed[jEnd].key.Compare(rKeyed[j].key) == 0 {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					combined := make(datum.Row, 0, len(lKeyed[a].row)+len(rKeyed[b].row))
					combined = append(combined, lKeyed[a].row...)
					combined = append(combined, rKeyed[b].row...)
					out = append(out, combined)
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return out, nil
}

type keyedRow struct {
	row datum.Row
	key datum.Row
}

// sortByKeys evaluates the join keys for each row, drops NULL-keyed rows
// (they can never match), and sorts by key. Key evaluation is chunk-
// parallel with in-order concatenation, and the sort is the parallel
// stable merge sort, so the result is identical to the sequential path.
func (e *run) sortByKeys(rows []datum.Row, keys []sql.Expr, schema []plan.ColRef) ([]keyedRow, error) {
	fns := make([]evalFunc, len(keys))
	for i, k := range keys {
		f, err := compile(k, schema)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	out := make([]keyedRow, 0, len(rows))
	err := runMorsels(e, "mergejoin-keys", chunkBounds(len(rows)),
		func(i int) ([]keyedRow, error) {
			chunk := chunkOf(rows, i)
			o := make([]keyedRow, 0, len(chunk))
			for _, r := range chunk {
				key := make(datum.Row, len(fns))
				null := false
				for k, f := range fns {
					v, ferr := f(r)
					if ferr != nil {
						return nil, ferr
					}
					if v.IsNull() {
						null = true
						break
					}
					key[k] = v
				}
				if null {
					continue
				}
				o = append(o, keyedRow{row: r, key: key})
			}
			return o, nil
		},
		func(_ int, o []keyedRow) error {
			out = append(out, o...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	par.SortStablePooled(e.pool, out, func(a, b keyedRow) int { return a.key.Compare(b.key) })
	return out, nil
}

func (e *run) crossJoin(n *plan.CrossJoin, c *Collector) ([]datum.Row, error) {
	left, err := e.exec(n.Left, c)
	if err != nil {
		return nil, err
	}
	right, err := e.exec(n.Right, c)
	if err != nil {
		return nil, err
	}
	var out []datum.Row
	err = runMorsels(e, "crossjoin", chunkBounds(len(left)),
		func(i int) (*datum.Batch, error) {
			b := datum.NewBatch(0)
			for _, l := range chunkOf(left, i) {
				for _, r := range right {
					combined := b.Alloc(len(l) + len(r))
					copy(combined, l)
					copy(combined[len(l):], r)
				}
			}
			return b, nil
		},
		func(_ int, b *datum.Batch) error {
			out = append(out, b.Rows()...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (e *run) inlJoin(n *plan.INLJoin, c *Collector) ([]datum.Row, error) {
	outer, err := e.exec(n.Outer, c)
	if err != nil {
		return nil, err
	}
	pi := e.mgr.Index(n.Index.ID())
	if pi == nil || pi.State() != storage.StateActive {
		return nil, fmt.Errorf("executor: index %s: %w", n.Index.Name, ErrStaleIndex)
	}
	ord, err := e.faults.HitOrd(fault.PageRead)
	if err != nil {
		return nil, fmt.Errorf("executor: lookup join on index %s: %w", n.Index.Name, err)
	}
	h := e.mgr.Heap(n.Index.Table)
	keyFns := make([]evalFunc, len(n.OuterKeys))
	for i, k := range n.OuterKeys {
		if keyFns[i], err = compile(k, n.Outer.Schema()); err != nil {
			return nil, err
		}
	}
	pred, err := compilePreds(n.Preds, n.Schema())
	if err != nil {
		return nil, err
	}
	fetch := n.Fetch || n.Index.Primary
	tree := pi.Tree()
	var scanned, keyBytes, fetches atomic.Int64
	var out []datum.Row
	err = runMorsels(e, "inljoin "+n.Index.Name, chunkBounds(len(outer)),
		func(i int) (*datum.Batch, error) {
			if ferr := e.faults.HitKeyed(fault.PageRead, morselKey(ord, i)); ferr != nil {
				return nil, fmt.Errorf("executor: lookup join on index %s: %w", n.Index.Name, ferr)
			}
			b := datum.NewBatch(0)
			var sc, kb, ft int64
			var scratch datum.Row
			for _, orow := range chunkOf(outer, i) {
				key := make(datum.Row, len(keyFns))
				null := false
				for k, f := range keyFns {
					v, ferr := f(orow)
					if ferr != nil {
						return nil, ferr
					}
					if v.IsNull() {
						null = true
						break
					}
					key[k] = v
				}
				if null {
					continue
				}
				for it := tree.Seek(key, true, key, true); it.Valid(); it.Next() {
					ent := it.Entry()
					sc++
					kb += int64(ent.Key.Width())
					var irow datum.Row
					if fetch {
						irow = h.Get(ent.RID)
						if irow == nil {
							return nil, fmt.Errorf("executor: dangling rid %d in index %s", ent.RID, n.Index.Name)
						}
						ft++
					} else {
						irow = ent.Key
					}
					// Assemble in a scratch row so a predicate miss does not
					// leave a dead row in the batch.
					scratch = append(scratch[:0], orow...)
					scratch = append(scratch, irow...)
					ok, perr := pred(scratch)
					if perr != nil {
						return nil, perr
					}
					if ok {
						combined := b.Alloc(len(scratch))
						copy(combined, scratch)
					}
				}
			}
			scanned.Add(sc)
			keyBytes.Add(kb)
			fetches.Add(ft)
			return b, nil
		},
		func(_ int, b *datum.Batch) error {
			out = append(out, b.Rows()...)
			return nil
		})
	if c != nil {
		st := c.at(n)
		st.addScanned(scanned.Load())
		st.addPages(storage.PagesFor(keyBytes.Load()) + fetches.Load())
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// aggFn is an aggregate's function, resolved once per statement.
type aggFn uint8

const (
	fnCountStar aggFn = iota // COUNT(*): rows
	fnCount                  // COUNT(arg): non-NULL values
	fnSum
	fnAvg
	fnMin
	fnMax
	fnFirst // the group's first value, NULL or not
)

// aggFns maps an aggregate's name to its function.
var aggFns = map[string]aggFn{
	"COUNT": fnCount, "SUM": fnSum, "AVG": fnAvg, "MIN": fnMin, "MAX": fnMax, "FIRST": fnFirst,
}

// aggFnOf resolves an aggregate's function.
func aggFnOf(a plan.AggSpec) (aggFn, error) {
	fn, ok := aggFns[a.Func]
	switch {
	case a.Star:
		return fnCountStar, nil
	case !ok:
		return 0, fmt.Errorf("executor: unknown aggregate %s", a.Func)
	}
	return fn, nil
}

// SUM's result kind is decided by a group's first non-NULL value and can
// only turn FLOAT after that: INT while every value is an INT, FLOAT from
// the first FLOAT, DATE or BOOL on, and FLOAT when the first is a VARCHAR.
// A leading NULL decides nothing, so the kind does not depend on where
// an access path puts the NULLs.
const (
	sumNone uint8 = iota
	sumInt
	sumFloat
)

// aggState accumulates one aggregate within one group; each function
// uses its own fields.
type aggState struct {
	count int64       // COUNT, SUM, AVG: values counted
	sum   float64     // SUM, AVG: every numeric value as float64, in input order
	sumI  int64       // SUM: the INT values
	val   datum.Datum // MIN, MAX, FIRST
	kind  uint8       // SUM: sumNone, sumInt or sumFloat
	has   bool        // FIRST: val is the group's first value
}

// add folds one value of any kind: the scalar path's fold, and the
// vectorized path's for a column that mixes kinds. Only MIN and MAX
// compare.
func (a *aggState) add(fn aggFn, v datum.Datum) {
	switch fn {
	case fnCountStar:
		a.count++
	case fnCount:
		if !v.IsNull() {
			a.count++
		}
	case fnFirst:
		if !a.has {
			a.val, a.has = v, true
		}
	case fnMin:
		if !v.IsNull() && (a.val.IsNull() || v.Compare(a.val) < 0) {
			a.val = v
		}
	case fnMax:
		if !v.IsNull() && (a.val.IsNull() || v.Compare(a.val) > 0) {
			a.val = v
		}
	default: // SUM, AVG
		switch v.Kind() {
		case datum.KNull:
		case datum.KInt:
			a.addInt(v.Int())
		case datum.KString: // counted, not summed
			a.count++
			if a.kind == sumNone {
				a.kind = sumFloat
			}
		default:
			a.addFloat(v.Float())
		}
	}
}

// addInt folds a non-NULL INT into SUM or AVG.
func (a *aggState) addInt(v int64) {
	a.count++
	a.sumI += v
	a.sum += float64(v)
	if a.kind == sumNone {
		a.kind = sumInt
	}
}

// addFloat folds a non-NULL FLOAT, DATE or BOOL, as float64, into SUM or AVG.
func (a *aggState) addFloat(v float64) {
	a.count++
	a.sum += v
	a.kind = sumFloat
}

func (a *aggState) result(fn aggFn) datum.Datum {
	switch fn {
	case fnCountStar, fnCount:
		return datum.NewInt(a.count)
	case fnSum:
		switch {
		case a.count == 0:
			return datum.Null
		case a.kind == sumInt:
			return datum.NewInt(a.sumI)
		}
		return datum.NewFloat(a.sum)
	case fnAvg:
		if a.count == 0 {
			return datum.Null
		}
		return datum.NewFloat(a.sum / float64(a.count))
	}
	return a.val // MIN, MAX, FIRST: NULL when no row gave a value
}

// fold folds one morsel's argument column c of an aggregate, row j into
// group rowG[j] (its state at st[rowG[j]*na]), in row order — the order
// the scalar path adds in, so float sums are bit-identical. COUNT over a
// uniform column reads its null mask, SUM and AVG over a uniform INT or
// FLOAT column its typed slice; MIN, MAX, FIRST and every other column go
// value by value through add. COUNT(*) reads no column.
func fold(fn aggFn, st []aggState, na int, rowG []int32, c *vec.Column) {
	typed := fn != fnCountStar && c.Uniform && (fn == fnCount || fn == fnSum || fn == fnAvg)
	nulls := typed && c.HasNulls
	switch {
	case fn == fnCountStar:
		for _, g := range rowG {
			st[int(g)*na].count++
		}
	case typed && fn == fnCount:
		for j, g := range rowG {
			if !nulls || !c.Nulls.Get(j) {
				st[int(g)*na].count++
			}
		}
	case typed && c.Kind == datum.KFloat:
		for j, g := range rowG {
			if !nulls || !c.Nulls.Get(j) {
				st[int(g)*na].addFloat(c.F[j])
			}
		}
	case typed && c.Kind == datum.KInt:
		for j, g := range rowG {
			if !nulls || !c.Nulls.Get(j) {
				st[int(g)*na].addInt(c.I[j])
			}
		}
	default: // also a VARCHAR, DATE or BOOL column, or one with no non-NULL value
		for j, g := range rowG {
			st[int(g)*na].add(fn, c.DatumAt(j))
		}
	}
}

func (e *run) hashAgg(n *plan.HashAgg, c *Collector) ([]datum.Row, error) {
	schema := n.Child.Schema()
	var err error
	groupFns := make([]evalFunc, len(n.GroupBy))
	for i, g := range n.GroupBy {
		if groupFns[i], err = compile(g, schema); err != nil {
			return nil, err
		}
	}
	na := len(n.Aggs)
	fns := make([]aggFn, na)
	argFns := make([]evalFunc, na)
	for i, a := range n.Aggs {
		if fns[i], err = aggFnOf(a); err != nil {
			return nil, err
		}
		if a.Star {
			continue
		}
		if argFns[i], err = compile(a.Arg, schema); err != nil {
			return nil, err
		}
	}
	groupVes, vok := compileVecExprs(n.GroupBy, schema)
	var argVes []vecExpr
	if vok {
		// COUNT(*) keeps a nil expression: it counts rows and reads no column.
		argVes = make([]vecExpr, na)
		for i, a := range n.Aggs {
			if a.Star {
				continue
			}
			ve, ok := compileVecExpr(a.Arg, schema)
			if !ok {
				vok = false
				break
			}
			argVes[i] = ve
		}
	}
	src, err := e.source(n.Child, c, vok, groupVes, argVes)
	if err != nil {
		return nil, err
	}
	useVec := vok && e.vecOn(src.units)
	markEngine(c, n, useVec)
	// eval is a morsel's pure per-row work: group ids and argument values,
	// columnar when the expressions compile to kernels, into w.agg.
	eval := func(i int, w *vecWork) error {
		if err := src.load(i, w); err != nil {
			return err
		}
		m, am := &w.m, &w.agg
		if useVec {
			am.reset(m.n())
			if hashAggEvalVec(groupVes, argVes, am, m) {
				return nil
			}
			src.needRows(i, w)
		}
		am.reset(m.n())
		am.vals = slices.Grow(am.vals[:0], m.n()*na)[:m.n()*na]
		for j := range m.n() {
			r := m.row(j)
			buf := am.buf[:0]
			for _, f := range groupFns {
				v, ferr := f(r)
				if ferr != nil {
					return ferr
				}
				buf = v.AppendKey(buf)
				buf = append(buf, '\x00')
			}
			am.buf = buf
			vals := am.vals[j*na : (j+1)*na]
			for k, f := range argFns {
				if f == nil { // COUNT(*)
					continue
				}
				v, ferr := f(r)
				if ferr != nil {
					return ferr
				}
				vals[k] = v
			}
			am.gid[j] = am.groupID(buf)
		}
		return nil
	}
	// Parallel partial aggregation, split at the only safe seam: workers
	// evaluate disjoint morsels and hand back morsel-local group ids with
	// the arguments; the coordinator maps each morsel's keys to global
	// groups and folds its rows into them sequentially in the original
	// input order, one aggregate at a time. Folding in input order keeps
	// float accumulation (SUM/AVG) and group first-appearance order
	// bit-identical to the sequential executor. A morsel's vecWork — its
	// columns and buffers — is held until its fold and then pooled again.
	gids := map[string]int32{} // group key -> id, ids in first-appearance order
	var states []aggState      // na per group, group-major
	err = runMorsels(e, "hashagg-eval", src.n,
		func(i int) (*vecWork, error) {
			w := getVecWork()
			if err := eval(i, w); err != nil {
				putVecWork(w)
				return nil, err
			}
			return w, nil
		},
		func(_ int, w *vecWork) error {
			defer putVecWork(w)
			am := &w.agg
			// Map the morsel's key ids to global ids, then each row's id
			// in place: rowG[j] is row j's group.
			local := am.local[:0]
			for _, k := range am.keys {
				g, ok := gids[k]
				if !ok {
					g = int32(len(gids))
					gids[k] = g
					states = append(states, make([]aggState, na)...)
				}
				local = append(local, g)
			}
			am.local = local
			rowG := am.gid
			if len(rowG) == 0 {
				return nil
			}
			for j, id := range rowG {
				rowG[j] = local[id]
			}
			for k, fn := range fns {
				st := states[k:]
				if am.vec {
					fold(fn, st, na, rowG, am.cols[k])
					continue
				}
				for j, g := range rowG {
					st[int(g)*na].add(fn, am.vals[j*na+k])
				}
			}
			return nil
		})
	src.finish(c)
	if err != nil {
		return nil, err
	}
	// A global aggregate over zero rows still yields one row.
	if len(gids) == 0 && len(n.GroupBy) == 0 {
		row := make(datum.Row, na)
		var empty aggState
		for i, fn := range fns {
			row[i] = empty.result(fn)
		}
		return []datum.Row{row}, nil
	}
	b := datum.NewBatch(len(gids))
	for g := range len(gids) {
		row := b.Alloc(na)
		for i, fn := range fns {
			row[i] = states[g*na+i].result(fn)
		}
	}
	return b.Rows(), nil
}

// aggMorsel is one morsel after the aggregate eval stage: each row's
// morsel-local group id, the morsel's distinct rendered group keys in
// first-appearance order (gid indexes keys; a key string is made once per
// group per morsel, not once per row), and the rows' aggregate arguments:
// one column per aggregate on the vectorized path, a rows × aggs slab of
// datums on the scalar path. It lives in its morsel's vecWork, so its
// buffers are reused from morsel to morsel and statement to statement.
type aggMorsel struct {
	gid   []int32
	keys  []string
	ids   map[string]int32 // key -> id, holding every key once there are two
	local []int32          // the coordinator's key id -> global group id
	gcols []*vec.Column    // vectorized: the group key columns
	cols  []*vec.Column    // vectorized: each aggregate's argument (nil for COUNT(*))
	vals  []datum.Datum    // scalar: row j's arguments from j*aggs
	buf   []byte           // a key being rendered
	vec   bool             // cols holds the arguments
}

// reset readies am for a morsel of n rows.
func (am *aggMorsel) reset(n int) {
	am.gid = slices.Grow(am.gid[:0], n)[:n]
	am.keys = am.keys[:0]
	clear(am.ids)
	am.vec = false
}

// release drops the morsel's references to keys, values and columns, so a
// pooled vecWork keeps no table alive.
func (am *aggMorsel) release() {
	clear(am.keys)
	clear(am.ids)
	clear(am.gcols)
	clear(am.cols)
	clear(am.vals)
	am.keys, am.gcols, am.cols, am.vals = am.keys[:0], am.gcols[:0], am.cols[:0], am.vals[:0]
}

// groupID returns the morsel-local id of the rendered key in buf. The
// lookup converts buf without allocating; the key string is allocated
// only the first time this morsel sees it. The map is filled only when a
// second key shows up, so a global aggregate's morsel never uses one.
func (am *aggMorsel) groupID(buf []byte) int32 {
	switch len(am.keys) {
	case 0:
	case 1:
		if am.keys[0] == string(buf) {
			return 0
		}
		am.index()
	default:
		if id, ok := am.ids[string(buf)]; ok {
			return id
		}
	}
	id := int32(len(am.keys))
	k := string(buf)
	if id > 0 {
		am.ids[k] = id
	}
	am.keys = append(am.keys, k)
	return id
}

// index enters every key so far into the key map.
func (am *aggMorsel) index() {
	if am.ids == nil {
		am.ids = map[string]int32{}
	}
	for i, k := range am.keys {
		am.ids[k] = int32(i)
	}
}

func (e *run) runInsert(n *plan.InsertNode, c *Collector) (*ResultSet, error) {
	rows := n.Literals
	if n.Source != nil {
		src, err := e.exec(n.Source, c)
		if err != nil {
			return nil, err
		}
		rows = src
	}
	t := e.cat.Table(n.Table)
	if t == nil {
		return nil, fmt.Errorf("executor: unknown table %s", n.Table)
	}
	err := e.statement(n.Table, len(rows), func(i int) error {
		if len(rows[i]) != len(t.Columns) {
			return fmt.Errorf("executor: INSERT arity %d != %d for %s", len(rows[i]), len(t.Columns), n.Table)
		}
		_, _, err := e.mgr.Insert(n.Table, rows[i].Clone())
		return err
	})
	if err != nil {
		return nil, err
	}
	return &ResultSet{Affected: len(rows)}, nil
}

// statement applies n row operations to table as one storage statement
// frame: a failure on any row (injected write fault, evaluation error,
// cancellation) aborts the frame, and the frame commits only after every
// row applied — a failed statement changes nothing, an acknowledged one
// is durable. How the applied rows are rolled back is storage's business.
func (e *run) statement(table string, n int, apply func(i int) error) error {
	e.mgr.BeginStmt(table)
	for i := 0; i < n; i++ {
		err := apply(i)
		if err == nil {
			err = e.tick()
		}
		if err != nil {
			e.mgr.AbortStmt(table)
			return err
		}
	}
	return e.mgr.CommitStmt(table)
}

// located is one row a DML statement is about to mutate.
type located struct {
	rid storage.RID
	row datum.Row
}

// locate runs a DML node's Source — the select shell, executed with the
// access path it was costed with — and returns the full heap rows it
// selects with their RIDs. Collecting every match before the first
// mutation is what makes a SET on the seek column safe, and everything
// that can fail on the read side (a stale index, an injected page-read
// fault, a predicate error, cancellation) fails here, before the
// statement has begun: nothing to roll back, nothing logged.
func (e *run) locate(table string, src plan.Node, c *Collector) ([]located, error) {
	h := e.mgr.Heap(table)
	if h == nil {
		return nil, fmt.Errorf("executor: table %s not materialized", table)
	}
	var (
		rows     []datum.Row
		rids     []storage.RID
		err      error
		fullRows = true
	)
	start := time.Now()
	switch n := src.(type) {
	case *plan.SeqScan:
		rows, err = e.seqScan(n, c, &rids)
	case *plan.IndexSeek:
		fullRows = n.Fetch || n.Index.Primary
		rows, err = e.indexSeek(n, c, &rids, nil)
	case *plan.IndexScan:
		fullRows = false
		rows, err = e.indexScan(n, c, &rids)
	default:
		return nil, fmt.Errorf("executor: %T cannot locate rows of %s", src, table)
	}
	if c != nil {
		st := c.at(src)
		st.addDuration(time.Since(start))
		st.addRows(int64(len(rows)))
	}
	if err != nil {
		return nil, err
	}
	if len(rows) != len(rids) {
		// A Stop-limited leaf truncates its rows but not the sink.
		return nil, fmt.Errorf("executor: %s yielded %d rows for %d rids", src.Label(), len(rows), len(rids))
	}
	out := make([]located, len(rids))
	for i, rid := range rids {
		row := rows[i]
		if !fullRows {
			// A covering access yields index keys; the update shell reads
			// the heap row it is about to rewrite.
			if row = h.Get(rid); row == nil {
				return nil, fmt.Errorf("executor: dangling rid %d under %s", rid, src.Label())
			}
		}
		out[i] = located{rid: rid, row: row}
	}
	// Mutations apply in RID order whatever order the Source produced, so
	// the WAL records and the free-slot reuse of a statement — and with
	// them the heap every later statement sees — do not depend on the
	// physical design.
	slices.SortFunc(out, func(a, b located) int { return cmp.Compare(a.rid, b.rid) })
	return out, nil
}

func (e *run) runUpdate(n *plan.UpdateNode, c *Collector) (*ResultSet, error) {
	t := e.cat.Table(n.Table)
	if t == nil {
		return nil, fmt.Errorf("executor: unknown table %s", n.Table)
	}
	schema := plan.TableSchema(t, "")
	setFns := make([]evalFunc, len(n.Set))
	setOrds := make([]int, len(n.Set))
	for i, a := range n.Set {
		ord := t.ColumnIndex(a.Column)
		if ord < 0 {
			return nil, fmt.Errorf("executor: unknown column %s", a.Column)
		}
		setOrds[i] = ord
		var err error
		if setFns[i], err = compile(a.Value, schema); err != nil {
			return nil, err
		}
	}
	matches, err := e.locate(n.Table, n.Source, c)
	if err != nil {
		return nil, err
	}
	err = e.statement(n.Table, len(matches), func(i int) error {
		mt := matches[i]
		newRow := mt.row.Clone()
		for k, f := range setFns {
			v, err := f(mt.row)
			if err != nil {
				return err
			}
			newRow[setOrds[k]] = v
		}
		_, err := e.mgr.Update(n.Table, mt.rid, newRow)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &ResultSet{Affected: len(matches)}, nil
}

func (e *run) runDelete(n *plan.DeleteNode, c *Collector) (*ResultSet, error) {
	if e.cat.Table(n.Table) == nil {
		return nil, fmt.Errorf("executor: unknown table %s", n.Table)
	}
	targets, err := e.locate(n.Table, n.Source, c)
	if err != nil {
		return nil, err
	}
	err = e.statement(n.Table, len(targets), func(i int) error {
		_, err := e.mgr.Delete(n.Table, targets[i].rid)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &ResultSet{Affected: len(targets)}, nil
}
