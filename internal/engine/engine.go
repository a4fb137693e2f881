// Package engine is the database facade: it wires the SQL front end, the
// catalog, statistics, storage, optimizer and executor into a single DB
// handle, and exposes the hook point the online tuner attaches to. One
// Exec call is one "query arrival" in the paper's model: the statement is
// optimized (capturing its AND/OR request tree), executed, and reported
// to the observer.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/executor"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/obs"
	"onlinetuner/internal/optimizer"
	"onlinetuner/internal/par"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/stats"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/wal"
	"onlinetuner/internal/whatif"
)

// QueryInfo describes one optimized statement: executed under Exec, and
// under Cost executed unless it is a SELECT.
type QueryInfo struct {
	SQL    string
	Stmt   sql.Statement
	Result *optimizer.Result // nil for DDL
	// EstCost is the optimizer's estimated cost of the chosen plan under
	// the configuration it was planned in — the c_i^{s_i} of the paper's
	// cost model.
	EstCost float64
}

// Observer is notified after every non-DDL statement, executed by Exec
// or costed by Cost. The online tuner implements this.
type Observer interface {
	OnExecuted(info *QueryInfo)
}

// DB is an open database instance.
//
// Concurrency model: any number of goroutines may call Exec/Cost
// concurrently. Each statement takes per-table reader-writer locks (see
// tableLocks) for its optimize→execute→observe span: reads share,
// writes to the same table serialize, and disjoint tables never
// contend. The observer (the online tuner) runs inside the statement's
// critical section, so it sees executions over any one table in a
// serial order; in durable mode the wait for the disk follows the unlock
// (DB.locked). Physical changes the tuner makes (index creation in the
// background, drops) synchronize below the statement layer, inside
// storage; a statement whose plan loses its index mid-flight is
// transparently re-optimized (see executor.ErrStaleIndex).
type DB struct {
	Cat   *catalog.Catalog
	Mgr   *storage.Manager
	Stats *stats.Store
	Env   *whatif.Env
	Opt   *optimizer.Optimizer
	Exe   *executor.Executor

	locks *tableLocks
	pc    *planCache
	ob    *obs.Obs

	// Always-on pipeline counters; single atomic adds on the hot path.
	statements       *obs.Counter
	execErrors       *obs.Counter
	staleRetries     *obs.Counter
	transientRetries *obs.Counter

	// retryBackoffNS is the base delay before re-running a statement that
	// failed with a transient fault; it doubles per attempt. Atomic so
	// tests can shrink it while statements are in flight.
	retryBackoffNS atomic.Int64

	// Timed metrics, recorded only for traced statements: the extra
	// clock reads they need already happened for the trace's spans.
	execLatency   *obs.Histogram
	lockWaitNS    *obs.Counter
	durableWaitNS *obs.Counter

	// Durable-mode state (see durable.go); zero for in-memory databases.
	wal      *wal.Writer
	walDir   string
	ckptMu   sync.Mutex
	recovery *RecoveryInfo

	obsMu    sync.RWMutex
	observer Observer
}

// Config carries engine construction options.
type Config struct {
	// ExecWorkers bounds intra-query parallelism: morsel-driven scans,
	// joins, aggregation and sorts use up to this many workers per
	// statement. Zero (or negative) selects GOMAXPROCS. Results are
	// byte-identical at every setting; only wall-clock time changes.
	ExecWorkers int

	// ExecEngine "row" builds the reference executor, which evaluates
	// everything with the scalar row loop (executor.NewReference); it
	// is the oracle's setting. Every other value gives the default
	// executor, which vectorizes an operator when its expressions
	// compile to kernels and its input is large enough. Results are
	// byte-identical either way.
	ExecEngine string

	// Rules selects the optimizer's cost-based rewrite rules: "all"
	// (default, also the empty string) or "none". Every rule is
	// result-preserving; toggling changes plan shape and cost, never
	// statement output. Invalid values fall back to "all".
	Rules string

	// Dir is the durable directory holding WAL segments and checkpoint
	// snapshots. Used by OpenDurable (which recovers an existing
	// directory); ignored by OpenConfig.
	Dir string
	// Sync selects the WAL fsync policy (default wal.SyncGroup).
	Sync wal.SyncPolicy
}

// Open creates an empty database with default configuration.
func Open() *DB { return OpenConfig(Config{}) }

// OpenConfig creates an empty database with the given configuration.
func OpenConfig(cfg Config) *DB {
	cat := catalog.New()
	mgr := storage.NewManager(cat)
	st := stats.NewStore()
	env := whatif.NewEnv(cat, st, mgr)
	ob := obs.New()
	mgr.SetColumnMetrics(ob.Reg)
	newExecutor := executor.New
	if cfg.ExecEngine == "row" {
		newExecutor = executor.NewReference
	}
	db := &DB{
		Cat:              cat,
		Mgr:              mgr,
		Stats:            st,
		Env:              env,
		Opt:              optimizer.New(env),
		Exe:              newExecutor(cat, mgr),
		locks:            newTableLocks(),
		pc:               newPlanCache(ob.Reg),
		ob:               ob,
		statements:       ob.Reg.Counter("engine.statements"),
		execErrors:       ob.Reg.Counter("engine.errors"),
		staleRetries:     ob.Reg.Counter("engine.stale_retries"),
		transientRetries: ob.Reg.Counter("engine.transient_retries"),
		execLatency:      ob.Reg.Histogram("engine.exec_ns", obs.DefaultLatencyBuckets),
		lockWaitNS:       ob.Reg.Counter("engine.lock_wait_ns"),
		durableWaitNS:    ob.Reg.Counter("engine.durable_wait_ns"),
	}
	db.retryBackoffNS.Store(int64(50 * time.Microsecond))
	morsels := ob.Reg.Counter("engine.exec_parallel_morsels")
	busy := ob.Reg.Gauge("engine.exec_workers_busy")
	db.Exe.SetParallelMetrics(morsels.Add, busy.Add)
	db.SetExecWorkers(cfg.ExecWorkers)
	if r, err := optimizer.ParseRules(cfg.Rules); err == nil {
		db.Opt.SetRules(r)
	}
	return db
}

// SetExecWorkers reconfigures intra-query parallelism at runtime; n <= 0
// selects GOMAXPROCS. Executor morsel regions and index-build sorts draw
// slots from the one pool installed here, so concurrent statements and
// background builds together never exceed the configured budget.
// In-flight statements finish on the pool they started with.
func (db *DB) SetExecWorkers(n int) {
	p := par.NewPool(n)
	db.Exe.SetPool(p)
	db.Mgr.SetPool(p)
}

// ExecWorkers returns the current intra-query worker budget.
func (db *DB) ExecWorkers() int { return db.Exe.Workers() }

// SetFaults installs a fault injector on the storage layer; the engine,
// executor and WAL writer consult the same injector. Pass nil to remove
// it.
func (db *DB) SetFaults(inj *fault.Injector) {
	db.Mgr.SetFaults(inj)
	if db.wal != nil {
		db.wal.SetFaults(inj)
	}
}

// Faults returns the installed fault injector, or nil.
func (db *DB) Faults() *fault.Injector { return db.Mgr.Faults() }

// SetRetryBackoff sets the base delay before retrying a statement that
// hit a transient fault (the delay doubles per attempt).
func (db *DB) SetRetryBackoff(d time.Duration) { db.retryBackoffNS.Store(int64(d)) }

// retryWait sleeps the transient-retry backoff for the given attempt,
// abandoning the wait as soon as the context is cancelled.
func (db *DB) retryWait(ctx context.Context, attempt int) error {
	d := time.Duration(db.retryBackoffNS.Load()) << attempt
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Observability exposes the engine's metrics registry and statement
// tracer.
func (db *DB) Observability() *obs.Obs { return db.ob }

// SetObserver installs the post-execution observer (the online tuner).
func (db *DB) SetObserver(o Observer) {
	db.obsMu.Lock()
	defer db.obsMu.Unlock()
	db.observer = o
}

func (db *DB) getObserver() Observer {
	db.obsMu.RLock()
	defer db.obsMu.RUnlock()
	return db.observer
}

// Exec parses, plans and runs one statement. Repeated texts skip the
// parser and fingerprinter through the statement-text cache tier: the
// AST and fingerprint are immutable after construction, so they are
// shared read-only across executions.
func (db *DB) Exec(text string) (*executor.ResultSet, *QueryInfo, error) {
	return db.ExecContext(context.Background(), text)
}

// ExecContext is Exec accepting a context. A trace attached with
// obs.WithTrace records the statement's pipeline spans into the
// caller's trace; otherwise the engine's sampler decides whether this
// statement is traced into the ring.
func (db *DB) ExecContext(ctx context.Context, text string) (*executor.ResultSet, *QueryInfo, error) {
	return db.execText(ctx, text, true)
}

// Cost is Exec for callers that need a SELECT's estimated cost, not its
// rows: a SELECT is parsed, locked, optimized through the plan cache,
// passed through the fault.ExecStmt site and shown to the observer
// exactly as Exec does, but its operator tree never runs, so it reads
// no page. Every other statement executes as under Exec, because it
// changes state, sizes and statistics.
func (db *DB) Cost(text string) (*QueryInfo, error) {
	_, info, err := db.execText(context.Background(), text, false)
	return info, err
}

// execText parses text and runs it; run false is Cost.
func (db *DB) execText(ctx context.Context, text string, run bool) (*executor.ResultSet, *QueryInfo, error) {
	tr, owned := db.startTrace(ctx, text)
	if owned {
		defer db.ob.FinishTrace(tr)
	}
	var parseSpan obs.SpanRef
	if tr != nil {
		parseSpan = tr.Phase("parse")
	}
	stmt, fp, hit, err := db.parse(text)
	if err != nil {
		db.noteErr(tr, err)
		return nil, nil, err
	}
	if hit && tr != nil {
		parseSpan.SetAttr("stmt-cache hit")
	}
	return db.execStmtFP(ctx, text, stmt, fp, tr, run)
}

// startTrace resolves the statement's trace: a context-carried trace
// belongs to the caller; otherwise the sampler may start one the engine
// owns (and must finish into the ring).
func (db *DB) startTrace(ctx context.Context, text string) (tr *obs.Trace, owned bool) {
	if t := obs.FromContext(ctx); t != nil {
		return t, false
	}
	t := db.ob.StartStatementTrace(text)
	return t, t != nil
}

// noteErr records a statement failure on the counters and the trace.
func (db *DB) noteErr(tr *obs.Trace, err error) {
	db.execErrors.Inc()
	if tr != nil && err != nil {
		tr.Err = err.Error()
	}
}

func (db *DB) execStmtFP(ctx context.Context, text string, stmt sql.Statement, fp *sql.Fingerprint, tr *obs.Trace, run bool) (*executor.ResultSet, *QueryInfo, error) {
	if err := ctx.Err(); err != nil {
		db.noteErr(tr, err)
		return nil, nil, err
	}
	reads, writes := db.lockTablesFor(stmt)
	var rs *executor.ResultSet
	var info *QueryInfo
	var err error
	werr := db.locked(tr, reads, writes, func() {
		rs, info, err = db.execLocked(ctx, text, stmt, fp, tr, run)
	})
	if err == nil && werr != nil {
		return nil, nil, werr
	}
	return rs, info, err
}

// execLocked runs one statement inside its lock span. With run false a
// SELECT stops after the fault.ExecStmt site: it is costed and observed
// but not executed (see Cost).
func (db *DB) execLocked(ctx context.Context, text string, stmt sql.Statement, fp *sql.Fingerprint, tr *obs.Trace, run bool) (*executor.ResultSet, *QueryInfo, error) {
	db.statements.Inc()
	var start time.Time
	if tr != nil {
		start = time.Now()
		defer func() { db.execLatency.Observe(float64(time.Since(start).Nanoseconds())) }()
	}
	switch s := stmt.(type) {
	case *sql.CreateTable:
		return db.execCreateTable(s)
	case *sql.CreateIndex:
		return db.execCreateIndex(s)
	case *sql.DropIndex:
		return db.execDropIndex(s)
	case *sql.Explain:
		return db.execExplain(s)
	}
	// The tuner may drop an index between our optimization and execution
	// (it runs inside OTHER statements' critical sections, over other
	// tables). Plans are stale-checked by the executor; on a stale plan
	// we re-optimize under the current configuration. Two retries bound
	// the loop — each retry needs a fresh drop of a freshly chosen
	// index, which the tuner's cooldown makes vanishingly rare.
	//
	// The same bounded loop retries transient injected faults — the
	// model for recoverable I/O hiccups — after an exponential backoff.
	// Permanent faults and real errors return immediately; the executor
	// guarantees a failed attempt left no partial mutations, so a retry
	// re-runs the statement from scratch.
	const maxAttempts = 3
	_, query := stmt.(*sql.Select) // the one statement Cost leaves unexecuted
	var rs *executor.ResultSet
	var res *optimizer.Result
	var err error
	var execSpan obs.SpanRef
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			db.noteErr(tr, cerr)
			return nil, nil, cerr
		}
		// A retry after ErrStaleIndex revalidates naturally: the drop that
		// invalidated the plan bumped the config version, so the cache
		// probe misses and the statement is optimized fresh.
		var optSpan obs.SpanRef
		if tr != nil {
			optSpan = tr.Phase("optimize")
		}
		res, err = db.optimizeMaybeCached(stmt, &fp)
		if err != nil {
			db.noteErr(tr, err)
			return nil, nil, err
		}
		if tr != nil {
			tr.Provenance = provenanceOf(res)
			tr.Requests = len(res.Requests())
			optSpan.SetAttr(tr.Provenance)
			execSpan = tr.Phase("execute")
		}
		// The statement-level injection site sits between planning and
		// execution, where a real engine would submit the plan for
		// execution and could be told "try again".
		if err = db.Mgr.Faults().Hit(fault.ExecStmt); err == nil && (run || !query) {
			execCtx := ctx
			if tr != nil {
				// Carry the trace into the executor so parallel regions can
				// attach their exec.parallel / exec.worker spans.
				execCtx = obs.WithTrace(ctx, tr)
			}
			rs, err = db.Exe.RunContext(execCtx, res.Plan, nil)
		}
		if err == nil {
			break
		}
		switch {
		case errors.Is(err, executor.ErrStaleIndex) && attempt < maxAttempts-1:
			db.staleRetries.Inc()
		case fault.IsTransient(err) && attempt < maxAttempts-1:
			db.transientRetries.Inc()
			if werr := db.retryWait(ctx, attempt); werr != nil {
				db.noteErr(tr, werr)
				return nil, nil, werr
			}
		default:
			db.noteErr(tr, err)
			return nil, nil, err
		}
	}
	if err != nil {
		db.noteErr(tr, err)
		return nil, nil, err
	}
	if tr != nil && rs != nil {
		execSpan.SetRows(int64(len(rs.Rows)) + int64(rs.Affected))
	}
	info := &QueryInfo{SQL: text, Stmt: stmt, Result: res, EstCost: res.Cost}
	if o := db.getObserver(); o != nil {
		if tr != nil {
			tr.Phase("observe")
		}
		o.OnExecuted(info)
	}
	if tr != nil {
		tr.EndPhase()
	}
	return rs, info, nil
}

// MustExec runs a statement and panics on error; for tests and examples.
func (db *DB) MustExec(text string) *executor.ResultSet {
	rs, _, err := db.Exec(text)
	if err != nil {
		panic(fmt.Sprintf("engine: %s: %v", text, err))
	}
	return rs
}

// Query is Exec for read statements, returning only the result set.
func (db *DB) Query(text string) (*executor.ResultSet, error) {
	rs, _, err := db.Exec(text)
	return rs, err
}

func (db *DB) execCreateTable(s *sql.CreateTable) (*executor.ResultSet, *QueryInfo, error) {
	cols := make([]catalog.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = catalog.Column{Name: c.Name, Kind: c.Kind}
	}
	t, err := catalog.NewTable(s.Table, cols, s.PrimaryKey)
	if err != nil {
		return nil, nil, err
	}
	if err := db.Cat.AddTable(t); err != nil {
		return nil, nil, err
	}
	if err := db.Mgr.CreateTable(s.Table); err != nil {
		return nil, nil, err
	}
	return &executor.ResultSet{}, &QueryInfo{SQL: s.String(), Stmt: s}, nil
}

func (db *DB) execCreateIndex(s *sql.CreateIndex) (*executor.ResultSet, *QueryInfo, error) {
	ix := (&catalog.Index{Name: s.Name, Table: s.Table, Columns: s.Columns}).Canonicalize()
	if err := db.CreateIndex(ix); err != nil {
		return nil, nil, err
	}
	return &executor.ResultSet{}, &QueryInfo{SQL: s.String(), Stmt: s}, nil
}

func (db *DB) execDropIndex(s *sql.DropIndex) (*executor.ResultSet, *QueryInfo, error) {
	ix := db.Cat.Index(s.Name)
	if ix == nil {
		return nil, nil, fmt.Errorf("engine: index %s does not exist", s.Name)
	}
	if err := db.DropIndex(ix); err != nil {
		return nil, nil, err
	}
	return &executor.ResultSet{}, &QueryInfo{SQL: s.String(), Stmt: s}, nil
}

// execExplain optimizes the wrapped statement and returns its rendered
// plan as a single-column result set, without executing it. EXPLAIN is
// not observed by the tuner: it does not represent workload. It goes
// through the plan cache like an execution would, and its first output
// row marks the plan's provenance (fresh / cached exact / cached
// rebound).
func (db *DB) execExplain(s *sql.Explain) (*executor.ResultSet, *QueryInfo, error) {
	var fp *sql.Fingerprint
	res, err := db.optimizeMaybeCached(s.Stmt, &fp)
	if err != nil {
		return nil, nil, err
	}
	rs := &executor.ResultSet{Columns: []string{"plan"}}
	rs.Rows = append(rs.Rows, datum.Row{datum.NewString(cacheMarker(res))})
	for _, line := range ruleMarkers(res) {
		rs.Rows = append(rs.Rows, datum.Row{datum.NewString(line)})
	}
	for _, line := range strings.Split(strings.TrimRight(plan.Explain(res.Plan), "\n"), "\n") {
		rs.Rows = append(rs.Rows, datum.Row{datum.NewString(line)})
	}
	return rs, &QueryInfo{SQL: s.String(), Stmt: s, Result: res, EstCost: res.Cost}, nil
}

// ExplainString plans a statement (without executing it) and returns
// the rendered plan prefixed with a cache-provenance marker line:
// "-- plan: fresh", "-- plan: cached (exact)" or "-- plan: cached
// (rebound)". It probes — and on a miss populates — the plan cache
// exactly as executing the statement would, which makes it the test
// surface for asserting hits and misses.
func (db *DB) ExplainString(text string) (string, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return "", err
	}
	if ex, ok := stmt.(*sql.Explain); ok {
		stmt = ex.Stmt
	}
	reads, writes := db.lockTablesFor(stmt)
	var res *optimizer.Result
	werr := db.locked(nil, append(reads, writes...), nil, func() {
		var fp *sql.Fingerprint
		res, err = db.optimizeMaybeCached(stmt, &fp)
	})
	if err == nil {
		err = werr
	}
	if err != nil {
		return "", err
	}
	head := cacheMarker(res)
	for _, line := range ruleMarkers(res) {
		head += "\n" + line
	}
	return head + "\n" + plan.Explain(res.Plan), nil
}

// CreateIndex materializes and registers a secondary index, returning an
// error when the catalog rejects it or the storage budget is exceeded.
// It is the online build protocol run to completion on the calling
// goroutine: the catalog entry appears at publish, exactly as for the
// tuner's background builds.
func (db *DB) CreateIndex(ix *catalog.Index) error {
	if err := db.Cat.CheckIndex(ix); err != nil {
		return err
	}
	b, err := db.Mgr.StartBuild(ix)
	if err != nil {
		return err
	}
	if err := b.Run(context.Background()); err != nil {
		db.Mgr.AbortBuild(b)
		return err
	}
	return db.PublishIndex(ix, b)
}

// PublishIndex registers a background-built index: the catalog entry is
// added and the finished build (storage.StartBuild + Build.Run) is
// published atomically. On any failure the half-built structure is
// discarded and the catalog left unchanged.
func (db *DB) PublishIndex(ix *catalog.Index, b *storage.Build) error {
	if err := db.Cat.AddIndex(ix); err != nil {
		db.Mgr.AbortBuild(b)
		return err
	}
	if _, err := db.Mgr.FinishBuild(b); err != nil {
		_ = db.Cat.DropIndex(ix.Name)
		db.Mgr.AbortBuild(b)
		return err
	}
	return nil
}

// DropIndex removes a secondary index from storage and catalog.
func (db *DB) DropIndex(ix *catalog.Index) error {
	if err := db.Mgr.DropIndex(ix.ID()); err != nil {
		return err
	}
	return db.Cat.DropIndex(ix.Name)
}

// Analyze builds statistics for every column of a table from its current
// contents. It takes the table's shared lock so the sampled columns are
// mutually consistent even under concurrent DML.
func (db *DB) Analyze(table string) error {
	ls := db.locks.acquire(nil, []string{table}, nil)
	defer ls.release()
	t := db.Cat.Table(table)
	if t == nil {
		return fmt.Errorf("engine: unknown table %s", table)
	}
	h := db.Mgr.Heap(table)
	if h == nil {
		return fmt.Errorf("engine: table %s not materialized", table)
	}
	cols := make([][]datum.Datum, len(t.Columns))
	for i := range cols {
		cols[i] = make([]datum.Datum, 0, h.Len())
	}
	h.Scan(func(_ storage.RID, r datum.Row) bool {
		for i := range t.Columns {
			cols[i] = append(cols[i], r[i])
		}
		return true
	})
	for i, c := range t.Columns {
		db.Stats.BuildColumn(table, c.Name, cols[i], stats.DefaultBuckets)
	}
	return nil
}

// Configuration returns the currently active secondary indexes — the
// paper's physical configuration s.
func (db *DB) Configuration() []*catalog.Index {
	var out []*catalog.Index
	for _, ix := range db.Cat.Indexes() {
		if ix.Primary {
			continue
		}
		if pi := db.Mgr.Index(ix.ID()); pi != nil && pi.State() == storage.StateActive {
			out = append(out, ix)
		}
	}
	return out
}

// WhatIfEnv exposes the environment for tuner components.
func (db *DB) WhatIfEnv() *whatif.Env { return db.Env }
