package engine

import (
	"context"

	"onlinetuner/internal/executor"
	"onlinetuner/internal/sql"
)

// ExecBatch executes a sequence of statements as one isolation unit:
// the union of every statement's table locks is acquired once, up
// front, in sorted order (writes exclusive, reads shared), and held
// across the whole batch. Concurrent statements therefore see either
// none or all of the batch's effects on the locked tables — this is
// the serving layer's transaction scope (BEGIN ... COMMIT).
//
// Atomicity is statement-granular: each statement inside the span
// commits (and, in durable mode, WAL-acknowledges) individually, and a
// runtime failure stops the batch at that statement — earlier
// statements stay applied, the failing one rolls back as any statement
// failure does, later ones never run. The returned applied count says
// how many completed; isolation still holds because the lock span
// covers the whole attempt. Callers that need all-or-nothing semantics
// must keep their batches to statements that cannot fail at runtime
// (the wire protocol documents this contract).
//
// Because every lock is taken before the first statement runs, a batch
// cannot deadlock with other statements or batches: all acquisition
// follows the same global sorted order, exactly like single statements.
// A DROP INDEX whose index is created earlier in the same batch locks
// correctly only if the created index's table is already in the span
// (it is, through the CREATE INDEX statement's own write lock).
func (db *DB) ExecBatch(ctx context.Context, texts []string) (results []*executor.ResultSet, infos []*QueryInfo, applied int, err error) {
	if len(texts) == 0 {
		return nil, nil, 0, nil
	}
	stmts := make([]sql.Statement, len(texts))
	fps := make([]*sql.Fingerprint, len(texts))
	for i, text := range texts {
		sh := db.pc.stmtShardOf(text)
		if e := db.pc.lookupStmt(sh, text); e != nil {
			stmts[i], fps[i] = e.stmt, e.fp
			continue
		}
		stmt, perr := sql.Parse(text)
		if perr != nil {
			db.execErrors.Inc()
			return nil, nil, 0, perr
		}
		var fp *sql.Fingerprint
		if db.PlanCacheMode() != CacheOff && cacheable(stmt) {
			f := sql.FingerprintOf(stmt)
			fp = &f
		}
		db.pc.storeStmt(sh, &stmtEntry{text: text, stmt: stmt, fp: fp})
		stmts[i], fps[i] = stmt, fp
	}

	reads, writes := db.batchLockSets(stmts)
	release := db.locks.acquire(reads, writes)
	defer release()

	results = make([]*executor.ResultSet, 0, len(texts))
	infos = make([]*QueryInfo, 0, len(texts))
	for i, stmt := range stmts {
		if cerr := ctx.Err(); cerr != nil {
			db.execErrors.Inc()
			return results, infos, applied, cerr
		}
		tr, owned := db.startTrace(ctx, texts[i])
		rs, info, serr := db.execLocked(ctx, texts[i], stmt, fps[i], tr)
		if owned {
			db.ob.FinishTrace(tr)
		}
		if serr != nil {
			return results, infos, applied, serr
		}
		results = append(results, rs)
		infos = append(infos, info)
		applied++
	}
	return results, infos, applied, nil
}

// batchLockSets computes the union lock classification for a batch: a
// table written by any statement is exclusive for the whole span,
// everything else referenced is shared.
func (db *DB) batchLockSets(stmts []sql.Statement) (reads, writes []string) {
	wset := make(map[string]bool)
	rset := make(map[string]bool)
	for _, stmt := range stmts {
		r, w := db.lockTablesFor(stmt)
		for _, t := range w {
			wset[t] = true
		}
		for _, t := range r {
			rset[t] = true
		}
	}
	for t := range wset {
		writes = append(writes, t)
	}
	for t := range rset {
		if !wset[t] {
			reads = append(reads, t)
		}
	}
	return reads, writes
}
