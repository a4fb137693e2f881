package engine

import (
	"context"

	"onlinetuner/internal/executor"
	"onlinetuner/internal/obs"
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
// commits individually (in durable mode: appends its own WAL commit), and
// a runtime failure stops the batch at that statement — earlier
// statements stay applied, the failing one rolls back as any statement
// failure does, later ones never run. The returned applied count says
// how many completed; isolation still holds because the lock span
// covers the whole attempt. Durability is waited for once, for the whole
// batch, after the locks are released: one fsync acknowledges every
// statement that applied, and if that flush fails the batch returns the
// flush's error with nothing acknowledged. Callers that need
// all-or-nothing semantics must keep their batches to statements that
// cannot fail at runtime (the wire protocol documents this contract).
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
		var perr error
		if stmts[i], fps[i], _, perr = db.parse(text); perr != nil {
			db.execErrors.Inc()
			return nil, nil, 0, perr
		}
	}

	reads, writes := db.batchLockSets(stmts)
	results = make([]*executor.ResultSet, 0, len(texts))
	infos = make([]*QueryInfo, 0, len(texts))
	werr := db.locked(obs.FromContext(ctx), reads, writes, func() {
		for i, stmt := range stmts {
			if err = ctx.Err(); err != nil {
				db.execErrors.Inc()
				return
			}
			tr, owned := db.startTrace(ctx, texts[i])
			var rs *executor.ResultSet
			var info *QueryInfo
			rs, info, err = db.execLocked(ctx, texts[i], stmt, fps[i], tr, true)
			if owned {
				db.ob.FinishTrace(tr)
			}
			if err != nil {
				return
			}
			results = append(results, rs)
			infos = append(infos, info)
			applied++
		}
	})
	if werr != nil {
		// The log stopped under the batch: none of it is acknowledged.
		return nil, nil, 0, werr
	}
	return results, infos, applied, err
}

// batchLockSets computes the union lock classification for a batch. The
// lock set itself resolves duplicates: a table written by any statement
// is exclusive for the whole span, everything else referenced is shared.
func (db *DB) batchLockSets(stmts []sql.Statement) (reads, writes []string) {
	for _, stmt := range stmts {
		r, w := db.lockTablesFor(stmt)
		reads, writes = append(reads, r...), append(writes, w...)
	}
	return reads, writes
}
