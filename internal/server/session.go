package server

import (
	"context"
	"fmt"
	"strings"

	"onlinetuner/internal/engine"
	"onlinetuner/internal/executor"
	"onlinetuner/internal/sql"
)

// session is one connection's server-side state: its prepared
// statements and its (at most one) open transaction scope. A session is
// driven by exactly one goroutine — the connection reader — so none of
// this needs locking; the server only ever touches a session from the
// outside to close its connection.
//
// Transaction scoping: BEGIN puts the session into buffering mode.
// Statements arriving inside the scope are parsed immediately (syntax
// errors surface at submission time) and buffered; COMMIT executes the
// whole buffer through engine.ExecBatch, which acquires the union of
// the batch's table locks once and holds them across the batch — other
// sessions see none or all of the scope's effects (isolation). Results
// for every buffered statement come back on the commit response.
// ROLLBACK discards the buffer; nothing was executed, so there is
// nothing to undo.
type session struct {
	id       uint64
	srv      *Server
	prepared map[string]string // name -> SQL text
	txn      []string          // buffered statement texts of the open scope
	inTxn    bool
}

func newSession(id uint64, srv *Server) *session {
	return &session{id: id, srv: srv, prepared: make(map[string]string)}
}

// respErr builds a typed error response.
func respErr(id uint64, code, msg string) *Response {
	return &Response{ID: id, Error: &WireError{Code: code, Message: msg}}
}

// handle processes one request and returns its response. Executing ops
// pass through the server's drain gate and admission control.
func (s *session) handle(req *Request) *Response {
	switch req.Op {
	case OpPing:
		return &Response{ID: req.ID, OK: true}
	case OpClose:
		return &Response{ID: req.ID, OK: true}
	case OpPrepare:
		return s.prepare(req)
	case OpBegin:
		if s.inTxn {
			return respErr(req.ID, CodeTxnState, "transaction already open")
		}
		s.inTxn = true
		s.txn = s.txn[:0]
		return &Response{ID: req.ID, OK: true}
	case OpRollback:
		if !s.inTxn {
			return respErr(req.ID, CodeTxnState, "no open transaction")
		}
		s.inTxn = false
		s.txn = nil
		return &Response{ID: req.ID, OK: true}
	case OpCommit:
		if !s.inTxn {
			return respErr(req.ID, CodeTxnState, "no open transaction")
		}
		return s.commit(req)
	case OpExplain:
		return s.explain(req)
	case OpQuery, OpExec:
		if req.SQL == "" {
			return respErr(req.ID, CodeBadRequest, "missing sql")
		}
		return s.statement(req, req.SQL)
	case OpExecPrepared:
		text, ok := s.prepared[req.Name]
		if !ok {
			return respErr(req.ID, CodeNotPrepared, fmt.Sprintf("no prepared statement %q", req.Name))
		}
		return s.statement(req, text)
	default:
		return respErr(req.ID, CodeUnknownOp, fmt.Sprintf("unknown op %q", req.Op))
	}
}

// prepare validates and remembers a statement text under a name. The
// engine's statement-text cache makes re-execution skip the parser, so
// the server keeps only the text.
func (s *session) prepare(req *Request) *Response {
	if req.Name == "" || req.SQL == "" {
		return respErr(req.ID, CodeBadRequest, "prepare needs name and sql")
	}
	if _, err := sql.Parse(req.SQL); err != nil {
		return respErr(req.ID, CodeSQL, err.Error())
	}
	s.prepared[req.Name] = req.SQL
	return &Response{ID: req.ID, OK: true}
}

// statement runs (or, inside a transaction scope, buffers) one
// statement.
func (s *session) statement(req *Request, text string) *Response {
	if s.inTxn {
		if _, err := sql.Parse(text); err != nil {
			return respErr(req.ID, CodeSQL, err.Error())
		}
		s.txn = append(s.txn, text)
		return &Response{ID: req.ID, OK: true, Queued: true}
	}
	release, resp := s.admit(req.ID)
	if resp != nil {
		return resp
	}
	defer release()
	rs, info, err := s.srv.db.ExecContext(context.Background(), text)
	if err != nil {
		return respErr(req.ID, CodeSQL, err.Error())
	}
	s.srv.statements.Inc()
	return &Response{ID: req.ID, OK: true, StmtResult: *renderResult(rs, info)}
}

// commit executes the buffered scope as one engine batch.
func (s *session) commit(req *Request) *Response {
	texts := s.txn
	s.inTxn = false
	s.txn = nil
	if len(texts) == 0 {
		return &Response{ID: req.ID, OK: true}
	}
	release, resp := s.admit(req.ID)
	if resp != nil {
		return resp
	}
	defer release()
	results, infos, applied, err := s.srv.db.ExecBatch(context.Background(), texts)
	out := make([]StmtResult, 0, len(results))
	for i, rs := range results {
		out = append(out, *renderResult(rs, infos[i]))
	}
	s.srv.statements.Add(int64(applied))
	if err != nil {
		r := respErr(req.ID, CodeSQL, fmt.Sprintf("statement %d of %d: %v", applied+1, len(texts), err))
		r.Results = out
		r.Applied = applied
		return r
	}
	return &Response{ID: req.ID, OK: true, Results: out, Applied: applied}
}

// explain optimizes without executing. It skips admission: it touches
// no heap pages and the optimizer is the cheap half of the pipeline.
func (s *session) explain(req *Request) *Response {
	if req.SQL == "" {
		return respErr(req.ID, CodeBadRequest, "missing sql")
	}
	if s.srv.draining() {
		return respErr(req.ID, CodeShuttingDown, "server is draining")
	}
	plan, err := s.srv.db.ExplainString(req.SQL)
	if err != nil {
		return respErr(req.ID, CodeSQL, err.Error())
	}
	res := StmtResult{Columns: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(plan, "\n"), "\n") {
		res.Rows = append(res.Rows, []string{line})
	}
	return &Response{ID: req.ID, OK: true, StmtResult: res}
}

// admit passes the drain gate and admission control for one executing
// request. On success the caller owns release (which also closes the
// server's in-flight accounting); on failure the typed error response
// is returned instead.
func (s *session) admit(id uint64) (release func(), resp *Response) {
	if !s.srv.beginStmt() {
		return nil, respErr(id, CodeShuttingDown, "server is draining")
	}
	rel, err := s.srv.adm.acquire(s.srv.drainCtx)
	if err != nil {
		s.srv.endStmt()
		if we, ok := err.(*WireError); ok {
			return nil, &Response{ID: id, Error: we}
		}
		return nil, respErr(id, CodeInternal, err.Error())
	}
	return func() {
		rel()
		s.srv.endStmt()
	}, nil
}

// renderResult converts an executed statement's output to its wire
// form, each cell rendered as datum.String renders it. Its allocations
// do not grow with the rows: cells are substrings of an arena, and they
// share one slab with the column names.
func renderResult(rs *executor.ResultSet, info *engine.QueryInfo) *StmtResult {
	out := &StmtResult{Affected: rs.Affected}
	if info != nil {
		out.Cost = info.EstCost
	}
	nc, cells := len(rs.Columns), 0
	for _, row := range rs.Rows {
		cells += len(row)
	}
	slab := append(make([]string, 0, nc+cells), rs.Columns...)
	if nc > 0 {
		out.Columns = slab[:nc:nc]
	}
	if len(rs.Rows) == 0 {
		return out
	}
	// A strings.Builder never rewrites bytes it holds, so a cell is cut
	// from String() once written. An arena holds the cells left at the mean
	// width so far (the first row's at first) plus an eighth.
	var scratch [256]byte
	var arena strings.Builder
	written, done := 0, len(rs.Rows[0])
	for _, d := range rs.Rows[0] {
		written += len(d.AppendKey(scratch[:0]))
	}
	out.Rows = make([][]string, len(rs.Rows))
	for i, row := range rs.Rows {
		first := len(slab)
		for _, d := range row {
			key := d.AppendKey(scratch[:0])
			if arena.Cap()-arena.Len() < len(key) {
				need := (cap(slab) - len(slab)) * written / max(done, 1)
				arena.Reset()
				arena.Grow(need + need/8 + len(key))
			}
			arena.Write(key)
			written, done = written+len(key), done+1
			slab = append(slab, arena.String()[arena.Len()-len(key):])
		}
		out.Rows[i] = slab[first:len(slab):len(slab)]
	}
	return out
}
