package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"onlinetuner/internal/engine"
	"onlinetuner/internal/obs"
)

// Config sizes the daemon. Zero values select the defaults.
type Config struct {
	// MaxConns bounds concurrent connections; dial attempts past it get
	// a typed too_many_connections error frame and are closed. Default
	// 64.
	MaxConns int
	// AdmitSlots bounds concurrently executing statements across all
	// sessions. Default 2x the engine's ExecWorkers: the par.Pool hands
	// its worker slots to whichever admitted statements ask first, and a
	// small oversubscription keeps the pool busy while statements sit in
	// non-CPU work (WAL fsync, lock waits).
	AdmitSlots int
	// MaxQueue bounds statements waiting for an admission slot; beyond
	// it requests are rejected immediately with the typed backpressure
	// error. Default 4x AdmitSlots.
	MaxQueue int
	// QueueTimeout bounds how long one statement may wait for admission.
	// Default 1s.
	QueueTimeout time.Duration
	// IdleTimeout closes sessions that send nothing for this long.
	// Default 5m; negative disables.
	IdleTimeout time.Duration
	// MaxFrame bounds one request frame. Default DefaultMaxFrame.
	MaxFrame int
}

func (c Config) withDefaults(db *engine.DB) Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.AdmitSlots <= 0 {
		c.AdmitSlots = 2 * db.ExecWorkers()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.AdmitSlots
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	return c
}

// Server lifecycle states.
const (
	stateRunning int32 = iota
	stateDraining
	stateClosed
)

// Server is the TCP daemon over one engine.DB. Create with New, start
// with Serve, stop with Shutdown (graceful) or Abort (crash tests).
type Server struct {
	db  *engine.DB
	cfg Config
	adm *admission

	ln net.Listener // guarded by mu

	// drainMu orders the drain flip against statement starts: beginStmt
	// holds the read side while it checks state and joins the in-flight
	// group, Shutdown holds the write side to flip state — after the
	// flip, no new statement can join.
	drainMu  sync.RWMutex
	state    atomic.Int32
	inflight sync.WaitGroup

	drainCtx    context.Context
	drainCancel context.CancelFunc

	mu       sync.Mutex
	sessions map[uint64]net.Conn
	nextSID  uint64
	connWG   sync.WaitGroup

	sessionsOpen  *obs.Gauge
	connsTotal    *obs.Counter
	connsRejected *obs.Counter
	statements    *obs.Counter
	idleCloses    *obs.Counter
}

// New wires a server over db. The db's observability registry receives
// the server.* metric cells (sessions open, admitted/rejected, queue
// wait histogram), so the existing obs HTTP handler doubles as the
// daemon's live dashboard.
func New(db *engine.DB, cfg Config) *Server {
	cfg = cfg.withDefaults(db)
	reg := db.Observability().Reg
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		db:            db,
		cfg:           cfg,
		adm:           newAdmission(cfg.AdmitSlots, cfg.MaxQueue, cfg.QueueTimeout, reg),
		drainCtx:      ctx,
		drainCancel:   cancel,
		sessions:      make(map[uint64]net.Conn),
		sessionsOpen:  reg.Gauge("server.sessions_open"),
		connsTotal:    reg.Counter("server.connections"),
		connsRejected: reg.Counter("server.conns_rejected"),
		statements:    reg.Counter("server.statements"),
		idleCloses:    reg.Counter("server.idle_closes"),
	}
}

// DB returns the served engine.
func (s *Server) DB() *engine.DB { return s.db }

// Listen binds addr and starts serving in a background goroutine,
// returning the bound address (use ":0" for an ephemeral port). The
// returned error channel yields Serve's result once.
func (s *Server) Listen(addr string) (net.Addr, <-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln) }()
	return ln.Addr(), errc, nil
}

// Serve accepts connections on ln until Shutdown or Abort closes it.
// During a drain the listener stays open so late connects receive the
// typed shutting_down error frame instead of a bare connection refusal.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.ln == nil {
		s.ln = ln
	}
	s.mu.Unlock()
	// A shutdown that raced in before we registered the listener closed
	// whatever it saw; make sure this one is closed too.
	if s.state.Load() != stateRunning {
		_ = ln.Close()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.state.Load() != stateRunning {
				s.connWG.Wait()
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.connsTotal.Inc()
		if s.state.Load() != stateRunning {
			s.refuse(conn, CodeShuttingDown, "server is shutting down")
			continue
		}
		s.mu.Lock()
		if len(s.sessions) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.connsRejected.Inc()
			s.refuse(conn, CodeTooManyConns, fmt.Sprintf("connection limit %d reached", s.cfg.MaxConns))
			continue
		}
		s.nextSID++
		sid := s.nextSID
		s.sessions[sid] = conn
		s.sessionsOpen.Add(1)
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(sid, conn)
	}
}

// refuse sends one typed error frame and closes the connection.
func (s *Server) refuse(conn net.Conn, code, msg string) {
	_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if body, err := EncodeResponse(respErr(0, code, msg)); err == nil {
		_ = WriteFrame(conn, body)
	}
	_ = conn.Close()
}

// serveConn drives one session: read frame, handle, write response.
func (s *Server) serveConn(sid uint64, conn net.Conn) {
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.sessions, sid)
		s.mu.Unlock()
		s.sessionsOpen.Add(-1)
		s.connWG.Done()
	}()
	sess := newSession(sid, s)
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var dec requestDecoder
	var out []byte
	for {
		if s.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		body, err := ReadFrame(br, s.cfg.MaxFrame)
		if err != nil {
			var ne net.Error
			switch {
			case errors.As(err, &ne) && ne.Timeout():
				s.idleCloses.Inc()
				s.writeResp(bw, conn, &out, respErr(0, CodeIdleTimeout, "session idle timeout"))
			case errors.Is(err, ErrFrameTooLarge), errors.Is(err, ErrFrameEmpty):
				s.writeResp(bw, conn, &out, respErr(0, CodeFrameTooLarge, err.Error()))
			}
			return // EOF, net errors, protocol violations: the session ends
		}
		req, err := dec.decode(body)
		if err != nil {
			// The framing survived but the JSON is not a request; answer
			// typed and close — there is no way to know what the client
			// meant.
			s.writeResp(bw, conn, &out, respErr(0, CodeBadRequest, err.Error()))
			return
		}
		resp := sess.handle(req)
		if !s.writeResp(bw, conn, &out, resp) {
			return
		}
		if req.Op == OpClose {
			return
		}
	}
}

// keptFrameBuf bounds the encode buffer a connection keeps between
// responses; a larger one is dropped after its frame is written.
const keptFrameBuf = 1 << 20

// writeResp encodes one response frame into *buf, the connection's
// encode buffer, and writes it, reporting whether the session can go on.
func (s *Server) writeResp(bw *bufio.Writer, conn net.Conn, buf *[]byte, resp *Response) bool {
	frame, err := appendResponse(append((*buf)[:0], 0, 0, 0, 0), resp)
	if err != nil { // an error response has no cost to fail on
		frame, _ = appendResponse(append(frame[:0], 0, 0, 0, 0), respErr(resp.ID, CodeInternal, "response encoding failed"))
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-frameHeader))
	if *buf = frame; cap(frame) > keptFrameBuf {
		*buf = nil
	}
	_ = conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if _, err := bw.Write(frame); err != nil {
		return false
	}
	return bw.Flush() == nil
}

// beginStmt joins the in-flight statement group unless the server is
// draining. Every successful call must be paired with endStmt.
func (s *Server) beginStmt() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.state.Load() != stateRunning {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) endStmt() { s.inflight.Done() }

func (s *Server) draining() bool { return s.state.Load() != stateRunning }

// Shutdown drains the daemon gracefully, in order: (1) flip to
// draining — new statements and new connections get the typed
// shutting_down error, statements already executing keep running,
// statements waiting in the admission queue are failed fast; (2) wait
// for in-flight statements to complete and their responses to be
// written, bounded by ctx; (3) checkpoint the WAL so a durable database
// restarts from a snapshot instead of a long replay; (4) close the
// listener and every remaining connection. If ctx ends first, Shutdown
// skips the checkpoint, closes everything and returns ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	if !s.state.CompareAndSwap(stateRunning, stateDraining) {
		s.drainMu.Unlock()
		return errors.New("server: already shut down")
	}
	s.drainMu.Unlock()
	s.drainCancel()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
	}

	var ckptErr error
	if drainErr == nil && s.db.WAL() != nil {
		ckptErr = s.db.Checkpoint()
	}

	s.state.Store(stateClosed)
	s.closeAll()
	if drainErr != nil {
		return drainErr
	}
	return ckptErr
}

// Abort kills the daemon without draining or checkpointing — the
// serving half of a crash test (pair with engine.DB.Crash). Safe to
// call concurrently with Shutdown; whoever flips the state first wins.
func (s *Server) Abort() {
	s.state.Store(stateClosed)
	s.drainCancel()
	s.closeAll()
}

// closeAll closes the listener and every live connection.
func (s *Server) closeAll() {
	s.mu.Lock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	conns := make([]net.Conn, 0, len(s.sessions))
	for _, c := range s.sessions {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// MetricsHandler is the daemon's live dashboard: "/" renders a
// plain-text summary of the server.* cells, "/metrics" serves the full
// registry snapshot as JSON (the existing obs handler).
func (s *Server) MetricsHandler() http.Handler {
	reg := s.db.Observability().Reg
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		snap := reg.Snapshot()
		names := make([]string, 0, len(snap))
		for name := range snap {
			if strings.HasPrefix(name, "server.") || strings.HasPrefix(name, "engine.") {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		fmt.Fprintf(w, "onlinetuner daemon — %s\n\n", hostnameOrEmpty())
		for _, name := range names {
			fmt.Fprintf(w, "%-28s %v\n", name, summarize(snap[name]))
		}
		fmt.Fprintf(w, "\nfull snapshot: /metrics\n")
	})
	return mux
}

func hostnameOrEmpty() string {
	h, err := os.Hostname()
	if err != nil {
		return ""
	}
	return h
}

// summarize renders one snapshot cell for the text dashboard;
// histograms compress to count/mean.
func summarize(v any) string {
	if h, ok := v.(obs.HistogramSnapshot); ok {
		if h.Count == 0 {
			return "count=0"
		}
		return fmt.Sprintf("count=%d mean=%.0f", h.Count, h.Sum/float64(h.Count))
	}
	return fmt.Sprint(v)
}
