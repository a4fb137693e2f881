package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/executor"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/server"
	"onlinetuner/internal/sql"
)

// span is one timed call into a layer's public API. Spans of one
// statement share Stmt; Parent is the span that was open when this one
// began (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Stmt    int    `json:"stmt"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. One goroutine drives
// the traced pass, but the tuner hook fires on the daemon's connection
// goroutine while the driver waits for the reply, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
	stmt  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Stmt: t.stmt, Name: name, StartNS: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the span and returns its duration in µs.
func (t *tracer) end(id int) float64 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
	t.open = t.open[:len(t.open)-1]
	return float64(now-t.spans[id-1].StartNS) / 1e3
}

// statement sets the identifier later spans carry.
func (t *tracer) statement(i int) {
	t.mu.Lock()
	t.stmt = i
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the time its direct
// children cover, indexed like spans.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent > 0 {
			self[s.Parent-1] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// durations collects, in µs, the durations of every span with the name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spyObserver wraps the tuner as the engine's observer so the harness
// can span OnExecuted from outside. While muted it swallows the call:
// the ladder's extra in-process execution must not teach the tuner the
// same statement twice.
type spyObserver struct {
	next  engine.Observer
	tr    *tracer
	muted atomic.Bool
}

func (s *spyObserver) OnExecuted(info *engine.QueryInfo) {
	if s.muted.Load() {
		return
	}
	id := s.tr.begin("core.on_executed")
	s.next.OnExecuted(info)
	s.tr.end(id)
}

// ladderSample is what one walk down the ladder counted.
type ladderSample struct {
	respBytes, requests, examined, returned int
	execUS                                  float64
}

// wire spans the protocol work of one request/response pair without the
// socket: encode, frame, unframe and decode both directions.
func wire(tr *tracer, text string, resp *server.Response) (int, error) {
	id := tr.begin("server.wire")
	defer tr.end(id)
	body, err := server.EncodeRequest(&server.Request{ID: resp.ID, Op: server.OpQuery, SQL: text})
	if err != nil {
		return 0, err
	}
	got, _, err := server.DecodeFrame(server.AppendFrame(nil, body), 0)
	if err != nil {
		return 0, err
	}
	if _, err := server.DecodeRequest(got); err != nil {
		return 0, err
	}
	if body, err = server.EncodeResponse(resp); err != nil {
		return 0, err
	}
	if got, _, err = server.DecodeFrame(server.AppendFrame(nil, body), 0); err != nil {
		return 0, err
	}
	_, err = server.DecodeResponse(got)
	return len(body), err
}

// examined sums the rows the plan's leaves read from storage.
func examined(n plan.Node, col *executor.Collector) int {
	total := 0
	if st := col.Stats(n); st != nil {
		total = int(st.Scanned())
	}
	for _, c := range n.Children() {
		total += examined(c, col)
	}
	return total
}

// ladder walks one already-served read down the layers on the live
// database, one public call per rung, each under its own span.
func ladder(tr *tracer, db *engine.DB, spy *spyObserver, text string, resp *server.Response) (ladderSample, error) {
	var ls ladderSample
	var err error
	if ls.respBytes, err = wire(tr, text, resp); err != nil {
		return ls, err
	}
	id := tr.begin("sql.parse")
	st, err := sql.Parse(text)
	tr.end(id)
	if err != nil {
		return ls, err
	}
	id = tr.begin("sql.fingerprint")
	_ = sql.FingerprintOf(st)
	tr.end(id)

	id = tr.begin("optimizer.optimize")
	opt, err := db.Opt.Optimize(st)
	tr.end(id)
	if err != nil {
		return ls, err
	}
	ls.requests = len(opt.Requests())

	id = tr.begin("executor.run")
	rs, err := db.Exe.Run(opt.Plan)
	tr.end(id)
	if err != nil {
		return ls, err
	}
	// Row counts come from a second, collected execution outside the
	// span: the collector's own bookkeeping would be timed otherwise.
	col := executor.NewCollector()
	if _, err := db.Exe.RunCollected(opt.Plan, col); err != nil {
		return ls, err
	}
	ls.examined, ls.returned = examined(opt.Plan, col), len(rs.Rows)

	if spy != nil {
		spy.muted.Store(true)
		defer spy.muted.Store(false)
	}
	id = tr.begin("engine.exec")
	_, _, err = db.ExecContext(context.Background(), text)
	ls.execUS = tr.end(id)
	return ls, err
}

// minSamples is the floor on ladder walks per traced pass.
const minSamples = 800

// tracedPass replays a prefix of the workload on a fresh database from
// the same seed, one connection, statements in workload order, and
// walks every k-th read down the ladder. DML is applied once, by its
// real round trip. It fills the span-based per-layer metrics.
func tracedPass(sp *spec, o options, untracedP50ms float64, res *result) error {
	n := sp.tracedPerSecond * o.seconds
	streams := sp.gen(o.seed, sp, sp.statements(o.seconds))
	var list []stmt // workload order: the streams interleaved as dealt
	for i := 0; len(list) < n; i++ {
		took := false
		for _, s := range streams {
			if i < len(s) && len(list) < n {
				list = append(list, s[i])
				took = true
			}
		}
		if !took {
			break
		}
	}
	reads := 0
	for i := range list {
		if !list[i].write {
			reads++
		}
	}
	every := reads / minSamples
	if every < 1 {
		every = 1
	}

	in, err := start(sp, o.seed, o.workDir)
	if err != nil {
		return err
	}
	defer in.stop()
	tr := newTracer()
	var spy *spyObserver
	if in.tuner != nil {
		spy = &spyObserver{next: in.tuner, tr: tr}
		in.db.SetObserver(spy)
	}
	c, err := server.Dial(in.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	c.Timeout = 120 * time.Second

	var sum ladderSample
	var readRTT, allRTT []float64
	type walk struct {
		roundtrip int     // span ID of the served round trip
		execUS    float64 // the ladder's warm in-process execution of it
	}
	var walks []walk
	seen := 0
	for i := range list {
		s := &list[i]
		tr.statement(i)
		id := tr.begin("server.roundtrip")
		out := apply(c, s)
		rtt := tr.end(id)
		if out.err != nil {
			return fmt.Errorf("traced pass statement %d (%s): %w", i, s.text(), out.err)
		}
		allRTT = append(allRTT, rtt)
		if s.write {
			continue
		}
		seen++
		if seen%every != 0 {
			continue
		}
		ls, err := ladder(tr, in.db, spy, s.sql, out.resp)
		if err != nil {
			return fmt.Errorf("ladder statement %d (%s): %w", i, s.sql, err)
		}
		sum.respBytes += ls.respBytes
		sum.requests += ls.requests
		sum.examined += ls.examined
		sum.returned += ls.returned
		readRTT = append(readRTT, rtt)
		walks = append(walks, walk{id, ls.execUS})
	}

	// One fixed probe index, built and dropped on the live tables.
	probe := &catalog.Index{Name: "bench_probe", Table: "lineitem", Columns: []string{"l_suppkey", "l_partkey"}}
	t0 := time.Now()
	if err := in.db.CreateIndex(probe); err != nil {
		return fmt.Errorf("probe index: %w", err)
	}
	createMS := float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	if err := in.db.DropIndex(probe); err != nil {
		return fmt.Errorf("probe index: %w", err)
	}
	dropMS := float64(time.Since(t0)) / 1e6

	if err := tr.write(filepath.Join(o.outDir, sp.name+".trace.jsonl")); err != nil {
		return err
	}

	m := res.Metrics
	p50 := func(name string) float64 { return summarize(durations(tr.spans, name), 990).p50 }
	rt := summarize(readRTT, 990)
	onx := summarize(durations(tr.spans, "core.on_executed"), 990)
	m["server.roundtrip_us"] = rt.p50
	m["server.wire_us"] = p50("server.wire")
	// server.self: the round trip's self time (the tuner hook that ran
	// inside it is its child span) minus the engine's share, the warm
	// in-process execution of the same statement.
	self := selfTimes(tr.spans)
	var selfUS []float64
	for _, w := range walks {
		selfUS = append(selfUS, float64(self[w.roundtrip-1])/1e3-w.execUS)
	}
	m["server.self_us"] = summarize(selfUS, 990).p50
	m["server.resp_bytes_per_stmt"] = ratio(float64(sum.respBytes), float64(len(walks)))
	m["sql.parse_us"] = p50("sql.parse")
	m["sql.fingerprint_us"] = p50("sql.fingerprint")
	m["engine.exec_us"] = p50("engine.exec")
	m["optimizer.optimize_us"] = p50("optimizer.optimize")
	m["optimizer.requests_per_stmt"] = ratio(float64(sum.requests), float64(len(walks)))
	runs := durations(tr.spans, "executor.run")
	var runNS float64
	for _, us := range runs {
		runNS += us * 1e3
	}
	m["executor.run_us"] = summarize(runs, 990).p50
	m["executor.rows_examined_per_row_returned"] = ratio(float64(sum.examined), float64(sum.returned))
	m["executor.ns_per_row_examined"] = ratio(runNS, float64(sum.examined))
	m["storage.create_index_ms"], m["storage.drop_index_ms"] = createMS, dropMS
	m["core.on_executed_us"], m["core.on_executed_p99_us"] = onx.p50, onx.tail
	res.Samples["ladder"], res.Samples["core.on_executed"] = len(walks), onx.n

	// The ladder: what the rungs add up to for one served read, and the
	// share of the round trip nobody can attribute yet.
	model := m["server.wire_us"] +
		(1-m["engine.stmt_hit_rate"])*(m["sql.parse_us"]+m["sql.fingerprint_us"]) +
		m["engine.plan_misses_per_stmt"]*m["optimizer.optimize_us"] +
		m["executor.run_us"] + m["core.on_executed_us"]
	m["ladder.model_us"] = model
	m["ladder.residual_frac"] = ratio(rt.p50-model, rt.p50)
	m["ladder.roundtrip_ratio"] = ratio(summarize(allRTT, 990).p50/1e3, untracedP50ms)
	return nil
}
