package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"onlinetuner/internal/engine"
	"onlinetuner/internal/obs"
	"onlinetuner/internal/wal"
	"onlinetuner/internal/whatif"
)

//go:embed golden.json
var goldenJSON []byte

// warmFrac of every stream runs before timing starts: connections are
// open, lazy set-up is done, the first cache entries exist and the
// tuner has made its first decisions. It counts toward setup_s, not
// toward any latency.
const warmFrac = 0.02

// repetitions is how many times an untraced run sets the workload up
// on a fresh database and measures it; see timings for how the three
// values of a metric become the run's.
const repetitions = 3

// options are the flags a run depends on.
type options struct {
	seed    int64
	seconds int
	trace   bool
	workDir string // scratch for durable directories
	outDir  string // traces
}

// calibrateFor is how long each machine-speed probe runs: 2 % of the
// run length, 300 ms at the default.
func (o options) calibrateFor() time.Duration {
	return time.Duration(o.seconds) * 20 * time.Millisecond
}

// result is one run of one workload.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Statements int                `json:"statements"` // per repetition, warm-up excluded
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Correct    bool               `json:"correct"`
	Golden     string             `json:"golden"` // match | mismatch | unchecked
	Notes      []string           `json:"notes,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	// Extra holds the write-side end-to-end numbers that are undefined
	// on read-only or in-memory workloads and so cannot be BENCHMARK.json
	// end-to-end metrics (which every workload must report, never as 0).
	// The untraced run prints them; the traced run reports them as the
	// per-layer metrics write.* and wal.*.
	Extra   map[string]float64 `json:"extra,omitempty"`
	Samples map[string]int     `json:"samples"`
	Env     map[string]string  `json:"env"`
	// Reps are the repetitions' values as measured, before scaling, with
	// each repetition's calibration.
	Reps []map[string]float64 `json:"reps"`
	// Phases is where the invocation's own wall time went, in seconds.
	Phases map[string]float64 `json:"phases"`
}

func (r *result) note(format string, args ...any) {
	note := fmt.Sprintf(format, args...)
	for _, have := range r.Notes {
		if have == note {
			return // the same finding in another repetition
		}
	}
	r.Notes = append(r.Notes, note)
}

// edge is every public counter the harness reads at the two edges of a
// measured phase.
type edge struct {
	reg  map[string]any
	mem  runtime.MemStats
	cpu  time.Duration
	memo whatif.MemoStats // zero without a tuner
}

func takeEdge(in *instance) *edge {
	e := &edge{reg: in.db.Observability().Reg.Snapshot()}
	runtime.ReadMemStats(&e.mem)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	e.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	if in.tuner != nil {
		e.memo = in.tuner.MemoStats()
	}
	return e
}

// num reads one registry cell as a number; a histogram reads as its sum.
func (e *edge) num(name string) float64 {
	switch v := e.reg[name].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	case obs.HistogramSnapshot:
		return v.Sum
	}
	return 0
}

// pass is one repetition: a fresh served database, warmed, measured
// closed loop with tracing off, then checked.
type pass struct {
	in      *instance
	streams [][]stmt
	logs    []*streamLog
	setupS  float64
	calMS   float64 // machine-speed probe around the measured phase
	wall    time.Duration
	a, b    *edge
	// heapLive is HeapAlloc after a forced GC at the end of the measured
	// phase minus the same before the database existed: the harness's own
	// statement texts and logs are taken off.
	heapLive float64
	// sizes at the end of the measured phase
	heapBytes, indexBytes float64
	indexesFinal          int
	// durable only
	walAppended  int64
	checkpointMS float64
	snapshotB    int64
	recoverS     float64 // OpenDurable after Crash
	replayed     int
	probe        *walProbe // traced runs only
}

func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// measure runs one repetition up to the end of its measured phase. The
// caller verifies it and stops its instance.
func measure(sp *spec, o options, cal *calibration) (*pass, error) {
	p := &pass{}
	t0 := time.Now()
	p.streams = sp.gen(o.seed, sp, sp.statements(o.seconds))
	d := &driver{}
	d.reserve(p.streams)
	base := liveHeap()
	in, err := start(sp, o.seed, o.workDir)
	if err != nil {
		return nil, err
	}
	if err := d.dial(in.addr, sp.conns()); err != nil {
		in.stop()
		return nil, err
	}
	defer d.close()
	d.advance(warmFrac, false)
	p.setupS = time.Since(t0).Seconds()
	p.in, p.logs = in, d.logs

	calBefore := cal.measure(o.calibrateFor())
	defer func() { p.calMS = (calBefore + cal.measure(o.calibrateFor())) / 2 }()
	p.a = takeEdge(in)
	if sp.durable {
		// Both connections pause at the half-way mark for the one
		// harness-issued checkpoint; the stall stays inside the wall time.
		w0 := walBytes(in.dir)
		p.wall = d.advance(0.5, true)
		w1 := walBytes(in.dir)
		t0 := time.Now()
		if err := in.db.Checkpoint(); err != nil {
			p.logs[0].fail(-1, &stmt{sql: "CHECKPOINT"}, err)
		}
		ck := time.Since(t0)
		p.checkpointMS = float64(ck) / 1e6
		if names, _ := filepath.Glob(filepath.Join(in.dir, "ckpt-*.snap")); len(names) > 0 {
			if fi, err := os.Stat(names[len(names)-1]); err == nil {
				p.snapshotB = fi.Size()
			}
		}
		w2 := walBytes(in.dir)
		p.wall += ck + d.advance(1, true)
		p.walAppended = (w1 - w0) + (walBytes(in.dir) - w2)
	} else {
		p.wall = d.advance(1, true)
	}
	p.b = takeEdge(in)
	for _, t := range in.db.Cat.Tables() {
		p.heapBytes += float64(in.db.Mgr.Heap(t.Name).Bytes())
		for _, pi := range in.db.Mgr.TableIndexes(t.Name) {
			p.indexBytes += float64(pi.Bytes())
		}
	}
	p.indexesFinal = len(in.db.Configuration())
	p.heapLive = liveHeap() - base
	return p, nil
}

// latencies returns the measured latencies in ms: all operations, and
// the acknowledged writes among them.
func (p *pass) latencies() (all, writes []float64) {
	for si, log := range p.logs {
		warm := len(p.streams[si]) - len(log.latNS)
		for i, ns := range log.latNS {
			ms := float64(ns) / 1e6
			all = append(all, ms)
			if p.streams[si][warm+i].write {
				writes = append(writes, ms)
			}
		}
	}
	return all, writes
}

// delta is a registry counter's growth over the measured phase.
func (p *pass) delta(name string) float64 { return p.b.num(name) - p.a.num(name) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndOf computes one repetition's end-to-end numbers (setup_s and
// ok_frac are the run's, not the repetition's).
func (p *pass) endToEndOf() (m map[string]float64, lat, wlat dist) {
	all, writes := p.latencies()
	lat, wlat = summarize(all, 990), summarize(writes, 990)
	var cost float64
	for _, log := range p.logs {
		cost += log.cost
	}
	n := float64(len(all))
	return map[string]float64{
		"stmt_per_s":          n / p.wall.Seconds(),
		"lat_p50_ms":          lat.p50,
		"lat_p99_ms":          lat.tail,
		"cost_units_per_stmt": (cost + p.delta("tuner.transition_cost")) / n,
		"cpu_ms_per_stmt":     float64(p.b.cpu-p.a.cpu) / 1e6 / n,
		"heap_live_mb":        p.heapLive / (1 << 20),
	}, lat, wlat
}

// timings are the end-to-end metrics measured in time. Each
// repetition's value is scaled to the reference machine speed by its
// calibration (×calibrationRefMS/calibration for a duration, the
// inverse for a rate); then, like every other metric, the run reports
// the median repetition. The sandbox's effective CPU speed switches
// between regimes about 30 % apart that last minutes, and dips for
// seconds in between: unscaled, ten runs' inter-quartile spread reached
// 28 % of the median, scaled medians of three stay under 20 %
// (README.md has the runs).
var timings = map[string]bool{"setup_s": true, "stmt_per_s": true, "lat_p50_ms": true, "lat_p99_ms": true, "cpu_ms_per_stmt": true}

// calibrationRefMS is one calibration pass on the reference box when
// nothing disturbs it.
const calibrationRefMS = 9.5

// scaled is a repetition's timing at the reference machine speed.
func scaled(m metric, v, calMS float64) float64 {
	if m.Better == "higher" {
		return v * calMS / calibrationRefMS
	}
	return v * calibrationRefMS / calMS
}

// median is the run's value of a metric: the middle repetition.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// runWorkload is one invocation's work for one workload: the oracle's
// expectations, then the untraced repetitions, each checked, and with
// --trace 1 (one repetition and) the traced pass.
func runWorkload(sp *spec, o options) (*result, error) {
	res := &result{
		Workload: sp.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Golden: "unchecked",
		Metrics: map[string]float64{}, Extra: map[string]float64{}, Samples: map[string]int{},
		Env: environment(), Phases: map[string]float64{},
	}
	t0 := time.Now()
	orc, err := replayOracle(sp, o.seed, sp.gen(o.seed, sp, sp.statements(o.seconds)), sp.oracleEvery)
	if err != nil {
		return nil, err
	}
	res.Phases["oracle"] = time.Since(t0).Seconds()

	var known map[string]golden
	if err := json.Unmarshal(goldenJSON, &known); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	cal := newCalibration()
	reps := repetitions
	if o.trace {
		reps = 1 // the end-to-end numbers belong to the untraced run
	}
	perRep := map[string][]float64{}
	var last *pass
	var lat, wlat dist
	for r := 0; r < reps; r++ {
		t0 = time.Now()
		p, err := measure(sp, o, cal)
		if err != nil {
			return nil, err
		}
		res.Phases["measured"] += p.wall.Seconds()
		res.Phases["setup_and_calibration"] += time.Since(t0).Seconds() - p.wall.Seconds()
		t0 = time.Now()
		err = p.verify(res, o, orc, known)
		p.in.stop()
		if err != nil {
			return nil, err
		}
		res.Phases["verify"] += time.Since(t0).Seconds()
		var raw map[string]float64
		raw, lat, wlat = p.endToEndOf()
		raw["setup_s"] = p.setupS
		for _, m := range endToEnd {
			v, ok := raw[m.Name]
			if !ok {
				continue // ok_frac is the run's, not a repetition's
			}
			if timings[m.Name] {
				v = scaled(m, v, p.calMS)
			}
			perRep[m.Name] = append(perRep[m.Name], v)
		}
		raw["calibration_ms"] = p.calMS
		res.Reps = append(res.Reps, raw)
		res.Attempted += lat.n
		last = p
	}
	res.Statements = lat.n
	res.Samples["lat"], res.Samples["write"] = lat.n, wlat.n
	res.Samples["lat_tail_permille"] = lat.tailQ // which percentile lat_p99_ms is: 990 unless n < 1000
	res.Correct = res.Failed == 0 && res.Golden != "mismatch"

	if !o.trace {
		for _, m := range endToEnd {
			if vals := perRep[m.Name]; vals != nil {
				res.Metrics[m.Name] = median(vals)
			}
		}
		res.Metrics["ok_frac"] = 1 - float64(res.Failed)/float64(res.Attempted)
		// The write-side numbers of the last repetition.
		if wlat.n > 0 {
			res.Extra["write_p50_ms"], res.Extra["write_p99_ms"] = wlat.p50, wlat.tail
		}
		if sp.durable {
			res.Extra["wal_bytes_per_write"] = ratio(float64(last.walAppended), float64(wlat.n))
			res.Extra["recover_s"] = last.recoverS
		}
		return res, nil
	}
	layerCounts(last, res, wlat)
	t0 = time.Now()
	if err := tracedPass(sp, o, lat.p50, res); err != nil {
		return nil, err
	}
	res.Phases["traced"] = time.Since(t0).Seconds()
	return res, nil
}

// verify checks one repetition's served results: against the oracle
// (every seed), against golden.json (seeds it knows), and for a durable
// workload by crashing, recovering and reading every write back.
func (p *pass) verify(res *result, o options, orc *oracleRun, known map[string]golden) error {
	sp := p.in.sp
	for _, log := range p.logs {
		res.Failed += log.failed
		if log.first != "" {
			res.note("failed: %s", log.first)
		}
	}
	if bad, first := orc.compare(p.streams, p.logs); bad > 0 {
		res.Failed += bad
		res.note("result mismatch: %s", first)
	}

	served := p.in.db
	if sp.durable {
		// Stop serving, then lose everything that was not flushed.
		p.in.srv.Abort()
		<-p.in.errc
		p.in.errc = nil
		p.in.tuner.Close()
		served.Crash()
		var err error
		if o.trace {
			if p.probe, err = probeWAL(p.in.dir, o.workDir); err != nil {
				return err
			}
		}
		if served, err = engine.OpenDurable(engine.Config{Dir: p.in.dir}); err != nil {
			return fmt.Errorf("recover after crash: %w", err)
		}
		defer served.Crash()
		rec := served.Recovery()
		p.recoverS, p.replayed = rec.Duration.Seconds(), rec.ReplayedRecords
	}
	state, err := stateDigest(served)
	if err != nil {
		return err
	}
	if state != orc.state {
		res.Failed++
		what := "final table contents differ from the oracle's"
		if sp.durable {
			what = "acknowledged writes missing after crash recovery"
		}
		res.note("state mismatch: %s (served %016x, oracle %016x)", what, state, orc.state)
	}

	key := goldenKey(sp, o.seed, p.streams)
	g, ok := known[key]
	if !ok {
		for si, log := range p.logs {
			res.note("stream %d digest %s unchecked: golden.json has no entry for %s", si, hex(digest(log.hashes)), key)
		}
		return nil
	}
	if res.Golden == "unchecked" {
		res.Golden = "match"
	}
	if generated := hex(stmtDigest(p.streams)); g.Statements != generated {
		res.Golden = "mismatch"
		res.note("golden: generated statements differ (digest %s, golden %s); regenerate with -regen-golden if the generator changed on purpose", generated, g.Statements)
		return nil
	}
	for si, log := range p.logs {
		if si < len(g.Streams) && g.Streams[si] == hex(digest(log.hashes)) {
			continue
		}
		res.Golden = "mismatch"
		// Name the statement: replay all of them, not just the sample.
		full, err := replayOracle(sp, o.seed, p.streams, 1)
		if err != nil {
			return err
		}
		_, first := full.compare(p.streams, p.logs)
		res.note("golden: stream %d digest %s, golden %s; first divergence: %s", si, hex(digest(log.hashes)), g.Streams[si], first)
		break
	}
	if g.State != hex(state) {
		res.Golden = "mismatch"
		res.note("golden: state digest %s, golden %s", hex(state), g.State)
	}
	return nil
}

// walProbe times the wal package from outside on the bytes the run
// itself logged: a scan of the crashed directory, then its batches
// appended again to a scratch writer under the same flush policy.
type walProbe struct {
	scanMBps float64
	append   dist
}

func probeWAL(dir, workDir string) (*walProbe, error) {
	t0 := time.Now()
	scan, err := wal.ScanDir(dir)
	if err != nil {
		return nil, err
	}
	pr := &walProbe{scanMBps: float64(scan.Bytes) / (1 << 20) / time.Since(t0).Seconds()}
	scratch, err := os.MkdirTemp(workDir, "walprobe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	w, err := wal.OpenWriter(wal.Options{Dir: scratch, Policy: wal.SyncGroup})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	var us []float64
	for _, b := range scan.Batches {
		t0 := time.Now()
		if _, err := w.Append(b.Recs); err != nil {
			return nil, fmt.Errorf("wal probe append: %w", err)
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	pr.append = summarize(us, 990)
	return pr, nil
}

// layerCounts fills the per-layer metrics that are counter deltas over
// the untraced measured phase (the real 2-connection load), plus the
// sizes read at its end.
func layerCounts(p *pass, res *result, wlat dist) {
	m, n := res.Metrics, float64(res.Statements)
	writes := float64(wlat.n)
	m["write.p50_ms"], m["write.p99_ms"] = wlat.p50, wlat.tail

	m["server.queue_wait_ns_per_stmt"] = p.delta("server.queue_wait_ns") / n
	m["server.rejected"] = p.delta("server.rejected")

	// A transaction is one operation to the client and several
	// statements to the engine, so rates use the engine's own count.
	stmts := p.delta("engine.statements")
	hits := p.delta("plancache.hits") + p.delta("plancache.rebind_hits")
	m["engine.stmt_hit_rate"] = ratio(p.delta("plancache.stmt_hits"), stmts)
	m["engine.plan_hit_rate"] = ratio(hits, hits+p.delta("plancache.misses"))
	m["engine.plan_misses_per_stmt"] = ratio(p.delta("plancache.misses"), stmts)
	m["engine.plan_evictions"] = p.delta("plancache.evictions")
	m["engine.plan_invalidations"] = p.delta("plancache.invalidations")
	m["engine.stale_retries"] = p.delta("engine.stale_retries")
	m["engine.transient_retries"] = p.delta("engine.transient_retries")

	memoHits := float64(p.b.memo.Hits - p.a.memo.Hits)
	m["whatif.memo_hit_rate"] = ratio(memoHits, memoHits+float64(p.b.memo.Misses-p.a.memo.Misses))
	m["whatif.memo_clears"] = float64(p.b.memo.Clears - p.a.memo.Clears)

	m["storage.heap_bytes"], m["storage.index_bytes"] = p.heapBytes, p.indexBytes

	m["wal.bytes_per_write"] = ratio(float64(p.walAppended), writes)
	m["wal.appends_per_write"] = ratio(p.delta("wal.appends"), writes)
	m["wal.fsyncs_per_write"] = ratio(p.delta("wal.fsyncs"), writes)
	m["wal.checkpoint_ms"] = p.checkpointMS
	m["wal.snapshot_bytes"] = float64(p.snapshotB)
	m["wal.recover_s"], m["wal.replayed_records"] = p.recoverS, float64(p.replayed)
	m["wal.append_us"], m["wal.append_p99_us"], m["wal.scan_mb_per_s"] = 0, 0, 0
	if p.probe != nil {
		m["wal.append_us"], m["wal.append_p99_us"] = p.probe.append.p50, p.probe.append.tail
		m["wal.scan_mb_per_s"] = p.probe.scanMBps
		res.Samples["wal.append"] = p.probe.append.n
	}

	var clientNS float64
	for _, log := range p.logs {
		for _, ns := range log.latNS {
			clientNS += float64(ns)
		}
	}
	m["core.overhead_frac"] = ratio(p.delta("tuner.total_ns"), clientNS)
	observed := p.delta("tuner.queries")
	m["core.line1_ns_per_stmt"] = ratio(p.delta("tuner.line1_ns"), observed)
	m["core.lines2_8_ns_per_stmt"] = ratio(p.delta("tuner.lines2_8_ns"), observed)
	m["core.lines9_18_ns_per_stmt"] = ratio(p.delta("tuner.lines9_18_ns"), observed)
	m["core.builds_started"] = p.delta("tuner.builds_started")
	m["core.builds_completed"] = p.delta("tuner.builds_completed")
	m["core.builds_aborted"] = p.delta("tuner.builds_aborted")
	m["core.transition_cost"] = p.delta("tuner.transition_cost")
	m["core.decisions"] = p.delta("tuner.decisions")
	m["core.indexes_final"] = float64(p.indexesFinal)

	m["runtime.allocs_per_stmt"] = float64(p.b.mem.Mallocs-p.a.mem.Mallocs) / n
	m["runtime.alloc_kb_per_stmt"] = float64(p.b.mem.TotalAlloc-p.a.mem.TotalAlloc) / 1024 / n
	m["runtime.gc_cycles"] = float64(p.b.mem.NumGC - p.a.mem.NumGC)
	m["runtime.gc_pause_ms"] = float64(p.b.mem.PauseTotalNs-p.a.mem.PauseTotalNs) / 1e6
}

func environment() map[string]string {
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// sortedNames lists a metric map's keys in a stable order for printing.
func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
