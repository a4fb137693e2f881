package main

import (
	"encoding/json"
	"runtime"
)

// spec is one workload: what database it runs on, how many closed-loop
// connections drive it, and how many statements a second of --seconds
// buys. Counts are frozen per second so that a run's statement count is
// a pure function of its flags (counts repeat exactly) while the seed
// commit still measures for about --seconds on the reference box.
type spec struct {
	name string
	why  string
	// scale is the TPC-H scale (tpch.Scale units: 1.0 ≈ 6000 lineitems).
	scale float64
	// streams is the number of independent statement lists; each is
	// replayed by its own connection when the host has that many CPUs.
	streams int
	tuner   bool // async OnlinePT attached, as `onlinetuner serve` does
	durable bool // OpenDurable on a temp dir, SyncGroup while measured
	// perSecond is the frozen statement rate: an untraced run replays
	// perSecond × --seconds statements, a third of them in each of its
	// three repetitions; the single-connection traced pass replays the
	// first tracedPerSecond × --seconds of a repetition's statements.
	perSecond       int
	tracedPerSecond int
	// oracleEvery samples the reads the in-run oracle re-executes (every
	// write is always replayed); 1 checks every statement.
	oracleEvery int
	gen         func(seed int64, sp *spec, n int) [][]stmt
}

// The four workloads. Names are the benchmark's public vocabulary:
// BENCHMARK.json, golden.json and every later issue refer to them.
var specs = []*spec{
	{
		name:    "point_served",
		why:     "Microsecond PK lookups over the socket: server framing, sql, the engine caches and the tuner hook are the latency; executor, storage and wal barely run.",
		scale:   8,
		streams: 2, tuner: true,
		perSecond: 9000, tracedPerSecond: 1800, oracleEvery: 8,
		gen: genPointServed,
	},
	{
		name:    "scan_olap",
		why:     "Heap scans and aggregates with fresh literals and no tuner: executor, vec, storage and optimizer do the work; bypass workload for every tuner, cache and WAL change.",
		scale:   16,
		streams: 2, tuner: false,
		perSecond: 240, tracedPerSecond: 24, oracleEvery: 16,
		gen: genScanOLAP,
	},
	{
		name:    "drift_tuned",
		why:     "OLAP and OLTP epochs flip on one connection with the tuner cold: it must observe, bid, build and drop, so both its overhead and its cost quality show, exactly repeatably.",
		scale:   8,
		streams: 1, tuner: true,
		perSecond: 1200, tracedPerSecond: 400, oracleEvery: 16,
		gen: genDriftTuned,
	},
	{
		name:    "write_durable",
		why:     "PK updates, transactions and reads on a durable directory under group commit, then crash and recovery: the only workload where wal append, fsync wait, checkpoint and replay do work.",
		scale:   8,
		streams: 2, tuner: true, durable: true,
		perSecond: 600, tracedPerSecond: 200, oracleEvery: 1,
		gen: genWriteDurable,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// statements is how many statements one repetition replays.
func (sp *spec) statements(seconds int) int { return sp.perSecond * seconds / repetitions }

// conns is the closed-loop connection count: one per stream, capped at
// the host's CPUs so the single generator process never oversubscribes.
func (sp *spec) conns() int {
	if n := runtime.NumCPU(); n < sp.streams {
		return n
	}
	return sp.streams
}

// metric is one named number the benchmark prints.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// defaultSeconds is BENCHMARK.json's run_seconds and the -seconds
// default; golden.json holds digests for this length. The driver makes
// 92 runs in 57 minutes with set-up and two builds inside, about 30 s a
// run all told; the issue's ≈35 s measured per workload does not fit,
// so every count is scaled by one common factor of about 1/3.
const defaultSeconds = 15

// endToEnd are the metrics a user of the served database sees, measured
// by the untraced run. A bound is the share of the parent's median by
// which the metric may worsen before a change counts as a regression.
// Every bound but ok_frac's sits at the contract's cap: ten runs on ten
// seeds spread (inter-quartile, as a share of the median) by up to 17 %
// on the timings in this sandbox and by 14–17 % on drift_tuned's cost
// and heap, where the seed changes what the tuner builds; README.md has
// the runs.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "stmt_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ok_frac", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "cost_units_per_stmt", Unit: "cost", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_stmt", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of the traced run (--trace 1),
// grouped by the repo package they look into. Counts are deltas of
// public counters over the untraced pass; timings are p50 (p99 where
// named) over harness spans in the traced pass.
var perLayer = []metric{
	{Name: "write.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "write.p99_ms", Unit: "ms", Better: "lower"},

	{Name: "server.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "server.wire_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.resp_bytes_per_stmt", Unit: "B", Better: "lower"},
	{Name: "server.queue_wait_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},

	{Name: "sql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sql.fingerprint_us", Unit: "us", Better: "lower"},

	{Name: "engine.exec_us", Unit: "us", Better: "lower"},
	{Name: "engine.stmt_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "engine.plan_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "engine.plan_misses_per_stmt", Unit: "ratio", Better: "lower"},
	{Name: "engine.plan_evictions", Unit: "count", Better: "lower"},
	{Name: "engine.plan_invalidations", Unit: "count", Better: "lower"},
	{Name: "engine.stale_retries", Unit: "count", Better: "lower"},
	{Name: "engine.transient_retries", Unit: "count", Better: "lower"},

	{Name: "optimizer.optimize_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.requests_per_stmt", Unit: "count", Better: "lower"},
	{Name: "whatif.memo_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "whatif.memo_clears", Unit: "count", Better: "lower"},

	{Name: "executor.run_us", Unit: "us", Better: "lower"},
	{Name: "executor.rows_examined_per_row_returned", Unit: "ratio", Better: "lower"},
	{Name: "executor.ns_per_row_examined", Unit: "ns", Better: "lower"},

	{Name: "storage.heap_bytes", Unit: "B", Better: "lower"},
	{Name: "storage.index_bytes", Unit: "B", Better: "lower"},
	{Name: "storage.create_index_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.drop_index_ms", Unit: "ms", Better: "lower"},

	{Name: "wal.bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "wal.appends_per_write", Unit: "ratio", Better: "lower"},
	{Name: "wal.fsyncs_per_write", Unit: "ratio", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_p99_us", Unit: "us", Better: "lower"},
	{Name: "wal.scan_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "wal.replayed_records", Unit: "count", Better: "lower"},
	{Name: "wal.recover_s", Unit: "s", Better: "lower"},

	{Name: "core.on_executed_us", Unit: "us", Better: "lower"},
	{Name: "core.on_executed_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.line1_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "core.lines2_8_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "core.lines9_18_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "core.builds_started", Unit: "count", Better: "lower"},
	{Name: "core.builds_completed", Unit: "count", Better: "higher"},
	{Name: "core.builds_aborted", Unit: "count", Better: "lower"},
	{Name: "core.transition_cost", Unit: "cost", Better: "lower"},
	{Name: "core.indexes_final", Unit: "count", Better: "lower"},
	{Name: "core.decisions", Unit: "count", Better: "lower"},

	{Name: "runtime.allocs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_stmt", Unit: "kB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},

	{Name: "ladder.model_us", Unit: "us", Better: "lower"},
	{Name: "ladder.residual_frac", Unit: "ratio", Better: "lower"},
	{Name: "ladder.roundtrip_ratio", Unit: "ratio", Better: "higher"},
}

// manifest renders BENCHMARK.json from the tables above, so the file at
// the repo root is generated (`-manifest`) rather than kept in step by
// hand; TestSmoke fails when the two disagree.
func manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"` // no bounds: the field is omitted
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, sp := range specs {
		m.Workloads = append(m.Workloads, workload{sp.name, sp.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
