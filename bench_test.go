// Package repro's top-level benchmarks regenerate each of the paper's
// evaluation artifacts (Table 1, Figures 7(a)–(d), Figure 8, Figure 9)
// as testing.B benchmarks, plus micro-benchmarks for the tuner's
// per-query bookkeeping (the paper's "critical section", lines 1–8 of
// Figure 6) and the what-if primitives.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The benchmark scale is reduced so a full sweep stays in CPU-minutes;
// cmd/experiments regenerates the full-scale artifacts.
package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"onlinetuner/internal/bench"
	"onlinetuner/internal/catalog"
	"onlinetuner/internal/core"
	"onlinetuner/internal/core/singleindex"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/tpch"
	"onlinetuner/internal/wal"
	"onlinetuner/internal/whatif"
	"onlinetuner/internal/workload"
)

// benchTPCH is the reduced-scale workload configuration used by the
// figure benchmarks.
func benchTPCH() workload.TPCHOptions {
	o := workload.DefaultTPCH()
	o.Scale = 0.2
	o.NumBatches = 6
	o.DisruptCount = 16
	return o
}

// BenchmarkTable1 regenerates Table 1: the five simple-workload
// schedules with online and sequence-optimal costs.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7a regenerates Figure 7(a): OnlinePT per-batch cost on
// the TPC-H batch workload.
func BenchmarkFigure7a(b *testing.B) {
	o := benchTPCH()
	for i := 0; i < b.N; i++ {
		_, series, _, err := bench.Figure7a(o)
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, series)
	}
}

// BenchmarkFigure7b regenerates Figure 7(b): the three techniques on the
// same workload.
func BenchmarkFigure7b(b *testing.B) {
	o := benchTPCH()
	for i := 0; i < b.N; i++ {
		_, series, err := bench.Figure7b(o)
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, series)
	}
}

// BenchmarkFigure7c regenerates Figure 7(c): OnlinePT with the
// disruptive update batch.
func BenchmarkFigure7c(b *testing.B) {
	o := benchTPCH()
	for i := 0; i < b.N; i++ {
		_, series, _, err := bench.Figure7c(o)
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, series)
	}
}

// BenchmarkFigure7d regenerates Figure 7(d): all techniques under the
// disruptive updates.
func BenchmarkFigure7d(b *testing.B) {
	o := benchTPCH()
	for i := 0; i < b.N; i++ {
		_, series, err := bench.Figure7d(o)
		if err != nil {
			b.Fatal(err)
		}
		reportSeries(b, series)
	}
}

// BenchmarkFigure8 regenerates Figure 8: overall costs across workloads
// and techniques.
func BenchmarkFigure8(b *testing.B) {
	o := benchTPCH()
	o.NumBatches = 3
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure8(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.Totals["OnlinePT"], shorten(r.Workload)+"_online")
			}
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9: OnlinePT per-module overhead.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := bench.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for name, rows := range data {
				for _, r := range rows {
					if r.Module == "Total" {
						b.ReportMetric(float64(r.Duration.Microseconds()), shorten(name)+"_us_per_query")
					}
				}
			}
		}
	}
}

func reportSeries(b *testing.B, series []bench.Series) {
	b.Helper()
	for _, s := range series {
		b.ReportMetric(s.Total(), shorten(s.Name)+"_cost")
	}
}

func shorten(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		}
		if len(out) >= 12 {
			break
		}
	}
	return string(out)
}

// --- micro-benchmarks -----------------------------------------------

// tunedDB builds a loaded database with an attached tuner and a warm
// request stream.
func tunedDB(b *testing.B) (*engine.DB, *core.Tuner) {
	b.Helper()
	db := engine.Open()
	db.MustExec("CREATE TABLE R (id INT, a INT, b INT, c INT, d INT, e INT, PRIMARY KEY (id))")
	for i := 0; i < 3000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d, %d, %d, %d, %d)", i, i%1000, i, i, i, i))
	}
	if err := db.Analyze("R"); err != nil {
		b.Fatal(err)
	}
	return db, core.Attach(db, core.DefaultOptions())
}

// BenchmarkTunerPerQuery measures the tuner's whole per-query path
// (lines 1–21) including query processing.
func BenchmarkTunerPerQuery(b *testing.B) {
	db, _ := tunedDB(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Exec("SELECT a, b, c, id FROM R WHERE a < 100"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryNoTuner is the same query without the tuner, isolating
// the overhead.
func BenchmarkQueryNoTuner(b *testing.B) {
	db, _ := tunedDB(b)
	db.SetObserver(nil)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Exec("SELECT a, b, c, id FROM R WHERE a < 100"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeTPCH rebuilds the statistics of every table of a
// TPC-H scale-8 database (48 k lineitems), the statistics build every
// TPC-H load ends with.
func BenchmarkAnalyzeTPCH(b *testing.B) {
	db := engine.Open()
	if err := tpch.NewGenerator(8, 1).Load(db); err != nil {
		b.Fatal(err)
	}
	tables := db.Cat.Tables()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, t := range tables {
			if err := db.Analyze(t.Name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGetCost measures the what-if primitive at the heart of the Δ
// bookkeeping.
func BenchmarkGetCost(b *testing.B) {
	db, _ := tunedDB(b)
	env := db.WhatIfEnv()
	req := &whatif.Request{
		Table: "R", Kind: whatif.KindSeek,
		RangeCol: "a", RangeSel: 0.1,
		Required: []string{"a", "b", "c", "id"},
		Bindings: 1, RowsPerBinding: 300,
		TableRows: 3000, TablePages: env.TablePages("R"),
	}
	config := []*catalog.Index{
		{Name: "i1", Table: "R", Columns: []string{"id", "a", "b", "c"}},
		{Name: "i2", Table: "R", Columns: []string{"a", "b", "c", "id"}},
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = whatif.GetCost(env, req, config)
	}
}

// --- plan-cache hot-path benchmarks ---------------------------------

// hotPathDB loads the TPC-H database the BenchmarkHotPath* family runs
// on, with the plan cache on or bypassed and no tuner attached (the
// cache's effect is isolated from index builds).
func hotPathDB(b *testing.B, cached bool) (*engine.DB, *tpch.Generator) {
	b.Helper()
	db := engine.Open()
	gen := tpch.NewGenerator(0.2, 7)
	if err := gen.Load(db); err != nil {
		b.Fatal(err)
	}
	if !cached {
		db.BypassPlanCache()
	}
	return db, gen
}

// runHotPath replays stmts round-robin, one statement per op, after one
// warm-up pass that populates the caches. It reports the plan-cache hit
// fraction over the timed statements.
func runHotPath(b *testing.B, db *engine.DB, stmts []string) {
	for _, q := range stmts {
		if _, _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
	before := db.PlanCacheStats()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Exec(stmts[i%len(stmts)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := db.PlanCacheStats()
	hits := float64(s.Hits - before.Hits + s.RebindHits - before.RebindHits)
	if n := hits + float64(s.Misses-before.Misses); n > 0 {
		b.ReportMetric(hits/n, "hit_rate")
	}
}

// BenchmarkHotPathUncached replays one fixed-parameter TPC-H batch with
// the plan cache bypassed — the baseline the cached variants are
// measured against.
func BenchmarkHotPathUncached(b *testing.B) {
	db, gen := hotPathDB(b, false)
	runHotPath(b, db, gen.Batch())
}

// BenchmarkHotPathCached replays the same fixed-parameter batch through
// the cache: every timed statement is a statement-tier and plan-tier
// hit.
func BenchmarkHotPathCached(b *testing.B) {
	db, gen := hotPathDB(b, true)
	runHotPath(b, db, gen.Batch())
}

// BenchmarkHotPathVaryingUncached replays many TPC-H batches with fresh
// query parameters per batch, cache bypassed.
func BenchmarkHotPathVaryingUncached(b *testing.B) {
	db, gen := hotPathDB(b, false)
	var stmts []string
	for _, batch := range gen.Batches(16) {
		stmts = append(stmts, batch...)
	}
	runHotPath(b, db, stmts)
}

// BenchmarkHotPathVaryingRebind replays the same varying-parameter
// batches through the cache: a generic plan is reused, rebound to the
// new literals, wherever they give the selectivities it was optimized
// with.
func BenchmarkHotPathVaryingRebind(b *testing.B) {
	db, gen := hotPathDB(b, true)
	var stmts []string
	for _, batch := range gen.Batches(16) {
		stmts = append(stmts, batch...)
	}
	runHotPath(b, db, stmts)
}

// seekStmts is a repeated-template point-lookup workload over the TPC-H
// schema: per-statement work is one primary-key seek, so planning
// overhead — what the cache removes — dominates each op. distinct
// controls how many parameterizations cycle (1 = one exact text).
func seekStmts(distinct int) []string {
	out := make([]string, distinct)
	for i := range out {
		out[i] = fmt.Sprintf(
			"SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_orderkey = %d AND l_linenumber = 1",
			1+i*7)
	}
	return out
}

// BenchmarkHotPathSeekUncached is the planning-dominated baseline: the
// same point lookup optimized from scratch on every arrival.
func BenchmarkHotPathSeekUncached(b *testing.B) {
	db, _ := hotPathDB(b, false)
	runHotPath(b, db, seekStmts(1))
}

// BenchmarkHotPathSeekCached is the same statement through the cache:
// parser, fingerprinter and optimizer are all skipped.
func BenchmarkHotPathSeekCached(b *testing.B) {
	db, _ := hotPathDB(b, true)
	runHotPath(b, db, seekStmts(1))
}

// BenchmarkHotPathSeekRebind cycles many parameterizations of the
// template: each text is a hit in the statement tier after warm-up, and
// the plan tier serves each literal from the generic plan of its
// selectivity, rebound.
func BenchmarkHotPathSeekRebind(b *testing.B) {
	db, _ := hotPathDB(b, true)
	runHotPath(b, db, seekStmts(97))
}

// BenchmarkHotPathSeekDurable is the durability probe on the engine's
// fastest statement: the cached seek on a database opened with
// engine.OpenDurable, a WAL writer installed. Reads never touch the
// log, so this must match BenchmarkHotPathSeekCached — the per-
// statement durability cost on the read hot path is one nil-check in
// the statement-commit epilogue. (The non-durable engine.Open path is
// covered by BenchmarkHotPathSeekCached itself; its budget vs the seed
// is ≤ 1%.)
func BenchmarkHotPathSeekDurable(b *testing.B) {
	db, err := engine.OpenDurable(engine.Config{Dir: b.TempDir(), Sync: wal.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := tpch.NewGenerator(0.2, 7).Load(db); err != nil {
		b.Fatal(err)
	}
	runHotPath(b, db, seekStmts(1))
}

// BenchmarkHotPathSeekCachedTraced is the tracing-overhead probe on the
// engine's fastest statement: the cached seek with statement tracing
// enabled at the default sampling stride. The acceptance budget is a
// few percent over BenchmarkHotPathSeekCached.
func BenchmarkHotPathSeekCachedTraced(b *testing.B) {
	db, _ := hotPathDB(b, true)
	db.Observability().EnableTracing(0, 0)
	runHotPath(b, db, seekStmts(1))
}

// BenchmarkHotPathSeekCachedTracedAll traces every statement (stride
// 1) — the upper bound a dashboard session pays.
func BenchmarkHotPathSeekCachedTracedAll(b *testing.B) {
	db, _ := hotPathDB(b, true)
	db.Observability().EnableTracing(0, 1)
	runHotPath(b, db, seekStmts(1))
}

// idleFaultInjector plans every injection site at probability zero, so
// the engine takes the fault layer's full bookkeeping path without any
// fault ever firing.
func idleFaultInjector() *fault.Injector {
	inj := fault.New(1)
	for _, site := range []fault.Site{
		fault.PageRead, fault.PageWrite, fault.PageAlloc,
		fault.BTreeSplit, fault.BuildStep, fault.BuildFinish, fault.ExecStmt,
	} {
		inj.Plan(site, fault.Rule{Prob: 0})
	}
	return inj
}

// BenchmarkHotPathSeekCachedFaultDisabled is the fault-layer overhead
// probe on the engine's fastest statement: the cached seek with an
// injector installed but disarmed — the production configuration, where
// every site is a single atomic load. The acceptance budget is ≤ 1%
// over BenchmarkHotPathSeekCached.
func BenchmarkHotPathSeekCachedFaultDisabled(b *testing.B) {
	db, _ := hotPathDB(b, true)
	inj := idleFaultInjector()
	db.SetFaults(inj)
	inj.Disarm()
	runHotPath(b, db, seekStmts(1))
}

// BenchmarkHotPathSeekCachedFaultArmedIdle bounds the armed-but-never-
// firing path: every site draws from its seeded schedule and declines.
func BenchmarkHotPathSeekCachedFaultArmedIdle(b *testing.B) {
	db, _ := hotPathDB(b, true)
	inj := idleFaultInjector()
	db.SetFaults(inj)
	inj.Arm()
	runHotPath(b, db, seekStmts(1))
}

// BenchmarkHotPathCachedTraced replays the fixed-parameter TPC-H batch
// with sampled tracing: execution dominates, so the overhead should be
// indistinguishable from BenchmarkHotPathCached.
func BenchmarkHotPathCachedTraced(b *testing.B) {
	db, gen := hotPathDB(b, true)
	db.Observability().EnableTracing(0, 0)
	runHotPath(b, db, gen.Batch())
}

// seekAggStmts alternates the drift workload's two grouped OLAP
// templates (internal/workload's olapLineitemAgg and olapOrdersAgg) with
// a fresh date range per statement: a 120-day l_shipdate range grouped
// by l_returnflag and a 90-day o_orderdate range grouped by
// o_orderpriority.
func seekAggStmts(distinct int) []string {
	const epoch = 8035 // 1992-01-01, days since 1970-01-01
	date := func(days int) string {
		return time.Unix(int64(days)*86400, 0).UTC().Format("'2006-01-02'")
	}
	out := make([]string, distinct)
	for i := range out {
		d := epoch + (i*173)%2200
		if i%2 == 0 {
			out[i] = fmt.Sprintf(`SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) AS rev
				FROM lineitem WHERE l_shipdate >= DATE %s AND l_shipdate < DATE %s
				GROUP BY l_returnflag ORDER BY l_returnflag`, date(d), date(d+120))
		} else {
			out[i] = fmt.Sprintf(`SELECT o_orderpriority, COUNT(*) AS cnt
				FROM orders WHERE o_orderdate >= DATE %s AND o_orderdate < DATE %s
				GROUP BY o_orderpriority ORDER BY o_orderpriority`, date(d), date(d+90))
		}
	}
	return out
}

// BenchmarkHotPathSeekAgg is the tuned drift workload's OLAP statement in
// process: each template's HashAgg over a seek of its covering index, at
// the drift workload's scale 8, where every seek returns more than the
// executor's 256-row vectorization threshold (about 2 400 lineitem and
// 450 orders rows). B/op is what one such statement allocates: the seek's
// rows and the aggregate's morsel state come from pools, so it does not
// grow with the rows a seek returns.
func BenchmarkHotPathSeekAgg(b *testing.B) {
	db := engine.Open()
	if err := tpch.NewGenerator(8, 7).Load(db); err != nil {
		b.Fatal(err)
	}
	db.MustExec("CREATE INDEX li_ship_cover ON lineitem (l_shipdate, l_returnflag, l_extendedprice)")
	db.MustExec("CREATE INDEX ord_date_cover ON orders (o_orderdate, o_orderpriority)")
	stmts := seekAggStmts(32)
	for _, q := range stmts {
		a, err := db.ExplainAnalyze(q)
		if err != nil {
			b.Fatal(err)
		}
		if leaf := a.Nodes[len(a.Nodes)-1]; !strings.HasPrefix(leaf.Label, "IndexSeek") || leaf.ActualRows < 256 {
			b.Fatalf("%q does not seek 256 rows or more of a covering index: %+v", q, a.Nodes)
		}
	}
	runHotPath(b, db, stmts)
}

// parallelDB loads the TPC-H database the BenchmarkHotPathParallel*
// family runs on with an explicit intra-query worker budget and the
// plan cache off, so every op measures raw execution.
func parallelDB(b *testing.B, workers int) (*engine.DB, *tpch.Generator) {
	b.Helper()
	db := engine.OpenConfig(engine.Config{ExecWorkers: workers})
	gen := tpch.NewGenerator(0.2, 7)
	if err := gen.Load(db); err != nil {
		b.Fatal(err)
	}
	db.BypassPlanCache()
	return db, gen
}

// BenchmarkHotPathParallelSeq is the morsel-executor baseline: the
// fixed-parameter TPC-H batch at ExecWorkers=1 (no extra workers — the
// scheduler degrades to a plain sequential loop).
func BenchmarkHotPathParallelSeq(b *testing.B) {
	db, gen := parallelDB(b, 1)
	runHotPath(b, db, gen.Batch())
}

// BenchmarkHotPathParallel4 replays the same batch with four intra-
// query workers; against BenchmarkHotPathParallelSeq it is the
// in-process witness of the morsel executor's speed-up.
func BenchmarkHotPathParallel4(b *testing.B) {
	db, gen := parallelDB(b, 4)
	runHotPath(b, db, gen.Batch())
}

// BenchmarkOnlineSI measures the constant-time single-index observer.
func BenchmarkOnlineSI(b *testing.B) {
	on := singleindex.New(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		on.Observe(float64(i%7), float64(i%5))
	}
}

// BenchmarkOptSchedule measures the offline single-index DP.
func BenchmarkOptSchedule(b *testing.B) {
	n := 1000
	c0 := make([]float64, n)
	c1 := make([]float64, n)
	for i := range c0 {
		c0[i] = float64(i % 13)
		c1[i] = float64(i % 7)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := singleindex.OptSchedule(c0, c1, 25); err != nil {
			b.Fatal(err)
		}
	}
}
