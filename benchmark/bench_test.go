package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestPercentileRule: p50 plus the highest of p90/p99/p99.9 with at
// least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, limit, want int }{
		{50, 999, 500},   // 5 beyond p90: no tail supported
		{100, 999, 900},  // exactly 10 beyond p90
		{999, 999, 900},  // 9 beyond p99
		{1000, 999, 990}, // exactly 10 beyond p99
		{9999, 999, 990},
		{10000, 999, 999},
		{10000, 990, 990}, // a metric named p99 never reports p99.9
	} {
		if got := tailQuantile(c.n, c.limit); got != c.want {
			t.Errorf("tailQuantile(%d, %d) = %d, want %d", c.n, c.limit, got, c.want)
		}
	}
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(1000 - i) // unsorted on purpose
	}
	d := summarize(vals, 990)
	if d.n != 1000 || d.p50 != 500 || d.tail != 990 || d.tailQ != 990 {
		t.Errorf("summarize = %+v, want n=1000 p50=500 p99=990", d)
	}
}

// TestQuartiles pins the exclusive method against values computed with
// Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 7, 3, 4, 9, 2, 8, 5, 6})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %g %g %g, want 1 2 3", q1, med, q3)
	}
}

// TestSelfTime: a span's self time is its duration minus its direct
// children's, for nested and for sibling children.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},   // root
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},   // first child
		{ID: 3, Parent: 2, StartNS: 15, EndNS: 25},   // nested under it
		{ID: 4, Parent: 1, StartNS: 50, EndNS: 90},   // sibling child
		{ID: 5, Parent: 0, StartNS: 100, EndNS: 130}, // second root
	}
	want := []int64{30, 20, 10, 40, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i+1, got, want[i])
		}
	}
	// The tracer itself nests by call order.
	tr := newTracer()
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	c := tr.begin("c")
	tr.end(c)
	tr.end(a)
	if tr.spans[b-1].Parent != a || tr.spans[c-1].Parent != a || tr.spans[a-1].Parent != 0 {
		t.Errorf("tracer parents = %+v", tr.spans)
	}
}

// TestGeneratorDeterminism: the same seed gives the same statements,
// another seed gives others, on every workload.
func TestGeneratorDeterminism(t *testing.T) {
	for _, sp := range specs {
		n := sp.perSecond / 4
		a, b := stmtDigest(sp.gen(1, sp, n)), stmtDigest(sp.gen(1, sp, n))
		if a != b {
			t.Errorf("%s: seed 1 generated two different workloads (%x, %x)", sp.name, a, b)
		}
		if c := stmtDigest(sp.gen(2, sp, n)); c == a {
			t.Errorf("%s: seeds 1 and 2 generated the same workload", sp.name)
		}
		if streams := sp.gen(1, sp, n); len(streams) != sp.streams {
			t.Errorf("%s: %d streams, want %d", sp.name, len(streams), sp.streams)
		}
	}
}

// TestVerdict: the compare rule's three outcomes.
func TestVerdict(t *testing.T) {
	lower := metric{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	higher := metric{Name: "stmt_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		m    metric
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{lower, steady, []float64{120, 121, 119, 120, 120}, "worse"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, "ok"}, // better is never worse
		{higher, steady, []float64{80, 81, 79, 80, 80}, "worse"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{lower, steady, []float64{60, 100, 140, 180, 120}, "unresolved"},
	} {
		if _, _, _, _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestManifest: BENCHMARK.json at the repo root is what -manifest
// prints, and it keeps the limits the driver enforces.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) || seen[n] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", n, u)
		}
		seen[n] = true
	}
	for _, m := range endToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit)
	}
	for _, sp := range specs {
		if !name.MatchString(sp.name) || len(sp.why) > 200 || seen[sp.name] {
			t.Errorf("workload %q: bad or repeated name, or why longer than 200", sp.name)
		}
		seen[sp.name] = true
	}
}

// TestSmoke runs all four workloads at 1/200 size, untraced and
// traced, and holds the output to BENCHMARK.json: every name emitted
// and nothing else, nothing failed, the oracle agreed, and the durable
// workload's writes survived the crash.
func TestSmoke(t *testing.T) {
	for _, full := range specs {
		// Same workload, 1/200 of the statements on a scale-1 database.
		small := *full
		small.scale = 1
		small.perSecond = full.perSecond * defaultSeconds / 200
		small.tracedPerSecond = full.tracedPerSecond * defaultSeconds / 200
		sp := &small
		for _, trace := range []bool{false, true} {
			o := options{seed: 1, seconds: 1, trace: trace, workDir: t.TempDir(), outDir: t.TempDir()}
			res, err := runWorkload(sp, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d notes=%v", sp.name, trace, res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", sp.name, trace, m.Name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", sp.name, trace, len(res.Metrics), len(want))
			}
			if !trace {
				for _, m := range endToEnd {
					if res.Metrics[m.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, must never be 0", sp.name, m.Name, res.Metrics[m.Name])
					}
				}
				if sp.durable && (res.Extra["recover_s"] <= 0 || res.Extra["wal_bytes_per_write"] <= 0) {
					t.Errorf("%s: crash recovery was not exercised: %v", sp.name, res.Extra)
				}
				continue
			}
			spans, err := os.ReadFile(filepath.Join(o.outDir, sp.name+".trace.jsonl"))
			if err != nil {
				t.Errorf("%s: %v", sp.name, err)
				continue
			}
			var first span
			if err := json.Unmarshal(spans[:bytes.IndexByte(spans, '\n')], &first); err != nil || first.Name != "server.roundtrip" {
				t.Errorf("%s: first span %+v (%v), want a server.roundtrip", sp.name, first, err)
			}
		}
	}
}

// TestGoldenNamesDivergence: a served result that differs from the
// oracle's is counted and named, statement and all.
func TestGoldenNamesDivergence(t *testing.T) {
	sp := specByName("point_served")
	streams := sp.gen(1, sp, 40)
	orc, err := replayOracle(sp, 1, streams, 1)
	if err != nil {
		t.Fatal(err)
	}
	var logs []*streamLog
	for _, hashes := range orc.hashes {
		logs = append(logs, &streamLog{hashes: append([]uint64(nil), hashes...)})
	}
	if bad, first := orc.compare(streams, logs); bad != 0 {
		t.Fatalf("oracle disagrees with itself: %s", first)
	}
	logs[1].hashes[3]++
	bad, first := orc.compare(streams, logs)
	if bad != 1 || !regexp.MustCompile(`^stream 1 statement 3 \(SELECT `).MatchString(first) {
		t.Errorf("compare = %d, %q; want 1 mismatch naming stream 1 statement 3", bad, first)
	}
}
