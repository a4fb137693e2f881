package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"onlinetuner/internal/core"
	"onlinetuner/internal/tuner"
	"onlinetuner/internal/workload"
)

// scheduleString renders an online run in Table 1's notation:
// kE(q)[c]; C(I)[b]; D(I); ...
func scheduleString(r *Result) string {
	type runAgg struct {
		label string
		cost  float64
		count int
	}
	// Map statements to short labels (q1, q2, ... by first occurrence).
	labels := map[string]string{}
	label := func(sql string) string {
		key := sql
		if strings.HasPrefix(strings.ToUpper(sql), "INSERT") || strings.HasPrefix(strings.ToUpper(sql), "UPDATE") || strings.HasPrefix(strings.ToUpper(sql), "DELETE") {
			key = "DML"
		}
		if l, ok := labels[key]; ok {
			return l
		}
		l := fmt.Sprintf("q%d", len(labels)+1)
		labels[key] = l
		return l
	}
	// Events indexed by the statement (1-based AtQuery) they follow.
	evAt := map[int64][]core.Event{}
	for _, ev := range r.Events {
		evAt[ev.AtQuery] = append(evAt[ev.AtQuery], ev)
	}
	var parts []string
	var cur *runAgg
	flush := func() {
		if cur != nil && cur.count > 0 {
			parts = append(parts, fmt.Sprintf("%dE(%s)[%.2f]", cur.count, cur.label, cur.cost/float64(cur.count)))
		}
		cur = nil
	}
	for i, sql := range r.StatementSQL {
		l := label(sql)
		c := r.PerStatement[i]
		// Strip transition cost embedded at event statements so the run
		// average stays the pure query cost.
		for _, ev := range evAt[int64(i+1)] {
			c -= ev.Cost
		}
		if cur == nil || cur.label != l || math.Abs(c-cur.cost/float64(max(cur.count, 1))) > 0.05*(1+c) {
			flush()
			cur = &runAgg{label: l}
		}
		cur.cost += c
		cur.count++
		if evs := evAt[int64(i+1)]; len(evs) > 0 {
			flush()
			for _, ev := range evs {
				parts = append(parts, ev.String())
			}
		}
	}
	flush()
	return strings.Join(collapsePairs(parts), "; ")
}

// collapsePairs rewrites repeated adjacent two-part patterns
// "1E(a)[x]; 1E(b)[y]" into the paper's "kE(a;b)[x;y]" notation.
func collapsePairs(parts []string) []string {
	var out []string
	i := 0
	for i < len(parts) {
		a, okA := parseSingle(parts[i])
		if !okA || i+1 >= len(parts) {
			out = append(out, parts[i])
			i++
			continue
		}
		b, okB := parseSingle(parts[i+1])
		if !okB {
			out = append(out, parts[i])
			i++
			continue
		}
		k := 1
		for i+2*k+1 < len(parts) {
			na, okNA := parseSingle(parts[i+2*k])
			nb, okNB := parseSingle(parts[i+2*k+1])
			if okNA && okNB && na == a && nb == b {
				k++
				continue
			}
			break
		}
		if k > 1 {
			out = append(out, fmt.Sprintf("%dE(%s;%s)[%s;%s]", k, a.label, b.label, a.cost, b.cost))
			i += 2 * k
			continue
		}
		out = append(out, parts[i])
		i++
	}
	return out
}

type single struct{ label, cost string }

// parseSingle matches "1E(label)[cost]".
func parseSingle(s string) (single, bool) {
	if !strings.HasPrefix(s, "1E(") {
		return single{}, false
	}
	close1 := strings.Index(s, ")[")
	if close1 < 0 || !strings.HasSuffix(s, "]") {
		return single{}, false
	}
	return single{label: s[3:close1], cost: s[close1+2 : len(s)-1]}, true
}

// Table1 reproduces Table 1: for each simple workload, the online
// configuration schedule, the OnlinePT total cost, and the sequence-
// optimal reference cost (the paper's manually constructed Opt, realized
// here by the Offline-Seq schedule that knows the future).
func Table1() (string, error) {
	var sb strings.Builder
	sb.WriteString("Table 1: configuration schedules for simple workloads\n")
	sb.WriteString(strings.Repeat("-", 100) + "\n")
	for _, w := range workload.SimpleWorkloads() {
		rs, err := replayAll(w, tuner.NewOnlinePT(core.DefaultOptions()), tuner.NewOmniscient(16))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%-45s Cost_online=%9.2f  [Cost_opt=%9.2f]\n", w.Name, rs[0].Total, rs[1].Total)
		fmt.Fprintf(&sb, "  schedule: %s\n", scheduleString(rs[0]))
	}
	return sb.String(), nil
}

// Series is one named per-batch cost curve.
type Series struct {
	Name     string
	PerBatch []float64
}

// Total sums the series.
func (s Series) Total() float64 {
	t := 0.0
	for _, v := range s.PerBatch {
		t += v
	}
	return t
}

// Chart renders aligned per-batch series as an ASCII table plus bars.
func Chart(title string, series []Series) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	maxV := 0.0
	n := 0
	for _, s := range series {
		if len(s.PerBatch) > n {
			n = len(s.PerBatch)
		}
		for _, v := range s.PerBatch {
			if v > maxV {
				maxV = v
			}
		}
	}
	sb.WriteString("batch")
	for _, s := range series {
		fmt.Fprintf(&sb, " | %18s", s.Name)
	}
	sb.WriteString("\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%5d", i+1)
		for _, s := range series {
			if i < len(s.PerBatch) {
				fmt.Fprintf(&sb, " | %9.2f %s", s.PerBatch[i], bar(s.PerBatch[i], maxV, 8))
			} else {
				fmt.Fprintf(&sb, " | %18s", "")
			}
		}
		sb.WriteString("\n")
	}
	sb.WriteString("total")
	for _, s := range series {
		fmt.Fprintf(&sb, " | %18.2f", s.Total())
	}
	sb.WriteString("\n")
	return sb.String()
}

func bar(v, max float64, width int) string {
	if max <= 0 {
		return strings.Repeat(" ", width)
	}
	n := int(v / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(" ", width-n)
}

// tpchWorkload builds the Figure 7 workload, optionally with the
// disruptive update batch after batch 14.
func tpchWorkload(disrupt bool, o workload.TPCHOptions) *workload.Workload {
	if disrupt {
		o.DisruptAfterBatch = 14
		if o.DisruptCount == 0 {
			o.DisruptCount = 40
		}
	}
	return workload.TPCH(o)
}

// Figure7a runs OnlinePT over the TPC-H batches and returns its
// per-batch cost series (Figure 7(a)).
func Figure7a(o workload.TPCHOptions) (*workload.Workload, []Series, *Result, error) {
	w := tpchWorkload(false, o)
	on, err := Replay(w, tuner.NewOnlinePT(core.DefaultOptions()))
	if err != nil {
		return nil, nil, nil, err
	}
	return w, []Series{{Name: "OnlinePT", PerBatch: w.Batches(on.PerStatement)}}, on, nil
}

// Figure7b adds the offline baselines on the same workload (Figure 7(b)).
func Figure7b(o workload.TPCHOptions) (*workload.Workload, []Series, error) {
	w := tpchWorkload(false, o)
	return compareAll(w)
}

// Figure7c is Figure 7(a) with the disruptive updates (Figure 7(c)).
func Figure7c(o workload.TPCHOptions) (*workload.Workload, []Series, *Result, error) {
	w := tpchWorkload(true, o)
	on, err := Replay(w, tuner.NewOnlinePT(core.DefaultOptions()))
	if err != nil {
		return nil, nil, nil, err
	}
	return w, []Series{{Name: "OnlinePT", PerBatch: w.Batches(on.PerStatement)}}, on, nil
}

// Figure7d compares all techniques under the disruptive updates
// (Figure 7(d)).
func Figure7d(o workload.TPCHOptions) (*workload.Workload, []Series, error) {
	w := tpchWorkload(true, o)
	return compareAll(w)
}

func compareAll(w *workload.Workload) (*workload.Workload, []Series, error) {
	rs, err := replayAll(w, tuner.NewOnlinePT(core.DefaultOptions()), tuner.NewOfflineSet(24), tuner.NewOmniscient(24))
	if err != nil {
		return nil, nil, err
	}
	series := make([]Series, len(rs))
	for i, r := range rs {
		series[i] = Series{Name: r.Technique, PerBatch: w.Batches(r.PerStatement)}
	}
	return w, series, nil
}

// replayAll replays each advisor over the workload in turn.
func replayAll(w *workload.Workload, advisors ...tuner.Advisor) ([]*Result, error) {
	rs := make([]*Result, len(advisors))
	for i, a := range advisors {
		r, err := Replay(w, a)
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}
	return rs, nil
}

// Figure8Row is one workload's totals across techniques.
type Figure8Row struct {
	Workload string
	Totals   map[string]float64
}

// Figure8 reproduces the overall-cost summary across workloads and
// techniques (Figure 8).
func Figure8(o workload.TPCHOptions) ([]Figure8Row, error) {
	var rows []Figure8Row
	run := func(name string, w *workload.Workload) error {
		rs, err := replayAll(w, tuner.NewOnlinePT(core.DefaultOptions()), tuner.NewOfflineSet(24), tuner.NewOmniscient(24), &tuner.NoTuner{})
		if err != nil {
			return err
		}
		row := Figure8Row{Workload: name, Totals: map[string]float64{}}
		for i, r := range rs {
			row.Totals[figure8Techniques[i]] = r.Total
		}
		rows = append(rows, row)
		return nil
	}
	if err := run("TPC-H", tpchWorkload(false, o)); err != nil {
		return nil, err
	}
	if err := run("TPC-H+updates", tpchWorkload(true, o)); err != nil {
		return nil, err
	}
	for _, w := range workload.SimpleWorkloads() {
		if err := run(w.Name, w); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// figure8Techniques are Figure 8's columns, in the order Figure8 replays
// them.
var figure8Techniques = []string{"OnlinePT", "Offline-Set", "Offline-Seq", "NoTuning"}

// FormatFigure8 renders the Figure 8 rows.
func FormatFigure8(rows []Figure8Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 8: overall cost by technique\n")
	fmt.Fprintf(&sb, "%-50s", "workload")
	for _, t := range figure8Techniques {
		fmt.Fprintf(&sb, " %14s", t)
	}
	sb.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-50s", r.Workload)
		for _, t := range figure8Techniques {
			fmt.Fprintf(&sb, " %14.2f", r.Totals[t])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// OverheadRow is one module row of Figure 9.
type OverheadRow struct {
	Module   string
	Duration time.Duration
	Fraction float64 // of query processing time
}

// Figure9 measures OnlinePT's per-module overhead on a TPC-H workload
// (|W| ≈ 640: 29 batches) and the simple workload W1 (|W| = 500),
// reporting average per-query time and the fraction of query processing
// it represents (Figure 9).
func Figure9() (map[string][]OverheadRow, error) {
	out := map[string][]OverheadRow{}
	measure := func(name string, w *workload.Workload) error {
		r, err := figure9Replay(w)
		if err != nil {
			return err
		}
		m := r.Metrics
		qp := r.QueryProcessing
		rows := []OverheadRow{
			{Module: "Total", Duration: m.Total},
			{Module: "Line 1", Duration: m.Line1},
			{Module: "Lines 2-8", Duration: m.Lines28},
			{Module: "Lines 9-18", Duration: m.Lines918},
			{Module: "Line 18", Duration: m.Line18},
		}
		for i := range rows {
			if qp > 0 {
				rows[i].Fraction = float64(rows[i].Duration) / float64(qp)
			}
			if m.Queries > 0 {
				rows[i].Duration = time.Duration(int64(rows[i].Duration) / m.Queries)
			}
		}
		out[name] = rows
		return nil
	}
	tp := workload.DefaultTPCH()
	tp.NumBatches = 29 // 29 × 22 = 638 ≈ the paper's |W| = 640
	if err := measure(fmt.Sprintf("TPC-H (|W|=%d)", tp.NumBatches*22), workload.TPCH(tp)); err != nil {
		return nil, err
	}
	if err := measure("Simple (|W|=500)", workload.W1()); err != nil {
		return nil, err
	}
	return out, nil
}

// figure9Replay is Figure 9's run of OnlinePT over w, the one replay
// that executes SELECTs: Figure 9 divides by query-processing time.
func figure9Replay(w *workload.Workload) (*Result, error) {
	return replay(w, tuner.NewOnlinePT(core.DefaultOptions()), true)
}

// FormatFigure9 renders the overhead table.
func FormatFigure9(data map[string][]OverheadRow) string {
	var sb strings.Builder
	sb.WriteString("Figure 9: server overhead of OnlinePT (avg per query, % of query processing)\n")
	names := make([]string, 0, len(data))
	for name := range data {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "%s\n", name)
		for _, r := range data[name] {
			fmt.Fprintf(&sb, "  %-12s %12v (%.2f%%)\n", r.Module, r.Duration, r.Fraction*100)
		}
	}
	return sb.String()
}
