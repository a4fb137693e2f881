package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readReport groups a JSON-lines report's untraced runs by workload and
// metric.
func readReport(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out, sc.Err()
}

// verdict applies the regression rule to one workload × metric cell:
// unresolved when either side's inter-quartile spread is wider than the
// bound, worse when b's median is worse than a's by more than the bound.
func verdict(m metric, a, b []float64) (medA, medB, diff, spread float64, word string) {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	spread = ratio(q3a-q1a, medA)
	if s := ratio(q3b-q1b, medB); s > spread {
		spread = s
	}
	diff = ratio(medB-medA, medA)
	worse := diff
	if m.Better == "higher" {
		worse = -diff
	}
	switch {
	case spread > m.Bound:
		word = "unresolved"
	case worse > m.Bound:
		word = "worse"
	default:
		word = "ok"
	}
	return medA, medB, diff, spread, word
}

// compareReports prints the verdict table for two sets of runs and
// reports whether any cell is worse.
func compareReports(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-14s %-20s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "a(median)", "b(median)", "diff", "spread", "bound", "verdict")
	for _, sp := range specs {
		for _, m := range endToEnd {
			va, vb := a[sp.name][m.Name], b[sp.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB, diff, spread, word := verdict(m, va, vb)
			if word == "worse" {
				anyWorse = true
			}
			fmt.Fprintf(w, "%-14s %-20s %12.5g %12.5g %+7.1f%% %7.1f%% %6.0f%%  %s (n=%d,%d)\n",
				sp.name, m.Name, medA, medB, diff*100, spread*100, m.Bound*100, word, len(va), len(vb))
		}
	}
	return anyWorse, nil
}
