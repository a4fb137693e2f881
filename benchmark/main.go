// Command benchmark is the repo's one yardstick: it loads TPC-H from a
// seed, serves it through the real daemon over loopback TCP, drives it
// closed loop from pre-generated statements, checks every result, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) named in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed for the TPC-H data and every statement")
	seconds := fs.Int("seconds", defaultSeconds, "run length: statement counts are frozen per second of it")
	trace := fs.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics instead of the end-to-end ones")
	report := fs.String("report", "", "append each run's full result to this JSON-lines file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two report files given as arguments: a.jsonl b.jsonl")
	regen := fs.String("regen-golden", "", "replay seeds 1 and 2 on the oracle configuration and write the digests to this file")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json")
	workDir := fs.String("dir", ".bench_build", "scratch directory for durable databases")
	outDir := fs.String("out", "benchmark/out", "directory for <workload>.trace.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *printManifest:
		b, err := manifest()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two report files"))
		}
		worse, err := compareReports(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	case *regen != "":
		if err := regenGolden(*regen, []int64{1, 2}, *seconds); err != nil {
			return fail(err)
		}
		return 0
	}

	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return fail(err)
	}
	run := specs
	if *workload != "all" {
		sp := specByName(*workload)
		if sp == nil {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		run = []*spec{sp}
	}
	code := 0
	for _, sp := range run {
		res, err := runWorkload(sp, options{
			seed: *seed, seconds: *seconds, trace: *trace != 0,
			workDir: *workDir, outDir: *outDir,
		})
		if err != nil {
			return fail(fmt.Errorf("%s: %w", sp.name, err))
		}
		printResult(res)
		if *report != "" {
			if err := appendReport(*report, res); err != nil {
				return fail(err)
			}
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// unitOf finds a metric's unit in the tables BENCHMARK.json is made of.
func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// printResult writes the human-readable block and then, as the last
// line, the one JSON object the driver reads.
func printResult(res *result) {
	fmt.Printf("== %s seed=%d seconds=%d trace=%v: %d statements, %d failed, golden %s\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Statements, res.Failed, res.Golden)
	for _, note := range res.Notes {
		fmt.Println("   ", note)
	}
	names := make([]string, 0, len(res.Samples))
	for name, n := range res.Samples {
		names = append(names, fmt.Sprintf("%s n=%d", name, n))
	}
	sort.Strings(names)
	fmt.Println("    samples:", strings.Join(names, ", "))
	fmt.Print("    phases (s):")
	for _, name := range sortedNames(res.Phases) {
		fmt.Printf(" %s=%.1f", name, res.Phases[name])
	}
	fmt.Println()
	for i, rep := range res.Reps {
		fmt.Printf("    repetition %d as measured: stmt_per_s=%.5g lat_p50_ms=%.4g lat_p99_ms=%.4g cpu_ms_per_stmt=%.4g setup_s=%.3g calibration_ms=%.3g\n",
			i+1, rep["stmt_per_s"], rep["lat_p50_ms"], rep["lat_p99_ms"], rep["cpu_ms_per_stmt"], rep["setup_s"], rep["calibration_ms"])
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, name := range sortedNames(res.Metrics) {
		v := res.Metrics[name]
		fmt.Printf("    %-42s %14.6g %s\n", name, v, unitOf(name))
		line.Metrics[name] = value{v, unitOf(name)}
	}
	for _, name := range sortedNames(res.Extra) {
		fmt.Printf("    %-42s %14.6g (not a BENCHMARK.json metric: undefined on some workloads)\n", name, res.Extra[name])
	}
	b, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Println(string(b))
}

func appendReport(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
