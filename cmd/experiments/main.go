// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 4): Table 1's configuration schedules, the
// Figure 7 per-batch cost curves (with and without disruptive updates),
// the Figure 8 overall-cost summary and the Figure 9 overhead report,
// plus the damping ablation, the competitive-ratio sweep and the tuner
// race.
//
// Usage:
//
//	experiments [flags] table1|fig7a|fig7b|fig7c|fig7d|fig8|fig9|ablation|competitive|tuners|all
//
// "all" runs everything but tuners, in that order. tuners races every
// advisor over the scenario matrix (the recorded BENCH_tuners.json with
// -out FILE), or re-checks a recorded report with -verify FILE.
//
// Flags scale the TPC-H workload (the defaults reproduce the shapes at
// laptop scale in minutes):
//
//	-scale   data scale (1.0 ≈ lineitem 6000 rows)   default 0.5
//	-batches number of TPC-H batches                  default 60
//	-seed    workload seed                            default 1
//	-updates disruptive update statements (fig7c/d)   default 40
//	-procs   override GOMAXPROCS (0 = leave as-is)    default 0
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"onlinetuner/internal/bench"
	"onlinetuner/internal/tpch"
	"onlinetuner/internal/workload"
)

func main() {
	scale := flag.Float64("scale", 0.5, "TPC-H data scale (1.0 ≈ lineitem 6000 rows)")
	batches := flag.Int("batches", 60, "number of TPC-H batches")
	seed := flag.Int64("seed", 1, "workload seed")
	updates := flag.Int("updates", 40, "disruptive update statements (fig7c/fig7d)")
	procs := flag.Int("procs", 0, "override GOMAXPROCS for this run (0 = leave as-is)")
	out := flag.String("out", "", "tuners: also write the race report as JSON to this file")
	seeds := flag.String("seeds", "1,2", "tuners: comma-separated race seeds")
	scenarios := flag.String("scenarios", "", "tuners: comma-separated scenario subset (default all)")
	advisors := flag.String("advisors", "", "tuners: comma-separated advisor subset (default all)")
	statements := flag.Int("statements", 0, "tuners: cap each scenario's statement stream (0 = scenario default)")
	verify := flag.String("verify", "", "tuners: verify an existing report file instead of racing")
	expect := flag.Bool("expect", false, "tuners -verify: also check the headline expectations (full-scale artifacts only)")
	flag.Parse()

	cmd, err := parseCommand(flag.CommandLine, flag.Args(), "all")
	if err != nil {
		os.Exit(2)
	}

	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	opts := workload.TPCHOptions{
		Scale:          tpch.Scale(*scale),
		Seed:           *seed,
		NumBatches:     *batches,
		DisruptCount:   *updates,
		BudgetFraction: 1.0,
	}
	tf := tunersFlags{
		scale:      *scale,
		seeds:      *seeds,
		scenarios:  *scenarios,
		advisors:   *advisors,
		statements: *statements,
		out:        *out,
		verify:     *verify,
		expect:     *expect,
	}
	if err := run(cmd, opts, tf); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(cmd string, opts workload.TPCHOptions, tf tunersFlags) error {
	switch cmd {
	case "table1":
		return table1()
	case "fig7a":
		return fig7a(opts)
	case "fig7b":
		return fig7b(opts)
	case "fig7c":
		return fig7c(opts)
	case "fig7d":
		return fig7d(opts)
	case "fig8":
		return fig8(opts)
	case "fig9":
		return fig9()
	case "ablation":
		return ablation(opts)
	case "competitive":
		return competitive()
	case "tuners":
		return tunersRace(tf)
	case "all":
		for _, c := range []func() error{
			table1,
			func() error { return fig7a(opts) },
			func() error { return fig7b(opts) },
			func() error { return fig7c(opts) },
			func() error { return fig7d(opts) },
			func() error { return fig8(opts) },
			fig9,
			func() error { return ablation(opts) },
			competitive,
		} {
			if err := c(); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q (want table1|fig7a|fig7b|fig7c|fig7d|fig8|fig9|ablation|competitive|tuners|all)", cmd)
}

func table1() error {
	s, err := bench.Table1()
	if err != nil {
		return err
	}
	fmt.Print(s)
	return nil
}

func fig7a(opts workload.TPCHOptions) error {
	_, series, on, err := bench.Figure7a(opts)
	if err != nil {
		return err
	}
	fmt.Print(bench.Chart("Figure 7(a): OnlinePT per-batch cost, TPC-H", series))
	fmt.Printf("physical changes: %d, final configuration: %v\n", on.Changes(), on.FinalConfig)
	return nil
}

func fig7b(opts workload.TPCHOptions) error {
	_, series, err := bench.Figure7b(opts)
	if err != nil {
		return err
	}
	fmt.Print(bench.Chart("Figure 7(b): per-batch cost by technique, TPC-H", series))
	return nil
}

func fig7c(opts workload.TPCHOptions) error {
	_, series, on, err := bench.Figure7c(opts)
	if err != nil {
		return err
	}
	fmt.Print(bench.Chart("Figure 7(c): OnlinePT per-batch cost, TPC-H with disruptive updates after batch 14", series))
	fmt.Printf("physical changes: %d\n", on.Changes())
	return nil
}

func fig7d(opts workload.TPCHOptions) error {
	_, series, err := bench.Figure7d(opts)
	if err != nil {
		return err
	}
	fmt.Print(bench.Chart("Figure 7(d): per-batch cost by technique, TPC-H with disruptive updates", series))
	return nil
}

func fig8(opts workload.TPCHOptions) error {
	rows, err := bench.Figure8(opts)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatFigure8(rows))
	return nil
}

func fig9() error {
	data, err := bench.Figure9()
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatFigure9(data))
	return nil
}

func ablation(opts workload.TPCHOptions) error {
	rows, err := bench.Ablation(bench.AblationWorkloads(opts))
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatAblation(rows))
	return nil
}

func competitive() error {
	adversarial, random, err := bench.Competitive(200, 500)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatCompetitive(adversarial, random))
	return nil
}
