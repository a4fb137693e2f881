package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"onlinetuner/internal/bench"
	"onlinetuner/internal/tpch"
)

// tunersFlags bundles the tuner-race subcommand's flag values.
type tunersFlags struct {
	scale      float64
	seeds      string
	scenarios  string
	advisors   string
	statements int
	out        string
	verify     string
	expect     bool
}

// tunersRace either verifies an existing BENCH_tuners.json (-verify) or
// races the (advisor × scenario × seed) matrix and writes the report.
func tunersRace(f tunersFlags) error {
	if f.verify != "" {
		data, err := os.ReadFile(f.verify)
		if err != nil {
			return err
		}
		rep, err := bench.VerifyTunersJSON(data)
		if err != nil {
			return fmt.Errorf("%s: %w", f.verify, err)
		}
		if f.expect {
			if err := rep.CheckExpectations(); err != nil {
				return fmt.Errorf("%s: %w", f.verify, err)
			}
		}
		fmt.Printf("%s: ok (%d cells, %d scenarios × %d advisors × %d seeds)\n",
			f.verify, len(rep.Cells), len(rep.Scenarios), len(rep.Advisors), len(rep.Seeds))
		return nil
	}

	seeds, err := parseSeeds(f.seeds)
	if err != nil {
		return err
	}
	cfg := bench.TunersConfig{
		Scale:      tpch.Scale(f.scale),
		Statements: f.statements,
		Seeds:      seeds,
		Scenarios:  splitCSV(f.scenarios),
		Advisors:   splitCSV(f.advisors),
		Log:        os.Stderr,
	}
	rep, err := bench.RunTuners(cfg)
	if err != nil {
		return err
	}
	if err := rep.Verify(); err != nil {
		return fmt.Errorf("generated report failed verification: %w", err)
	}
	fmt.Print(bench.FormatTuners(rep))
	if f.out != "" {
		js, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(f.out, append(js, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", f.out)
	}
	return nil
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range splitCSV(s) {
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
