package main

import (
	"flag"
	"io"
	"testing"

	"onlinetuner/internal/workload"
)

// TestParseCommand pins the subcommand/flag interleavings the tool
// accepts: flags before the subcommand, after it, both, neither.
func TestParseCommand(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		wantCmd   string
		wantScale float64
		wantOut   string
		wantRules string
		wantErr   bool
	}{
		{name: "no args", args: nil, wantCmd: "all", wantScale: 0.5},
		{name: "bare subcommand", args: []string{"fig9"}, wantCmd: "fig9", wantScale: 0.5},
		{name: "flags before", args: []string{"-scale", "0.1", "table1"}, wantCmd: "table1", wantScale: 0.1},
		{name: "flags after", args: []string{"competitive", "-scale", "0.1"}, wantCmd: "competitive", wantScale: 0.1},
		{name: "flags both sides", args: []string{"-scale", "0.2", "tuners", "-out", "x.json"},
			wantCmd: "tuners", wantScale: 0.2, wantOut: "x.json"},
		{name: "only flags", args: []string{"-out", "y.json"}, wantCmd: "all", wantScale: 0.5, wantOut: "y.json"},
		{name: "rules flag after subcommand", args: []string{"ablation", "-rules", "topn"},
			wantCmd: "ablation", wantScale: 0.5, wantRules: "topn"},
		{name: "rules flag before subcommand", args: []string{"-rules", "none", "fig8"},
			wantCmd: "fig8", wantScale: 0.5, wantRules: "none"},
		{name: "unknown flag", args: []string{"-bogus"}, wantErr: true},
		{name: "unknown flag after subcommand", args: []string{"fig8", "-bogus"}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			scale := fs.Float64("scale", 0.5, "")
			out := fs.String("out", "", "")
			rules := fs.String("rules", "", "")
			cmd, err := parseCommand(fs, tc.args, "all")
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parseCommand(%v) accepted, want error", tc.args)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseCommand(%v): %v", tc.args, err)
			}
			if cmd != tc.wantCmd {
				t.Errorf("cmd = %q, want %q", cmd, tc.wantCmd)
			}
			if *scale != tc.wantScale {
				t.Errorf("scale = %v, want %v", *scale, tc.wantScale)
			}
			if *out != tc.wantOut {
				t.Errorf("out = %q, want %q", *out, tc.wantOut)
			}
			if *rules != tc.wantRules {
				t.Errorf("rules = %q, want %q", *rules, tc.wantRules)
			}
		})
	}
}

// TestRetiredSubcommandsRejected pins the command line to the paper's
// figures and the tuner race: the retired report subcommands parse as
// names but run rejects them, and the error lists exactly the
// subcommands that remain.
func TestRetiredSubcommandsRejected(t *testing.T) {
	const want = "table1|fig7a|fig7b|fig7c|fig7d|fig8|fig9|ablation|competitive|tuners|all"
	for _, name := range []string{"plancache", "obs", "fault", "exec", "wal", "serve", "rules"} {
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cmd, err := parseCommand(fs, []string{name}, "all")
		if err != nil || cmd != name {
			t.Fatalf("parseCommand(%q) = %q, %v", name, cmd, err)
		}
		err = run(cmd, workload.TPCHOptions{}, tunersFlags{})
		if err == nil {
			t.Fatalf("run(%q) accepted a retired subcommand", name)
		}
		if got, exp := err.Error(), `unknown experiment "`+name+`" (want `+want+`)`; got != exp {
			t.Errorf("run(%q) error = %q, want %q", name, got, exp)
		}
	}
}
