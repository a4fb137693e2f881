// Command onlinetuner is an interactive SQL shell with the online
// physical design tuner attached. Statements typed at the prompt (or
// piped on stdin) are optimized, executed, and observed by OnlinePT;
// every index the tuner creates, drops, suspends or restarts is
// announced as it happens.
//
// Usage:
//
//	onlinetuner [flags]           interactive shell (stdin)
//	onlinetuner serve [flags]     TCP daemon serving the wire protocol
//	onlinetuner client [flags]    wire-protocol client for a daemon
//
//	-demo          preload the demo schema R/S with 3000 rows
//	-tpch SCALE    preload TPC-H data at the given scale (e.g. 0.3)
//	-budget BYTES  secondary-index storage budget (0 = unlimited)
//	-suspend       suspend indexes instead of dropping them
//	-throttle N    run the tuner's analysis every N statements
//	-f FILE        replay a workload file (one statement per line, #
//	               comments) and exit
//	-state FILE    load tuner evidence from FILE at startup and save it
//	               on exit
//
// Shell commands besides SQL:
//
//	\config   show the current physical configuration
//	\cands    show the top candidate indexes, their evidence and a lower bound
//	          on what tuning would save
//	\events   show the physical change log
//	\metrics  show tuner overhead counters
//	\explain SELECT ...   show the plan without executing
//	\quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"onlinetuner/internal/core"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/executor"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/tpch"

	planpkg "onlinetuner/internal/plan"
)

func main() {
	// Daemon and client modes route before flag parsing: "onlinetuner
	// serve ..." and "onlinetuner client ..." own their flag sets.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			serveMain(os.Args[2:])
			return
		case "client":
			clientMain(os.Args[2:])
			return
		}
	}
	demo := flag.Bool("demo", false, "preload the demo schema R/S with 3000 rows")
	tpchScale := flag.Float64("tpch", 0, "preload TPC-H data at the given scale")
	budget := flag.Int64("budget", 0, "secondary-index storage budget in bytes (0 = unlimited)")
	suspend := flag.Bool("suspend", false, "suspend indexes instead of dropping")
	throttle := flag.Int("throttle", 1, "run the tuner's analysis every N statements")
	workloadFile := flag.String("f", "", "replay a workload file (one statement per line, # comments) and exit")
	stateFile := flag.String("state", "", "load tuner evidence from this file at startup and save it on exit")
	flag.Parse()

	db := engine.Open()
	if *demo {
		loadDemo(db)
		fmt.Println("loaded demo schema: R(id,a,b,c,d,e), S(id,a,b,c,d,e), 3000 rows each")
	}
	if *tpchScale > 0 {
		gen := tpch.NewGenerator(tpch.Scale(*tpchScale), 1)
		if err := gen.Load(db); err != nil {
			fmt.Fprintln(os.Stderr, "tpch load:", err)
			os.Exit(1)
		}
		fmt.Printf("loaded TPC-H at scale %g\n", *tpchScale)
	}
	if *budget > 0 {
		db.Mgr.SetBudget(*budget)
	}

	opts := core.DefaultOptions()
	opts.UseSuspend = *suspend
	opts.ThrottleEvery = *throttle
	tuner := core.Attach(db, opts)
	if *stateFile != "" {
		if f, err := os.Open(*stateFile); err == nil {
			if err := tuner.LoadState(f); err != nil {
				fmt.Fprintln(os.Stderr, "state load:", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("restored tuner evidence from %s\n", *stateFile)
		}
		defer saveState(tuner, *stateFile)
	}

	if *workloadFile != "" {
		if err := replayFile(db, tuner, *workloadFile); err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("online physical design tuner attached; type SQL or \\help")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var announced int64 // the tuner's statement count at the last announcement
	for {
		fmt.Print("sql> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if handleMeta(line, db, tuner) {
				return
			}
			continue
		}
		rs, info, err := db.Exec(line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		printResult(rs, info)
		// Announce tuner activity triggered by this statement. The log is
		// bounded, so its length stops growing; AtQuery does not.
		for _, ev := range tuner.Events() {
			if ev.AtQuery > announced {
				fmt.Printf("  [tuner] %s %s\n", ev.Kind, ev.Index)
			}
		}
		announced = tuner.Metrics().Queries
	}
}

// saveState persists the tuner's evidence, reporting failures to stderr.
func saveState(tuner *core.Tuner, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "state save:", err)
		return
	}
	defer f.Close()
	if err := tuner.SaveState(f); err != nil {
		fmt.Fprintln(os.Stderr, "state save:", err)
		return
	}
	fmt.Printf("saved tuner evidence to %s\n", path)
}

// replayFile executes a workload file (one statement per line; blank
// lines and #-comments skipped), then prints per-statement totals, the
// tuner's schedule, and the final configuration.
func replayFile(db *engine.DB, tuner *core.Tuner, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	scanner := bufio.NewScanner(f)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	total := 0.0
	n := 0
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		_, info, err := db.Exec(line)
		if err != nil {
			return fmt.Errorf("statement %d (%q): %w", n+1, line, err)
		}
		if info.Result != nil {
			total += info.EstCost
		}
		n++
	}
	if err := scanner.Err(); err != nil {
		return err
	}
	fmt.Printf("replayed %d statements, total estimated cost %.2f (+ %.2f transitions)\n",
		n, total, tuner.Metrics().TransitionCost)
	fmt.Println("tuner schedule:")
	for _, ev := range tuner.Events() {
		fmt.Printf("  q%-6d %s\n", ev.AtQuery, ev)
	}
	fmt.Println("final configuration:")
	for _, ix := range db.Configuration() {
		fmt.Printf("  %s\n", ix)
	}
	return nil
}

func loadDemo(db *engine.DB) {
	db.MustExec("CREATE TABLE R (id INT, a INT, b INT, c INT, d INT, e INT, PRIMARY KEY (id))")
	db.MustExec("CREATE TABLE S (id INT, a INT, b INT, c INT, d INT, e INT, PRIMARY KEY (id))")
	for i := 0; i < 3000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d, %d, %d, %d, %d)", i, i%1000, i, i, i, i))
		db.MustExec(fmt.Sprintf("INSERT INTO S VALUES (%d, %d, %d, %d, %d, %d)", i, i%1000, i, i, i, i))
	}
	if err := db.Analyze("R"); err != nil {
		panic(err)
	}
	if err := db.Analyze("S"); err != nil {
		panic(err)
	}
}

func printResult(rs *executor.ResultSet, info *engine.QueryInfo) {
	switch {
	case rs.Affected > 0:
		fmt.Printf("  %d row(s) affected, cost=%.3f\n", rs.Affected, info.EstCost)
	default:
		if len(rs.Columns) > 0 {
			fmt.Println("  " + strings.Join(rs.Columns, " | "))
		}
		const maxRows = 20
		for i, row := range rs.Rows {
			if i >= maxRows {
				fmt.Printf("  ... %d more rows\n", len(rs.Rows)-maxRows)
				break
			}
			parts := make([]string, len(row))
			for j, d := range row {
				parts[j] = d.String()
			}
			fmt.Println("  " + strings.Join(parts, " | "))
		}
		fmt.Printf("  %d row(s), cost=%.3f\n", len(rs.Rows), info.EstCost)
	}
}

// handleMeta executes a backslash command; returns true to quit.
func handleMeta(line string, db *engine.DB, tuner *core.Tuner) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q":
		return true
	case "\\help":
		fmt.Println("\\config \\cands \\events \\metrics \\explain <select> \\quit")
	case "\\config":
		cfg := db.Configuration()
		if len(cfg) == 0 {
			fmt.Println("  (no secondary indexes)")
		}
		for _, ix := range cfg {
			pi := db.Mgr.Index(ix.ID())
			fmt.Printf("  %-50s %8d bytes\n", ix, pi.Bytes())
		}
		fmt.Printf("  budget used %d / %d\n", db.Mgr.UsedBytes(), db.Mgr.Budget())
	case "\\cands":
		fmt.Print(tuner.Report(10))
	case "\\events":
		for _, ev := range tuner.Events() {
			fmt.Printf("  q%-6d %s\n", ev.AtQuery, ev)
		}
	case "\\metrics":
		m := tuner.Metrics()
		fmt.Printf("  queries=%d total=%v line1=%v lines2-8=%v lines9-18=%v line18=%v transitions=%.2f\n",
			m.Queries, m.Total, m.Line1, m.Lines28, m.Lines918, m.Line18, m.TransitionCost)
	case "\\explain":
		text := strings.TrimSpace(strings.TrimPrefix(line, "\\explain"))
		stmt, err := sql.Parse(text)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		res, err := db.Opt.Optimize(stmt)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Print(planpkg.Explain(res.Plan))
	default:
		fmt.Println("unknown command; try \\help")
	}
	return false
}
