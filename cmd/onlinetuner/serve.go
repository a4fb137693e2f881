package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"onlinetuner/internal/core"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/server"
	"onlinetuner/internal/tpch"
)

// serveMain runs the TCP daemon: the same engine and tuner as the
// interactive shell, served to many concurrent sessions over the wire
// protocol. SIGINT/SIGTERM drains gracefully (in-flight statements
// finish, the WAL is checkpointed, late connects get a typed error); a
// second signal aborts.
func serveMain(args []string) {
	fs := flag.NewFlagSet("onlinetuner serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7163", "TCP listen address")
	metricsAddr := fs.String("metrics", "", "serve the live metrics dashboard on this HTTP address (empty = off)")
	dir := fs.String("dir", "", "durable database directory with WAL + checkpoints (empty = in-memory)")
	demo := fs.Bool("demo", false, "preload the demo schema R/S with 3000 rows")
	tpchScale := fs.Float64("tpch", 0, "preload TPC-H data at the given scale")
	budget := fs.Int64("budget", 0, "secondary-index storage budget in bytes (0 = unlimited)")
	suspend := fs.Bool("suspend", false, "suspend indexes instead of dropping")
	throttle := fs.Int("throttle", 1, "run the tuner's analysis every N statements")
	notuner := fs.Bool("notuner", false, "serve without the online tuner attached")
	maxConns := fs.Int("max-conns", 0, "connection limit (0 = server default)")
	admitSlots := fs.Int("admit-slots", 0, "concurrently executing statements (0 = 2x exec workers)")
	maxQueue := fs.Int("max-queue", 0, "admission wait-queue depth (0 = 4x admit-slots)")
	_ = fs.Parse(args)

	var db *engine.DB
	var err error
	recovered := false
	if *dir != "" {
		db, err = engine.OpenDurable(engine.Config{Dir: *dir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "open durable:", err)
			os.Exit(1)
		}
		if rec := db.Recovery(); rec.SnapshotSeq > 0 || rec.ReplayedRecords > 0 {
			recovered = true
			fmt.Printf("recovered %s: snapshot seq %d + %d replayed records in %v\n",
				*dir, rec.SnapshotSeq, rec.ReplayedRecords, rec.Duration)
		}
	} else {
		db = engine.Open()
	}
	// Preloads only seed a fresh database; a recovered directory
	// already holds its schema and data (and re-running the DDL would
	// fail on the existing tables).
	if recovered && (*demo || *tpchScale > 0) {
		fmt.Println("recovered existing data; skipping -demo/-tpch preload")
	}
	if *demo && !recovered {
		loadDemo(db)
		fmt.Println("loaded demo schema: R(id,a,b,c,d,e), S(id,a,b,c,d,e), 3000 rows each")
	}
	if *tpchScale > 0 && !recovered {
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
	if !*notuner {
		opts := core.DefaultOptions()
		opts.UseSuspend = *suspend
		opts.Async = true // serving is the online setting: builds must not block sessions
		opts.ThrottleEvery = *throttle
		core.Attach(db, opts)
		fmt.Println("online physical design tuner attached (async builds)")
	}

	srv := server.New(db, server.Config{
		MaxConns:   *maxConns,
		AdmitSlots: *admitSlots,
		MaxQueue:   *maxQueue,
	})
	addr, errc, err := srv.Listen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	fmt.Printf("listening on %s\n", addr)
	if *metricsAddr != "" {
		go func() {
			if err := http.ListenAndServe(*metricsAddr, srv.MetricsHandler()); err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
			}
		}()
		fmt.Printf("metrics dashboard on http://%s/ (JSON at /metrics)\n", *metricsAddr)
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		return
	case sig := <-sigc:
		fmt.Printf("\n%s: draining (in-flight statements finish, then WAL checkpoint); signal again to abort\n", sig)
		go func() {
			<-sigc
			fmt.Fprintln(os.Stderr, "aborting")
			srv.Abort()
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown:", err)
			os.Exit(1)
		}
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "close:", err)
			os.Exit(1)
		}
		fmt.Println("drained and checkpointed; bye")
	}
}

// clientMain is a minimal wire-protocol client: pass -e "stmt; stmt"
// for scripted one-shots (the CI smoke test), or nothing for an
// interactive session against a running daemon.
func clientMain(args []string) {
	fs := flag.NewFlagSet("onlinetuner client", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7163", "daemon address")
	script := fs.String("e", "", "semicolon-separated statements to run and exit")
	_ = fs.Parse(args)

	c, err := server.Dial(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dial:", err)
		os.Exit(1)
	}
	defer c.Close()
	c.Timeout = 120 * time.Second

	if *script != "" {
		for _, stmt := range strings.Split(*script, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			if err := clientStatement(c, stmt); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
		}
		return
	}

	fmt.Printf("connected to %s; SQL plus begin/commit/rollback, \\explain <stmt>, \\quit\n", *addr)
	shell := newLineReader()
	for {
		fmt.Print("sql> ")
		line, ok := shell()
		if !ok {
			return
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if line == "\\quit" || line == "\\q" {
			return
		}
		if err := clientStatement(c, line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

// newLineReader wraps stdin in a large-buffer line scanner.
func newLineReader() func() (string, bool) {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	return func() (string, bool) {
		if !scanner.Scan() {
			return "", false
		}
		return scanner.Text(), true
	}
}

// clientStatement sends one shell line through the wire protocol,
// mapping the transaction keywords and \explain onto their ops.
func clientStatement(c *server.Client, stmt string) error {
	switch strings.ToLower(stmt) {
	case "begin":
		if err := c.Begin(); err != nil {
			return err
		}
		fmt.Println("  transaction open; statements buffer until commit")
		return nil
	case "commit":
		results, err := c.Commit()
		if err != nil {
			return err
		}
		for i := range results {
			printWireResult(&results[i], true)
		}
		fmt.Printf("  committed %d statement(s)\n", len(results))
		return nil
	case "rollback":
		if err := c.Rollback(); err != nil {
			return err
		}
		fmt.Println("  rolled back")
		return nil
	case "ping":
		return c.Ping()
	}
	if rest, ok := strings.CutPrefix(stmt, "\\explain "); ok {
		lines, err := c.Explain(strings.TrimSpace(rest))
		if err != nil {
			return err
		}
		for _, l := range lines {
			fmt.Println("  " + l)
		}
		return nil
	}
	resp, err := c.Do(&server.Request{Op: server.OpExec, SQL: stmt})
	if err != nil {
		return err
	}
	if resp.Error != nil {
		return resp.Error
	}
	if resp.Queued {
		fmt.Println("  queued in open transaction")
		return nil
	}
	printWireResult(&resp.StmtResult, false)
	return nil
}

// printWireResult renders one statement result in the shell's format.
func printWireResult(res *server.StmtResult, indent bool) {
	pad := "  "
	if indent {
		pad = "    "
	}
	if res.Affected > 0 {
		fmt.Printf("%s%d row(s) affected, cost=%.3f\n", pad, res.Affected, res.Cost)
		return
	}
	if len(res.Columns) > 0 {
		fmt.Println(pad + strings.Join(res.Columns, " | "))
	}
	const maxRows = 20
	for i, row := range res.Rows {
		if i >= maxRows {
			fmt.Printf("%s... %d more rows\n", pad, len(res.Rows)-maxRows)
			break
		}
		fmt.Println(pad + strings.Join(row, " | "))
	}
	fmt.Printf("%s%d row(s), cost=%.3f\n", pad, len(res.Rows), res.Cost)
}
