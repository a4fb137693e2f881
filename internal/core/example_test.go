package core_test

import (
	"fmt"

	"onlinetuner/internal/core"
	"onlinetuner/internal/engine"
)

// Example demonstrates the one-call integration: open a database, attach
// the tuner, run a workload, and read its change log.
func Example() {
	db := engine.Open()
	db.MustExec("CREATE TABLE t (id INT, k INT, v INT, PRIMARY KEY (id))")
	for i := 0; i < 4000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d)", i, i%400, i))
	}
	if err := db.Analyze("t"); err != nil {
		panic(err)
	}
	tuner := core.Attach(db, core.DefaultOptions())

	for i := 0; i < 30; i++ {
		db.MustExec("SELECT v FROM t WHERE k = 7")
	}
	for _, ev := range tuner.Events() {
		fmt.Println(ev.Kind, ev.Index)
	}
	// Output:
	// build-start t(k,v)
	// create t(k,v)
}

// ExampleTuner_Report shows the observe-only deployment, the alerter of
// the paper's reference [6]: a tuner whose analysis phase never runs
// keeps the evidence, never touches the physical design, and reports a
// guaranteed improvement with the indexes that realize it.
func ExampleTuner_Report() {
	db := engine.Open()
	db.MustExec("CREATE TABLE t (id INT, k INT, v INT, PRIMARY KEY (id))")
	for i := 0; i < 4000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d)", i, i%400, i))
	}
	if err := db.Analyze("t"); err != nil {
		panic(err)
	}
	opts := core.DefaultOptions()
	opts.ThrottleEvery = 1 << 30 // observe only: the analysis phase never runs
	tuner := core.Attach(db, opts)

	for i := 0; i < 60; i++ {
		db.MustExec("SELECT v FROM t WHERE k = 7")
	}
	r := tuner.Report(0)
	fmt.Println("bound positive:", r.LowerBound > 0)
	fmt.Println("via:", r.BoundBy)
	fmt.Println("indexes created:", len(db.Configuration()))
	// Output:
	// bound positive: true
	// via: [t(k,v)]
	// indexes created: 0
}

// Example_bugTracker is the paper's introductory scenario: a bug tracker
// browsed (select-heavy) most days, with occasional bug-bash days that
// file many bugs and sweep the table with updates. No single static
// design suits both phases; the tuner builds an index for browsing,
// suspends it for each bash, and restarts it cheaply afterwards.
func Example_bugTracker() {
	db := engine.Open()
	db.MustExec(`CREATE TABLE bugs (
		id INT, product INT, severity INT, status VARCHAR(10),
		assignee INT, votes INT,
		PRIMARY KEY (id))`)
	next := 0
	fileBug := func() {
		db.MustExec(fmt.Sprintf("INSERT INTO bugs VALUES (%d, %d, %d, '%s', %d, %d)",
			next, next%40, next%5, []string{"new", "open", "fixed"}[next%3], next%25, next%100))
		next++
	}
	for i := 0; i < 2000; i++ {
		fileBug()
	}
	if err := db.Analyze("bugs"); err != nil {
		panic(err)
	}
	opts := core.DefaultOptions()
	opts.UseSuspend = true // suspended indexes restart cheaply after a bash
	tuner := core.Attach(db, opts)

	day := 0
	browse := func() {
		for i := 0; i < 60; i++ {
			db.MustExec(fmt.Sprintf(
				"SELECT id, severity, votes FROM bugs WHERE product = %d AND status = 'open'", (day+i)%40))
		}
		day++
	}
	bash := func() {
		for i := 0; i < 200; i++ {
			fileBug()
		}
		for i := 0; i < 30; i++ { // triage sweep
			db.MustExec("UPDATE bugs SET votes = votes + 1, severity = severity + 0 WHERE id >= 0")
		}
		day++
	}
	// Two weeks of three browsing days and one bash, then a last week.
	for week := 0; week < 2; week++ {
		for d := 0; d < 3; d++ {
			browse()
		}
		bash()
	}
	for d := 0; d < 3; d++ {
		browse()
	}
	for _, ev := range tuner.Events() {
		fmt.Printf("q%d %s %s\n", ev.AtQuery, ev.Kind, ev.Index)
	}
	// Output:
	// q16 build-start bugs(product,status,id,severity,votes)
	// q16 create bugs(product,status,id,severity,votes)
	// q381 suspend bugs(product,status,id,severity,votes)
	// q411 build-start bugs(product,status,id,severity,votes)
	// q411 restart bugs(product,status,id,severity,votes)
	// q791 suspend bugs(product,status,id,severity,votes)
	// q821 build-start bugs(product,status,id,severity,votes)
	// q821 restart bugs(product,status,id,severity,votes)
}
