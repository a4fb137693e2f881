package engine

import (
	"testing"

	"onlinetuner/internal/fault"
)

// TestCostSelectMatchesExec pins Cost's contract on a SELECT: on two
// identical databases it reports Exec's estimated cost and request tree,
// and it notifies the observer exactly once.
func TestCostSelectMatchesExec(t *testing.T) {
	const q = "SELECT a, b FROM R WHERE a < 10 AND c = 3"
	exec, cost := openRS(t, 300), openRS(t, 300)
	for _, db := range []*DB{exec, cost} {
		db.MustExec("CREATE INDEX Ia ON R (a)")
	}
	_, want, err := exec.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	var seen []*QueryInfo
	cost.SetObserver(observerFunc(func(info *QueryInfo) { seen = append(seen, info) }))
	got, err := cost.Cost(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.EstCost != want.EstCost {
		t.Errorf("Cost EstCost = %v, Exec EstCost = %v", got.EstCost, want.EstCost)
	}
	if g, w := got.Result.Tree.String(), want.Result.Tree.String(); g != w {
		t.Errorf("Cost request tree\n%s\nExec request tree\n%s", g, w)
	}
	if len(seen) != 1 || seen[0] != got {
		t.Fatalf("observer saw %d notifications, want exactly Cost's one", len(seen))
	}
}

// TestCostReadsNoPage: under a read fault on every page, executing a
// SELECT fails while costing it succeeds without firing the fault.
func TestCostReadsNoPage(t *testing.T) {
	const q = "SELECT a, b FROM R WHERE a < 10"
	db := openRS(t, 300)
	inj := fault.New(1).Plan(fault.PageRead, fault.Rule{Prob: 1})
	db.SetFaults(inj)
	inj.Arm()
	defer inj.Disarm()
	if _, _, err := db.Exec(q); !fault.Is(err) {
		t.Fatalf("Exec err = %v, want the injected read fault", err)
	}
	fired := inj.FiredTotal()
	info, err := db.Cost(q)
	if err != nil {
		t.Fatalf("Cost: %v", err)
	}
	if info.EstCost <= 0 {
		t.Errorf("Cost EstCost = %v, want > 0", info.EstCost)
	}
	if n := inj.FiredTotal(); n != fired {
		t.Errorf("Cost fired %d read faults, want 0", n-fired)
	}
}

// TestCostAppliesUpdate: Cost executes every statement but a SELECT, so
// an UPDATE changes the table and is observed once.
func TestCostAppliesUpdate(t *testing.T) {
	db := openRS(t, 50)
	var seen int
	db.SetObserver(observerFunc(func(*QueryInfo) { seen++ }))
	info, err := db.Cost("UPDATE R SET b = 99 WHERE id = 5")
	if err != nil {
		t.Fatal(err)
	}
	if info.EstCost <= 0 {
		t.Errorf("UPDATE EstCost = %v, want > 0", info.EstCost)
	}
	if seen != 1 {
		t.Errorf("observer saw %d notifications, want 1", seen)
	}
	rs := db.MustExec("SELECT b FROM R WHERE id = 5")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 99 {
		t.Fatalf("after Cost(UPDATE), R.b at id 5 = %v, want 99", rs.Rows)
	}
}
