package executor

import (
	"fmt"
	"sync"
	"testing"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/obs"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/vec"
)

// TestCachedColumnsSharedAcrossScans runs four scans at once over the
// cached columns of one heap's first three chunks — an int column
// compared against a float literal among them, the kernels' int→float
// promotion path — while a fifth goroutine rewrites the last two chunks
// through storage. Under -race it proves the shared columns are only
// read; without it, it still checks every scan against the row engine.
func TestCachedColumnsSharedAcrossScans(t *testing.T) {
	cat, _, _, _ := fixture(t, 0, false)
	reg := obs.NewRegistry()
	mgr := storage.NewManager(cat)
	mgr.SetColumnMetrics(reg)
	if err := mgr.CreateTable("R"); err != nil {
		t.Fatal(err)
	}
	const rows = 5 * vec.MorselRows
	rids := make([]storage.RID, rows)
	for i := range rows {
		rid, _, err := mgr.Insert("R", datum.Row{
			datum.NewInt(int64(i)), datum.NewInt(int64(i % 10)), datum.NewInt(int64(i % 3)),
		})
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	ex, ref := New(cat, mgr), NewReference(cat, mgr)

	// Both conjunct orders, so the second conjunct reads the other
	// filter's cached column through a partial selection.
	stable := 3 * vec.MorselRows
	scans := make([]*plan.SeqScan, 2)
	want := make([][]datum.Row, 2)
	for i, where := range []string{
		fmt.Sprintf("a < 4.5 AND b = 1 AND id < %d", stable),
		fmt.Sprintf("b = 1 AND a < 4.5 AND id < %d", stable),
	} {
		scans[i] = &plan.SeqScan{Table: "R", Alias: "R", Preds: []sql.Expr{expr(t, where)}}
		scans[i].Out = rSchema(cat)
		var err error
		if want[i], err = ref.exec(scans[i], nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ex.exec(scans[i], nil); err != nil { // fills the cache
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 5)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			i := stable + n%(rows-stable)
			r := datum.Row{datum.NewInt(int64(i)), datum.NewInt(int64(n % 10)), datum.NewInt(int64(n % 3))}
			if _, err := mgr.Update("R", rids[i], r); err != nil {
				errs <- err
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := range 25 {
				k := (g + n) % 2
				got, err := ex.exec(scans[k], nil)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(want[k]) {
					errs <- fmt.Errorf("scan %d: %d rows, want %d", k, len(got), len(want[k]))
					return
				}
				for j := range got {
					if got[j].Compare(want[k][j]) != 0 {
						errs <- fmt.Errorf("scan %d row %d: %v, want %v", k, j, got[j], want[k][j])
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if hits := reg.Counter("storage.colcache_hits").Value(); hits == 0 {
		t.Fatal("no scan read a cached column")
	}
	if err := mgr.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
