package storage

import (
	"errors"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/vec"
	"onlinetuner/internal/wal"
)

func newTestDB(t *testing.T) (*catalog.Catalog, *Manager) {
	t.Helper()
	cat := catalog.New()
	tbl, err := catalog.NewTable("R", []catalog.Column{
		{Name: "id", Kind: datum.KInt},
		{Name: "a", Kind: datum.KInt},
		{Name: "b", Kind: datum.KInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	m := NewManager(cat)
	if err := m.CreateTable("R"); err != nil {
		t.Fatal(err)
	}
	return cat, m
}

func row(id, a, b int64) datum.Row {
	return datum.Row{datum.NewInt(id), datum.NewInt(a), datum.NewInt(b)}
}

func TestHeapBasics(t *testing.T) {
	_, m := newTestDB(t)
	h := m.Heap("R")
	r1 := h.Insert(row(1, 10, 100))
	r2 := h.Insert(row(2, 20, 200))
	if h.Len() != 2 {
		t.Fatal("len")
	}
	if h.Get(r1)[0].Int() != 1 {
		t.Error("get r1")
	}
	if err := h.Delete(r1); err != nil {
		t.Fatal(err)
	}
	if h.Get(r1) != nil {
		t.Error("deleted row still visible")
	}
	if err := h.Delete(r1); err == nil {
		t.Error("double delete accepted")
	}
	// RID recycling.
	r3 := h.Insert(row(3, 30, 300))
	if r3 != r1 {
		t.Errorf("expected RID recycling, got %d", r3)
	}
	if _, err := h.Update(r2, row(2, 25, 200)); err != nil {
		t.Fatal(err)
	}
	if h.Get(r2)[1].Int() != 25 {
		t.Error("update not applied")
	}
	if _, err := h.Update(RID(99), row(0, 0, 0)); err == nil {
		t.Error("update of missing rid accepted")
	}
	seen := 0
	h.Scan(func(rid RID, r datum.Row) bool { seen++; return true })
	if seen != 2 {
		t.Errorf("scan saw %d rows, want 2", seen)
	}
	// Early stop.
	seen = 0
	h.Scan(func(rid RID, r datum.Row) bool { seen++; return false })
	if seen != 1 {
		t.Error("scan early stop failed")
	}
}

func TestPagesFor(t *testing.T) {
	if PagesFor(0) != 0 {
		t.Error("zero bytes should be zero pages")
	}
	if PagesFor(1) != 1 {
		t.Error("one byte should be one page")
	}
	f := float64(PageSize) * FillFactor
	per := int64(f)
	if PagesFor(per) != 1 || PagesFor(per+1) != 2 {
		t.Error("page boundary accounting wrong")
	}
}

func TestManagerInsertMaintainsIndexes(t *testing.T) {
	cat, m := newTestDB(t)
	ix := &catalog.Index{Name: "R_a", Table: "R", Columns: []string{"a", "id"}}
	if err := cat.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if _, err := m.BuildIndex(ix); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if _, touched, err := m.Insert("R", row(i, i%10, i)); err != nil {
			t.Fatal(err)
		} else if touched != 2 {
			t.Fatalf("touched = %d, want 2 (pk + secondary)", touched)
		}
	}
	pi := m.Index(ix.ID())
	if pi == nil || pi.Tree().Len() != 100 {
		t.Fatal("secondary index not maintained")
	}
	// Seek a=5 via secondary.
	count := 0
	for it := pi.Tree().Seek(datum.Row{datum.NewInt(5)}, true, datum.Row{datum.NewInt(5)}, true); it.Valid(); it.Next() {
		count++
	}
	if count != 10 {
		t.Errorf("a=5 count = %d, want 10", count)
	}
}

func TestManagerDeleteUpdate(t *testing.T) {
	cat, m := newTestDB(t)
	ix := &catalog.Index{Name: "R_a", Table: "R", Columns: []string{"a"}}
	if err := cat.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := int64(0); i < 50; i++ {
		rid, _, err := m.Insert("R", row(i, i, i))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if _, err := m.BuildIndex(ix); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Delete("R", rids[0]); err != nil {
		t.Fatal(err)
	}
	pi := m.Index(ix.ID())
	if pi.Tree().Len() != 49 {
		t.Errorf("index len = %d, want 49", pi.Tree().Len())
	}
	// Update that changes the secondary key: both the clustered primary
	// (whose leaf holds the full row) and the secondary are rewritten.
	if touched, err := m.Update("R", rids[1], row(1, 999, 1)); err != nil {
		t.Fatal(err)
	} else if touched != 2 {
		t.Errorf("touched = %d, want 2", touched)
	}
	it := pi.Tree().Seek(datum.Row{datum.NewInt(999)}, true, datum.Row{datum.NewInt(999)}, true)
	if !it.Valid() {
		t.Error("updated key not found in index")
	}
	// Update that doesn't touch the secondary's key still rewrites the
	// clustered primary leaf.
	if touched, err := m.Update("R", rids[2], row(2, 2, 555)); err != nil {
		t.Fatal(err)
	} else if touched != 1 {
		t.Errorf("touched = %d, want 1", touched)
	}
	if _, err := m.Delete("R", RID(9999)); err == nil {
		t.Error("delete missing rid accepted")
	}
}

func TestBudgetEnforcement(t *testing.T) {
	cat, m := newTestDB(t)
	for i := int64(0); i < 1000; i++ {
		if _, _, err := m.Insert("R", row(i, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	ix := &catalog.Index{Name: "R_a", Table: "R", Columns: []string{"a", "id"}}
	if err := cat.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	need := m.EstimateIndexBytes(ix)
	if need != 1000*(16+8) {
		t.Errorf("EstimateIndexBytes = %d", need)
	}
	m.SetBudget(need - 1)
	_, err := m.BuildIndex(ix)
	var be *ErrBudget
	if !errors.As(err, &be) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	m.SetBudget(need + 1000)
	if _, err := m.BuildIndex(ix); err != nil {
		t.Fatal(err)
	}
	if m.UsedBytes() != need {
		t.Errorf("UsedBytes = %d, want %d", m.UsedBytes(), need)
	}
	if m.FreeBytes() != 1000 {
		t.Errorf("FreeBytes = %d, want 1000", m.FreeBytes())
	}
	if err := m.DropIndex(ix.ID()); err != nil {
		t.Fatal(err)
	}
	if m.UsedBytes() != 0 {
		t.Error("drop did not release budget")
	}
}

func TestBuildSortAvoidance(t *testing.T) {
	cat, m := newTestDB(t)
	for i := int64(0); i < 100; i++ {
		if _, _, err := m.Insert("R", row(i, i%7, i)); err != nil {
			t.Fatal(err)
		}
	}
	// id-leading index shares the primary's key prefix: no sort needed.
	i1 := &catalog.Index{Name: "I1", Table: "R", Columns: []string{"id", "a"}}
	if err := cat.AddIndex(i1); err != nil {
		t.Fatal(err)
	}
	st, err := m.BuildIndex(i1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sorted {
		t.Error("build of id-prefix index should avoid the sort")
	}
	if st.SourceIndex != "R_pk" {
		t.Errorf("source = %q, want R_pk", st.SourceIndex)
	}
	// a-leading index requires a sort.
	i2 := &catalog.Index{Name: "I2", Table: "R", Columns: []string{"a", "b"}}
	if err := cat.AddIndex(i2); err != nil {
		t.Fatal(err)
	}
	st, err = m.BuildIndex(i2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sorted {
		t.Error("build of a-leading index should require a sort")
	}
	// Now (a)-prefixed index can build from I2 without sorting.
	i3 := &catalog.Index{Name: "I3", Table: "R", Columns: []string{"a"}}
	if err := cat.AddIndex(i3); err != nil {
		t.Fatal(err)
	}
	st, err = m.BuildIndex(i3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sorted || st.SourceIndex != "I2" {
		t.Errorf("I3 build: sorted=%v source=%q, want from I2 unsorted", st.Sorted, st.SourceIndex)
	}
}

func TestSuspendRestart(t *testing.T) {
	cat, m := newTestDB(t)
	ix := &catalog.Index{Name: "R_a", Table: "R", Columns: []string{"a"}}
	if err := cat.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if _, _, err := m.Insert("R", row(i, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.BuildIndex(ix); err != nil {
		t.Fatal(err)
	}
	if err := m.SuspendIndex(ix.ID()); err != nil {
		t.Fatal(err)
	}
	if err := m.SuspendIndex(ix.ID()); err == nil {
		t.Error("double suspend accepted")
	}
	// Changes while suspended are not applied but counted.
	for i := int64(20); i < 30; i++ {
		if _, touched, err := m.Insert("R", row(i, i, i)); err != nil {
			t.Fatal(err)
		} else if touched != 1 { // only the primary
			t.Errorf("touched = %d, want 1", touched)
		}
	}
	pi := m.Index(ix.ID())
	if pi.Tree().Len() != 20 {
		t.Error("suspended index was maintained")
	}
	if pi.PendingOps() != 10 {
		t.Errorf("pendingOps = %d, want 10", pi.PendingOps())
	}
	ops, err := m.RestartIndex(ix.ID())
	if err != nil {
		t.Fatal(err)
	}
	if ops != 10 {
		t.Errorf("restart ops = %d, want 10", ops)
	}
	if pi.Tree().Len() != 30 || pi.State() != StateActive {
		t.Error("restart did not rebuild the index")
	}
	if _, err := m.RestartIndex(ix.ID()); err == nil {
		t.Error("restart of active index accepted")
	}
	// Primary cannot be suspended.
	if err := m.SuspendIndex(cat.PrimaryIndex("R").ID()); err == nil {
		t.Error("suspending primary accepted")
	}
}

func TestManagerErrors(t *testing.T) {
	cat, m := newTestDB(t)
	if err := m.CreateTable("R"); err == nil {
		t.Error("double CreateTable accepted")
	}
	if err := m.CreateTable("NoSuch"); err == nil {
		t.Error("CreateTable of unknown table accepted")
	}
	if _, _, err := m.Insert("NoSuch", row(1, 1, 1)); err == nil {
		t.Error("insert into unknown table accepted")
	}
	if _, _, err := m.Insert("R", datum.Row{datum.NewInt(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := m.DropIndex("nosuch"); err == nil {
		t.Error("drop of unknown index accepted")
	}
	pk := cat.PrimaryIndex("R")
	if err := m.DropIndex(pk.ID()); err == nil {
		t.Error("drop of primary accepted")
	}
	ix := &catalog.Index{Name: "R_a", Table: "R", Columns: []string{"a"}}
	if err := cat.AddIndex(ix); err != nil {
		t.Fatal(err)
	}
	if _, err := m.BuildIndex(ix); err != nil {
		t.Fatal(err)
	}
	if _, err := m.BuildIndex(ix); err == nil {
		t.Error("double build accepted")
	}
}

// CommitStmt's nil means appended: the frame is gone, the table's barrier
// names the commit's ticket, and no fsync has happened yet. A direct
// call outside a frame appends and waits before it returns.
func TestCommitStmtAppendsWithoutWaiting(t *testing.T) {
	_, m := newTestDB(t)
	w, err := wal.OpenWriter(wal.Options{Dir: t.TempDir(), Policy: wal.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	m.SetWAL(w)

	if _, _, err := m.Insert("R", row(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if w.Appends() != 1 || w.Fsyncs() != 1 || w.Durable() != 1 {
		t.Fatalf("autocommit: %d appends, %d fsyncs, durable %d; want 1, 1, 1", w.Appends(), w.Fsyncs(), w.Durable())
	}

	m.BeginStmt("R")
	for id := int64(2); id < 5; id++ {
		if _, _, err := m.Insert("R", row(id, id, id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CommitStmt("R"); err != nil {
		t.Fatal(err)
	}
	if w.Appends() != 2 || w.Fsyncs() != 1 || w.Durable() != 1 {
		t.Fatalf("CommitStmt: %d appends, %d fsyncs, durable %d; want 2, 1, 1", w.Appends(), w.Fsyncs(), w.Durable())
	}
	ticket := m.Barrier("r")
	if ticket != 2 || m.Barrier("nosuch") != 0 {
		t.Fatalf("barrier %d (unknown table %d), want 2 and 0", ticket, m.Barrier("nosuch"))
	}
	if err := w.Wait(ticket); err != nil || w.Fsyncs() != 2 {
		t.Fatalf("wait: %v, %d fsyncs", err, w.Fsyncs())
	}
}

// TestColumnCacheAcrossRestore fills the column cache of a heap of three
// chunks, counts its hits and builds, then restores the heap to an
// earlier checkpoint state: the cache must follow the restored rows and
// the byte gauge must equal what is cached.
func TestColumnCacheAcrossRestore(t *testing.T) {
	_, m := newTestDB(t)
	for i := int64(0); i < 2*vec.MorselRows+100; i++ {
		if _, _, err := m.Insert("R", row(i, i%10, i%7)); err != nil {
			t.Fatal(err)
		}
	}
	h := m.Heap("R")
	slots, heapRows, free := h.dumpState()
	readColumns(t, "first read", m)
	readColumns(t, "second read", m)
	if b, hits := m.cm.builds.Value(), m.cm.hits.Value(); b != 9 || hits != 9 {
		t.Fatalf("3 chunks × 3 columns read twice: %d builds, %d hits; want 9 and 9", b, hits)
	}
	if m.cm.bytes.Value() <= 0 {
		t.Fatalf("colcache bytes = %d with 9 columns cached", m.cm.bytes.Value())
	}

	for _, hr := range heapRows {
		if _, err := m.Update("R", hr.RID, row(hr.Row[0].Int(), 99, 99)); err != nil {
			t.Fatal(err)
		}
	}
	readColumns(t, "after updates", m)
	snap := make([]wal.SnapRow, len(heapRows))
	for i, hr := range heapRows {
		snap[i] = wal.SnapRow{RID: int64(hr.RID), Row: hr.Row}
	}
	fr := make([]int64, len(free))
	for i, f := range free {
		fr[i] = int64(f)
	}
	if err := m.RestoreHeap("R", int64(slots), snap, fr); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatalf("after restore: %v", err)
	}
	readColumns(t, "after restore", m)
	if err := m.CheckConsistency(); err != nil {
		t.Fatalf("after restore and read: %v", err)
	}
}
