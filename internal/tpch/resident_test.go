package tpch

import (
	"runtime"
	"testing"

	"onlinetuner/internal/engine"
)

// TestLoadedTPCHResidentBytes bounds the memory a loaded TPC-H database
// keeps resident per live row: heap rows, index keys, statistics and
// catalog together. A table row is stored once (the clustered primary
// index shares the heap's row) as 32-byte datums; storing it twice, or
// in 40-byte datums, reads about 1 080 or 600 bytes per row.
func TestLoadedTPCHResidentBytes(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation inflates every allocation")
	}
	const maxBytesPerRow = 560
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := engine.Open()
	g := NewGenerator(1, 42)
	if err := g.Load(db); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	rows := 0
	for table := range g.ScaleFactor.Rows() {
		rows += db.Mgr.Heap(table).Len()
	}
	runtime.KeepAlive(db)
	perRow := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(rows)
	t.Logf("resident bytes per live row: %.0f (%d rows, %.1f MB)", perRow, rows, perRow*float64(rows)/(1<<20))
	if perRow > maxBytesPerRow {
		t.Fatalf("%.0f resident bytes per live row, want <= %d", perRow, maxBytesPerRow)
	}
}
