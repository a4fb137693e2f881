package engine_test

import (
	"reflect"
	"sort"
	"testing"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/stats"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/tpch"
)

// refHistogram is the Compare-based builder statistics were built with
// before stats.Sample's typed path: the non-NULL values sorted by
// datum.Compare, buckets cut by datum.Equal.
func refHistogram(values []datum.Datum, maxBuckets int) *stats.Histogram {
	h := &stats.Histogram{}
	var nonNull []datum.Datum
	for _, v := range values {
		if v.IsNull() {
			h.Nulls++
		} else {
			nonNull = append(nonNull, v)
		}
	}
	h.Rows = int64(len(nonNull))
	if h.Rows == 0 {
		return h
	}
	sort.Slice(nonNull, func(i, j int) bool { return nonNull[i].Compare(nonNull[j]) < 0 })
	h.Lower = nonNull[0]
	perBucket := (len(nonNull) + maxBuckets - 1) / maxBuckets
	for i := 0; i < len(nonNull); {
		end := min(i+perBucket, len(nonNull))
		for end < len(nonNull) && nonNull[end].Equal(nonNull[end-1]) {
			end++
		}
		b := stats.Bucket{Upper: nonNull[end-1], Count: int64(end - i), Distinct: 1}
		for k := i + 1; k < end; k++ {
			if !nonNull[k].Equal(nonNull[k-1]) {
				b.Distinct++
			}
		}
		h.DistinctN += b.Distinct
		h.Buckets = append(h.Buckets, b)
		i = end
	}
	return h
}

// TestAnalyzeMatchesReference loads TPC-H (whose Load analyzes every
// table) at one and four workers: every column's statistics must equal
// the reference builder's over the heap's values, and so must one column
// rebuilt by AnalyzeColumn, the tuner's path.
func TestAnalyzeMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		db := engine.OpenConfig(engine.Config{ExecWorkers: workers})
		if err := tpch.NewGenerator(0.5, 3).Load(db); err != nil {
			t.Fatalf("load: %v", err)
		}
		db.AnalyzeColumn("lineitem", "l_shipdate")
		for _, tbl := range db.Cat.Tables() {
			for ord, c := range tbl.Columns {
				var vals []datum.Datum
				db.Mgr.Heap(tbl.Name).Scan(func(_ storage.RID, r datum.Row) bool {
					vals = append(vals, r[ord])
					return true
				})
				want := refHistogram(vals, stats.DefaultBuckets)
				cs := db.Stats.Get(tbl.Name, c.Name)
				if cs == nil {
					t.Fatalf("workers %d: no statistics for %s.%s", workers, tbl.Name, c.Name)
				}
				if !reflect.DeepEqual(cs.Hist, want) || cs.Distinct != want.DistinctN || cs.Rows != want.Rows+want.Nulls {
					t.Fatalf("workers %d: %s.%s statistics %v differ from the reference's %v", workers, tbl.Name, c.Name, cs.Hist, want)
				}
			}
		}
	}
}
