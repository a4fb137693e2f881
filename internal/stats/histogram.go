// Package stats implements the statistics subsystem: equi-depth
// histograms with per-bucket distinct counts, column statistics, and the
// selectivity estimation interface consumed by the optimizer's cost
// model. It also implements the asynchronous statistics-creation policy
// of Section 3.3 of the paper ("supporting statistics"): statistics for
// an index's key column are built once the accumulated evidence for that
// index crosses a fraction of its creation cost.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"onlinetuner/internal/datum"
)

// DefaultBuckets is the histogram resolution used when statistics are
// built without an explicit bucket count.
const DefaultBuckets = 32

// Bucket is one equi-depth histogram bucket: values in (lower, upper]
// except the first bucket, which is [lower, upper].
type Bucket struct {
	Upper    datum.Datum
	Count    int64 // rows in the bucket
	Distinct int64 // distinct values in the bucket
}

// Histogram is an equi-depth histogram over one column.
type Histogram struct {
	Lower     datum.Datum // minimum value
	Buckets   []Bucket
	Rows      int64 // total non-null rows
	Nulls     int64
	DistinctN int64 // total distinct non-null values
}

// Build constructs an equi-depth histogram with up to maxBuckets buckets
// from a sample of column values. NULLs are counted separately.
func Build(values []datum.Datum, maxBuckets int) *Histogram {
	s := NewSample(len(values))
	for _, v := range values {
		s.Add(v)
	}
	return s.Histogram(maxBuckets)
}

// Sample gathers one column's values for a histogram build. While every
// non-NULL value shares one kind it holds them in a typed slice, which
// sorts and compares at machine speed: INT, DATE and BOOL as their int64
// payloads, FLOAT as float64, VARCHAR as string. The first value of a
// second kind turns it into datums, in arrival order, for the
// datum.Compare fallback.
//
// Both paths build the same histogram. Two values of one kind tie under
// Compare exactly when they are ==, and tied values are then identical,
// so which copy a sort puts where cannot show. FLOAT breaks that rule
// twice, so a FLOAT sample holding NaN or −0 also takes the fallback:
// NaN ≠ NaN would split its distinct count, and −0 ties +0 but builds a
// different datum.
type Sample struct {
	kind  datum.Kind // the non-NULL values' kind; KNull while none
	mixed bool       // kinds differ: the values are in dat
	nulls int64
	hint  int // expected value count, to size the first slice
	ints  []int64
	flts  []float64
	strs  []string
	dat   []datum.Datum
}

// NewSample returns an empty sample expecting about n values.
func NewSample(n int) *Sample { return &Sample{hint: n} }

// Add appends one value.
func (s *Sample) Add(d datum.Datum) {
	k := d.Kind()
	switch {
	case k == datum.KNull:
		s.nulls++
		return
	case s.mixed:
		s.dat = append(s.dat, d)
		return
	case s.kind == datum.KNull:
		s.kind = k
	case k != s.kind:
		s.dat = s.datums(s.hint)
		s.dat = append(s.dat, d)
		s.mixed, s.ints, s.flts, s.strs = true, nil, nil, nil
		return
	}
	switch k {
	case datum.KFloat:
		s.flts = grow(s.flts, s.hint)
		s.flts = append(s.flts, d.Float())
	case datum.KString:
		s.strs = grow(s.strs, s.hint)
		s.strs = append(s.strs, d.Str())
	default:
		s.ints = grow(s.ints, s.hint)
		s.ints = append(s.ints, d.Int())
	}
}

// grow sizes a sample's first slice to the expected value count.
func grow[T any](vals []T, hint int) []T {
	if vals == nil && hint > 0 {
		return make([]T, 0, hint)
	}
	return vals
}

// datums returns the typed values as datums of the sample's kind, in
// arrival order, with room for n.
func (s *Sample) datums(n int) []datum.Datum {
	out := make([]datum.Datum, 0, max(n, len(s.ints)+len(s.flts)+len(s.strs)))
	for _, v := range s.ints {
		out = append(out, s.intDatum(v))
	}
	for _, v := range s.flts {
		out = append(out, datum.NewFloat(v))
	}
	for _, v := range s.strs {
		out = append(out, datum.NewString(v))
	}
	return out
}

// intDatum rebuilds an int64 payload as a datum of the sample's kind.
func (s *Sample) intDatum(v int64) datum.Datum {
	switch s.kind {
	case datum.KDate:
		return datum.NewDate(v)
	case datum.KBool:
		return datum.NewBool(v != 0)
	}
	return datum.NewInt(v)
}

// Histogram builds the sample's equi-depth histogram with up to
// maxBuckets buckets. It sorts the sample in place: add nothing after.
func (s *Sample) Histogram(maxBuckets int) *Histogram {
	if maxBuckets <= 0 {
		maxBuckets = DefaultBuckets
	}
	h := &Histogram{Nulls: s.nulls}
	switch {
	case s.mixed || s.kind == datum.KFloat && !plainFloats(s.flts):
		vals := s.dat
		if !s.mixed {
			vals = s.datums(0)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
		cut(h, vals, maxBuckets, datum.Datum.Equal, func(d datum.Datum) datum.Datum { return d })
	case s.kind == datum.KFloat:
		slices.Sort(s.flts)
		cut(h, s.flts, maxBuckets, same, datum.NewFloat)
	case s.kind == datum.KString:
		slices.Sort(s.strs)
		cut(h, s.strs, maxBuckets, same, datum.NewString)
	case s.kind != datum.KNull:
		slices.Sort(s.ints)
		cut(h, s.ints, maxBuckets, same, s.intDatum)
	}
	return h
}

// plainFloats reports whether vals holds neither NaN nor −0.
func plainFloats(vals []float64) bool {
	for _, v := range vals {
		if v != v || v == 0 && math.Signbit(v) {
			return false
		}
	}
	return true
}

func same[T comparable](a, b T) bool { return a == b }

// cut fills h's buckets from the sorted non-NULL values vals: each bucket
// takes about len(vals)/maxBuckets values and is extended so it ends on
// a value boundary, so all copies of a value land in one bucket, which
// keeps equality estimates sane. eq compares neighbours and mk rebuilds a
// value as the datum that bounds a bucket.
func cut[T any](h *Histogram, vals []T, maxBuckets int, eq func(a, b T) bool, mk func(T) datum.Datum) {
	n := len(vals)
	h.Rows = int64(n)
	if n == 0 {
		return
	}
	h.Lower = mk(vals[0])
	perBucket := (n + maxBuckets - 1) / maxBuckets
	start, distinct := 0, int64(0)
	for i := 0; i < n; {
		// vals[i:j] is one run of equal values.
		j := i + 1
		for j < n && eq(vals[j], vals[j-1]) {
			j++
		}
		distinct++
		if j >= start+perBucket || j == n {
			h.Buckets = append(h.Buckets, Bucket{Upper: mk(vals[j-1]), Count: int64(j - start), Distinct: distinct})
			h.DistinctN += distinct
			start, distinct = j, 0
		}
		i = j
	}
}

// SelectivityEq estimates the fraction of rows equal to v.
func (h *Histogram) SelectivityEq(v datum.Datum) float64 {
	total := h.Rows + h.Nulls
	if total == 0 {
		return 0
	}
	if v.IsNull() {
		return float64(h.Nulls) / float64(total)
	}
	b := h.find(v)
	if b == nil {
		return 0
	}
	if b.Distinct == 0 {
		return 0
	}
	return float64(b.Count) / float64(b.Distinct) / float64(total)
}

// SelectivityLt estimates the fraction of rows strictly less than v
// (NULLs never qualify).
func (h *Histogram) SelectivityLt(v datum.Datum) float64 {
	total := h.Rows + h.Nulls
	if total == 0 || h.Rows == 0 {
		return 0
	}
	if v.IsNull() {
		return 0
	}
	if v.Compare(h.Lower) <= 0 {
		return 0
	}
	var below int64
	lower := h.Lower
	for _, b := range h.Buckets {
		if v.Compare(b.Upper) > 0 {
			below += b.Count
			lower = b.Upper
			continue
		}
		// v falls inside this bucket: linear interpolation for numerics,
		// half the bucket otherwise.
		below += int64(float64(b.Count) * fraction(lower, b.Upper, v))
		break
	}
	return clamp01(float64(below) / float64(total))
}

// SelectivityRange estimates the fraction of rows in the half-open or
// closed interval defined by lo/hi; nil bounds mean unbounded. loInc and
// hiInc control bound inclusivity.
func (h *Histogram) SelectivityRange(lo, hi *datum.Datum, loInc, hiInc bool) float64 {
	total := h.Rows + h.Nulls
	if total == 0 {
		return 0
	}
	s := float64(h.Rows) / float64(total) // non-null fraction
	if hi != nil {
		shi := h.SelectivityLt(*hi)
		if hiInc {
			shi += h.SelectivityEq(*hi)
		}
		s = minf(s, shi)
	}
	if lo != nil {
		slo := h.SelectivityLt(*lo)
		if !loInc {
			slo += h.SelectivityEq(*lo)
		}
		s -= slo
	}
	return clamp01(s)
}

// find returns the bucket that would contain v, or nil if out of range.
func (h *Histogram) find(v datum.Datum) *Bucket {
	if len(h.Buckets) == 0 {
		return nil
	}
	if v.Compare(h.Lower) < 0 {
		return nil
	}
	lo, hi := 0, len(h.Buckets)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if v.Compare(h.Buckets[mid].Upper) <= 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if v.Compare(h.Buckets[lo].Upper) > 0 {
		return nil
	}
	return &h.Buckets[lo]
}

// fraction estimates where v sits between lo and hi in [0,1].
func fraction(lo, hi, v datum.Datum) float64 {
	if lo.Kind() == datum.KString || hi.Kind() == datum.KString || v.Kind() == datum.KString {
		return 0.5
	}
	l, u, x := lo.Float(), hi.Float(), v.Float()
	if u <= l {
		return 0.5
	}
	return clamp01((x - l) / (u - l))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// ColumnStats bundles per-column statistics.
type ColumnStats struct {
	Hist     *Histogram
	Distinct int64
	Rows     int64
}

// Store is the thread-safe statistics registry keyed by "table.column"
// (lowercase). It records which statistics exist so the tuner's
// asynchronous statistics policy can decide when to build new ones.
//
// Statistics are copy-on-write: a ColumnStats (and its histogram) is
// constructed privately, published once via Set under the write lock,
// and never mutated afterwards. Readers therefore share the installed
// object freely — the optimizer estimates selectivities on it from many
// statement goroutines at once while the tuner refreshes statistics by
// installing a replacement, never by editing in place.
type Store struct {
	mu    sync.RWMutex
	cols  map[string]*ColumnStats
	built int64 // number of Build operations, for observability
	// epoch increments on every statistics change (install or drop). It
	// is the monotonic invalidation token for anything costed against a
	// statistics snapshot — the engine's plan cache compares epochs
	// instead of histogram contents.
	epoch atomic.Int64
}

// Epoch returns the current statistics epoch. It increases whenever any
// column's statistics are installed or dropped; a plan costed under
// epoch e is guaranteed to see the same histograms while Epoch() == e.
func (s *Store) Epoch() int64 { return s.epoch.Load() }

// NewStore returns an empty statistics store.
func NewStore() *Store {
	return &Store{cols: make(map[string]*ColumnStats)}
}

// appendKey appends the map key of table.column to b: both names lowered
// as strings.ToLower does, joined by a dot. Get builds it in a stack
// buffer, so a lookup allocates nothing.
func appendKey(b []byte, table, column string) []byte {
	b = appendLower(b, table)
	b = append(b, '.')
	return appendLower(b, column)
}

// appendLower appends strings.ToLower(s) to b, byte by byte up to the
// first non-ASCII byte. ToLower maps rune by rune, so the rest can be
// lowered on its own.
func appendLower(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return append(b, strings.ToLower(s[i:])...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}

// keyBuf is a stack buffer for appendKey; longer names spill to the heap.
type keyBuf [64]byte

// Set installs statistics for table.column.
func (s *Store) Set(table, column string, cs *ColumnStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf keyBuf
	s.cols[string(appendKey(buf[:0], table, column))] = cs
	s.built++
	s.epoch.Add(1)
}

// Get returns the statistics for table.column, or nil. The returned
// object is shared and must be treated as read-only; install updated
// statistics with Set instead of mutating it.
func (s *Store) Get(table, column string) *ColumnStats {
	var buf keyBuf
	k := appendKey(buf[:0], table, column)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cols[string(k)]
}

// Has reports whether statistics exist for table.column.
func (s *Store) Has(table, column string) bool {
	return s.Get(table, column) != nil
}

// Drop removes the statistics for table.column.
func (s *Store) Drop(table, column string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf keyBuf
	delete(s.cols, string(appendKey(buf[:0], table, column)))
	s.epoch.Add(1)
}

// BuildCount returns the number of statistics builds performed, used by
// tests and the overhead report.
func (s *Store) BuildCount() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.built
}

// Install wraps a histogram as table.column's statistics and sets them.
func (s *Store) Install(table, column string, h *Histogram) *ColumnStats {
	cs := &ColumnStats{Hist: h, Distinct: h.DistinctN, Rows: h.Rows + h.Nulls}
	s.Set(table, column, cs)
	return cs
}

// String renders a short histogram summary for debugging.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{rows=%d nulls=%d distinct=%d buckets=%d}",
		h.Rows, h.Nulls, h.DistinctN, len(h.Buckets))
}
