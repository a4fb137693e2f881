package whatif

import (
	"math"
	"strings"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/cost"
	"onlinetuner/internal/stats"
	"onlinetuner/internal/storage"
)

// Env bundles everything cost inference needs: the catalog, the
// statistics store, the storage manager (for physical sizes) and the cost
// model. Hypothetical indexes are sized from row counts and column
// widths; physical ones from their actual structures.
type Env struct {
	Cat   *catalog.Catalog
	Stats *stats.Store
	Mgr   *storage.Manager
	Model cost.Model
}

// NewEnv builds an Env with the default cost model.
func NewEnv(cat *catalog.Catalog, st *stats.Store, mgr *storage.Manager) *Env {
	return &Env{Cat: cat, Stats: st, Mgr: mgr, Model: cost.DefaultModel()}
}

// TableRows returns the current live row count of a table.
func (e *Env) TableRows(table string) float64 {
	h := e.Mgr.Heap(table)
	if h == nil {
		return 0
	}
	return float64(h.Len())
}

// TablePages returns the heap page count of a table.
func (e *Env) TablePages(table string) float64 {
	h := e.Mgr.Heap(table)
	if h == nil {
		return 0
	}
	p := float64(h.Pages())
	if p < 1 {
		p = 1
	}
	return p
}

// IndexBytes returns the byte size of an index: actual when materialized,
// estimated otherwise.
func (e *Env) IndexBytes(ix *catalog.Index) int64 {
	if pi := e.Mgr.Index(ix.ID()); pi != nil {
		return pi.Bytes()
	}
	return e.Mgr.EstimateIndexBytes(ix)
}

// IndexPages returns the page count of a (possibly hypothetical) index.
// For the clustered primary index this is the table's heap pages (its
// leaves hold full rows).
func (e *Env) IndexPages(ix *catalog.Index) float64 {
	if ix.Primary {
		return e.TablePages(ix.Table)
	}
	p := float64(storage.PagesFor(e.IndexBytes(ix)))
	if p < 1 {
		p = 1
	}
	return p
}

// Available reports whether an index can serve queries right now: the
// primary always can; secondaries must be materialized and active.
func (e *Env) Available(ix *catalog.Index) bool {
	if ix.Primary {
		return true
	}
	pi := e.Mgr.Index(ix.ID())
	return pi != nil && pi.State() == storage.StateActive
}

// SelectivityEq estimates the fraction of rows where column = a constant;
// without statistics it falls back to 1/distinct-guess.
func (e *Env) SelectivityEq(table, column string) float64 {
	if cs := e.Stats.Get(table, column); cs != nil && cs.Rows > 0 {
		d := cs.Distinct
		if d < 1 {
			d = 1
		}
		return 1 / float64(d)
	}
	rows := e.TableRows(table)
	if rows <= 0 {
		return 0.1
	}
	// Heuristic default: assume sqrt(n) distinct values.
	return 1 / math.Max(1, math.Sqrt(rows))
}

// DefaultRangeSel is the selectivity guess for a range predicate without
// statistics.
const DefaultRangeSel = 1.0 / 3

// GetCost approximates the cost of the best locally transformed plan
// implementing r when the given indexes are available (Section 2.2's
// getCost). The primary index of the request's table is always
// implicitly available. Inf is never returned: the clustered scan is the
// universal fallback.
func GetCost(e *Env, r *Request, config []*catalog.Index) float64 {
	return getCost(e, r, config, e.IndexPages)
}

// getCost is GetCost with the index-size lookup abstracted: pagesOf maps
// an index to its page count. The package-level entry points pass
// Env.IndexPages; the Memo passes its per-statement size snapshot.
func getCost(e *Env, r *Request, config []*catalog.Index, pagesOf func(*catalog.Index) float64) float64 {
	if r.Kind == KindUpdate {
		return updateCost(e, r, config)
	}
	best := heapFallback(e, r)
	// The clustered primary index is always available: it can seek on its
	// key prefix, not just scan.
	if pk := e.Cat.PrimaryIndex(r.Table); pk != nil {
		if c := implCostPages(e, r, pk, pagesOf(pk)); c < best {
			best = c
		}
	}
	for _, ix := range config {
		if ix == nil || !strings.EqualFold(ix.Table, r.Table) {
			continue
		}
		if c := implCostPages(e, r, ix, pagesOf(ix)); c < best {
			best = c
		}
	}
	return best
}

// updateCost is the update-shell cost under a configuration: base DML
// work plus maintenance for each secondary index of the table present in
// the configuration.
func updateCost(e *Env, r *Request, config []*catalog.Index) float64 {
	c := e.Model.DMLBase(r.UpdateRows, r.TablePages)
	for _, ix := range config {
		if ix == nil || ix.Primary || !strings.EqualFold(ix.Table, r.Table) {
			continue
		}
		c += e.Model.IndexMaintenance(r.UpdateRows)
	}
	return c
}

// MaintenancePerIndex returns the per-index share of an update request's
// cost — what one extra secondary index adds to the statement.
func (e *Env) MaintenancePerIndex(r *Request) float64 {
	return e.Model.IndexMaintenance(r.UpdateRows)
}

// heapFallback is the cost of implementing the request with the
// clustered primary index (a full scan per binding, capped by the
// repeated-access locality of the model).
func heapFallback(e *Env, r *Request) float64 {
	preds := len(r.EqCols) + r.ResidualPreds
	if r.RangeCol != "" {
		preds++
	}
	one := e.Model.HeapScan(r.TablePages, r.TableRows, preds)
	n := r.Bindings
	if n < 1 {
		n = 1
	}
	// Repeated full scans of a hot table hit the buffer pool: charge the
	// first scan fully and subsequent ones at CPU cost only.
	cpuOnly := e.Model.HeapScan(0, r.TableRows, preds)
	c := one + (n-1)*cpuOnly
	c += sortIfNeeded(e, r, nil, 0)
	return c
}

// ImplCost is the cost of implementing the request with the given index
// (math.Inf(1) when the index cannot implement it).
func ImplCost(e *Env, r *Request, ix *catalog.Index) float64 {
	return implCostPages(e, r, ix, e.IndexPages(ix))
}

// implCostPages is ImplCost with the index's page count supplied by the
// caller — the only live storage lookup on this path. Hoisting it lets
// the Memo snapshot index sizes once per statement instead of once per
// request evaluation.
func implCostPages(e *Env, r *Request, ix *catalog.Index, pages float64) float64 {
	if r.Kind == KindUpdate {
		return math.Inf(1)
	}
	if !strings.EqualFold(ix.Table, r.Table) {
		return math.Inf(1)
	}

	if r.Kind == KindEndpoint {
		// The index must consume every equality column as its leading
		// prefix and then lead with the endpoint column; it then answers
		// MIN/MAX with at most two single-row descents.
		matched := 0
		for _, col := range ix.Columns {
			if i := indexOfFold(r.EqCols, col); i >= 0 && matched < len(r.EqCols) {
				matched++
				continue
			}
			if matched == len(r.EqCols) && strings.EqualFold(col, r.RangeCol) {
				c := 2 * e.Model.IndexSeek(pages, 1, 1)
				if !ix.Primary {
					c += e.Model.RIDLookups(2, r.TablePages)
				}
				return c
			}
			break
		}
		return math.Inf(1)
	}

	// Walk the index columns: consume leading equality columns in any
	// order, then optionally one range column. The primary index takes
	// the same path: it covers every column and seeks on its key prefix,
	// at the full table's page count.
	eqSel := 1.0
	matched := 0
	rangeApplied := false
	for _, col := range ix.Columns {
		if i := indexOfFold(r.EqCols, col); i >= 0 && matched < len(r.EqCols) {
			eqSel *= r.EqSels[i]
			matched++
			continue
		}
		if r.RangeCol != "" && strings.EqualFold(col, r.RangeCol) {
			rangeApplied = true
		}
		break
	}
	sel := 1.0
	if matched > 0 {
		sel *= eqSel
	}
	if rangeApplied {
		sel *= r.RangeSel
	}

	covering := ix.ContainsColumns(r.Required)
	bindings := r.Bindings
	if bindings < 1 {
		bindings = 1
	}

	var c float64
	if matched == 0 && !rangeApplied {
		// No sargable use: only a covering sequential scan makes sense.
		if !covering {
			return math.Inf(1)
		}
		one := e.Model.IndexScan(pages, r.TableRows, r.ResidualPreds+predCount(r))
		cpuOnly := e.Model.IndexScan(0, r.TableRows, r.ResidualPreds+predCount(r))
		c = one + (bindings-1)*cpuOnly
	} else {
		matchRows := r.TableRows * sel
		matchPages := pages * sel
		if matchPages < 1 {
			matchPages = 1
		}
		c = e.Model.Seeks(bindings, pages, matchPages, matchRows)
		if !covering {
			c += e.Model.RIDLookups(bindings*matchRows, r.TablePages)
		}
		c += bindings * matchRows * float64(r.ResidualPreds) * e.Model.CPUPred
	}
	c += sortIfNeeded(e, r, ix, matched)
	return c
}

// predCount counts the sargable predicates a non-sargable access still
// has to evaluate row by row.
func predCount(r *Request) int {
	n := len(r.EqCols)
	if r.RangeCol != "" {
		n++
	}
	return n
}

// sortIfNeeded charges a sort when the request needs an output order the
// access does not produce. An index satisfies the order when, after the
// consumed equality prefix, its next columns are exactly the sort
// columns.
func sortIfNeeded(e *Env, r *Request, ix *catalog.Index, eqConsumed int) float64 {
	if len(r.SortCols) == 0 {
		return 0
	}
	if ix != nil && orderSatisfied(ix.Columns[min(eqConsumed, len(ix.Columns)):], r.SortCols) {
		return 0
	}
	rows := r.RowsPerBinding
	n := r.Bindings
	if n < 1 {
		n = 1
	}
	return n * e.Model.Sort(rows)
}

func orderSatisfied(rest, sortCols []string) bool {
	if len(rest) < len(sortCols) {
		return false
	}
	for i, c := range sortCols {
		if !strings.EqualFold(rest[i], c) {
			return false
		}
	}
	return true
}

func indexOfFold(ss []string, s string) int {
	for i, x := range ss {
		if strings.EqualFold(x, s) {
			return i
		}
	}
	return -1
}

// BuildCost estimates B_I^s, the cost of creating index ix under the
// current configuration: scanning the cheapest source (an active index
// with ix's columns as key prefix avoids the sort — the paper's I1/I2
// asymmetry), optionally sorting, and writing the new structure.
func BuildCost(e *Env, ix *catalog.Index) float64 {
	rows := e.TableRows(ix.Table)
	newPages := float64(storage.PagesFor(e.Mgr.EstimateIndexBytes(ix)))
	if newPages < 1 {
		newPages = 1
	}
	sourcePages := e.TablePages(ix.Table)
	sorted := true
	for _, pi := range e.Mgr.TableIndexes(ix.Table) {
		// The index itself is never its own build source: B_I^s is the
		// cost of creating I as if it were absent from s.
		if pi.State() != storage.StateActive || pi.Def.ID() == ix.ID() {
			continue
		}
		if ix.IsPrefixOf(pi.Def) {
			sorted = false
			if !pi.Def.Primary {
				sourcePages = float64(pi.Pages())
			}
			break
		}
	}
	return e.Model.BuildIndex(sourcePages, rows, newPages, sorted)
}
