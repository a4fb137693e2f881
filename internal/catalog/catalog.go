// Package catalog holds the logical schema: table definitions, column
// metadata and index definitions. It is deliberately independent of the
// storage engine; storage attaches physical structures to catalog objects
// by name. Index definitions carry the column-sequence algebra (prefix,
// containment, leading-column agreement, merge) that the online tuning
// algorithms of the paper are built on (Definition 3 and the Merge-Reduce
// operation of reference [5]).
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"onlinetuner/internal/datum"
)

// Column describes one table column.
type Column struct {
	Name string
	Kind datum.Kind
	// AvgWidth is the accounted byte width used for size estimation when a
	// concrete row is not available (e.g. what-if analysis of hypothetical
	// indexes). Zero means "use the kind's natural width".
	AvgWidth int
}

// width returns the accounting width of the column.
func (c Column) width() int {
	if c.AvgWidth > 0 {
		return c.AvgWidth
	}
	switch c.Kind {
	case datum.KInt, datum.KFloat, datum.KDate:
		return 8
	case datum.KBool:
		return 1
	case datum.KString:
		return 16 // default assumption for unsized strings
	}
	return 8
}

// Table describes a table's logical schema.
type Table struct {
	Name    string
	Columns []Column
	// PrimaryKey lists the column names of the primary (clustered) index.
	// Every table in this system has one, mirroring the paper's setup where
	// schedules "start with only primary indexes".
	PrimaryKey []string

	colIdx map[string]int
}

// NewTable builds a table definition and validates it.
func NewTable(name string, cols []Column, primaryKey []string) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: empty table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: table %s has no columns", name)
	}
	t := &Table{Name: name, Columns: cols, PrimaryKey: primaryKey,
		colIdx: make(map[string]int, len(cols))}
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		if _, dup := t.colIdx[lc]; dup {
			return nil, fmt.Errorf("catalog: table %s: duplicate column %s", name, c.Name)
		}
		t.colIdx[lc] = i
	}
	if len(primaryKey) == 0 {
		return nil, fmt.Errorf("catalog: table %s has no primary key", name)
	}
	for _, pk := range primaryKey {
		if _, ok := t.colIdx[strings.ToLower(pk)]; !ok {
			return nil, fmt.Errorf("catalog: table %s: primary key column %s not found", name, pk)
		}
	}
	return t, nil
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// RowWidth returns the estimated accounted width of a full row.
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.Columns {
		w += c.width()
	}
	return w
}

// ColumnsWidth returns the estimated accounted width of the named columns.
func (t *Table) ColumnsWidth(names []string) int {
	w := 0
	for _, n := range names {
		if i := t.ColumnIndex(n); i >= 0 {
			w += t.Columns[i].width()
		}
	}
	return w
}

// Index describes a (possibly hypothetical) secondary or primary index:
// an ordered sequence of key columns over one table. The paper's index
// model is exactly this — e.g. I2 = R(a,b,c,id) — with covering decided by
// column containment and seek ability by key prefix.
type Index struct {
	Name    string
	Table   string
	Columns []string // ordered key columns
	Primary bool     // the clustered primary index; cannot be dropped

	// id caches the canonical identity. It is written ONLY by Canonicalize,
	// which must run before the index is shared between goroutines; a
	// lazily-written memo inside ID() was a data race once statements
	// started executing concurrently. Copying the struct copies the cache,
	// which stays correct as long as Table/Columns are not mutated.
	id string
}

func computeID(table string, columns []string) string {
	return strings.ToLower(table) + "(" + strings.ToLower(strings.Join(columns, ",")) + ")"
}

// Canonicalize precomputes the index's ID so later ID() calls are free.
// Call it right after constructing an Index, before publishing it to
// other goroutines; it returns the index for chaining.
func (ix *Index) Canonicalize() *Index {
	ix.id = computeID(ix.Table, ix.Columns)
	return ix
}

// ID returns a canonical identity string: table(col1,col2,...). Two Index
// values with the same ID are the same physical design object regardless
// of Name. Non-canonicalized indexes compute the value fresh on every
// call — ID() itself never writes, so sharing an Index between
// goroutines is safe either way.
func (ix *Index) ID() string {
	if ix.id != "" {
		return ix.id
	}
	return computeID(ix.Table, ix.Columns)
}

// String renders the index like the paper: R(a,b,c,id).
func (ix *Index) String() string {
	return ix.Table + "(" + strings.Join(ix.Columns, ",") + ")"
}

// HasColumn reports whether the index contains the named column anywhere
// in its key sequence.
func (ix *Index) HasColumn(name string) bool {
	for _, c := range ix.Columns {
		if strings.EqualFold(c, name) {
			return true
		}
	}
	return false
}

// ContainsColumns reports whether the index's column set is a superset of
// names (order-insensitive).
func (ix *Index) ContainsColumns(names []string) bool {
	for _, n := range names {
		if !ix.HasColumn(n) {
			return false
		}
	}
	return true
}

// LeadingColumn returns the first key column.
func (ix *Index) LeadingColumn() string {
	if len(ix.Columns) == 0 {
		return ""
	}
	return ix.Columns[0]
}

// IsPrefixOf reports whether ix's column sequence is a prefix of other's.
func (ix *Index) IsPrefixOf(other *Index) bool {
	if len(ix.Columns) > len(other.Columns) {
		return false
	}
	for i, c := range ix.Columns {
		if !strings.EqualFold(c, other.Columns[i]) {
			return false
		}
	}
	return true
}

// UsefulnessLevel implements Definition 3 of the paper: the usefulness
// level of i1 with respect to i2.
//
//	-1: i1's columns do not include i2's columns
//	 0: i1's columns include i2's columns
//	 1: additionally, i2's leading column agrees with i1's
//	 2: additionally, i2 is a prefix of i1
func UsefulnessLevel(i1, i2 *Index) int {
	if i1.Table != i2.Table || !i1.ContainsColumns(i2.Columns) {
		return -1
	}
	if !strings.EqualFold(i1.LeadingColumn(), i2.LeadingColumn()) {
		return 0
	}
	if !i2.IsPrefixOf(i1) {
		return 1
	}
	return 2
}

// Merge implements index merging [5]: the merged index preserves i1's key
// order (so it can still seek on i1's prefix) and appends i2's columns that
// are missing, in i2's order. The result can answer every request served by
// i1 optimally and every request served by i2 at least by scan, while being
// smaller than the two indexes combined.
func Merge(i1, i2 *Index) (*Index, error) {
	if !strings.EqualFold(i1.Table, i2.Table) {
		return nil, fmt.Errorf("catalog: cannot merge indexes on different tables %s, %s", i1.Table, i2.Table)
	}
	cols := make([]string, 0, len(i1.Columns)+len(i2.Columns))
	cols = append(cols, i1.Columns...)
	for _, c := range i2.Columns {
		if !containsFold(cols, c) {
			cols = append(cols, c)
		}
	}
	// The name derives from the merged column set (not the input names,
	// which would grow without bound under repeated merging).
	m := &Index{
		Name:    "mrg_" + strings.ToLower(i1.Table) + "_" + strings.ToLower(strings.Join(cols, "_")),
		Table:   i1.Table,
		Columns: cols,
	}
	return m.Canonicalize(), nil
}

// Jaccard returns |i1 ∩ i2| / |i1 ∪ i2| over column sets — the similarity
// measure the paper uses to pick "the most similar index" when inferring
// update costs for new candidates (Section 3.2.1).
func Jaccard(i1, i2 *Index) float64 {
	if !strings.EqualFold(i1.Table, i2.Table) {
		return 0
	}
	inter := 0
	for _, c := range i1.Columns {
		if i2.HasColumn(c) {
			inter++
		}
	}
	union := len(i1.Columns) + len(i2.Columns) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func containsFold(ss []string, s string) bool {
	for _, x := range ss {
		if strings.EqualFold(x, s) {
			return true
		}
	}
	return false
}

// Catalog is the thread-safe registry of tables and indexes.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	indexes map[string]*Index // by lowercase name
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  make(map[string]*Table),
		indexes: make(map[string]*Index),
	}
}

// AddTable registers a table and creates its primary index definition
// (named <table>_pk) automatically.
func (c *Catalog) AddTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(t.Name)
	if _, dup := c.tables[key]; dup {
		return fmt.Errorf("catalog: table %s already exists", t.Name)
	}
	c.tables[key] = t
	pk := &Index{
		Name:    t.Name + "_pk",
		Table:   t.Name,
		Columns: append([]string(nil), t.PrimaryKey...),
		Primary: true,
	}
	// The clustered primary index contains every column of the table
	// (leaf rows are full rows); model that by appending the non-key
	// columns after the key so containment checks see it as covering.
	for _, col := range t.Columns {
		if !containsFold(pk.Columns, col.Name) {
			pk.Columns = append(pk.Columns, col.Name)
		}
	}
	c.indexes[strings.ToLower(pk.Name)] = pk.Canonicalize()
	return nil
}

// DropTable removes a table and all of its indexes.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("catalog: table %s does not exist", name)
	}
	delete(c.tables, key)
	for iname, ix := range c.indexes {
		if strings.EqualFold(ix.Table, name) {
			delete(c.indexes, iname)
		}
	}
	return nil
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[strings.ToLower(name)]
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddIndex registers a secondary index definition. The columns must exist
// on the table, and no index with the same name or identical column
// sequence may exist.
func (c *Catalog) AddIndex(ix *Index) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkIndexLocked(ix); err != nil {
		return err
	}
	c.indexes[strings.ToLower(ix.Name)] = ix
	return nil
}

// CheckIndex reports the error AddIndex would return for ix, without
// registering it: the validation a build runs before doing any work.
func (c *Catalog) CheckIndex(ix *Index) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.checkIndexLocked(ix)
}

func (c *Catalog) checkIndexLocked(ix *Index) error {
	t := c.tables[strings.ToLower(ix.Table)]
	if t == nil {
		return fmt.Errorf("catalog: index %s references unknown table %s", ix.Name, ix.Table)
	}
	for _, col := range ix.Columns {
		if t.ColumnIndex(col) < 0 {
			return fmt.Errorf("catalog: index %s references unknown column %s.%s", ix.Name, ix.Table, col)
		}
	}
	if _, dup := c.indexes[strings.ToLower(ix.Name)]; dup {
		return fmt.Errorf("catalog: index %s already exists", ix.Name)
	}
	id := ix.ID()
	for _, ex := range c.indexes {
		if ex.ID() == id {
			return fmt.Errorf("catalog: an index with columns %s already exists (%s)", id, ex.Name)
		}
	}
	return nil
}

// DropIndex removes a secondary index definition. Primary indexes cannot
// be dropped.
func (c *Catalog) DropIndex(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	ix, ok := c.indexes[key]
	if !ok {
		return fmt.Errorf("catalog: index %s does not exist", name)
	}
	if ix.Primary {
		return fmt.Errorf("catalog: cannot drop primary index %s", name)
	}
	delete(c.indexes, key)
	return nil
}

// Index returns the named index, or nil.
func (c *Catalog) Index(name string) *Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.indexes[strings.ToLower(name)]
}

// IndexByID returns the index with the given canonical ID, or nil.
func (c *Catalog) IndexByID(id string) *Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ix := range c.indexes {
		if ix.ID() == id {
			return ix
		}
	}
	return nil
}

// Indexes returns all indexes sorted by name.
func (c *Catalog) Indexes() []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Index, 0, len(c.indexes))
	for _, ix := range c.indexes {
		out = append(out, ix)
	}
	slices.SortFunc(out, func(a, b *Index) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// TableIndexes returns all indexes over the named table, primary first,
// then sorted by name.
func (c *Catalog) TableIndexes(table string) []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Index
	for _, ix := range c.indexes {
		if strings.EqualFold(ix.Table, table) {
			out = append(out, ix)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Primary != out[j].Primary {
			return out[i].Primary
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// PrimaryIndex returns the primary index of the named table, or nil.
func (c *Catalog) PrimaryIndex(table string) *Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ix := range c.indexes {
		if ix.Primary && strings.EqualFold(ix.Table, table) {
			return ix
		}
	}
	return nil
}
