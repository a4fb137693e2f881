package datum

// slabDatums caps the backing arena slabs Alloc carves rows from;
// firstSlabRows sizes the first slab of a batch created without a row
// capacity hint.
const (
	slabDatums    = 4096
	firstSlabRows = 4
)

// Batch is a resizable run of rows backed by a datum arena. Rows built
// with Alloc share slabs instead of one heap allocation per row; rows
// appended with Append keep whatever backing they arrived with. The
// arena grows with its rows: the first slab holds the batch's row
// capacity hint (firstSlabRows rows without one), each later slab
// doubles the last up to slabDatums, so a one-row batch costs a few
// hundred bytes and a full morsel carves from full-size slabs. When a
// slab is exhausted a new one is allocated — previously carved rows
// keep pointing into the old slab, so references handed out by Alloc
// stay valid for the life of the batch.
//
// Invariant: a slab is only ever carved forward (Reset does not rewind
// it), so every datum Alloc hands out is still the zero value make
// left there and is never cleared a second time.
type Batch struct {
	rows []Row
	slab []Datum
}

// NewBatch returns an empty batch with row capacity hint n (0: none).
func NewBatch(n int) *Batch {
	if n <= 0 {
		return &Batch{}
	}
	return &Batch{rows: make([]Row, 0, n)}
}

// Len reports the number of rows in the batch.
func (b *Batch) Len() int { return len(b.rows) }

// Row returns the i'th row.
func (b *Batch) Row(i int) Row { return b.rows[i] }

// Rows exposes the underlying row slice (valid until Reset).
func (b *Batch) Rows() []Row { return b.rows }

// Append adds an existing row to the batch without copying it.
func (b *Batch) Append(r Row) { b.rows = append(b.rows, r) }

// Alloc appends a zeroed row of width n carved from the batch arena and
// returns it for the caller to fill.
func (b *Batch) Alloc(n int) Row {
	if len(b.slab)+n > cap(b.slab) {
		sz := 2 * cap(b.slab)
		if b.slab == nil {
			sz = firstSlabRows * n
			if hint := cap(b.rows); hint > 0 {
				sz = hint * n
			}
		}
		b.slab = make([]Datum, 0, max(min(sz, slabDatums), n))
	}
	lo := len(b.slab)
	// Grow len only — the slab must keep its capacity so later Allocs
	// carve from the same backing array. The returned row is capped so an
	// append to it cannot alias the next carved row.
	b.slab = b.slab[:lo+n]
	r := Row(b.slab[lo : lo+n : lo+n])
	b.rows = append(b.rows, r)
	return r
}

// Reset empties the batch, retaining row capacity and the current slab
// tail for reuse. Rows previously returned by Alloc or Rows must not be
// used after Reset.
func (b *Batch) Reset() {
	b.rows = b.rows[:0]
	// Keep the slab: Alloc re-carves from its tail, and full slabs are
	// replaced on demand. Rows handed out before Reset are invalidated
	// by contract, so rewinding would alias them; allocate forward only.
}
