package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"onlinetuner/internal/datum"
)

// Kind identifies one logical record type in the log.
type Kind uint8

// The record catalog. Every record describes one logical effect on the
// storage layer; a Commit record closes a batch and makes the batch's
// effects durable as a unit. B+-tree structure is never logged — trees
// are a deterministic function of the heap (BulkLoad), so IndexCreate /
// IndexRestart stand in for the physical split records of a page-level
// log.
const (
	// KindCommit closes a record batch. Carries the batch sequence
	// number; a batch with no trailing commit is invisible to recovery.
	KindCommit Kind = iota + 1
	// KindPageWrite is one heap row effect: insert, delete or update.
	KindPageWrite
	// KindAlloc records table materialization (schema + primary key).
	KindAlloc
	// KindIndexCreate records a secondary index becoming active. Every
	// build — CREATE INDEX, the tuner's, recovery replay — is published
	// by FinishBuild after its BuildStart, and logs Published = true; a
	// record without it comes from a log written before builds ran that
	// protocol.
	KindIndexCreate
	// KindIndexDrop / KindIndexSuspend / KindIndexRestart record the
	// corresponding lifecycle transition.
	KindIndexDrop
	KindIndexSuspend
	KindIndexRestart
	// KindBuildStart records the beginning of a background build (delta
	// logging engaged). A BuildStart with no later IndexCreate or
	// BuildAbort is an in-flight build lost to the crash; recovery
	// abandons it.
	KindBuildStart
	// KindBuildAbort records a clean build abort.
	KindBuildAbort
	// KindCheckpointBegin / KindCheckpointEnd bracket a checkpoint.
	// CheckpointEnd carries the sequence number of the snapshot it
	// refers to; both are informational (the snapshot file's own
	// checksum is the authority).
	KindCheckpointBegin
	KindCheckpointEnd

	kindMax = KindCheckpointEnd
)

func (k Kind) String() string {
	switch k {
	case KindCommit:
		return "commit"
	case KindPageWrite:
		return "page-write"
	case KindAlloc:
		return "alloc"
	case KindIndexCreate:
		return "index-create"
	case KindIndexDrop:
		return "index-drop"
	case KindIndexSuspend:
		return "index-suspend"
	case KindIndexRestart:
		return "index-restart"
	case KindBuildStart:
		return "build-start"
	case KindBuildAbort:
		return "build-abort"
	case KindCheckpointBegin:
		return "checkpoint-begin"
	case KindCheckpointEnd:
		return "checkpoint-end"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Op is the row operation of a PageWrite record.
type Op uint8

// PageWrite operations.
const (
	OpInsert Op = iota + 1
	OpDelete
	OpUpdate
)

// ColDef is one column of a logged table schema.
type ColDef struct {
	Name     string
	Kind     uint8 // datum.Kind
	AvgWidth int
}

// TableDef is a logged table schema, sufficient to recreate the catalog
// entry (and through it the implicit primary index).
type TableDef struct {
	Name string
	Cols []ColDef
	PK   []string
}

// IndexDef is a logged secondary-index definition.
type IndexDef struct {
	Name    string
	Table   string
	Columns []string
}

// Record is one decoded log record. Which fields are meaningful depends
// on Kind; unused fields are zero.
type Record struct {
	Kind Kind
	// Seq is set on Commit (the batch sequence) and CheckpointEnd (the
	// snapshot sequence).
	Seq uint64
	// PageWrite fields.
	Op    Op
	Table string
	RID   int64
	Row   datum.Row // insert/update only
	// Alloc field.
	Schema *TableDef
	// Index lifecycle field (IndexCreate/Drop/Suspend/Restart,
	// BuildStart/Abort).
	Index *IndexDef
	// Published marks an IndexCreate logged by FinishBuild's publish,
	// which every build now takes; older logs may lack it.
	Published bool
}

// MaxRecordSize bounds one framed record. Larger length prefixes are
// treated as corruption, which keeps a torn or flipped length field from
// driving a huge allocation during recovery.
const MaxRecordSize = 16 << 20

// frameOverhead is the per-record framing cost: u32 payload length plus
// u32 CRC32C of the payload.
const frameOverhead = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord encodes rec with framing ([len u32][crc32c u32][payload])
// and appends it to buf.
func AppendRecord(buf []byte, rec *Record) []byte {
	head := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // len + crc placeholders
	buf = appendPayload(buf, rec)
	payload := buf[head+frameOverhead:]
	binary.LittleEndian.PutUint32(buf[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[head+4:], crc32.Checksum(payload, crcTable))
	return buf
}

func appendPayload(buf []byte, rec *Record) []byte {
	buf = append(buf, byte(rec.Kind))
	switch rec.Kind {
	case KindCommit, KindCheckpointEnd:
		buf = binary.AppendUvarint(buf, rec.Seq)
	case KindPageWrite:
		buf = append(buf, byte(rec.Op))
		buf = appendString(buf, rec.Table)
		buf = binary.AppendVarint(buf, rec.RID)
		if rec.Op != OpDelete {
			buf = AppendRow(buf, rec.Row)
		}
	case KindAlloc:
		buf = appendTableDef(buf, rec.Schema)
	case KindIndexCreate:
		buf = appendIndexDef(buf, rec.Index)
		pub := byte(0)
		if rec.Published {
			pub = 1
		}
		buf = append(buf, pub)
	case KindIndexDrop, KindIndexSuspend, KindIndexRestart, KindBuildStart, KindBuildAbort:
		buf = appendIndexDef(buf, rec.Index)
	case KindCheckpointBegin:
		// no payload beyond the kind byte
	}
	return buf
}

// DecodeRecord parses one framed record from the head of b. It returns
// the record and the number of bytes consumed. Any framing, checksum or
// payload problem — including a truncated tail — returns an error; the
// caller treats that position as the end of the consistent prefix.
func DecodeRecord(b []byte) (*Record, int, error) {
	if len(b) < frameOverhead {
		return nil, 0, fmt.Errorf("wal: short frame header: %d bytes", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > MaxRecordSize {
		return nil, 0, fmt.Errorf("wal: implausible record length %d", n)
	}
	if uint32(len(b)-frameOverhead) < n {
		return nil, 0, fmt.Errorf("wal: truncated record: need %d payload bytes, have %d", n, len(b)-frameOverhead)
	}
	payload := b[frameOverhead : frameOverhead+int(n)]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(b[4:]); got != want {
		return nil, 0, fmt.Errorf("wal: record checksum mismatch: %08x != %08x", got, want)
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return rec, frameOverhead + int(n), nil
}

func decodePayload(p []byte) (*Record, error) {
	d := &decoder{b: p}
	rec := &Record{Kind: Kind(d.byte())}
	if rec.Kind == 0 || rec.Kind > kindMax {
		return nil, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	switch rec.Kind {
	case KindCommit, KindCheckpointEnd:
		rec.Seq = d.uvarint()
	case KindPageWrite:
		rec.Op = Op(d.byte())
		if rec.Op < OpInsert || rec.Op > OpUpdate {
			return nil, fmt.Errorf("wal: unknown page-write op %d", rec.Op)
		}
		rec.Table = d.str()
		rec.RID = d.varint()
		if rec.Op != OpDelete {
			rec.Row = d.row()
		}
	case KindAlloc:
		rec.Schema = d.tableDef()
	case KindIndexCreate:
		rec.Index = d.indexDef()
		rec.Published = d.byte() != 0
	case KindIndexDrop, KindIndexSuspend, KindIndexRestart, KindBuildStart, KindBuildAbort:
		rec.Index = d.indexDef()
	case KindCheckpointBegin:
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("wal: %d trailing payload bytes after %s record", len(d.b)-d.off, rec.Kind)
	}
	return rec, nil
}

// AppendRow encodes a row: a field count followed by one kind byte and a
// kind-specific value per field.
func AppendRow(buf []byte, r datum.Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, d := range r {
		k := d.Kind()
		buf = append(buf, byte(k))
		switch k {
		case datum.KNull:
		case datum.KInt, datum.KDate:
			buf = binary.AppendVarint(buf, d.Int())
		case datum.KBool:
			v := byte(0)
			if d.Bool() {
				v = 1
			}
			buf = append(buf, v)
		case datum.KFloat:
			var fb [8]byte
			binary.LittleEndian.PutUint64(fb[:], math.Float64bits(d.Float()))
			buf = append(buf, fb[:]...)
		case datum.KString:
			buf = appendString(buf, d.Str())
		}
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendTableDef(buf []byte, t *TableDef) []byte {
	buf = appendString(buf, t.Name)
	buf = binary.AppendUvarint(buf, uint64(len(t.Cols)))
	for _, c := range t.Cols {
		buf = appendString(buf, c.Name)
		buf = append(buf, c.Kind)
		buf = binary.AppendUvarint(buf, uint64(c.AvgWidth))
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.PK)))
	for _, c := range t.PK {
		buf = appendString(buf, c)
	}
	return buf
}

func appendIndexDef(buf []byte, ix *IndexDef) []byte {
	buf = appendString(buf, ix.Name)
	buf = appendString(buf, ix.Table)
	buf = binary.AppendUvarint(buf, uint64(len(ix.Columns)))
	for _, c := range ix.Columns {
		buf = appendString(buf, c)
	}
	return buf
}

// decoder is a bounds-checked cursor over a record payload. Every read
// sets err and returns a zero value on underflow, so decode code reads
// linearly and checks err once.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: "+format, args...)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("payload underflow reading byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("payload underflow reading uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("payload underflow reading varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string length %d exceeds remaining payload %d", n, len(d.b)-d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) row() datum.Row {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	// Each field costs at least one byte, so a count past the remaining
	// payload is corruption, not a big row.
	if n > uint64(len(d.b)-d.off) {
		d.fail("row field count %d exceeds remaining payload %d", n, len(d.b)-d.off)
		return nil
	}
	row := make(datum.Row, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := datum.Kind(d.byte())
		switch k {
		case datum.KNull:
			row = append(row, datum.Null)
		case datum.KInt:
			row = append(row, datum.NewInt(d.varint()))
		case datum.KDate:
			row = append(row, datum.NewDate(d.varint()))
		case datum.KBool:
			row = append(row, datum.NewBool(d.byte() != 0))
		case datum.KFloat:
			if len(d.b)-d.off < 8 {
				d.fail("payload underflow reading float")
				return nil
			}
			bits := binary.LittleEndian.Uint64(d.b[d.off:])
			d.off += 8
			row = append(row, datum.NewFloat(math.Float64frombits(bits)))
		case datum.KString:
			row = append(row, datum.NewString(d.str()))
		default:
			d.fail("unknown datum kind %d", k)
			return nil
		}
	}
	return row
}

func (d *decoder) tableDef() *TableDef {
	t := &TableDef{Name: d.str()}
	ncols := d.uvarint()
	if d.err != nil {
		return nil
	}
	if ncols > uint64(len(d.b)-d.off) {
		d.fail("column count %d exceeds remaining payload %d", ncols, len(d.b)-d.off)
		return nil
	}
	for i := uint64(0); i < ncols && d.err == nil; i++ {
		t.Cols = append(t.Cols, ColDef{Name: d.str(), Kind: d.byte(), AvgWidth: int(d.uvarint())})
	}
	npk := d.uvarint()
	if d.err != nil {
		return nil
	}
	if npk > uint64(len(d.b)-d.off) {
		d.fail("primary-key count %d exceeds remaining payload %d", npk, len(d.b)-d.off)
		return nil
	}
	for i := uint64(0); i < npk && d.err == nil; i++ {
		t.PK = append(t.PK, d.str())
	}
	return t
}

func (d *decoder) indexDef() *IndexDef {
	ix := &IndexDef{Name: d.str(), Table: d.str()}
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("index column count %d exceeds remaining payload %d", n, len(d.b)-d.off)
		return nil
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		ix.Columns = append(ix.Columns, d.str())
	}
	return ix
}
