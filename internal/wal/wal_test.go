package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/fault"
)

// sampleRecords covers every record kind and every datum kind a row can
// carry.
func sampleRecords() []*Record {
	row := datum.Row{
		datum.NewInt(-42),
		datum.NewFloat(3.5),
		datum.NewString("acct#0001"),
		datum.NewDate(9125),
		datum.NewBool(true),
		datum.Null,
	}
	schema := &TableDef{
		Name: "orders",
		Cols: []ColDef{
			{Name: "o_orderkey", Kind: 1, AvgWidth: 8},
			{Name: "o_comment", Kind: 3, AvgWidth: 48},
		},
		PK: []string{"o_orderkey"},
	}
	ix := &IndexDef{Name: "ix_orders_date", Table: "orders", Columns: []string{"o_orderdate", "o_orderkey"}}
	return []*Record{
		{Kind: KindPageWrite, Op: OpInsert, Table: "orders", RID: 7, Row: row},
		{Kind: KindPageWrite, Op: OpDelete, Table: "orders", RID: 9},
		{Kind: KindPageWrite, Op: OpUpdate, Table: "orders", RID: 0, Row: row[:2]},
		{Kind: KindAlloc, Schema: schema},
		{Kind: KindIndexCreate, Index: ix, Published: true},
		{Kind: KindIndexCreate, Index: ix},
		{Kind: KindIndexDrop, Index: ix},
		{Kind: KindIndexSuspend, Index: ix},
		{Kind: KindIndexRestart, Index: ix},
		{Kind: KindBuildStart, Index: ix},
		{Kind: KindBuildAbort, Index: ix},
		{Kind: KindCheckpointBegin},
		{Kind: KindCheckpointEnd, Seq: 1<<40 + 17},
		{Kind: KindCommit, Seq: 123456789},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		buf := AppendRecord(nil, rec)
		got, n, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("decode kind %d: %v", rec.Kind, err)
		}
		if n != len(buf) {
			t.Fatalf("kind %d: decoded %d of %d bytes", rec.Kind, n, len(buf))
		}
		// Canonical encoding: re-encoding the decoded record must
		// reproduce the original bytes exactly.
		if again := AppendRecord(nil, got); !bytes.Equal(again, buf) {
			t.Fatalf("kind %d: round-trip bytes differ", rec.Kind)
		}
	}
}

func TestRecordRoundTripConcatenated(t *testing.T) {
	recs := sampleRecords()
	var buf []byte
	for _, rec := range recs {
		buf = AppendRecord(buf, rec)
	}
	off := 0
	for i := range recs {
		rec, n, err := DecodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Kind != recs[i].Kind {
			t.Fatalf("record %d: kind %d != %d", i, rec.Kind, recs[i].Kind)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	base := AppendRecord(nil, &Record{Kind: KindPageWrite, Op: OpInsert, Table: "t", RID: 3,
		Row: datum.Row{datum.NewInt(1), datum.NewString("x")}})
	// Every single-bit-of-a-byte corruption must be caught by the frame
	// CRC (or length/payload validation), never panic, never pass.
	for i := range base {
		mut := append([]byte(nil), base...)
		mut[i] ^= 0x40
		if rec, _, err := DecodeRecord(mut); err == nil {
			// A flip inside the length prefix can legitimately yield
			// "short buffer"-style errors; a nil error means the CRC
			// collided, which must not happen for a 1-bit flip.
			t.Fatalf("offset %d: corrupt record decoded as kind %d", i, rec.Kind)
		}
	}
	// Truncation at every boundary is an error, not a panic.
	for n := 0; n < len(base); n++ {
		if _, _, err := DecodeRecord(base[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
}

func openTestWriter(t *testing.T, dir string, o Options) *Writer {
	t.Helper()
	o.Dir = dir
	w, err := OpenWriter(o)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustAppend(t *testing.T, w *Writer, recs ...*Record) uint64 {
	t.Helper()
	seq, err := w.Append(recs)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func insRec(table string, rid int64) *Record {
	return &Record{Kind: KindPageWrite, Op: OpInsert, Table: table, RID: rid,
		Row: datum.Row{datum.NewInt(rid)}}
}

func TestWriterAppendScan(t *testing.T) {
	dir := t.TempDir()
	w := openTestWriter(t, dir, Options{Policy: SyncGroup})
	for i := 0; i < 10; i++ {
		seq := mustAppend(t, w, insRec("t", int64(i)), insRec("t", int64(i+100)))
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn {
		t.Fatal("clean log scanned as torn")
	}
	if len(res.Batches) != 10 || res.LastSeq != 10 {
		t.Fatalf("got %d batches, last seq %d", len(res.Batches), res.LastSeq)
	}
	for i, b := range res.Batches {
		if b.Seq != uint64(i+1) || len(b.Recs) != 2 {
			t.Fatalf("batch %d: seq %d, %d recs", i, b.Seq, len(b.Recs))
		}
		if b.Recs[0].RID != int64(i) || b.Recs[1].RID != int64(i+100) {
			t.Fatalf("batch %d: rids %d,%d", i, b.Recs[0].RID, b.Recs[1].RID)
		}
	}
}

func TestWriterSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	w := openTestWriter(t, dir, Options{Policy: SyncNone, segmentBytes: 256})
	const n = 40
	for i := 0; i < n; i++ {
		mustAppend(t, w, insRec("t", int64(i)))
	}
	if w.Segment() == 0 {
		t.Fatal("no roll happened")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || len(res.Batches) != n {
		t.Fatalf("torn=%v batches=%d", res.Torn, len(res.Batches))
	}
	if res.NextSegment != w.Segment()+1 {
		t.Fatalf("NextSegment %d, writer segment %d", res.NextSegment, w.Segment())
	}
	for i, b := range res.Batches {
		if b.Seq != uint64(i+1) {
			t.Fatalf("batch %d out of order: seq %d", i, b.Seq)
		}
	}
}

func TestSyncPolicyFsyncCounts(t *testing.T) {
	const n = 8
	t.Run("none", func(t *testing.T) {
		w := openTestWriter(t, t.TempDir(), Options{Policy: SyncNone})
		for i := 0; i < n; i++ {
			mustAppend(t, w, insRec("t", int64(i)))
		}
		if got := w.Fsyncs(); got != 0 {
			t.Fatalf("SyncNone: %d fsyncs", got)
		}
		_ = w.Close()
	})
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	w := openTestWriter(t, dir, Options{Policy: SyncGroup})
	const n = 64
	var wg sync.WaitGroup
	seqs := make([]uint64, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seqs[i], errs[i] = w.Append([]*Record{insRec("t", int64(i))})
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("append %d: %v", i, errs[i])
		}
		if seen[seqs[i]] {
			t.Fatalf("duplicate seq %d", seqs[i])
		}
		seen[seqs[i]] = true
	}
	if got := w.Fsyncs(); got > n {
		t.Fatalf("group commit issued %d fsyncs for %d appends", got, n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != n || res.Torn {
		t.Fatalf("batches=%d torn=%v", len(res.Batches), res.Torn)
	}
}

func TestScanTornTail(t *testing.T) {
	dir := t.TempDir()
	w := openTestWriter(t, dir, Options{Policy: SyncNone})
	for i := 0; i < 5; i++ {
		mustAppend(t, w, insRec("t", int64(i)))
	}
	_ = w.Close()
	path := filepath.Join(dir, SegmentName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-way into the final batch.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Torn || len(res.Batches) != 4 || res.LastSeq != 4 {
		t.Fatalf("torn=%v batches=%d last=%d", res.Torn, len(res.Batches), res.LastSeq)
	}
	if err := res.TruncateTail(); err != nil {
		t.Fatal(err)
	}
	res2, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Torn || len(res2.Batches) != 4 {
		t.Fatalf("after truncate: torn=%v batches=%d", res2.Torn, len(res2.Batches))
	}
}

func TestWriterAppendFault(t *testing.T) {
	dir := t.TempDir()
	w := openTestWriter(t, dir, Options{Policy: SyncNone})
	mustAppend(t, w, insRec("t", 1))
	inj := fault.New(1).Plan(fault.WALAppend, fault.Rule{Prob: 1, Count: 1})
	inj.Arm()
	w.SetFaults(inj)
	if _, err := w.Append([]*Record{insRec("t", 2)}); !fault.Is(err) {
		t.Fatalf("armed append: %v", err)
	}
	// The fault fired before any byte was written; the writer is intact.
	if seq := mustAppend(t, w, insRec("t", 3)); seq != 2 {
		t.Fatalf("seq after failed append: %d", seq)
	}
	_ = w.Close()
	res, _ := ScanDir(dir)
	if len(res.Batches) != 2 || res.Batches[1].Recs[0].RID != 3 {
		t.Fatalf("log holds %d batches", len(res.Batches))
	}
}

// A failed flush is fail-stop: the statement that was waiting fails, the
// writer is poisoned with the flush's error, and the directory reopens to
// exactly the acknowledged prefix.
func TestWriterFsyncFaultDiscardsTail(t *testing.T) {
	dir := t.TempDir()
	w := openTestWriter(t, dir, Options{Policy: SyncGroup})
	mustAppend(t, w, insRec("t", 1))
	inj := fault.New(1).Plan(fault.WALFsync, fault.Rule{Prob: 1, Count: 1})
	inj.Arm()
	w.SetFaults(inj)
	_, flushErr := w.Append([]*Record{insRec("t", 2)})
	if !fault.Is(flushErr) {
		t.Fatalf("fsync fault not surfaced: %v", flushErr)
	}
	// The one-shot fault is spent, yet nothing is acknowledged again.
	for rid := int64(3); rid < 6; rid++ {
		if _, err := w.Append([]*Record{insRec("t", rid)}); err != flushErr {
			t.Fatalf("append after failed flush: %v, want the flush's error", err)
		}
	}
	if err := w.Roll(); err != flushErr {
		t.Fatalf("roll after failed flush: %v", err)
	}
	if err := w.Wait(1); err != nil {
		t.Fatalf("the acknowledged ticket stopped being durable: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || len(res.Batches) != 1 || res.Batches[0].Recs[0].RID != 1 || res.LastSeq != 1 {
		t.Fatalf("reopened log: torn=%v batches=%d last=%d, want exactly the acknowledged batch", res.Torn, len(res.Batches), res.LastSeq)
	}
	w2 := openTestWriter(t, dir, Options{Policy: SyncGroup, StartSeq: res.LastSeq, StartSegment: res.NextSegment})
	if seq := mustAppend(t, w2, insRec("t", 7)); seq != 2 {
		t.Fatalf("resumed seq %d, want 2", seq)
	}
	_ = w2.Close()
}

// Two commits, one flush: Submit does not fsync, the first Wait flushes
// everything written so far, and a ticket that is already durable never
// touches the file again — not even on a crashed writer.
func TestWriterSubmitWaitSharesOneFsync(t *testing.T) {
	dir := t.TempDir()
	w := openTestWriter(t, dir, Options{Policy: SyncGroup})
	mustAppend(t, w, insRec("t", 1))
	base := w.Fsyncs()
	a, err := w.Submit([]*Record{insRec("t", 2)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Submit([]*Record{insRec("t", 3)})
	if err != nil {
		t.Fatal(err)
	}
	if a != 2 || b != 3 || w.Fsyncs() != base || w.Durable() != 1 {
		t.Fatalf("after two submits: tickets %d,%d fsyncs +%d durable %d", a, b, w.Fsyncs()-base, w.Durable())
	}
	if err := w.Wait(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(a); err != nil {
		t.Fatal(err)
	}
	if got := w.Fsyncs() - base; got != 1 || w.Durable() != b {
		t.Fatalf("two commits cost %d fsyncs (durable %d), want 1", got, w.Durable())
	}
	c, err := w.Submit([]*Record{insRec("t", 4)})
	if err != nil {
		t.Fatal(err)
	}
	w.Crash()
	if err := w.Wait(b); err != nil {
		t.Fatalf("durable ticket after crash: %v", err)
	}
	if err := w.Wait(c); !errors.Is(err, ErrCrashed) {
		t.Fatalf("unflushed ticket after crash: %v", err)
	}
}

func TestWriterCrash(t *testing.T) {
	dir := t.TempDir()
	w := openTestWriter(t, dir, Options{Policy: SyncGroup})
	mustAppend(t, w, insRec("t", 1))
	w.Crash()
	if _, err := w.Append([]*Record{insRec("t", 2)}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append after crash: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close after crash must be a quiet no-op: %v", err)
	}
	// A new writer resumes after the crashed one.
	res, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2 := openTestWriter(t, dir, Options{Policy: SyncGroup, StartSeq: res.LastSeq, StartSegment: res.NextSegment})
	if seq := mustAppend(t, w2, insRec("t", 5)); seq != res.LastSeq+1 {
		t.Fatalf("resumed seq %d", seq)
	}
	_ = w2.Close()
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{
		Seq: 77,
		Tables: []SnapshotTable{{
			Def:   TableDef{Name: "t", Cols: []ColDef{{Name: "a", Kind: 1, AvgWidth: 8}}, PK: []string{"a"}},
			Slots: 4,
			Rows: []SnapRow{
				{RID: 0, Row: datum.Row{datum.NewInt(10)}},
				{RID: 2, Row: datum.Row{datum.NewInt(30)}},
			},
			Free: []int64{3, 1},
		}},
		Indexes: []SnapshotIndex{{
			Def:        IndexDef{Name: "ix", Table: "t", Columns: []string{"a"}},
			State:      SnapIndexSuspended,
			PendingOps: 5,
		}},
	}
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadNewestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Seq != 77 {
		t.Fatalf("loaded %+v", got)
	}
	if len(got.Tables) != 1 || got.Tables[0].Slots != 4 || len(got.Tables[0].Rows) != 2 {
		t.Fatalf("table state %+v", got.Tables)
	}
	if got.Tables[0].Free[0] != 3 || got.Tables[0].Free[1] != 1 {
		t.Fatalf("free-list order lost: %v", got.Tables[0].Free)
	}
	if len(got.Indexes) != 1 || got.Indexes[0].State != SnapIndexSuspended || got.Indexes[0].PendingOps != 5 {
		t.Fatalf("index state %+v", got.Indexes)
	}
}

func TestSnapshotFallbackOnCorruption(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, &Snapshot{Seq: 10}); err != nil {
		t.Fatal(err)
	}
	path2, err := WriteSnapshot(dir, &Snapshot{Seq: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot; loading must fall back to seq 10.
	data, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadNewestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Seq != 10 {
		t.Fatalf("fallback loaded %+v", got)
	}
}

func TestRemoveObsolete(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		f, err := createSegment(dir, i)
		if err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
	}
	if _, err := WriteSnapshot(dir, &Snapshot{Seq: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(dir, &Snapshot{Seq: 9}); err != nil {
		t.Fatal(err)
	}
	if err := RemoveObsolete(dir, 2, 9); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := map[string]bool{SegmentName(2): true, SnapshotName(9): true}
	if len(names) != 2 || !want[names[0]] || !want[names[1]] {
		t.Fatalf("kept %v", names)
	}
}

// TestGenerateFuzzCorpus regenerates the checked-in seed corpus when
// WAL_GEN_CORPUS=1; it is a no-op otherwise.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("WAL_GEN_CORPUS") == "" {
		t.Skip("set WAL_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var all []byte
	for i, rec := range sampleRecords() {
		buf := AppendRecord(nil, rec)
		write(fmt.Sprintf("seed-kind-%02d", i), buf)
		all = append(all, buf...)
	}
	write("seed-stream", all)
	write("seed-truncated", all[:len(all)-5])
	flipped := append([]byte(nil), all...)
	flipped[len(flipped)/3] ^= 0x10
	write("seed-bitflip", flipped)
}

// FuzzWALDecode throws arbitrary bytes at the record decoder. The
// decoder must never panic, must never read past the buffer, and any
// record it accepts must re-encode canonically to bytes it accepts
// again.
func FuzzWALDecode(f *testing.F) {
	for _, rec := range sampleRecords() {
		f.Add(AppendRecord(nil, rec))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		for off < len(data) {
			rec, n, err := DecodeRecord(data[off:])
			if err != nil {
				break
			}
			if n <= 0 || off+n > len(data) {
				t.Fatalf("decode consumed %d bytes of %d", n, len(data)-off)
			}
			buf := AppendRecord(nil, rec)
			rec2, n2, err := DecodeRecord(buf)
			if err != nil {
				t.Fatalf("re-decode of re-encoded record: %v", err)
			}
			if n2 != len(buf) {
				t.Fatalf("re-decode consumed %d of %d", n2, len(buf))
			}
			if buf2 := AppendRecord(nil, rec2); !bytes.Equal(buf, buf2) {
				t.Fatal("re-encoding is not a fixed point")
			}
			off += n
		}
	})
}
