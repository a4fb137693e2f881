package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sampleRequests covers every op and field shape the protocol defines;
// the fuzz corpus and round-trip tests both draw from it.
func sampleRequests() []*Request {
	return []*Request{
		{ID: 1, Op: OpQuery, SQL: "SELECT a FROM r WHERE id = 7"},
		{ID: 2, Op: OpExec, SQL: "INSERT INTO r VALUES (1, 2)"},
		{ID: 3, Op: OpExplain, SQL: "SELECT a FROM r"},
		{ID: 4, Op: OpPrepare, Name: "q1", SQL: "SELECT a FROM r WHERE id = 9"},
		{ID: 5, Op: OpExecPrepared, Name: "q1"},
		{ID: 6, Op: OpBegin},
		{ID: 7, Op: OpCommit},
		{ID: 8, Op: OpRollback},
		{ID: 9, Op: OpPing},
		{ID: 10, Op: OpClose},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	bodies := make([][]byte, 0, len(sampleRequests()))
	for _, req := range sampleRequests() {
		body, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
		stream = AppendFrame(stream, body)
	}
	// Slice decoding walks the stream frame by frame.
	off := 0
	for i := range bodies {
		body, n, err := DecodeFrame(stream[off:], 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(body, bodies[i]) {
			t.Fatalf("frame %d: body mismatch", i)
		}
		off += n
	}
	if off != len(stream) {
		t.Fatalf("consumed %d of %d bytes", off, len(stream))
	}
	// Reader decoding sees the same bodies.
	r := bytes.NewReader(stream)
	for i := range bodies {
		body, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if !bytes.Equal(body, bodies[i]) {
			t.Fatalf("read frame %d: body mismatch", i)
		}
	}
	if _, err := ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("trailing read: got %v, want EOF", err)
	}
}

func TestFrameErrors(t *testing.T) {
	body, _ := EncodeRequest(&Request{ID: 1, Op: OpPing})
	frame := AppendFrame(nil, body)

	// Every truncation of a valid frame must report truncated, never
	// panic, never succeed.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := DecodeFrame(frame[:cut], 0); !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("cut %d: got %v, want ErrFrameTruncated", cut, err)
		}
	}

	// A declared length over the cap errors before any allocation, from
	// both entry points.
	var huge [frameHeader]byte
	binary.BigEndian.PutUint32(huge[:], 1<<30)
	if _, _, err := DecodeFrame(huge[:], 1<<20); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized decode: got %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(huge[:]), 1<<20); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized read: got %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, _, _ = DecodeFrame(huge[:], 1<<20)
		_, _ = ReadFrame(bytes.NewReader(huge[:]), 1<<20)
	})
	// The error paths may allocate the wrapped error; what they must
	// never do is allocate anything sized by the hostile header.
	if allocs > 16 {
		t.Fatalf("oversized-frame error path allocates %v objects", allocs)
	}

	// Zero-length frames are a protocol violation.
	var zero [frameHeader]byte
	if _, _, err := DecodeFrame(zero[:], 0); !errors.Is(err, ErrFrameEmpty) {
		t.Fatalf("empty frame: got %v", err)
	}

	// A frame body that is not a request JSON is rejected, as is a
	// response smuggled where a request belongs.
	if _, err := DecodeRequest([]byte("{\"op\":1}")); err == nil {
		t.Fatal("numeric op accepted")
	}
	if _, err := DecodeRequest([]byte("{}")); err == nil {
		t.Fatal("missing op accepted")
	}
	respBody, _ := EncodeResponse(&Response{ID: 9, OK: true})
	if _, err := DecodeRequest(respBody); err == nil {
		t.Fatal("response body accepted as request")
	}
}

// TestRequestDecoderAcrossFrames drives one connection's decoder over
// frames whose leftovers must not leak into their successors: bytes
// after the request, a body cut short, a request the strict decoder
// rejects. Every frame must decode as it would alone, and the steady
// state must not rebuild the json.Decoder.
func TestRequestDecoderAcrossFrames(t *testing.T) {
	long := `{"id":7,"op":"query","sql":"` + strings.Repeat("SELECT 1 -- pad ", 200) + `"}`
	frames := []string{
		`{"id":1,"op":"ping"}`,
		`{"id":2,"op":"query","sql":"SELECT 1"}` + "\n",
		`{"id":3,"op":"ping"} {"id":99,"op":"close"}`,
		`{"id":4,"op":"ping"}`,
		`{"id":5,"op":"pi`,
		`ng"}`,
		`{"id":6,"op":"ping","rows":[]}`,
		long,
		` {"id":8,"op":"exec","sql":"x"}`,
		`{"id":9,"op":"ping"} trailing`,
		`{"id":10,"op":"ping"}`,
	}
	var conn requestDecoder
	for i, f := range frames {
		want, werr := DecodeRequest([]byte(f))
		got, gerr := conn.decode([]byte(f))
		if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(want, got) {
			t.Fatalf("frame %d %q: alone (%+v, %v), on the connection (%+v, %v)", i, f, want, werr, got, gerr)
		}
	}
	body := []byte(frames[0])
	fresh := testing.AllocsPerRun(200, func() { _, _ = DecodeRequest(body) })
	kept := testing.AllocsPerRun(200, func() { _, _ = conn.decode(body) })
	if kept > fresh-2 {
		t.Fatalf("connection decoder allocates %.0f objects per frame, a fresh one %.0f: nothing is being reused", kept, fresh)
	}
}

// TestGenerateWireCorpus regenerates the checked-in seed corpus when
// SERVER_GEN_CORPUS=1; a no-op otherwise (mirrors the WAL decoder's
// corpus generator).
func TestGenerateWireCorpus(t *testing.T) {
	if os.Getenv("SERVER_GEN_CORPUS") == "" {
		t.Skip("set SERVER_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWireDecode")
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
	for i, req := range sampleRequests() {
		body, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		write(fmt.Sprintf("seed-op-%02d", i), AppendFrame(nil, body))
		all = AppendFrame(all, body)
	}
	write("seed-stream", all)
	write("seed-truncated", all[:len(all)-7])
	flipped := append([]byte(nil), all...)
	flipped[len(flipped)/3] ^= 0x20
	write("seed-bitflip", flipped)
	var huge [frameHeader]byte
	binary.BigEndian.PutUint32(huge[:], 1<<30)
	write("seed-oversized", huge[:])
	write("seed-empty-frame", []byte{0, 0, 0, 0})
	write("seed-garbage", []byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'})
}

// FuzzWireDecode throws arbitrary bytes at the frame and request
// decoders. They must never panic, never over-allocate from a hostile
// length header, and any request they accept must re-encode to a form
// they accept again, identically (truncated, oversized, and garbage
// frames all error cleanly).
func FuzzWireDecode(f *testing.F) {
	for _, req := range sampleRequests() {
		body, err := EncodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(AppendFrame(nil, body))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFrame = 1 << 16
		var conn requestDecoder
		off := 0
		for off < len(data) {
			body, n, err := DecodeFrame(data[off:], maxFrame)
			if err != nil {
				// The reader path must agree that the stream ends here
				// (modulo its io error naming).
				if _, rerr := ReadFrame(bytes.NewReader(data[off:]), maxFrame); rerr == nil {
					t.Fatalf("DecodeFrame errored (%v) but ReadFrame succeeded", err)
				}
				break
			}
			if n <= frameHeader || off+n > len(data) {
				t.Fatalf("decode consumed %d bytes of %d", n, len(data)-off)
			}
			if len(body) != n-frameHeader {
				t.Fatalf("body %d bytes for frame of %d", len(body), n)
			}
			req, err := DecodeRequest(body)
			// The connection's decoder, carried over every earlier frame
			// of this input, must answer exactly like a fresh one.
			creq, cerr := conn.decode(body)
			if (err == nil) != (cerr == nil) || !reflect.DeepEqual(req, creq) {
				t.Fatalf("frame at %d: fresh decoder (%+v, %v), connection decoder (%+v, %v)", off, req, err, creq, cerr)
			}
			if err == nil {
				re, err := EncodeRequest(req)
				if err != nil {
					t.Fatalf("re-encode of accepted request: %v", err)
				}
				req2, err := DecodeRequest(re)
				if err != nil {
					t.Fatalf("re-decode of re-encoded request: %v", err)
				}
				if !reflect.DeepEqual(req, req2) {
					t.Fatalf("re-encoding is not a fixed point: %+v vs %+v", req, req2)
				}
			}
			off += n
		}
	})
}
