package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/executor"
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

// TestGenerateWireCorpus regenerates the checked-in seed corpora of
// FuzzWireDecode and FuzzResponseDecode when SERVER_GEN_CORPUS=1; a
// no-op otherwise (mirrors the WAL decoder's corpus generator).
func TestGenerateWireCorpus(t *testing.T) {
	if os.Getenv("SERVER_GEN_CORPUS") == "" {
		t.Skip("set SERVER_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	write := func(fuzzer, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", fuzzer)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
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
		write("FuzzWireDecode", fmt.Sprintf("seed-op-%02d", i), AppendFrame(nil, body))
		all = AppendFrame(all, body)
	}
	write("FuzzWireDecode", "seed-stream", all)
	write("FuzzWireDecode", "seed-truncated", all[:len(all)-7])
	flipped := append([]byte(nil), all...)
	flipped[len(flipped)/3] ^= 0x20
	write("FuzzWireDecode", "seed-bitflip", flipped)
	var huge [frameHeader]byte
	binary.BigEndian.PutUint32(huge[:], 1<<30)
	write("FuzzWireDecode", "seed-oversized", huge[:])
	write("FuzzWireDecode", "seed-empty-frame", []byte{0, 0, 0, 0})
	write("FuzzWireDecode", "seed-garbage", []byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'})

	r := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		body, err := EncodeResponse(genResponse(r))
		if err != nil {
			t.Fatal(err)
		}
		write("FuzzResponseDecode", fmt.Sprintf("seed-generated-%02d", i), body)
	}
	scan, err := EncodeResponse(&Response{ID: 9, OK: true, StmtResult: *renderResult(codecResult(20), &engine.QueryInfo{EstCost: 1386.55})})
	if err != nil {
		t.Fatal(err)
	}
	write("FuzzResponseDecode", "seed-scan", scan)
	write("FuzzResponseDecode", "seed-scan-truncated", scan[:len(scan)*2/3])
	flipped = append([]byte(nil), scan...)
	flipped[len(flipped)/2] ^= 0x20
	write("FuzzResponseDecode", "seed-scan-bitflip", flipped)
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

// codecPieces are what generated strings are made of: the bytes and
// runes whose escaping the response codec must share with encoding/json
// (quotes, backslashes, control bytes, HTML characters, invalid UTF-8,
// U+2028/9) beside plain ASCII, multi-byte UTF-8 and cell renderings.
var codecPieces = []string{
	"", "a", "plain text", "'quoted'", "DATE(19000)", "-0.25",
	`"`, `\`, `\"`, "/", "<", ">", "&", "<>&",
	"\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f", " ", "\x7f",
	"\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\xc0\xaf",
	"\xe2\x80\xa8", "\xe2\x80\xa9", "\xef\xbf\xbd", "\xc3\xa9", "\xe6\x97\xa5", "\xf0\x9f\x98\x80",
}

// codecCosts are costs at encoding/json's formatting edges: exponent
// form below 1e-6 and from 1e21, negatives, the extremes of float64.
var codecCosts = []float64{
	1, -1, 0.5, 1386.5527785220957, 123456789.125, 1e-7, 1e-6, 9.99e-7,
	1e21, 1e20, 999999999999999999999, -1e21, -2.5e-9, 1.5e-10, 5e-324, math.MaxFloat64,
}

func genString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.Intn(4); n > 0; n-- {
		b.WriteString(codecPieces[r.Intn(len(codecPieces))])
	}
	return b.String()
}

// genStrings returns n strings, or a nil or an empty slice.
func genStrings(r *rand.Rand, n int) []string {
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, n)
	for i := range out {
		out[i] = genString(r)
	}
	return out
}

func genResult(r *rand.Rand) StmtResult {
	width := r.Intn(4)
	res := StmtResult{Columns: genStrings(r, width)}
	switch r.Intn(4) {
	case 0:
	case 1:
		res.Rows = [][]string{}
	default:
		res.Rows = make([][]string, 1+r.Intn(5))
		for i := range res.Rows {
			res.Rows[i] = genStrings(r, width)
		}
	}
	if r.Intn(2) == 0 {
		res.Affected = r.Intn(2001) - 1000
	}
	switch r.Intn(3) {
	case 0:
		res.Cost = codecCosts[r.Intn(len(codecCosts))]
	case 1:
		res.Cost = r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
	}
	return res
}

// genResponse draws a response of any shape: statement results, commit
// results (nil, empty or several), error frames.
func genResponse(r *rand.Rand) *Response {
	resp := &Response{ID: r.Uint64() >> r.Intn(64), OK: r.Intn(2) == 0, StmtResult: genResult(r), Queued: r.Intn(4) == 0}
	switch r.Intn(3) {
	case 0:
		resp.Results = []StmtResult{}
	case 1:
		for n := 1 + r.Intn(3); n > 0; n-- {
			resp.Results = append(resp.Results, genResult(r))
		}
	}
	if r.Intn(3) == 0 {
		resp.Applied = r.Intn(10)
	}
	if r.Intn(3) == 0 {
		resp.Error = &WireError{Code: genString(r), Message: genString(r)}
	}
	return resp
}

// u writes the JSON escape \uXXXX.
func u(hex string) string { return "\x5cu" + hex }

// decodedBodies are bodies json.Unmarshal reads that the encoder never
// writes: escapes it does not use, raw invalid UTF-8, empty and null
// rows, empty arrays, number forms. DecodeResponse must read each one.
var decodedBodies = []string{
	`{"id":1,"ok":true,"columns":["a\/b","\"q\"","\\","\b\f\n\r\t"]}`,
	`{"id":1,"ok":true,"columns":["` + u("00e9") + u("00E9") + u("0000") + u("001f") + u("2028") + `"]}`,
	`{"id":1,"ok":true,"columns":["` + u("d83d") + u("de00") + `","x` + u("d800") + `","` + u("d800") + u("0041") + `","` + u("dc00") + `","` + u("d800") + u("d800") + `"]}`,
	"{\"id\":1,\"ok\":true,\"columns\":[\"\xff\",\"a\xc3\",\"\xed\xa0\x80\",\"\xe2\x80\xa8\"]}",
	`{"id":1,"ok":true,"columns":["a\\` + u("0041") + `\\"]}`,
	`{"id":2,"ok":false,"columns":[],"rows":[]}`,
	`{"id":2,"ok":true,"rows":[[],null,["x"]]}`,
	`{"id":2,"ok":true,"columns":["a"],"rows":[["1","2"],["3"]]}`,
	`{"id":3,"ok":true,"results":[]}`,
	`{"id":3,"ok":true,"results":[{},{"rows":[["1"]],"cost":2},{"affected":-4}],"applied":2}`,
	`{"id":4,"ok":true,"affected":-0,"cost":-0}`,
	`{"id":4,"ok":true,"cost":1E2}`,
	`{"id":4,"ok":true,"cost":-1.5e+300}`,
	`{"id":4,"ok":true,"cost":0.000001,"queued":false}`,
	`{"id":18446744073709551615,"ok":true,"affected":9223372036854775807}`,
	`{"id":0,"ok":false,"error":{"code":"","message":"` + u("003c") + `tag>"}}`,
}

// refusedBodies are outside the decoder's grammar; json.Unmarshal reads
// some of them, but DecodeResponse must refuse each one.
var refusedBodies = []string{
	``, `{`, `{}`, `null`, `[]`, ` {"id":1,"ok":true}`, `{"id":1,"ok":true} `, `{"id":1,"ok":true}x`,
	`{"ok":true,"id":1}`, `{"id":01,"ok":true}`, `{"id":-1,"ok":true}`, `{"id":1.5,"ok":true}`,
	`{"id":18446744073709551616,"ok":true}`, `{"id":1,"ok":1}`, `{"id":1,"ok":true,"cost":1e400}`,
	`{"id":1,"ok":true,"affected":1e2}`, `{"id":1,"ok":true,"affected":9223372036854775808}`,
	`{"id":1,"ok":true,"cost":.5}`, `{"id":1,"ok":true,"cost":1.}`, `{"id":1,"ok":true,"cost":1e}`,
	`{"id":1,"ok":true,"cost":-}`, `{"id":1,"ok":true,"columns":null}`, `{"id":1,"ok":true,"columns":[null]}`,
	`{"id":1,"ok":true,"rows":[["a",]]}`, `{"id":1,"ok":true,"rows":[,]}`, `{"id":1,"ok":true,"rows":["a"]}`,
	`{"id":1,"ok":true,"columns":["\'"]}`, `{"id":1,"ok":true,"columns":["\x"]}`,
	`{"id":1,"ok":true,"columns":["` + u("12") + `"]}`, `{"id":1,"ok":true,"columns":["` + u("12g4") + `"]}`,
	"{\"id\":1,\"ok\":true,\"columns\":[\"\x01\"]}", `{"id":1,"ok":true,"columns":["a`,
	`{"id":1,"ok":true,"columns":["a\`, `{"id":1,"ok":true,"columns":["a"],"columns":["b"]}`,
	`{"id":1,"ok":true,"zzz":1}`, `{"id":1,"ok":true"columns":[]}`, `{"id":1,"ok":true,"results":[{,"rows":[]}]}`, `{"id":1,"ok":true,"results":[{"id":1}]}`,
	`{"id":1,"ok":true,"results":[{}{}]}`, `{"id":1,"ok":true,"error":{"message":"m","code":"c"}}`,
	`{"id":1,"ok":true,"error":null}`, `{"id":1,"ok":true,"queued":true,"affected":1}`,
}

// decodeLikeJSON decodes body with DecodeResponse and, when it accepts,
// requires json.Unmarshal to accept it too with an equal value. It
// reports whether DecodeResponse accepted.
func decodeLikeJSON(t testing.TB, body []byte) bool {
	t.Helper()
	got, err := DecodeResponse(body)
	if err != nil {
		return false
	}
	want := new(Response)
	if jerr := json.Unmarshal(body, want); jerr != nil {
		t.Fatalf("DecodeResponse accepted %q, json.Unmarshal refused it: %v", body, jerr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\n DecodeResponse %#v\n json.Unmarshal %#v", body, got, want)
	}
	// The arrays share one slab: appending to one must not reach the next.
	for _, res := range append([]StmtResult{got.StmtResult}, got.Results...) {
		for _, ss := range append([][]string{res.Columns}, res.Rows...) {
			if cap(ss) != len(ss) {
				t.Fatalf("body %q: decoded array %q has spare capacity %d", body, ss, cap(ss)-len(ss))
			}
		}
	}
	return true
}

// TestResponseCodecMatchesJSON holds the response codec to its oracle,
// encoding/json: every generated response encodes to json.Marshal's
// bytes and decodes to json.Unmarshal's value (an empty row stays
// empty, a nil one nil).
func TestResponseCodecMatchesJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		resp := genResponse(r)
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeResponse(resp)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("response %#v:\n encoded %s (%v)\n json    %s", resp, got, err, want)
		}
		if !decodeLikeJSON(t, want) {
			t.Fatalf("DecodeResponse refused the encoding %s", want)
		}
	}
	for _, body := range decodedBodies {
		if !decodeLikeJSON(t, []byte(body)) {
			t.Errorf("DecodeResponse refused %s", body)
		}
	}
	for _, body := range refusedBodies {
		if resp, err := DecodeResponse([]byte(body)); err == nil {
			t.Errorf("DecodeResponse accepted %s as %#v", body, resp)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := EncodeResponse(&Response{StmtResult: StmtResult{Cost: f}}); err == nil {
			t.Errorf("cost %v encoded", f)
		}
		if _, err := EncodeResponse(&Response{Results: []StmtResult{{}, {Cost: f}}}); err == nil {
			t.Errorf("commit result cost %v encoded", f)
		}
	}
}

// TestWriteRespFrames writes frames as a connection does: a cost
// encoding/json refuses turns into the internal error frame, and the
// connection's encode buffer is kept after a small frame and dropped
// after one larger than keptFrameBuf.
func TestWriteRespFrames(t *testing.T) {
	cli, conn := net.Pipe()
	defer cli.Close()
	defer conn.Close()
	var srv Server
	bw := bufio.NewWriter(conn)
	var buf []byte
	send := func(resp *Response) *Response {
		t.Helper()
		sent := make(chan bool, 1)
		go func() { sent <- srv.writeResp(bw, conn, &buf, resp) }()
		body, err := ReadFrame(cli, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !<-sent {
			t.Fatal("writeResp reported a dead connection")
		}
		got, err := DecodeResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	got := send(&Response{ID: 3, OK: true, StmtResult: StmtResult{Columns: []string{"c"}, Cost: math.NaN()}})
	if got.ID != 3 || got.OK || got.Error == nil || got.Error.Code != CodeInternal {
		t.Fatalf("NaN cost answered %+v, want the internal error frame", got)
	}
	if buf == nil {
		t.Fatal("encode buffer dropped after a small frame")
	}
	big := &Response{ID: 4, OK: true, StmtResult: StmtResult{Rows: [][]string{{strings.Repeat("x", keptFrameBuf)}}}}
	if got := send(big); !reflect.DeepEqual(got, big) {
		t.Fatal("large frame did not round-trip")
	}
	if buf != nil {
		t.Fatalf("encode buffer of %d bytes kept after a frame above %d", cap(buf), keptFrameBuf)
	}
}

// codecResult is a rows×3 result of an int, a float and a string column
// whose cells keep one width, as scan results roughly do.
func codecResult(rows int) *executor.ResultSet {
	rs := &executor.ResultSet{Columns: []string{"id", "price", "name"}}
	for i := 0; i < rows; i++ {
		rs.Rows = append(rs.Rows, datum.Row{
			datum.NewInt(int64(100000 + i)), datum.NewFloat(float64(i%9) + 0.25), datum.NewString(fmt.Sprintf("name-%06d", i)),
		})
	}
	return rs
}

// TestResponseCodecAllocs is the codec's allocation budget: rendering a
// result and encoding it into a warm buffer, and decoding it, take at
// most four objects each, however many rows the result has.
func TestResponseCodecAllocs(t *testing.T) {
	info := &engine.QueryInfo{EstCost: 1386.55}
	var allocs [2][2]float64
	for k, rows := range []int{10, 1000} {
		rs := codecResult(rows)
		var buf []byte
		encode := func() {
			resp := Response{ID: 7, OK: true, StmtResult: *renderResult(rs, info)}
			var err error
			if buf, err = appendResponse(buf[:0], &resp); err != nil {
				t.Fatal(err)
			}
		}
		encode()
		allocs[k][0] = testing.AllocsPerRun(50, encode)
		body := append([]byte(nil), buf...)
		allocs[k][1] = testing.AllocsPerRun(50, func() {
			if _, err := DecodeResponse(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("allocs (render+encode, decode): 10 rows %v, 1000 rows %v", allocs[0], allocs[1])
	// Bytes too: slab and rows headers, and an arena near the text's size.
	rs := codecResult(1000)
	text := 0
	for _, row := range rs.Rows {
		for _, d := range row {
			text += len(d.String())
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_ = renderResult(rs, info)
	runtime.ReadMemStats(&m1)
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(16*3003+24*1000+text*3/2+4096); got > limit {
		t.Errorf("rendering 1000x3 cells of %d bytes allocated %d bytes, over %d", text, got, limit)
	}
	if allocs[1][0] > 4 || allocs[1][1] > 4 {
		t.Errorf("1000x3 result: render+encode %v, decode %v allocations; the budget is 4 each", allocs[1][0], allocs[1][1])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("allocations grow with the rows: %v at 10 rows, %v at 1000", allocs[0], allocs[1])
	}
}

// BenchmarkResponseCodec renders, encodes and decodes a 1000x3 result:
// the server's and the client's share of one scan statement's response.
func BenchmarkResponseCodec(b *testing.B) {
	rs := codecResult(1000)
	info := &engine.QueryInfo{EstCost: 1386.55}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resp := Response{ID: 7, OK: true, StmtResult: *renderResult(rs, info)}
		var err error
		if buf, err = appendResponse(buf[:0], &resp); err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeResponse(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// responseSeeds are FuzzResponseDecode's in-code seeds: the hand-written
// bodies of both kinds and a few generated responses.
func responseSeeds() [][]byte {
	var seeds [][]byte
	for _, s := range append(append([]string(nil), decodedBodies...), refusedBodies...) {
		seeds = append(seeds, []byte(s))
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		body, err := EncodeResponse(genResponse(r))
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, body)
	}
	return seeds
}

// FuzzResponseDecode throws arbitrary bodies at DecodeResponse. It must
// never panic, and whatever it accepts json.Unmarshal must accept with
// an equal value.
func FuzzResponseDecode(f *testing.F) {
	for _, s := range responseSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeLikeJSON(t, body)
	})
}
