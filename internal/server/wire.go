// Package server is the engine's production serving layer: a TCP
// daemon speaking a length-prefixed JSON wire protocol, per-connection
// sessions with transaction scoping and idle timeouts, connection
// limits, and admission control that gates statement execution through
// a token semaphore sized from the engine-wide par.Pool budget.
// Overload returns a typed backpressure error instead of queuing
// unboundedly; graceful shutdown drains in-flight statements,
// checkpoints the WAL, and refuses new work with a typed error.
//
// This file is the wire format. A frame is a 4-byte big-endian length
// followed by that many bytes of JSON — one Request per client frame,
// one Response per server frame. The length prefix is validated against
// a maximum before any allocation, so a hostile or corrupt header can
// never make the decoder over-allocate (see FuzzWireDecode).
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// DefaultMaxFrame bounds one frame's JSON body. Result sets stream back
// as one frame today, so this also caps a single response; clients
// issuing wide scans through the wire should page with LIMIT-style
// predicates (the bench and tests stay far below the cap).
const DefaultMaxFrame = 8 << 20

// frameHeader is the fixed length prefix size.
const frameHeader = 4

// Frame decoding errors. ErrFrameTruncated means "need more bytes", the
// others are permanent protocol violations.
var (
	ErrFrameTruncated = errors.New("server: truncated frame")
	ErrFrameTooLarge  = errors.New("server: frame exceeds maximum size")
	ErrFrameEmpty     = errors.New("server: empty frame")
)

// Request ops. Executing ops (query, exec, exec_prepared, commit) pass
// through admission control; control ops (ping, prepare, begin,
// rollback, close) and explain (optimize-only) do not.
const (
	OpQuery        = "query"         // run SQL, return rows
	OpExec         = "exec"          // run SQL, return affected count
	OpExplain      = "explain"       // optimize only, return plan lines
	OpPrepare      = "prepare"       // parse SQL, remember under Name
	OpExecPrepared = "exec_prepared" // run the statement prepared under Name
	OpBegin        = "begin"         // open a transaction scope
	OpCommit       = "commit"        // execute the buffered scope atomically
	OpRollback     = "rollback"      // discard the buffered scope
	OpPing         = "ping"
	OpClose        = "close" // clean session end
)

// Error codes carried in Response.Error.
const (
	CodeSQL           = "sql"                  // statement failed (parse or execution)
	CodeOverloaded    = "overloaded"           // admission rejected: typed backpressure
	CodeShuttingDown  = "shutting_down"        // daemon is draining; no new work
	CodeTxnState      = "txn_state"            // begin/commit/rollback out of order
	CodeNotPrepared   = "not_prepared"         // exec_prepared of an unknown name
	CodeBadRequest    = "bad_request"          // malformed frame or request JSON
	CodeUnknownOp     = "unknown_op"           // unrecognized Request.Op
	CodeTooManyConns  = "too_many_connections" // connection limit reached
	CodeIdleTimeout   = "idle_timeout"         // session idled past the limit
	CodeFrameTooLarge = "frame_too_large"      // request frame over the cap
	CodeInternal      = "internal"             // server-side invariant failure
)

// Request is one client frame. ID is echoed on the response so clients
// can pipeline and match replies.
type Request struct {
	ID   uint64 `json:"id"`
	Op   string `json:"op"`
	SQL  string `json:"sql,omitempty"`
	Name string `json:"name,omitempty"` // prepared-statement name
}

// StmtResult is one executed statement's materialized output, rows
// rendered to strings with datum.String (the same rendering the shell
// prints, which is what the integration oracle compares byte-for-byte).
type StmtResult struct {
	Columns  []string   `json:"columns,omitempty"`
	Rows     [][]string `json:"rows,omitempty"`
	Affected int        `json:"affected,omitempty"`
	Cost     float64    `json:"cost,omitempty"`
}

// WireError is a typed protocol error.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *WireError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// IsOverload reports whether err is the typed admission-backpressure
// rejection.
func IsOverload(err error) bool {
	var we *WireError
	return errors.As(err, &we) && we.Code == CodeOverloaded
}

// IsShuttingDown reports whether err is the typed drain rejection.
func IsShuttingDown(err error) bool {
	var we *WireError
	return errors.As(err, &we) && we.Code == CodeShuttingDown
}

// Response is one server frame. Single-statement ops inline their
// StmtResult; commit returns one entry per buffered statement in
// Results. Applied counts the statements that executed before a
// mid-commit failure (atomic visibility: the batch ran under one lock
// span, but a runtime failure stops the batch at that point).
type Response struct {
	ID uint64 `json:"id"`
	OK bool   `json:"ok"`
	StmtResult
	Queued  bool         `json:"queued,omitempty"` // buffered into the open transaction
	Results []StmtResult `json:"results,omitempty"`
	Applied int          `json:"applied,omitempty"`
	Error   *WireError   `json:"error,omitempty"`
}

// AppendFrame appends the length-prefixed encoding of body to dst.
func AppendFrame(dst, body []byte) []byte {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// DecodeFrame parses one frame from the front of buf, returning the
// body and the total bytes consumed. The body aliases buf — callers
// that retain it across reads must copy. The declared length is checked
// against maxFrame (<= 0 selects DefaultMaxFrame) and against the bytes
// actually present before anything is allocated or sliced.
func DecodeFrame(buf []byte, maxFrame int) (body []byte, n int, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if len(buf) < frameHeader {
		return nil, 0, ErrFrameTruncated
	}
	ln := binary.BigEndian.Uint32(buf[:frameHeader])
	if ln == 0 {
		return nil, 0, ErrFrameEmpty
	}
	if ln > uint32(maxFrame) {
		return nil, 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, ln, maxFrame)
	}
	if len(buf)-frameHeader < int(ln) {
		return nil, 0, ErrFrameTruncated
	}
	return buf[frameHeader : frameHeader+int(ln)], frameHeader + int(ln), nil
}

// ReadFrame reads one frame from r. The allocation for the body happens
// only after the declared length passes the maxFrame check, so a
// corrupt header cannot trigger a huge allocation.
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	ln := binary.BigEndian.Uint32(hdr[:])
	if ln == 0 {
		return nil, ErrFrameEmpty
	}
	if ln > uint32(maxFrame) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, ln, maxFrame)
	}
	body := make([]byte, ln)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}

// WriteFrame writes body as one frame to w.
func WriteFrame(w io.Writer, body []byte) error {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// DecodeRequest parses a request body. Unknown fields are rejected so a
// frame holding a response (or garbage JSON) cannot silently pass as a
// request.
func DecodeRequest(body []byte) (*Request, error) { return new(requestDecoder).decode(body) }

// requestDecoder is DecodeRequest for the frames of one connection: the
// json.Decoder (DisallowUnknownFields exists nowhere else) and its read
// buffer are kept from frame to frame instead of being rebuilt per
// request. The zero value is ready; not safe for concurrent use.
type requestDecoder struct {
	rd  bytes.Reader
	dec *json.Decoder
	fed int64 // bytes of every body handed to dec
}

func (d *requestDecoder) decode(body []byte) (*Request, error) {
	if d.dec == nil {
		d.dec = json.NewDecoder(&d.rd)
		d.dec.DisallowUnknownFields()
		d.fed = 0
	}
	d.rd.Reset(body)
	d.fed += int64(len(body))
	var req Request
	err := d.dec.Decode(&req)
	if err != nil || d.dec.InputOffset() != d.fed {
		// An error is sticky and bytes after the request would be read as
		// the start of the next frame: that decoder is not used again.
		d.dec = nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: bad request: %w", err)
	}
	if req.Op == "" {
		return nil, errors.New("server: bad request: missing op")
	}
	return &req, nil
}

// EncodeRequest serializes a request body.
func EncodeRequest(req *Request) ([]byte, error) { return json.Marshal(req) }

// EncodeResponse serializes a response body.
func EncodeResponse(resp *Response) ([]byte, error) { return appendResponse(nil, resp) }

// appendResponse appends resp's body to dst, byte for byte what
// json.Marshal(resp) returns (DESIGN.md §4.9); a NaN or infinite cost
// is an error, as it is for json.Marshal.
func appendResponse(dst []byte, resp *Response) ([]byte, error) {
	dst = strconv.AppendUint(append(dst, `{"id":`...), resp.ID, 10)
	dst = strconv.AppendBool(append(dst, `,"ok":`...), resp.OK)
	dst, err := appendResult(dst, &resp.StmtResult)
	if resp.Queued {
		dst = append(dst, `,"queued":true`...)
	}
	if len(resp.Results) > 0 {
		dst = append(dst, `,"results":[`...)
		for i := range resp.Results {
			open := len(dst)
			var rerr error
			if dst, rerr = appendResult(dst, &resp.Results[i]); err == nil {
				err = rerr
			}
			if len(dst) == open {
				dst = append(dst, ',')
			}
			dst[open] = '{' // in place of the first member's comma
			dst = append(dst, "},"...)
		}
		dst[len(dst)-1] = ']'
	}
	if resp.Applied != 0 {
		dst = strconv.AppendInt(append(dst, `,"applied":`...), int64(resp.Applied), 10)
	}
	if e := resp.Error; e != nil {
		dst = appendString(append(dst, `,"error":{"code":`...), e.Code)
		dst = appendString(append(dst, `,"message":`...), e.Message)
		dst = append(dst, '}')
	}
	return append(dst, '}'), err
}

// appendResult appends r's non-empty members, each after a comma.
func appendResult(dst []byte, r *StmtResult) ([]byte, error) {
	if len(r.Columns) > 0 {
		dst = appendStrings(append(dst, `,"columns":`...), r.Columns)
	}
	if len(r.Rows) > 0 {
		dst = append(dst, `,"rows":[`...)
		for _, row := range r.Rows {
			dst = append(appendStrings(dst, row), ',')
		}
		dst[len(dst)-1] = ']'
	}
	if r.Affected != 0 {
		dst = strconv.AppendInt(append(dst, `,"affected":`...), int64(r.Affected), 10)
	}
	if f := r.Cost; f != 0 {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return dst, fmt.Errorf("server: unsupported cost %v", f)
		}
		// encoding/json's ES6 form: an unpadded exponent outside [1e-6, 1e21).
		format := byte('f')
		if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
			format = 'e'
		}
		dst = strconv.AppendFloat(append(dst, `,"cost":`...), f, format, -1, 64)
		if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendStrings appends a JSON array of strings; nil is null.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// escaped marks the bytes appendString does not copy through: ASCII that
// encoding/json escapes (HTML-safe) and non-ASCII, checked as UTF-8.
var escaped = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 || c >= utf8.RuneSelf || strings.IndexByte(`"\<>&`, byte(c)) >= 0
	}
	return t
}()

// appendString appends s as a JSON string escaped as encoding/json
// escapes it; an invalid UTF-8 byte becomes the escape of U+FFFD.
func appendString(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if !escaped[s[i]] {
			i++
			continue
		}
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			if r, size = utf8.DecodeRuneInString(s[i:]); r != 0x2028 && r != 0x2029 && (r != utf8.RuneError || size > 1) {
				i += size
				continue
			}
		}
		dst = append(dst, s[start:i]...)
		if k := strings.IndexRune("\"\\\b\f\n\r\t", r); k >= 0 {
			dst = append(dst, '\\', `"\bfnrt`[k])
		} else {
			dst = append(dst, '\\', 'u', hexDigits[r>>12], hexDigits[r>>8&0xF], hexDigits[r>>4&0xF], hexDigits[r&0xF])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// DecodeResponse parses a response body: only the grammar appendResponse
// writes, to json.Unmarshal's value (DESIGN.md §4.9). Strings without
// escapes are substrings of one copy of the body, in one slab.
func DecodeResponse(body []byte) (*Response, error) {
	s := string(body)
	// Every string spends two quotes, so this bounds the strings.
	d := responseDecoder{s: s, slab: make([]string, 0, strings.Count(s, `"`)/2)}
	resp := d.response()
	if d.bad || d.pos != len(s) {
		return nil, fmt.Errorf("server: bad response at byte %d of %d", d.pos, len(s))
	}
	return resp, nil
}

// responseDecoder is DecodeResponse's cursor. From the first byte outside
// the grammar on, bad is set and nothing more is consumed.
type responseDecoder struct {
	s    string
	pos  int
	slab []string
	bad  bool
}

func (d *responseDecoder) response() *Response {
	r := new(Response)
	d.want(`{"id":`)
	r.ID = num(d, func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) })
	d.want(`,"ok":`)
	r.OK = d.bool()
	d.result(&r.StmtResult)
	if d.key(`"queued":`) {
		r.Queued = d.bool()
	}
	if d.key(`"results":`) {
		r.Results = []StmtResult{}
		d.array(func() {
			d.want("{")
			r.Results = append(r.Results, StmtResult{})
			d.result(&r.Results[len(r.Results)-1])
			d.want("}")
		})
	}
	if d.key(`"applied":`) {
		r.Applied = num(d, strconv.Atoi)
	}
	if d.key(`"error":`) {
		d.want(`{"code":`)
		r.Error = &WireError{Code: d.str()}
		d.want(`,"message":`)
		r.Error.Message = d.str()
		d.want("}")
	}
	d.want("}")
	return r
}

func (d *responseDecoder) result(r *StmtResult) {
	if d.key(`"columns":`) {
		r.Columns = d.strs()
	}
	if d.key(`"rows":`) {
		// Rows are as wide as the columns, so the strings left bound them.
		r.Rows = make([][]string, 0, (cap(d.slab)-len(d.slab))/max(len(r.Columns), 1))
		d.array(func() {
			var row []string
			if !d.lit("null") {
				row = d.strs()
			}
			r.Rows = append(r.Rows, row)
		})
	}
	if d.key(`"affected":`) {
		r.Affected = num(d, strconv.Atoi)
	}
	if d.key(`"cost":`) {
		r.Cost = num(d, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	}
}

// lit consumes l if it is next.
func (d *responseDecoder) lit(l string) bool {
	if d.bad || !strings.HasPrefix(d.s[d.pos:], l) {
		return false
	}
	d.pos += len(l)
	return true
}

// want consumes l, which must be next.
func (d *responseDecoder) want(l string) { d.bad = !d.lit(l) || d.bad }

// key consumes the member name k (quoted, with its colon) and the comma
// before it, unless it is an object's first, and reports whether k was
// next.
func (d *responseDecoder) key(k string) bool {
	p := d.pos
	if d.bad || d.s[p-1] != '{' && !d.lit(",") || !d.lit(k) {
		d.pos = p
		return false
	}
	return true
}

func (d *responseDecoder) bool() bool {
	t := d.lit("true")
	d.bad = d.bad || !t && !d.lit("false")
	return t
}

// num consumes a number and parses it into a T as encoding/json does (no
// fraction or exponent for an integer), refusing what strconv takes and
// JSON does not: a plus sign, a leading zero, a point without digits.
func num[T any](d *responseDecoder, parse func(string) (T, error)) T {
	i := d.pos
	for i < len(d.s) && strings.IndexByte("+-.0123456789Ee", d.s[i]) >= 0 {
		i++
	}
	v, err := parse(d.s[d.pos:i]) // an error for "" and "-", so t[0] exists
	t := strings.TrimPrefix(d.s[d.pos:i], "-")
	p := strings.IndexByte(t, '.')
	d.bad = d.bad || err != nil || !isDigit(t[0]) || t[0] == '0' && len(t) > 1 && isDigit(t[1]) || p >= 0 && (p+1 == len(t) || !isDigit(t[p+1]))
	if !d.bad {
		d.pos = i
	}
	return v
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// array reads an array, calling elem to read each element.
func (d *responseDecoder) array(elem func()) {
	d.want("[")
	for i := 0; !d.bad && !d.lit("]"); i++ {
		if i > 0 {
			d.want(",")
		}
		elem()
	}
}

// strs reads an array of strings into the slab and returns its share,
// capped so that appending to it cannot reach the next array.
func (d *responseDecoder) strs() []string {
	start := len(d.slab)
	d.array(func() { d.slab = append(d.slab, d.str()) })
	return d.slab[start:len(d.slab):len(d.slab)]
}

// str reads a string: a substring of the body unless it holds an escape
// or invalid UTF-8, which are decoded as encoding/json unquotes them (an
// invalid byte or an unpaired surrogate becomes U+FFFD).
func (d *responseDecoder) str() string {
	if !d.lit(`"`) {
		d.bad = true
		return ""
	}
	s, start := d.s, d.pos
	var b []byte // the string so far, once it differs from the body
	for i := start; i < len(s) && s[i] >= 0x20; {
		r, size := rune(s[i]), 1
		switch {
		case r == '"':
			d.pos = i + 1
			if b == nil {
				return s[start:i]
			}
			return string(b)
		case r == '\\':
			r, size = unescape(s[i:])
		case r >= utf8.RuneSelf:
			r, size = utf8.DecodeRuneInString(s[i:])
		}
		if r < 0 {
			break
		}
		if b == nil && (s[i] == '\\' || r == utf8.RuneError && size == 1) {
			b = append(make([]byte, 0, i-start+16), s[start:i]...)
		}
		if b != nil {
			b = utf8.AppendRune(b, r)
		}
		i += size
	}
	d.bad = true
	return ""
}

// unescape decodes the escape at the front of s: its rune (-1 if bad), length.
func unescape(s string) (rune, int) {
	if len(s) > 1 {
		if k := strings.IndexByte(`"\/bfnrt`, s[1]); k >= 0 {
			return rune("\"\\/\b\f\n\r\t"[k]), 2
		}
	}
	r := hex4(s)
	if utf16.IsSurrogate(r) {
		if pair := utf16.DecodeRune(r, hex4(s[6:])); pair != unicode.ReplacementChar {
			return pair, 12
		}
		r = unicode.ReplacementChar
	}
	return r, 6
}

// hex4 returns the code unit of a \uXXXX escape at the front of s, or -1.
func hex4(s string) rune {
	if len(s) >= 6 && s[:2] == `\u` {
		if n, err := strconv.ParseUint(s[2:6], 16, 16); err == nil {
			return rune(n)
		}
	}
	return -1
}
