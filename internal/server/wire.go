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

// DecodeResponse parses a response body.
func DecodeResponse(body []byte) (*Response, error) {
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("server: bad response: %w", err)
	}
	return &resp, nil
}

// EncodeResponse serializes a response body.
func EncodeResponse(resp *Response) ([]byte, error) { return json.Marshal(resp) }
