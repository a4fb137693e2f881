package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"

	"onlinetuner/internal/server"
)

// resultHasher digests statement results the way both sides of the
// correctness check need: rows as an unordered multiset (a tuner-built
// index legitimately changes the order of rows no ORDER BY fixes) and
// floats rounded to six decimals (it also changes the order a SUM adds
// in, and with it the last bits). Every float the workloads return is a
// sum of two- or four-decimal values, so rounding never straddles.
type resultHasher struct {
	h   uint64 // running digest over the results folded so far
	row uint64 // the row being hashed
	sum uint64 // commutative sum of the current result's row hashes
	buf []byte
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (r *resultHasher) beginRow() { r.row = fnvOffset }

func (r *resultHasher) cell(s string) {
	if len(s) > 0 && (s[0] == '-' || (s[0] >= '0' && s[0] <= '9')) { // dates and "1-URGENT" fail to parse
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			r.buf = strconv.AppendFloat(r.buf[:0], f, 'f', 6, 64)
			for _, b := range r.buf {
				r.row = (r.row ^ uint64(b)) * fnvPrime
			}
			r.row = (r.row ^ 0xff) * fnvPrime
			return
		}
	}
	for i := 0; i < len(s); i++ {
		r.row = (r.row ^ uint64(s[i])) * fnvPrime
	}
	r.row = (r.row ^ 0xff) * fnvPrime
}

func (r *resultHasher) endRow() { r.sum += r.row }

// endResult folds one statement result (its affected count, row count
// and row multiset) into the digest.
func (r *resultHasher) endResult(affected, rows int) {
	for _, v := range []uint64{uint64(affected), uint64(rows), r.sum} {
		for i := 0; i < 8; i++ {
			r.h = (r.h ^ (v & 0xff)) * fnvPrime
			v >>= 8
		}
	}
	r.sum = 0
}

func (r *resultHasher) wire(res *server.StmtResult) {
	for _, row := range res.Rows {
		r.beginRow()
		for _, c := range row {
			r.cell(c)
		}
		r.endRow()
	}
	r.endResult(res.Affected, len(res.Rows))
}

// outcome is what the client saw for one operation.
type outcome struct {
	hash uint64        // digest of the returned rows / affected counts
	cost float64       // Σ StmtResult.Cost, the optimizer's estimate
	lat  time.Duration // first byte sent to last reply decoded
	resp *server.Response
	err  error
}

// apply sends one operation over the wire and waits for its reply: the
// closed loop's single step. A transaction is BEGIN, its statements
// (queued server-side) and COMMIT, acknowledged as a whole; its latency
// runs from BEGIN to the COMMIT reply. Hashing stays outside the timing.
func apply(c *server.Client, s *stmt) outcome {
	h := resultHasher{h: fnvOffset}
	t0 := time.Now()
	if s.txn == nil {
		op := server.OpQuery
		if s.write {
			op = server.OpExec
		}
		resp, err := c.Do(&server.Request{Op: op, SQL: s.sql})
		lat := time.Since(t0)
		if err == nil && resp.Error != nil {
			err = resp.Error
		}
		if err != nil {
			return outcome{err: err, lat: lat}
		}
		h.wire(&resp.StmtResult)
		return outcome{hash: h.h, cost: resp.Cost, lat: lat, resp: resp}
	}
	if err := c.Begin(); err != nil {
		return outcome{err: err}
	}
	for _, text := range s.txn {
		if _, err := c.Exec(text); err != nil {
			return outcome{err: err}
		}
	}
	results, err := c.Commit()
	lat := time.Since(t0)
	if err != nil {
		return outcome{err: err, lat: lat}
	}
	var cost float64
	for i := range results {
		h.wire(&results[i])
		cost += results[i].Cost
	}
	return outcome{hash: h.h, cost: cost, lat: lat}
}

// streamLog is everything one stream's replay recorded.
type streamLog struct {
	hashes []uint64 // per statement, warm-up included
	latNS  []int64  // per measured statement
	cost   float64  // measured statements only
	failed int
	first  string // first failure, for the report
}

func (l *streamLog) fail(i int, s *stmt, err error) {
	l.failed++
	if l.first == "" {
		l.first = fmt.Sprintf("statement %d (%s): %v", i, s.text(), err)
	}
}

func (s *stmt) text() string {
	if s.txn != nil {
		return "BEGIN; " + strings.Join(s.txn, "; ") + "; COMMIT"
	}
	return s.sql
}

// digest folds per-statement hashes into the one number golden.json
// stores for a stream.
func digest(hashes []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range hashes {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// driver replays the streams over real loopback connections, closed
// loop: each connection sends its next statement only after the reply
// to the previous one.
type driver struct {
	streams [][]stmt
	logs    []*streamLog
	clients []*server.Client
	pos     []int // next statement per stream
}

// reserve allocates the logs before the database exists, so they stay
// out of heap_live_mb.
func (d *driver) reserve(streams [][]stmt) {
	d.streams, d.pos = streams, make([]int, len(streams))
	for _, list := range streams {
		d.logs = append(d.logs, &streamLog{
			hashes: make([]uint64, 0, len(list)),
			latNS:  make([]int64, 0, len(list)),
		})
	}
}

func (d *driver) dial(addr string, conns int) error {
	for i := 0; i < conns; i++ {
		c, err := server.Dial(addr)
		if err != nil {
			d.close()
			return err
		}
		c.Timeout = 120 * time.Second
		d.clients = append(d.clients, c)
	}
	return nil
}

func (d *driver) close() {
	for _, c := range d.clients {
		_ = c.Close()
	}
	d.clients = nil
}

// advance replays every stream up to the given fraction of its length.
// Connection j owns streams j, j+conns, …; with measured set, latencies
// and costs are recorded. It returns the wall time of the slowest
// connection.
func (d *driver) advance(frac float64, measured bool) time.Duration {
	var wg sync.WaitGroup
	begin := time.Now()
	for j, c := range d.clients {
		wg.Add(1)
		go func(j int, c *server.Client) {
			defer wg.Done()
			for s := j; s < len(d.streams); s += len(d.clients) {
				list, log := d.streams[s], d.logs[s]
				end := int(frac * float64(len(list)))
				for i := d.pos[s]; i < end; i++ {
					out := apply(c, &list[i])
					log.hashes = append(log.hashes, out.hash)
					if out.err != nil {
						log.fail(i, &list[i], out.err)
					}
					if measured {
						log.latNS = append(log.latNS, int64(out.lat))
						log.cost += out.cost
					}
				}
				d.pos[s] = end
			}
		}(j, c)
	}
	wg.Wait()
	return time.Since(begin)
}
