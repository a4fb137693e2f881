package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/tpch"
)

// oracle is the reference the served results are checked against: the
// plainest configuration the engine has (row engine, no rewrite rules,
// one worker, no tuner, in memory, driven in process) for reads, and
// for writes no SQL at all. Every write in the workloads is a "+1" on
// one order's rows, so the oracle applies it straight through the
// storage API to the rows it indexed by order key at load; that also
// spares the replay the executor's heap scan per UPDATE.
type oracle struct {
	db   *engine.DB
	rows map[string]map[int][]storage.RID // table → order key → its rows
	col  map[string]int                   // table → ordinal of the "+1" column
}

func openOracle(sp *spec, seed int64) (*oracle, error) {
	db := engine.OpenConfig(engine.Config{ExecWorkers: 1, ExecEngine: "row", Rules: "none"})
	if err := tpch.NewGenerator(tpch.Scale(sp.scale), seed).Load(db); err != nil {
		return nil, err
	}
	o := &oracle{db: db, rows: map[string]map[int][]storage.RID{}, col: map[string]int{}}
	for table, column := range map[string]string{"orders": "o_shippriority", "lineitem": "l_quantity"} {
		o.col[table] = db.Cat.Table(table).ColumnIndex(column)
		byKey := map[int][]storage.RID{}
		db.Mgr.Heap(table).Scan(func(rid storage.RID, r datum.Row) bool {
			k := int(r[0].Int()) // both tables lead with the order key
			byKey[k] = append(byKey[k], rid)
			return true
		})
		o.rows[table] = byKey
	}
	return o, nil
}

// exec applies one operation and hashes what a wire client must see for
// it.
func (o *oracle) exec(s *stmt) (uint64, error) {
	h := resultHasher{h: fnvOffset}
	if !s.write {
		rs, _, err := o.db.ExecContext(context.Background(), s.sql)
		if err != nil {
			return 0, err
		}
		for _, row := range rs.Rows {
			h.beginRow()
			for _, d := range row {
				h.cell(d.String())
			}
			h.endRow()
		}
		h.endResult(rs.Affected, len(rs.Rows))
		return h.h, nil
	}
	heap, col := o.db.Mgr.Heap(s.table), o.col[s.table]
	for _, k := range s.keys { // one statement per key
		rids := o.rows[s.table][k]
		for _, rid := range rids {
			row := heap.Get(rid).Clone()
			next, err := row[col].Add(datum.NewInt(1))
			if err != nil {
				return 0, err
			}
			row[col] = next
			if _, err := o.db.Mgr.Update(s.table, rid, row); err != nil {
				return 0, err
			}
		}
		h.endResult(len(rids), 0)
	}
	return h.h, nil
}

// mutatedTables are the only tables any workload writes.
var mutatedTables = []string{"orders", "lineitem"}

// stateDigest hashes the full contents of the mutated tables,
// independent of row order.
func stateDigest(db *engine.DB) (uint64, error) {
	h := resultHasher{h: fnvOffset}
	for _, table := range mutatedTables {
		rs, err := db.Query("SELECT * FROM " + table)
		if err != nil {
			return 0, err
		}
		for _, row := range rs.Rows {
			h.beginRow()
			for _, d := range row {
				h.cell(d.String())
			}
			h.endRow()
		}
		h.endResult(0, len(rs.Rows))
	}
	return h.h, nil
}

// oracleRun is one replay's expectations.
type oracleRun struct {
	hashes  [][]uint64 // per stream, per statement; valid where checked
	checked [][]bool
	state   uint64
}

// replayOracle replays the streams one after another on a fresh oracle:
// every write, and every every-th read. Streams never write rows
// another stream touches, so stream order does not matter.
func replayOracle(sp *spec, seed int64, streams [][]stmt, every int) (*oracleRun, error) {
	o, err := openOracle(sp, seed)
	if err != nil {
		return nil, err
	}
	run := &oracleRun{}
	for si, list := range streams {
		hashes, checked := make([]uint64, len(list)), make([]bool, len(list))
		for i := range list {
			if !list[i].write && i%every != 0 {
				continue
			}
			if hashes[i], err = o.exec(&list[i]); err != nil {
				return nil, fmt.Errorf("oracle stream %d statement %d (%s): %w", si, i, list[i].text(), err)
			}
			checked[i] = true
		}
		run.hashes, run.checked = append(run.hashes, hashes), append(run.checked, checked)
	}
	if run.state, err = stateDigest(o.db); err != nil {
		return nil, err
	}
	return run, nil
}

// compare counts the statements whose served result differs from the
// oracle's and names the first.
func (o *oracleRun) compare(streams [][]stmt, logs []*streamLog) (mismatches int, first string) {
	for si, log := range logs {
		for i, got := range log.hashes {
			if !o.checked[si][i] || got == o.hashes[si][i] {
				continue
			}
			mismatches++
			if first == "" {
				first = fmt.Sprintf("stream %d statement %d (%s): served digest %016x, oracle %016x",
					si, i, streams[si][i].text(), got, o.hashes[si][i])
			}
		}
	}
	return mismatches, first
}

// golden is one committed expectation: the digests the oracle produced
// for (workload, seed, seconds) when -regen-golden last ran, replaying
// every statement rather than a sample.
type golden struct {
	Statements string   `json:"statements"` // digest of the generated texts
	Streams    []string `json:"streams"`    // per-stream result digest
	State      string   `json:"state"`      // mutated tables after the run
}

// goldenKey names the input a digest belongs to: shrunken test specs
// and other run lengths never collide with the committed entries.
func goldenKey(sp *spec, seed int64, streams [][]stmt) string {
	return fmt.Sprintf("%s/seed=%d/scale=%g/statements=%d", sp.name, seed, sp.scale, count(streams))
}

func count(streams [][]stmt) int {
	n := 0
	for _, list := range streams {
		n += len(list)
	}
	return n
}

func hex(v uint64) string { return fmt.Sprintf("%016x", v) }

// regenGolden replays every statement of every workload on the oracle
// for the given seeds and rewrites the golden file.
func regenGolden(path string, seeds []int64, seconds int) error {
	out := map[string]golden{}
	for _, sp := range specs {
		for _, seed := range seeds {
			streams := sp.gen(seed, sp, sp.statements(seconds))
			o, err := replayOracle(sp, seed, streams, 1)
			if err != nil {
				return err
			}
			g := golden{Statements: hex(stmtDigest(streams)), State: hex(o.state)}
			for _, hashes := range o.hashes {
				g.Streams = append(g.Streams, hex(digest(hashes)))
			}
			out[goldenKey(sp, seed, streams)] = g
			fmt.Printf("golden %s: %v\n", goldenKey(sp, seed, streams), g.Streams)
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
