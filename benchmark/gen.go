package main

import (
	"fmt"
	"hash/fnv"

	"onlinetuner/internal/tpch"
	"onlinetuner/internal/workload"
)

// stmt is one closed-loop operation: a single statement, or a
// transaction (BEGIN, the batch, COMMIT) that counts as one write.
type stmt struct {
	sql   string
	txn   []string
	write bool
	// Every write in every workload is a "+1" on one order's rows:
	// o_shippriority on orders or l_quantity on lineitem. table and keys
	// say which, so the oracle can apply it without parsing SQL.
	table string
	keys  []int
}

// rng is a splitmix64 stream: statement generation depends on nothing
// but the seed, so the same flags give the same bytes on every host.
type rng struct{ s uint64 }

func newRNG(seed int64, salt string) *rng {
	h := fnv.New64a()
	h.Write([]byte(salt))
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// deal splits one statement list round-robin into the spec's streams.
func deal(all []stmt, streams int) [][]stmt {
	out := make([][]stmt, streams)
	for i, s := range all {
		out[i%streams] = append(out[i%streams], s)
	}
	return out
}

// hotKeys is point_served's hot set: with the two templates it makes at
// most 512 distinct texts, the capacity of the engine's statement-text
// and plan caches, so the hot half of the traffic can hit both.
const hotKeys = 256

// genPointServed: 70 % orders PK lookups, 30 % COUNT/SUM over one
// order's lineitems; half the keys from the hot set (text hit + exact
// plan hit), half uniform (parse + fingerprint + fresh optimize).
func genPointServed(seed int64, sp *spec, n int) [][]stmt {
	orders := tpch.Scale(sp.scale).Rows()["orders"]
	r := newRNG(seed, sp.name)
	hot := make([]int, hotKeys)
	for i := range hot {
		hot[i] = r.intn(orders)
	}
	all := make([]stmt, n)
	for i := range all {
		k := r.intn(orders)
		if r.intn(2) == 0 {
			k = hot[r.intn(hotKeys)]
		}
		if r.intn(10) < 7 {
			all[i].sql = fmt.Sprintf("SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d", k)
		} else {
			all[i].sql = fmt.Sprintf("SELECT COUNT(*) AS n, SUM(l_extendedprice) AS rev FROM lineitem WHERE l_orderkey = %d", k)
		}
	}
	return deal(all, sp.streams)
}

// scenario draws n statements from one of the workload package's seeded
// scenario generators (the racing lab's own statement families).
func scenario(name string, seed int64, scale float64, n int) []string {
	w, err := workload.BuildScenario(name, workload.ScenarioOptions{
		Scale: tpch.Scale(scale), Seed: seed, Statements: n,
	})
	if err != nil {
		panic(err) // the names are literals in this file
	}
	return w.Statements
}

// genScanOLAP interleaves the `stable` OLAP aggregates 1:1 with `adhoc`
// statements: every one is a heap scan and an exact-cache miss.
func genScanOLAP(seed int64, sp *spec, n int) [][]stmt {
	stable := scenario("stable", seed, sp.scale, (n+1)/2)
	adhoc := scenario("adhoc", seed, sp.scale, n/2)
	all := make([]stmt, 0, n)
	for i := 0; len(all) < n; i++ {
		all = append(all, stmt{sql: stable[i]})
		if len(all) < n {
			all = append(all, stmt{sql: adhoc[i]})
		}
	}
	return deal(all, sp.streams)
}

// driftSegments concatenated `drift` scenarios give 4 OLAP↔OLTP flips
// each (three inside, one at the joint): 12 flips in a run.
const driftSegments = 3

// BuildScenario rounds each segment down to four equal epochs, so the
// run may hold a few statements fewer than n.
func genDriftTuned(seed int64, sp *spec, n int) [][]stmt {
	all := make([]stmt, 0, n)
	for seg := 0; seg < driftSegments; seg++ {
		want := (n - len(all)) / (driftSegments - seg)
		for _, text := range scenario("drift", seed+int64(seg), sp.scale, want) {
			st := stmt{sql: text}
			var k int
			// The drift scenario's only DML (workload.oltpTouchOrder).
			if n, _ := fmt.Sscanf(text, "UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey = %d", &k); n == 1 {
				st.write, st.table, st.keys = true, "lineitem", []int{k}
			}
			all = append(all, st)
		}
	}
	return [][]stmt{all}
}

// genWriteDurable: each stream owns the order keys of its parity, so the
// streams never touch the same row and every stream's results are
// independent of how the connections interleave.
func genWriteDurable(seed int64, sp *spec, n int) [][]stmt {
	orders := tpch.Scale(sp.scale).Rows()["orders"]
	out := make([][]stmt, sp.streams)
	for s := range out {
		r := newRNG(seed, fmt.Sprintf("%s/%d", sp.name, s))
		key := func() int { return r.intn(orders/sp.streams)*sp.streams + s }
		touchOrder := func(k int) string {
			return fmt.Sprintf("UPDATE orders SET o_shippriority = o_shippriority + 1 WHERE o_orderkey = %d", k)
		}
		count := n / sp.streams
		if s < n%sp.streams {
			count++
		}
		list := make([]stmt, count)
		for i := range list {
			switch p := r.intn(100); {
			case p < 45:
				k := key()
				list[i] = stmt{sql: touchOrder(k), write: true, table: "orders", keys: []int{k}}
			case p < 65:
				k := key()
				list[i] = stmt{sql: fmt.Sprintf("UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey = %d", k), write: true, table: "lineitem", keys: []int{k}}
			case p < 75:
				st := stmt{write: true, table: "orders"}
				for j := 0; j < 4; j++ {
					k := key()
					st.keys, st.txn = append(st.keys, k), append(st.txn, touchOrder(k))
				}
				list[i] = st
			default:
				list[i] = stmt{sql: fmt.Sprintf("SELECT o_orderkey, o_shippriority, o_totalprice FROM orders WHERE o_orderkey = %d", key())}
			}
		}
		out[s] = list
	}
	return out
}

// stmtDigest fingerprints a generated workload (every text of every
// stream, in order) for the determinism tests and the run header.
func stmtDigest(streams [][]stmt) uint64 {
	h := fnv.New64a()
	for _, list := range streams {
		for _, s := range list {
			h.Write([]byte(s.sql))
			for _, t := range s.txn {
				h.Write([]byte(t))
			}
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return h.Sum64()
}
