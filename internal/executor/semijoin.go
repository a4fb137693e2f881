package executor

import (
	"onlinetuner/internal/datum"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/vec"
)

// hashSemiJoin filters the probe (left) stream against a build set of
// right-side keys, emitting each left row at most once and preserving
// probe order. Semantics follow plan.HashSemiJoin: semi (IN/EXISTS),
// anti (NOT EXISTS: a NULL probe key never matches, so the row passes),
// and null-aware anti (NOT IN: any NULL in the build set suppresses all
// output, and a NULL probe key passes only against an empty build set).
func (e *run) hashSemiJoin(n *plan.HashSemiJoin, c *Collector) ([]datum.Row, error) {
	left, err := e.exec(n.Left, c)
	if err != nil {
		return nil, err
	}
	right, err := e.exec(n.Right, c)
	if err != nil {
		return nil, err
	}
	lf := make([]evalFunc, len(n.LeftKeys))
	rf := make([]evalFunc, len(n.RightKeys))
	for i := range n.LeftKeys {
		if lf[i], err = compile(n.LeftKeys[i], n.Left.Schema()); err != nil {
			return nil, err
		}
		if rf[i], err = compile(n.RightKeys[i], n.Right.Schema()); err != nil {
			return nil, err
		}
	}
	lves, lok := compileVecExprs(n.LeftKeys, n.Left.Schema())
	rves, rok := compileVecExprs(n.RightKeys, n.Right.Schema())
	useVec := lok && rok && e.vecOn(len(left)+len(right))
	markEngine(c, n, useVec)
	// Build: a set, not a row table — build-side order and multiplicity
	// are irrelevant, which is what lets the inner subquery be planned
	// with any access path. Key rendering is chunk-parallel as in
	// hashJoin; set insertion is order-insensitive.
	rkeys := make([]joinKey, len(right))
	err = runMorsels(e, "semijoin-build", chunkBounds(len(right)),
		func(i int) (struct{}, error) {
			lo := i * vec.MorselRows
			rows := chunkOf(right, i)
			if useVec {
				w := getVecWork()
				ok := joinKeysVec(rves, rows, rkeys[lo:lo+len(rows)], &w.m)
				putVecWork(w)
				if ok {
					return struct{}{}, nil
				}
			}
			for j, r := range rows {
				k, null, kerr := keyOf(r, rf)
				if kerr != nil {
					return struct{}{}, kerr
				}
				rkeys[lo+j] = joinKey{k: k, null: null}
			}
			return struct{}{}, nil
		},
		func(int, struct{}) error { return nil })
	if err != nil {
		return nil, err
	}
	set := make(map[string]struct{}, len(right))
	sawNull := false
	for _, rk := range rkeys {
		if rk.null {
			sawNull = true
			continue
		}
		set[rk.k] = struct{}{}
	}
	if n.Anti && n.NullAware && sawNull {
		// x NOT IN (..., NULL, ...) is never TRUE for any x.
		return nil, nil
	}
	emptyBuild := len(set) == 0
	var out []datum.Row
	err = runMorsels(e, "semijoin-probe", chunkBounds(len(left)),
		func(i int) (*datum.Batch, error) {
			b := datum.NewBatch(0)
			rows := chunkOf(left, i)
			var pkeys []joinKey
			if useVec {
				pkeys = make([]joinKey, len(rows))
				w := getVecWork()
				ok := joinKeysVec(lves, rows, pkeys, &w.m)
				putVecWork(w)
				if !ok {
					pkeys = nil
				}
			}
			for j, l := range rows {
				var k string
				var null bool
				if pkeys != nil {
					k, null = pkeys[j].k, pkeys[j].null
				} else {
					var kerr error
					if k, null, kerr = keyOf(l, lf); kerr != nil {
						return nil, kerr
					}
				}
				match := false
				if !null {
					_, match = set[k]
				}
				emit := false
				switch {
				case !n.Anti:
					emit = match
				case n.NullAware && null:
					emit = emptyBuild
				default:
					emit = !match
				}
				if emit {
					b.Append(l)
				}
			}
			return b, nil
		},
		func(_ int, b *datum.Batch) error {
			out = append(out, b.Rows()...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
