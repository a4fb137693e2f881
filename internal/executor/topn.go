package executor

import (
	"sort"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/par"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/vec"
)

// topnKeyed is one TopN input row with its evaluated sort keys and
// original input ordinal. The ordinal is the final tiebreak, which makes
// the bounded heap's output exactly a stable full sort truncated to N —
// the same rows, in the same order, as the Sort+Limit pair TopN replaces.
type topnKeyed struct {
	row  datum.Row
	keys datum.Row
	ord  int64
}

func (e *run) topN(n *plan.TopN, c *Collector) ([]datum.Row, error) {
	in, err := e.exec(n.Child, c)
	if err != nil {
		return nil, err
	}
	if n.N <= 0 {
		return nil, nil
	}
	fns := make([]evalFunc, len(n.Keys))
	for i, k := range n.Keys {
		f, err := compile(k.Expr, n.Child.Schema())
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	// cmp is the strict total order the operator selects under: sort keys
	// with DESC negation, then input ordinal.
	cmp := func(a, b topnKeyed) int {
		for j := range fns {
			c := a.keys[j].Compare(b.keys[j])
			if n.Keys[j].Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		switch {
		case a.ord < b.ord:
			return -1
		case a.ord > b.ord:
			return 1
		}
		return 0
	}

	// Vectorized prefilter: a single plain-column key over a large input
	// runs the TopK prune kernel morsel by morsel, discarding rows that
	// provably cannot reach the heap before any per-row key allocation.
	// The kernel yields a superset of the true top N (it passes chunks it
	// cannot compare exactly), so the exact heap below makes every final
	// call; pruning changes speed, never output.
	cand := in
	var ords []int64
	useVec := false
	if len(n.Keys) == 1 && int64(len(in)) > 2*n.N {
		if ve, ok := compileVecExpr(n.Keys[0].Expr, n.Child.Schema()); ok && e.vecOn(len(in)) {
			useVec = true
			topk := vec.NewTopK(int(n.N), n.Keys[0].Desc)
			w := getVecWork()
			cand = cand[:0:0]
			var sel vec.Sel
			for i := 0; i < chunkBounds(len(in)); i++ {
				rows := chunkOf(in, i)
				w.m.reset(rows)
				col, verr := ve.eval(&w.m)
				if verr != nil || !col.Uniform {
					// Evaluation fell back (mixed kinds); keep the morsel.
					for j := range rows {
						cand = append(cand, rows[j])
						ords = append(ords, int64(i*vec.MorselRows+j))
					}
					continue
				}
				sel = topk.Prune(col, sel)
				for _, k := range sel {
					cand = append(cand, rows[k])
					ords = append(ords, int64(i*vec.MorselRows+int(k)))
				}
			}
			putVecWork(w)
		}
	}
	markEngine(c, n, useVec)

	// Exact phase: evaluate keys chunk-parallel (disjoint ranges of ks,
	// like Sort), then select the N least rows.
	ks := make([]topnKeyed, len(cand))
	err = runMorsels(e, "topn-keys", chunkBounds(len(cand)),
		func(i int) (struct{}, error) {
			lo := i * vec.MorselRows
			for j, r := range chunkOf(cand, i) {
				keys := make(datum.Row, len(fns))
				for k, f := range fns {
					v, ferr := f(r)
					if ferr != nil {
						return struct{}{}, ferr
					}
					keys[k] = v
				}
				ord := int64(lo + j)
				if ords != nil {
					ord = ords[lo+j]
				}
				ks[lo+j] = topnKeyed{row: r, keys: keys, ord: ord}
			}
			return struct{}{}, nil
		},
		func(int, struct{}) error { return nil })
	if err != nil {
		return nil, err
	}
	if int64(len(ks)) <= n.N {
		// Nothing to discard: this is exactly the Sort the operator
		// replaces (ordinal tiebreak = stability).
		par.SortStablePooled(e.pool, ks, cmp)
	} else {
		// Bounded max-heap of the N least rows; the root is the greatest
		// kept row. cmp is a strict total order, so the selected set is
		// insertion-order independent.
		h := make([]topnKeyed, 0, n.N)
		for _, x := range ks {
			if int64(len(h)) < n.N {
				h = append(h, x)
				for j := len(h) - 1; j > 0; {
					p := (j - 1) / 2
					if cmp(h[j], h[p]) <= 0 {
						break
					}
					h[j], h[p] = h[p], h[j]
					j = p
				}
				continue
			}
			if cmp(x, h[0]) >= 0 {
				continue
			}
			h[0] = x
			for j := 0; ; {
				l, r := 2*j+1, 2*j+2
				g := j
				if l < len(h) && cmp(h[l], h[g]) > 0 {
					g = l
				}
				if r < len(h) && cmp(h[r], h[g]) > 0 {
					g = r
				}
				if g == j {
					break
				}
				h[j], h[g] = h[g], h[j]
				j = g
			}
		}
		ks = h
		sort.Slice(ks, func(i, j int) bool { return cmp(ks[i], ks[j]) < 0 })
	}
	out := make([]datum.Row, len(ks))
	for i := range ks {
		out[i] = ks[i].row
	}
	return out, nil
}
