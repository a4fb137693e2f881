package engine

import (
	"fmt"
	"math"
	"testing"

	"onlinetuner/internal/optimizer"
	"onlinetuner/internal/plan"
	"onlinetuner/internal/sql"
)

// templateHitTemplates are FuzzTemplateHit's statement templates over
// openRS's R (id unique, a = id%100, b = id%7, d = 2·id): a primary-key
// read, a one-group COUNT/SUM, a DML by key (its SET literal is no
// probe), a two-column equality served by a secondary index, a range,
// and a key read whose unaliased select item names a result column after
// its literal.
var templateHitTemplates = []struct {
	text string
	vals func(x, y byte) []any
}{
	{"SELECT id, a, b, c FROM R WHERE id = %d", func(x, y byte) []any { return []any{key(x, y)} }},
	{"SELECT COUNT(*) AS n, SUM(d) AS s FROM R WHERE a = %d", func(x, y byte) []any { return []any{int(x) % 110} }},
	{"UPDATE R SET e = e + %d WHERE id = %d", func(x, y byte) []any { return []any{int(y % 3), key(x, y)} }},
	{"SELECT id FROM R WHERE a = %d AND b = %d", func(x, y byte) []any { return []any{int(x) % 110, int(y % 9)} }},
	{"SELECT COUNT(*) FROM R WHERE d >= %d AND d < %d", func(x, y byte) []any {
		lo := int(x) * 16
		return []any{lo, lo + int(y)*8}
	}},
	{"SELECT a + %d, id FROM R WHERE id = %d", func(x, y byte) []any { return []any{int(y % 3), key(x, y)} }},
}

// key spreads two bytes over R's ids and a little past them.
func key(x, y byte) int { return int(x)*8 + int(y%8) }

// FuzzTemplateHit is the plan cache's exactness harness: input bytes pick
// a sequence of template statements and their literals, and every one is
// optimized through the cache and afresh at the same moment. A served
// plan — exact or rebound — must be the fresh optimization: the same Cost
// and Rows bits and output schema on every operator, the same EXPLAIN
// text, rule provenance and request tree, field for field. UPDATEs also
// execute, so later statements run against moved data.
func FuzzTemplateHit(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 10, 1, 0, 20, 2, 0, 30, 0, 0, 10, 1},
		{1, 5, 0, 1, 9, 1, 1, 200, 2, 1, 5, 0, 1, 77, 1},
		{2, 40, 1, 2, 41, 2, 0, 40, 1, 2, 90, 0, 0, 41, 2},
		{3, 7, 20, 3, 7, 20, 3, 8, 21, 3, 60, 3, 3, 105, 8},
		{4, 10, 3, 4, 10, 3, 4, 55, 7, 4, 0, 0, 4, 11, 3, 4, 250, 255},
		{0, 255, 2, 1, 255, 2, 0, 1, 0, 1, 0, 0},
		{5, 3, 0, 5, 4, 1, 5, 3, 0, 5, 9, 4},
	} {
		f.Add(seed)
	}
	db := openRS(f, 2000)
	db.MustExec("CREATE INDEX Iab ON R (a, b)")
	f.Fuzz(func(t *testing.T, in []byte) {
		// A few dozen statements reach every cache transition; longer
		// inputs only make each execution, and minimizing it, slow.
		if len(in) > 3*48 {
			in = in[:3*48]
		}
		for ; len(in) >= 3; in = in[3:] {
			tpl := templateHitTemplates[int(in[0])%len(templateHitTemplates)]
			checkTemplateHit(t, db, fmt.Sprintf(tpl.text, tpl.vals(in[1], in[2])...))
		}
	})
}

// checkTemplateHit optimizes text through the plan cache and afresh, under
// the statement's locks, requires the two Results to agree, and then
// executes a DML statement. It reports whether the plan was served.
func checkTemplateHit(t *testing.T, db *DB, text string) bool {
	t.Helper()
	stmt, fp, _, err := db.parse(text)
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	freshStmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	var got, want *optimizer.Result
	var errGot, errWant error
	reads, writes := db.lockTablesFor(stmt)
	if err := db.locked(nil, reads, writes, func() {
		got, errGot = db.optimizeMaybeCached(stmt, &fp)
		want, errWant = db.Opt.Optimize(freshStmt)
	}); err != nil {
		t.Fatal(err)
	}
	if errGot != nil || errWant != nil {
		t.Fatalf("%q: cached err %v, fresh err %v", text, errGot, errWant)
	}
	sameOptimization(t, text, got, want)
	if _, ok := stmt.(*sql.Update); ok {
		if _, _, err := db.Exec(text); err != nil {
			t.Fatalf("%q: %v", text, err)
		}
	}
	return got.FromCache
}

// sameOptimization requires a served Result to be the fresh one.
func sameOptimization(t *testing.T, text string, got, want *optimizer.Result) {
	t.Helper()
	what := provenanceOf(got)
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || math.Float64bits(got.Rows) != math.Float64bits(want.Rows) {
		t.Fatalf("%q (%s): cost/rows %v/%v, fresh %v/%v", text, what, got.Cost, got.Rows, want.Cost, want.Rows)
	}
	if g, w := plan.Explain(got.Plan), plan.Explain(want.Plan); g != w {
		t.Fatalf("%q (%s): plan\n%s\nfresh\n%s", text, what, g, w)
	}
	sameOperators(t, text, got.Plan, want.Plan)
	if fmt.Sprint(got.RulesApplied) != fmt.Sprint(want.RulesApplied) || got.Generic != want.Generic {
		t.Fatalf("%q (%s): rules %v generic %v, fresh %v %v", text, what, got.RulesApplied, got.Generic, want.RulesApplied, want.Generic)
	}
	gr, wr := got.Requests(), want.Requests()
	if len(gr) != len(wr) || fmt.Sprint(got.Tree) != fmt.Sprint(want.Tree) {
		t.Fatalf("%q (%s): request tree\n%s\nfresh\n%s", text, what, got.Tree, want.Tree)
	}
	for i := range gr {
		// %v renders every float in its shortest exact form, so equal
		// strings are equal bits.
		if g, w := fmt.Sprintf("%+v", *gr[i]), fmt.Sprintf("%+v", *wr[i]); g != w {
			t.Fatalf("%q (%s): request %d\n%s\nfresh\n%s", text, what, i, g, w)
		}
	}
}

// sameOperators walks two plans of one shape comparing every operator's
// cost and row estimate bits and its output schema (the root's names the
// result columns a client receives).
func sameOperators(t *testing.T, text string, got, want plan.Node) {
	t.Helper()
	if math.Float64bits(got.EstCost()) != math.Float64bits(want.EstCost()) ||
		math.Float64bits(got.EstRows()) != math.Float64bits(want.EstRows()) {
		t.Fatalf("%q: %s estimates %v/%v, fresh %v/%v", text, got.Label(), got.EstCost(), got.EstRows(), want.EstCost(), want.EstRows())
	}
	if g, w := fmt.Sprint(got.Schema()), fmt.Sprint(want.Schema()); g != w {
		t.Fatalf("%q: %s outputs %s, fresh %s", text, got.Label(), g, w)
	}
	gc, wc := got.Children(), want.Children()
	if len(gc) != len(wc) {
		t.Fatalf("%q: %s has %d inputs, fresh %d", text, got.Label(), len(gc), len(wc))
	}
	for i := range gc {
		sameOperators(t, text, gc[i], wc[i])
	}
}

// TestTemplateHitsRebind runs FuzzTemplateHit's check over a sweep of
// every template, requiring that rebound hits actually happen: most
// statements of a template share a handful of selectivities.
func TestTemplateHitsRebind(t *testing.T) {
	db := openRS(t, 1000)
	db.MustExec("CREATE INDEX Ia ON R (a, b)")
	hits, rebinds := 0, db.PlanCacheStats().RebindHits
	for i := 0; i < 60; i++ {
		for _, q := range []string{
			fmt.Sprintf("SELECT b, c FROM R WHERE id = %d", i*13),
			fmt.Sprintf("SELECT COUNT(*) FROM R WHERE a = %d", i%100),
			fmt.Sprintf("UPDATE R SET e = e + %d WHERE id = %d", i%3, i*7),
			fmt.Sprintf("SELECT id FROM R WHERE a = %d AND b = %d", i%100, i%7),
			fmt.Sprintf("SELECT a, b FROM R WHERE a >= %d AND a < %d", 100+i, 200+i),
			fmt.Sprintf("SELECT S.y FROM R, S WHERE R.id = S.id AND R.a = %d", i%100),
		} {
			if checkTemplateHit(t, db, q) {
				hits++
			}
		}
	}
	rebinds = db.PlanCacheStats().RebindHits - rebinds
	t.Logf("%d of 360 statements served, %d rebound", hits, rebinds)
	if hits < 300 || rebinds < 250 {
		t.Fatalf("only %d of 360 statements served from the cache (%d rebound)", hits, rebinds)
	}
}
