package engine

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/storage"
	"onlinetuner/internal/wal"
)

// UPDATE and DELETE locate their rows by running the access path the
// optimizer costed (plan.UpdateNode.Source). These tests pin what that
// must not change: the rows a statement touches, the heap it leaves
// behind under every physical design, and the all-or-nothing behaviour
// of a statement whose read side fails.

// dmlRow is the plain-Go model's row of T(k1, k2, a, b, c). a and b are
// nullable: dmlNull stands for NULL.
type dmlRow [5]int64

const dmlNull = math.MinInt64

// known reports whether no operand is NULL. A comparison over a NULL is
// not true and arithmetic over a NULL is NULL.
func known(vs ...int64) bool {
	return !slices.Contains(vs, dmlNull)
}

func dmlLit(v int64) string {
	if v == dmlNull {
		return "NULL"
	}
	return strconv.FormatInt(v, 10)
}

// String renders the row as datum.Row does.
func (r dmlRow) String() string {
	lits := make([]string, len(r))
	for i, v := range r {
		lits[i] = dmlLit(v)
	}
	return "(" + strings.Join(lits, ", ") + ")"
}

// dmlStmt is one generated statement with its model semantics.
type dmlStmt struct {
	sql   string
	where string              // the WHERE clause match models; "" for INSERT
	match func(dmlRow) bool   // nil for INSERT
	set   func(dmlRow) dmlRow // nil for DELETE/INSERT
	ins   *dmlRow             // non-nil for INSERT
}

// dmlPredicate draws one WHERE clause of each kind the optimizer treats
// differently: full-key and key-prefix equality on the primary, equality
// and range on a secondary's leading column, predicates no index can
// serve, conjuncts that are false for every row, and the predicates an
// index seek over-approximates — an upper bound alone (the seek starts at
// the NULL keys, which sort lowest), `a = NULL` (never true, but NULL
// keys exist), two different equalities on one column (only one of them
// can bound the seek) and two lower bounds on one column (only the
// tighter one does).
func dmlPredicate(rng *rand.Rand) (string, func(dmlRow) bool) {
	never := func(dmlRow) bool { return false }
	switch rng.Intn(15) {
	case 0, 1:
		k1, k2 := int64(rng.Intn(40)), int64(rng.Intn(50))
		return fmt.Sprintf("k1 = %d AND k2 = %d", k1, k2),
			func(r dmlRow) bool { return r[0] == k1 && r[1] == k2 }
	case 2:
		k1 := int64(rng.Intn(40))
		return fmt.Sprintf("k1 = %d", k1), func(r dmlRow) bool { return r[0] == k1 }
	case 3:
		a := int64(rng.Intn(1000))
		return fmt.Sprintf("a = %d", a), func(r dmlRow) bool { return r[2] == a }
	case 4:
		lo := int64(rng.Intn(990))
		hi := lo + int64(rng.Intn(4))
		return fmt.Sprintf("a >= %d AND a < %d", lo, hi),
			func(r dmlRow) bool { return r[2] >= lo && r[2] < hi }
	case 5:
		a, b := int64(rng.Intn(1000)), int64(rng.Intn(7))
		return fmt.Sprintf("a = %d AND b <> %d", a, b),
			func(r dmlRow) bool { return r[2] == a && known(r[3]) && r[3] != b }
	case 6:
		v := int64(rng.Intn(1000))
		return fmt.Sprintf("a + b = %d", v),
			func(r dmlRow) bool { return known(r[2], r[3]) && r[2]+r[3] == v }
	case 7:
		return "1 = 0", never
	case 8:
		k1 := int64(rng.Intn(40))
		return fmt.Sprintf("k1 = %d AND 1 = 0", k1), never
	case 9:
		hi := int64(1 + rng.Intn(4))
		return fmt.Sprintf("a < %d", hi), func(r dmlRow) bool { return known(r[2]) && r[2] < hi }
	case 10:
		b, hi := int64(rng.Intn(7)), int64(rng.Intn(6))
		return fmt.Sprintf("b = %d AND a <= %d", b, hi),
			func(r dmlRow) bool { return r[3] == b && known(r[2]) && r[2] <= hi }
	case 11:
		return "a = NULL", never
	case 12:
		a := int64(rng.Intn(1000))
		return fmt.Sprintf("a = %d AND a = %d", a, a+1), never
	case 13:
		lo, lo2 := int64(990+rng.Intn(8)), int64(990+rng.Intn(8))
		return fmt.Sprintf("a >= %d AND a >= %d", lo, lo2),
			func(r dmlRow) bool { return known(r[2]) && r[2] >= lo && r[2] >= lo2 }
	default:
		k1 := int64(rng.Intn(40))
		return fmt.Sprintf("a IS NULL AND k1 < %d", k1),
			func(r dmlRow) bool { return r[2] == dmlNull && r[0] < k1 }
	}
}

// dmlWorkload generates the seeded statement sequence. SET clauses
// include the column the predicate seeks on (the Halloween case, for the
// primary and the secondary alike), other indexed columns, NULL, and an
// unindexed column; INSERTs refill the table so DELETEs' freed slots are
// reused.
func dmlWorkload(seed int64, n int) []dmlStmt {
	rng := rand.New(rand.NewSource(seed))
	add := func(v, d int64) int64 {
		if !known(v) {
			return v
		}
		return v + d
	}
	sets := []struct {
		sql string
		fn  func(dmlRow) dmlRow
	}{
		{"a = a + 7", func(r dmlRow) dmlRow { r[2] = add(r[2], 7); return r }},
		{"a = 3", func(r dmlRow) dmlRow { r[2] = 3; return r }},
		{"a = NULL", func(r dmlRow) dmlRow { r[2] = dmlNull; return r }},
		{"b = b + 1", func(r dmlRow) dmlRow { r[3] = add(r[3], 1); return r }},
		{"c = c + 1", func(r dmlRow) dmlRow { r[4]++; return r }},
		{"k2 = k2 + 100000", func(r dmlRow) dmlRow { r[1] += 100000; return r }},
		{"a = b, b = a", func(r dmlRow) dmlRow { r[2], r[3] = r[3], r[2]; return r }},
	}
	out := make([]dmlStmt, 0, n)
	nextKey := int64(1000)
	for len(out) < n {
		switch k := rng.Intn(10); {
		case k < 5:
			where, match := dmlPredicate(rng)
			s := sets[rng.Intn(len(sets))]
			out = append(out, dmlStmt{sql: "UPDATE T SET " + s.sql + " WHERE " + where, where: where, match: match, set: s.fn})
		case k < 8:
			where, match := dmlPredicate(rng)
			out = append(out, dmlStmt{sql: "DELETE FROM T WHERE " + where, where: where, match: match})
		default:
			r := dmlRow{nextKey, int64(rng.Intn(50)), int64(rng.Intn(1000)), int64(rng.Intn(7)), 0}
			if rng.Intn(6) == 0 {
				r[2] = dmlNull
			}
			nextKey++
			out = append(out, dmlStmt{sql: "INSERT INTO T VALUES " + r.String(), ins: &r})
		}
	}
	return out
}

// openDML loads T with 40 × 50 rows, one in thirteen with a NULL a, and
// returns the matching model.
func openDML(t *testing.T) (*DB, []dmlRow) {
	t.Helper()
	db := Open()
	db.MustExec("CREATE TABLE T (k1 INT, k2 INT, a INT, b INT, c INT, PRIMARY KEY (k1, k2))")
	var model []dmlRow
	for k1 := int64(0); k1 < 40; k1++ {
		for k2 := int64(0); k2 < 50; k2++ {
			r := dmlRow{k1, k2, (k1*50 + k2) % 997, (k1 + k2) % 7, 0}
			if (k1*50+k2)%13 == 5 {
				r[2] = dmlNull
			}
			model = append(model, r)
			db.MustExec("INSERT INTO T VALUES " + r.String())
		}
	}
	if err := db.Analyze("T"); err != nil {
		t.Fatal(err)
	}
	return db, model
}

// heapDump renders the heap physically: one line per live row, with its
// RID, in RID order.
func heapDump(db *DB, table string) []string {
	snap := db.Mgr.Heap(table).Snapshot()
	out := make([]string, len(snap))
	for i, hr := range snap {
		out[i] = fmt.Sprintf("%d:%v", hr.RID, hr.Row)
	}
	return out
}

// indexDump renders every entry of an active index in key order.
func indexDump(t *testing.T, db *DB, id string) []string {
	t.Helper()
	pi := db.Mgr.Index(id)
	if pi == nil || pi.State() != storage.StateActive {
		t.Fatalf("index %s is not active", id)
	}
	var out []string
	for it := pi.Tree().Scan(); it.Valid(); it.Next() {
		out = append(out, fmt.Sprintf("%v@%d", it.Entry().Key, it.Entry().RID))
	}
	return out
}

func sameLines(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d = %s, want %s", label, i, got[i], want[i])
		}
	}
}

// TestDMLDifferentialAcrossDesigns replays one seeded UPDATE/DELETE/
// INSERT sequence under every index configuration against a plain-Go
// model. Per statement the affected count must match the model; at the
// end the heap must hold the model's rows, must be physically identical
// (same row at the same RID) under every design — mutations apply in RID
// order whatever path located them — and every index must agree with it.
func TestDMLDifferentialAcrossDesigns(t *testing.T) {
	secondary := func() *catalog.Index {
		return (&catalog.Index{Name: "t_ab", Table: "T", Columns: []string{"a", "b"}}).Canonicalize()
	}
	covering := func() *catalog.Index {
		return (&catalog.Index{Name: "t_all", Table: "T", Columns: []string{"a", "b", "c", "k1", "k2"}}).Canonicalize()
	}
	type design struct {
		name string
		// prepare puts the design in place before the workload; finish
		// brings every index it left behind to StateActive so it can be
		// checked against the heap.
		prepare func(t *testing.T, db *DB) (finish func())
		// seeks are statements whose Source must be this index seek under
		// the design, so the differential is known to cover the path.
		seeks map[string]string
	}
	pkSeeks := map[string]string{
		"UPDATE T SET c = c + 1 WHERE k1 = 3 AND k2 = 4": "IndexSeek T_pk on T (eq=2, covering)",
		"DELETE FROM T WHERE k1 = 3":                     "IndexSeek T_pk on T (eq=1, covering)",
	}
	with := func(more map[string]string) map[string]string {
		out := maps.Clone(pkSeeks)
		maps.Copy(out, more)
		return out
	}
	designs := []design{
		{name: "primary only", prepare: func(*testing.T, *DB) func() { return func() {} }, seeks: pkSeeks},
		{name: "active secondary", seeks: with(map[string]string{
			"UPDATE T SET a = a + 7 WHERE a = 11":       "IndexSeek t_ab on T (eq=1, fetch)",
			"DELETE FROM T WHERE a >= 20 AND a < 21":    "IndexSeek t_ab on T (eq=0,range, fetch)",
			"UPDATE T SET c = 1 WHERE a + b = 9":        "SeqScan T",
			"UPDATE T SET c = 1 WHERE k1 = 3 AND 1 = 0": "IndexSeek T_pk on T (eq=1, covering) where (k1 = 3) AND (1 = 0)",
			"DELETE FROM T WHERE 1 = 0":                 "SeqScan T where (1 = 0)",
			"DELETE FROM T WHERE a < 1":                 "IndexSeek t_ab on T (eq=0,range, fetch)",
			"DELETE FROM T WHERE a = 11 AND a = 12":     "IndexSeek t_ab on T (eq=1, fetch)",
		}), prepare: func(t *testing.T, db *DB) func() {
			if err := db.CreateIndex(secondary()); err != nil {
				t.Fatal(err)
			}
			return func() {}
		}},
		{name: "secondary on (b, a)", seeks: with(map[string]string{
			"DELETE FROM T WHERE b = 1 AND a <= 3": "IndexSeek t_ba on T (eq=1,range, fetch)",
		}), prepare: func(t *testing.T, db *DB) func() {
			ix := (&catalog.Index{Name: "t_ba", Table: "T", Columns: []string{"b", "a"}}).Canonicalize()
			if err := db.CreateIndex(ix); err != nil {
				t.Fatal(err)
			}
			return func() {}
		}},
		{name: "covering secondary", seeks: with(map[string]string{
			"UPDATE T SET a = a + 7 WHERE a = 11":    "IndexSeek t_all on T (eq=1, covering)",
			"DELETE FROM T WHERE a >= 20 AND a < 21": "IndexSeek t_all on T (eq=0,range, covering)",
			"DELETE FROM T WHERE a = NULL":           "IndexSeek t_all on T (eq=1, covering)",
			"DELETE FROM T WHERE a < 4":              "IndexSeek t_all on T (eq=0,range, covering)",
		}), prepare: func(t *testing.T, db *DB) func() {
			if err := db.CreateIndex(covering()); err != nil {
				t.Fatal(err)
			}
			return func() {}
		}},
		{name: "suspended secondary", seeks: pkSeeks, prepare: func(t *testing.T, db *DB) func() {
			ix := secondary()
			if err := db.CreateIndex(ix); err != nil {
				t.Fatal(err)
			}
			if err := db.Mgr.SuspendIndex(ix.ID()); err != nil {
				t.Fatal(err)
			}
			return func() {
				if _, err := db.Mgr.RestartIndex(ix.ID()); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "secondary mid-build", seeks: pkSeeks, prepare: func(t *testing.T, db *DB) func() {
			ix := secondary()
			b, err := db.Mgr.StartBuild(ix)
			if err != nil {
				t.Fatal(err)
			}
			return func() {
				if err := b.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				if err := db.PublishIndex(ix, b); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}

	for _, seed := range []int64{1, 2, 3} {
		stmts := dmlWorkload(seed, 400)
		var refHeap, refPrimary []string
		for _, d := range designs {
			label := fmt.Sprintf("seed %d, %s", seed, d.name)
			db, model := openDML(t)
			finish := d.prepare(t, db)
			for q, want := range d.seeks {
				s, err := db.ExplainString(q)
				if err != nil {
					t.Fatalf("%s: %q: %v", label, q, err)
				}
				lines := strings.Split(strings.TrimSpace(s), "\n")
				if src := strings.TrimSpace(lines[len(lines)-1]); !strings.HasPrefix(src, want) {
					t.Fatalf("%s: %q locates through %q, want %q", label, q, src, want)
				}
			}
			for i, st := range stmts {
				if st.match != nil {
					// A SELECT sees the rows the statement is about to touch:
					// the design must not change a query's answer either.
					q := "SELECT k1, k2 FROM T WHERE " + st.where
					rs, _, err := db.Exec(q)
					if err != nil {
						t.Fatalf("%s: stmt %d %q: %v", label, i, q, err)
					}
					want := 0
					for _, r := range model {
						if st.match(r) {
							want++
						}
					}
					if len(rs.Rows) != want {
						t.Fatalf("%s: stmt %d %q returned %d rows, model %d", label, i, q, len(rs.Rows), want)
					}
				}
				rs, _, err := db.Exec(st.sql)
				if err != nil {
					t.Fatalf("%s: stmt %d %q: %v", label, i, st.sql, err)
				}
				want := 1
				if st.ins != nil {
					model = append(model, *st.ins)
				} else {
					want = 0
					kept := model[:0]
					for _, r := range model {
						switch {
						case !st.match(r):
							kept = append(kept, r)
						case st.set != nil:
							kept = append(kept, st.set(r))
							want++
						default:
							want++
						}
					}
					model = kept
				}
				if rs.Affected != want {
					t.Fatalf("%s: stmt %d %q affected %d rows, model %d", label, i, st.sql, rs.Affected, want)
				}
			}
			finish()
			if err := db.Mgr.CheckConsistency(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}

			// The heap's rows are the model's rows...
			var got, want []string
			for _, hr := range db.Mgr.Heap("T").Snapshot() {
				got = append(got, fmt.Sprint(hr.Row))
			}
			for _, r := range model {
				want = append(want, r.String())
			}
			sort.Strings(got)
			sort.Strings(want)
			sameLines(t, label+": heap vs model", got, want)

			// ...at the same RIDs under every design, with the same primary.
			heap, primary := heapDump(db, "T"), indexDump(t, db, "t(k1,k2,a,b,c)")
			if refHeap == nil {
				refHeap, refPrimary = heap, primary
				continue
			}
			sameLines(t, label+": physical heap vs "+designs[0].name, heap, refHeap)
			sameLines(t, label+": primary entries vs "+designs[0].name, primary, refPrimary)
			for _, pi := range db.Mgr.TableIndexes("T") {
				if pi.Def.Primary {
					continue
				}
				// A secondary's entries are exactly its keys of the heap rows.
				var want []string
				for _, hr := range db.Mgr.Heap("T").Snapshot() {
					key := db.Mgr.KeyFor(db.Cat.Table("T"), pi.Def, hr.Row)
					want = append(want, fmt.Sprintf("%v@%d", key, hr.RID))
				}
				got := indexDump(t, db, pi.Def.ID())
				sort.Strings(got)
				sort.Strings(want)
				sameLines(t, label+": entries of "+pi.Def.Name, got, want)
			}
		}
	}
}

// hookCtx runs a callback whenever the statement polls its context. The
// engine polls between optimization and execution (RunContext's entry
// check), which makes the hook the one deterministic way to change the
// physical design inside that window.
type hookCtx struct {
	context.Context
	hook func()
}

func (c hookCtx) Err() error {
	c.hook()
	return c.Context.Err()
}

// TestDMLStalePlanRetried drops the index an UPDATE's Source seeks on
// after the statement was optimized and before it runs. The stale check
// fires while rows are being located — before the statement begins — so
// the failed attempt applies nothing and the engine's retry re-optimizes
// and applies the statement exactly once.
func TestDMLStalePlanRetried(t *testing.T) {
	db := openRS(t, 1000)
	db.MustExec("CREATE INDEX r_d ON R (d)")
	const q = "UPDATE R SET e = e + 1000000 WHERE d = 84"
	// ExplainString leaves the seek plan in the plan cache, so the
	// statement below resolves its plan with an exact hit.
	if s, err := db.ExplainString(q); err != nil || !strings.Contains(s, "IndexSeek r_d on R") {
		t.Fatalf("update does not seek on r_d: %v\n%s", err, s)
	}
	before := heapDump(db, "R")

	ix := db.Cat.Index("r_d")
	hits := db.PlanCacheStats().Hits
	retries := counterVal(t, db, "engine.stale_retries")
	dropped := false
	ctx := hookCtx{Context: context.Background(), hook: func() {
		if dropped || db.PlanCacheStats().Hits == hits {
			return // the plan is not resolved yet
		}
		dropped = true
		if err := db.DropIndex(ix); err != nil {
			t.Error(err)
		}
		// Nothing may have been applied by the time the plan goes stale.
		sameLines(t, "heap when the index is dropped", heapDump(db, "R"), before)
	}}
	rs, _, err := db.ExecContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !dropped {
		t.Fatal("the index was never dropped: the statement did not poll its context between plan and run")
	}
	if got := counterVal(t, db, "engine.stale_retries") - retries; got != 1 {
		t.Fatalf("stale_retries grew by %d, want 1", got)
	}
	if rs.Affected != 1 {
		t.Fatalf("affected = %d, want 1", rs.Affected)
	}
	// Applied exactly once: row 42 (d = 84, e = 126) moved by one increment.
	got := canonRows(db.MustExec("SELECT id, e FROM R WHERE e >= 1000000"))
	if len(got) != 1 || got[0] != "(42, 1000126)" {
		t.Fatalf("rows incremented = %v, want only (42, 1000126)", got)
	}
	if err := db.Mgr.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestDMLSourceReadFaultLeavesNoTrace plants a page-read fault in the
// Source of an UPDATE and of a DELETE, through each access path. Reads
// happen before the statement begins, so the failed statement must
// leave the heap, every index and the WAL exactly as they were.
func TestDMLSourceReadFaultLeavesNoTrace(t *testing.T) {
	db, err := OpenDurable(Config{Dir: t.TempDir(), Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec("CREATE TABLE T (k1 INT, k2 INT, a INT, b INT, c INT, PRIMARY KEY (k1, k2))")
	for i := 0; i < 500; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO T VALUES (%d, %d, %d, %d, 0)", i/10, i%10, i%50, i%7))
	}
	db.MustExec("CREATE INDEX t_a ON T (a)")
	if err := db.Analyze("T"); err != nil {
		t.Fatal(err)
	}

	for _, q := range []string{
		"UPDATE T SET c = 9 WHERE k1 = 7 AND k2 = 3", // primary seek
		"UPDATE T SET a = a + 1 WHERE a = 11",        // secondary seek, SET on the seek column
		"DELETE FROM T WHERE a = 12",                 // secondary seek
		"DELETE FROM T WHERE a + b = 20",             // heap scan
		"UPDATE T SET c = 9 WHERE b <> 3",            // heap scan
	} {
		heap := heapDump(db, "T")
		primary, secondary := indexDump(t, db, "t(k1,k2,a,b,c)"), indexDump(t, db, "t(a)")
		seq, appends := db.WAL().Seq(), db.WAL().Appends()

		inj := fault.New(5).Plan(fault.PageRead, fault.Rule{Prob: 1, Count: 1})
		db.SetFaults(inj)
		inj.Arm()
		_, _, err := db.Exec(q)
		inj.Disarm()
		if !fault.Is(err) {
			t.Fatalf("%q: err = %v, want the injected read fault", q, err)
		}
		if inj.FiredTotal() != 1 {
			t.Fatalf("%q: %d faults fired, want 1", q, inj.FiredTotal())
		}

		sameLines(t, q+": heap after read fault", heapDump(db, "T"), heap)
		sameLines(t, q+": primary after read fault", indexDump(t, db, "t(k1,k2,a,b,c)"), primary)
		sameLines(t, q+": secondary after read fault", indexDump(t, db, "t(a)"), secondary)
		if s, a := db.WAL().Seq(), db.WAL().Appends(); s != seq || a != appends {
			t.Fatalf("%q: WAL moved on a failed locate: seq %d -> %d, appends %d -> %d", q, seq, s, appends, a)
		}
		if err := db.Mgr.CheckConsistency(); err != nil {
			t.Fatalf("%q: %v", q, err)
		}

		// The fault is spent: the same statement now applies.
		if rs := db.MustExec(q); rs.Affected == 0 {
			t.Fatalf("%q: affected no rows once the fault was spent", q)
		}
	}
}

// TestDMLFailedHalfWayLeavesNoTrace fails an INSERT … SELECT and a
// multi-row UPDATE after some of their rows were applied — by an
// injected write fault, by a context cancelled mid-statement and by a
// failed commit append — on a durable and an in-memory engine. The
// statement frame lives in storage with or without a log, so in both
// the heap (physically: slots, rows and free-list order, as a checkpoint
// would capture them), every index and the log position must be what
// they were, and the same statement must then apply.
func TestDMLFailedHalfWayLeavesNoTrace(t *testing.T) {
	const rows = 2500 // several cancellation polls' worth of row operations
	stmts := []struct {
		sql      string
		table    string
		affected int
	}{
		{"INSERT INTO U SELECT k1, k2, a, b, c FROM T WHERE k2 >= 3", "U", rows * 7 / 10},
		{"UPDATE T SET a = a + 1, c = c + 1 WHERE k1 >= 0", "T", rows},
	}
	type failure struct {
		name    string
		durable bool // needs a log
		// run executes q so that it fails half-way.
		run func(t *testing.T, db *DB, q, table string)
	}
	withFault := func(site fault.Site, rule fault.Rule) func(*testing.T, *DB, string, string) {
		return func(t *testing.T, db *DB, q, _ string) {
			inj := fault.New(9).Plan(site, rule)
			db.SetFaults(inj)
			inj.Arm()
			defer db.SetFaults(nil)
			_, _, err := db.Exec(q)
			if !fault.Is(err) || inj.FiredTotal() != 1 {
				t.Fatalf("err = %v after %d fired faults, want the one injected %s fault", err, inj.FiredTotal(), site)
			}
		}
	}
	failures := []failure{
		{name: "write fault", run: withFault(fault.PageWrite, fault.Rule{Prob: 1, After: 700, Count: 1})},
		{name: "failed commit append", durable: true, run: withFault(fault.WALAppend, fault.Rule{Prob: 1, Count: 1})},
		{name: "cancelled context", run: func(t *testing.T, db *DB, q, table string) {
			// Cancel at the first context poll that sees the statement's
			// rows arriving: the poll that follows is the statement's own.
			h := db.Mgr.Heap(table)
			slots, first := h.Slots(), h.Get(0)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, _, err := db.ExecContext(hookCtx{Context: ctx, hook: func() {
				if h.Slots() != slots || h.Get(0).Compare(first) != 0 {
					cancel()
				}
			}}, q)
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		}},
	}
	for _, durable := range []bool{true, false} {
		db := Open()
		if durable {
			var err error
			if db, err = OpenDurable(Config{Dir: t.TempDir(), Sync: wal.SyncNone}); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
		}
		for _, tbl := range []string{"T", "U"} {
			db.MustExec("CREATE TABLE " + tbl + " (k1 INT, k2 INT, a INT, b INT, c INT, PRIMARY KEY (k1, k2))")
		}
		for i := 0; i < rows; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO T VALUES (%d, %d, %d, %d, 0)", i/10, i%10, i%50, i%7))
		}
		// U starts with live rows and a free list, so the INSERT recycles
		// slots before it grows the heap.
		for i := 0; i < 40; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO U VALUES (%d, %d, 1, 1, 1)", 100000+i, i))
		}
		db.MustExec("DELETE FROM U WHERE k2 >= 10 AND k2 < 30")
		db.MustExec("CREATE INDEX t_a ON T (a)")
		db.MustExec("CREATE INDEX u_a ON U (a)")
		indexes := map[string][]string{"T": {"t(k1,k2,a,b,c)", "t(a)"}, "U": {"u(k1,k2,a,b,c)", "u(a)"}}

		for _, st := range stmts {
			for _, f := range failures {
				if f.durable && !durable {
					continue
				}
				label := fmt.Sprintf("durable=%v, %s, %s", durable, f.name, st.sql)
				before := db.Mgr.SnapshotState()
				var trees [][]string
				for _, id := range indexes[st.table] {
					trees = append(trees, indexDump(t, db, id))
				}
				var seq uint64
				var appends int64
				if durable {
					seq, appends = db.WAL().Seq(), db.WAL().Appends()
				}

				f.run(t, db, st.sql, st.table)

				if after := db.Mgr.SnapshotState(); !reflect.DeepEqual(before, after) {
					t.Fatalf("%s: storage state moved (heap rows, slots or free list)", label)
				}
				for i, id := range indexes[st.table] {
					sameLines(t, label+": entries of "+id, indexDump(t, db, id), trees[i])
				}
				if durable {
					if s, a := db.WAL().Seq(), db.WAL().Appends(); s != seq || a != appends {
						t.Fatalf("%s: WAL moved: seq %d -> %d, appends %d -> %d", label, seq, s, appends, a)
					}
				}
				if err := db.Mgr.CheckConsistency(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			if rs := db.MustExec(st.sql); rs.Affected != st.affected {
				t.Fatalf("durable=%v: %q affected %d rows, want %d", durable, st.sql, rs.Affected, st.affected)
			}
		}
	}
}
