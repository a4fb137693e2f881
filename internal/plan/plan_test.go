package plan

import (
	"strings"
	"testing"

	"onlinetuner/internal/catalog"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/sql"
)

func testTable(t *testing.T) *catalog.Table {
	t.Helper()
	tbl, err := catalog.NewTable("R", []catalog.Column{
		{Name: "id", Kind: datum.KInt},
		{Name: "a", Kind: datum.KInt},
		{Name: "b", Kind: datum.KInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestColRefMatches(t *testing.T) {
	c := ColRef{Table: "R", Column: "a"}
	if !c.Matches("", "a") || !c.Matches("r", "A") {
		t.Error("case-insensitive match failed")
	}
	if c.Matches("S", "a") || c.Matches("R", "b") {
		t.Error("false match")
	}
	if c.String() != "R.a" {
		t.Errorf("String = %s", c.String())
	}
	if (ColRef{Column: "x"}).String() != "x" {
		t.Error("unqualified String")
	}
}

func TestSchemas(t *testing.T) {
	tbl := testTable(t)
	ts := TableSchema(tbl, "r1")
	if len(ts) != 3 || ts[0].Table != "r1" || ts[2].Column != "b" {
		t.Errorf("table schema = %v", ts)
	}
	// Default alias is the table name.
	ts2 := TableSchema(tbl, "")
	if ts2[0].Table != "R" {
		t.Errorf("default alias = %v", ts2[0])
	}
	ix := &catalog.Index{Name: "i", Table: "R", Columns: []string{"a", "id"}}
	is := IndexSchema(ix, "")
	if len(is) != 2 || is[0].Column != "a" || is[0].Table != "R" {
		t.Errorf("index schema = %v", is)
	}
}

func TestExplainTree(t *testing.T) {
	tbl := testTable(t)
	scan := &SeqScan{Table: "R", Alias: "R"}
	scan.Out = TableSchema(tbl, "")
	scan.Cost, scan.Rows = 10, 100
	f := &Filter{Child: scan, Preds: []sql.Expr{&sql.BinaryExpr{
		Op: "<", Left: &sql.ColumnRef{Column: "a"}, Right: &sql.Literal{Value: datum.NewInt(5)},
	}}}
	f.Out = scan.Out
	f.Cost, f.Rows = 11, 50
	lim := &Limit{Child: f, N: 7}
	lim.Out = f.Out
	out := Explain(lim)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("explain lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Limit 7") {
		t.Errorf("root = %q", lines[0])
	}
	if !strings.Contains(lines[1], "Filter") || !strings.Contains(lines[1], "(a < 5)") {
		t.Errorf("filter line = %q", lines[1])
	}
	if !strings.Contains(lines[2], "SeqScan R") || !strings.Contains(lines[2], "rows=100") {
		t.Errorf("scan line = %q", lines[2])
	}
	// Indentation encodes depth.
	if !strings.HasPrefix(lines[2], "    ") {
		t.Error("leaf not indented")
	}
}

// TestExplainDMLShowsSource: an UPDATE/DELETE renders the access path
// that locates its rows as a child line, like any other operator input.
func TestExplainDMLShowsSource(t *testing.T) {
	ix := &catalog.Index{Name: "R_a", Table: "R", Columns: []string{"a"}}
	seek := &IndexSeek{Index: ix, EqVals: []datum.Datum{datum.NewInt(5)}, Fetch: true}
	seek.Cost, seek.Rows = 3, 1
	upd := &UpdateNode{Table: "R", Source: seek}
	upd.Cost, upd.Rows = 5, 1
	del := &DeleteNode{Table: "R", Source: seek}
	for root, want := range map[Node]string{upd: "Update R", del: "Delete R"} {
		lines := strings.Split(strings.TrimSpace(Explain(root)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[0], want) ||
			!strings.HasPrefix(lines[1], "  IndexSeek R_a on R (eq=1, fetch) (cost=3.00 rows=1)") {
			t.Errorf("explain of %s:\n%s", want, Explain(root))
		}
	}
}

func TestLabels(t *testing.T) {
	ix := &catalog.Index{Name: "I2", Table: "R", Columns: []string{"a", "b"}}
	lo := datum.NewInt(1)
	seek := &IndexSeek{Index: ix, EqVals: []datum.Datum{datum.NewInt(5)}, Lo: &lo, Fetch: true}
	if l := seek.Label(); !strings.Contains(l, "IndexSeek I2") || !strings.Contains(l, "range") || !strings.Contains(l, "fetch") {
		t.Errorf("seek label = %q", l)
	}
	cover := &IndexSeek{Index: ix}
	if l := cover.Label(); !strings.Contains(l, "covering") {
		t.Errorf("covering label = %q", l)
	}
	hj := &HashJoin{
		LeftKeys:  []sql.Expr{&sql.ColumnRef{Table: "l", Column: "a"}},
		RightKeys: []sql.Expr{&sql.ColumnRef{Table: "r", Column: "x"}},
	}
	if l := hj.Label(); !strings.Contains(l, "l.a=r.x") {
		t.Errorf("hash join label = %q", l)
	}
	inlj := &INLJoin{Index: ix, OuterKeys: []sql.Expr{&sql.ColumnRef{Column: "k"}}}
	if l := inlj.Label(); !strings.Contains(l, "INLJoin inner=I2") {
		t.Errorf("inlj label = %q", l)
	}
	agg := &HashAgg{GroupBy: []sql.Expr{&sql.ColumnRef{Column: "g"}},
		Aggs: []AggSpec{{Func: "COUNT", Star: true}, {Func: "SUM", Arg: &sql.ColumnRef{Column: "v"}}}}
	if l := agg.Label(); !strings.Contains(l, "COUNT(*)") || !strings.Contains(l, "SUM(v)") {
		t.Errorf("agg label = %q", l)
	}
	for _, n := range []Node{
		&IndexScan{Index: ix}, &Project{Exprs: []sql.Expr{&sql.ColumnRef{Column: "a"}}},
		&Sort{Keys: []SortKey{{Expr: &sql.ColumnRef{Column: "a"}, Desc: true}}},
		&Distinct{}, &CrossJoin{}, &InsertNode{Table: "R"},
		&UpdateNode{Table: "R", Source: &SeqScan{Table: "R"}},
		&DeleteNode{Table: "R", Source: &SeqScan{Table: "R"}},
	} {
		if n.Label() == "" {
			t.Errorf("%T has empty label", n)
		}
	}
}

func TestChildren(t *testing.T) {
	scan := &SeqScan{}
	if scan.Children() != nil {
		t.Error("scan has children")
	}
	f := &Filter{Child: scan}
	if len(f.Children()) != 1 {
		t.Error("filter child missing")
	}
	hj := &HashJoin{Left: scan, Right: scan}
	if len(hj.Children()) != 2 {
		t.Error("join children missing")
	}
	ins := &InsertNode{}
	if ins.Children() != nil {
		t.Error("literal insert has children")
	}
	ins.Source = scan
	if len(ins.Children()) != 1 {
		t.Error("insert-select child missing")
	}
	for _, n := range []Node{&UpdateNode{Source: scan}, &DeleteNode{Source: scan}} {
		if ch := n.Children(); len(ch) != 1 || ch[0] != Node(scan) {
			t.Errorf("%T does not expose its Source", n)
		}
	}
}

func TestMergeJoinNode(t *testing.T) {
	l := &SeqScan{Table: "L"}
	r := &SeqScan{Table: "R"}
	mj := &MergeJoin{
		Left: l, Right: r,
		LeftKeys:  []sql.Expr{&sql.ColumnRef{Table: "l", Column: "x"}},
		RightKeys: []sql.Expr{&sql.ColumnRef{Table: "r", Column: "x"}},
	}
	if len(mj.Children()) != 2 {
		t.Error("children")
	}
	if want := "MergeJoin [l.x=r.x]"; mj.Label() != want {
		t.Errorf("label = %q, want %q", mj.Label(), want)
	}
}
