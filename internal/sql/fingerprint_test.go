package sql_test

import (
	"hash/fnv"
	"strings"
	"testing"

	"onlinetuner/internal/sql"
)

func fp(t *testing.T, text string) (sql.Statement, sql.Fingerprint) {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	return stmt, sql.FingerprintOf(stmt)
}

func TestFingerprintLiftsLiterals(t *testing.T) {
	_, f := fp(t, "SELECT a, b FROM R WHERE a < 100 AND s = 'x'")
	if len(f.Bindings) != 2 {
		t.Fatalf("bindings = %v, want 2", f.Bindings)
	}
	if f.Bindings[0].Int() != 100 || f.Bindings[1].Str() != "x" {
		t.Errorf("bindings = %v", f.Bindings)
	}
	if !strings.Contains(f.Template, "$1") || !strings.Contains(f.Template, "$2") {
		t.Errorf("template missing placeholders: %s", f.Template)
	}
	if strings.Contains(f.Template, "100") || strings.Contains(f.Template, "'x'") {
		t.Errorf("template leaked literals: %s", f.Template)
	}
	if len(f.Lits) != len(f.Bindings) {
		t.Errorf("Lits/Bindings mismatch: %d vs %d", len(f.Lits), len(f.Bindings))
	}
}

func TestFingerprintTemplateSharing(t *testing.T) {
	// Same shape, different constants and identifier case: one template.
	_, f1 := fp(t, "SELECT a FROM R WHERE a < 100")
	_, f2 := fp(t, "select A from r where A < 7")
	if f1.Hash != f2.Hash || f1.Template != f2.Template {
		t.Errorf("templates differ:\n%s\n%s", f1.Template, f2.Template)
	}
	if f2.Bindings[0].Int() != 7 {
		t.Errorf("bindings = %v", f2.Bindings)
	}
	// Different shapes: different templates.
	_, f3 := fp(t, "SELECT a FROM R WHERE a > 100")
	if f3.Hash == f1.Hash {
		t.Error("different operators share a template")
	}
	_, f4 := fp(t, "SELECT a FROM R WHERE a < 100 LIMIT 5")
	_, f5 := fp(t, "SELECT a FROM R WHERE a < 100 LIMIT 6")
	if f4.Hash == f5.Hash {
		t.Error("LIMIT must be part of the template, not a binding")
	}
}

// TestFingerprintHashIsFNV64a pins the template hash to hash/fnv's
// 64-bit FNV-1a sum of the template text: it keys the engine's cache
// shards, so a hashing change must not move it.
func TestFingerprintHashIsFNV64a(t *testing.T) {
	for _, q := range []string{
		"SELECT o_orderkey, o_custkey FROM orders WHERE o_orderkey = 77",
		"UPDATE R SET c = c + 1 WHERE id = 42 AND b < 'x'",
		"DELETE FROM S",
	} {
		_, f := fp(t, q)
		h := fnv.New64a()
		h.Write([]byte(f.Template))
		if f.Hash != h.Sum64() {
			t.Errorf("%q: hash %x, hash/fnv says %x", q, f.Hash, h.Sum64())
		}
	}
}

func TestFingerprintDeterminism(t *testing.T) {
	for _, q := range []string{
		"SELECT DISTINCT a, COUNT(*) AS n FROM R WHERE a = 1 OR (b > 2 AND b < 7) GROUP BY a ORDER BY a DESC LIMIT 3",
		"INSERT INTO r (id, a, s) VALUES (1, 2, 'x'), (2, 3, 'y')",
		"UPDATE r SET a = a + 1, s = 'z' WHERE id = 5",
		"DELETE FROM r WHERE a > 10 AND s = 'x'",
		"SELECT * FROM r, s WHERE r.id = s.id AND r.a IS NOT NULL",
		"CREATE TABLE r (id INT, a INT, s VARCHAR, PRIMARY KEY (id))",
		"CREATE INDEX r_a ON r (a, id)",
		"DROP INDEX r_a",
		"EXPLAIN SELECT a FROM r WHERE a = 1",
	} {
		stmt, f1 := fp(t, q)
		f2 := sql.FingerprintOf(stmt)
		if f1.Hash != f2.Hash || f1.Template != f2.Template || len(f1.Bindings) != len(f2.Bindings) {
			t.Errorf("%s: fingerprint not deterministic", q)
		}
	}
}

func TestRebindRoundTrip(t *testing.T) {
	for _, q := range []string{
		"SELECT a, b AS bb FROM R WHERE a < 100 AND s = 'x' ORDER BY b LIMIT 10",
		"INSERT INTO r (id, a) VALUES (1, 2), (3, 4)",
		"UPDATE r SET a = 7 WHERE id = 5 AND a <> 2",
		"DELETE FROM r WHERE a > 10",
		"SELECT a, COUNT(*) FROM r WHERE NOT (a = 3) GROUP BY a",
		"EXPLAIN SELECT a FROM r WHERE a = 1 OR (a > 2 AND a < 7)",
	} {
		stmt, f := fp(t, q)
		back, err := sql.Rebind(stmt, f.Bindings)
		if err != nil {
			t.Fatalf("%s: Rebind: %v", q, err)
		}
		if back.String() != stmt.String() {
			t.Errorf("%s: round trip changed AST:\n%s\n%s", q, stmt, back)
		}
		f2 := sql.FingerprintOf(back)
		if f2.Hash != f.Hash || f2.Template != f.Template {
			t.Errorf("%s: round trip changed fingerprint", q)
		}
	}
}

func TestRebindSubstitutesNewValues(t *testing.T) {
	stmt, f := fp(t, "SELECT a FROM R WHERE a < 100")
	_, f2 := fp(t, "SELECT a FROM R WHERE a < 42")
	out, err := sql.Rebind(stmt, f2.Bindings)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "42") {
		t.Errorf("rebound statement = %s", out)
	}
	// The original AST must be untouched.
	if !strings.Contains(stmt.String(), "100") {
		t.Errorf("rebind mutated its input: %s", stmt)
	}
	if len(f.Bindings) != 1 {
		t.Fatalf("bindings = %v", f.Bindings)
	}
	// Binding-count mismatches are errors, not silent truncation.
	if _, err := sql.Rebind(stmt, nil); err == nil {
		t.Error("Rebind with too few bindings succeeded")
	}
	if _, err := sql.Rebind(stmt, append(f.Bindings, f.Bindings[0])); err == nil {
		t.Error("Rebind with too many bindings succeeded")
	}
}

func TestMapLiterals(t *testing.T) {
	stmt, f := fp(t, "SELECT a FROM R WHERE a < 100 AND b = 5")
	sel := stmt.(*sql.Select)
	n := 0
	out := sql.MapLiterals(sel.Where, func(l *sql.Literal) sql.Expr {
		n++
		return l
	})
	if n != 2 {
		t.Errorf("visited %d literals, want 2", n)
	}
	if out.String() != sel.Where.String() {
		t.Errorf("identity map changed expr: %s vs %s", out, sel.Where)
	}
	_ = f
}
