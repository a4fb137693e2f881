package engine

import (
	"fmt"
	"testing"

	"onlinetuner/internal/sql"
)

// FuzzRewrite is the rewrite pack's semantic fuzz harness: any SELECT
// the parser accepts must return byte-identical rows (in execution
// order) whether the optimizer runs with every rule on or every rule
// off, and must fail on both sides or neither. The corpus seeds the
// shapes the rules rewrite — IN / EXISTS / NOT IN subqueries, ORDER BY
// ... LIMIT, bare MIN/MAX, multi-table joins — plus degenerate
// fragments. Only SELECTs are replayed so the two databases stay
// identical across iterations.
func FuzzRewrite(f *testing.F) {
	for _, s := range []string{
		"SELECT id, a FROM R WHERE a < 50 ORDER BY a DESC, id LIMIT 10",
		"SELECT id FROM R ORDER BY b, id LIMIT 0",
		"SELECT MIN(a) FROM R",
		"SELECT MAX(b), MIN(b) FROM R",
		"SELECT MIN(x) FROM S WHERE y = 3",
		"SELECT id FROM R WHERE id IN (SELECT id FROM S WHERE x < 10)",
		"SELECT id FROM R WHERE id NOT IN (SELECT id FROM S)",
		"SELECT id FROM R WHERE EXISTS (SELECT * FROM S WHERE S.id = R.id AND x > 5)",
		"SELECT id FROM R WHERE NOT EXISTS (SELECT * FROM S WHERE S.id = R.id)",
		"SELECT a, COUNT(*) FROM R WHERE EXISTS (SELECT * FROM S WHERE S.id = R.id) GROUP BY a ORDER BY a LIMIT 5",
		"SELECT R.id, S.y FROM R, S WHERE R.id = S.id AND a < 20 ORDER BY R.id LIMIT 7",
		"SELECT d FROM R, S WHERE R.id = S.id",
		"SELECT MAX(e) FROM R WHERE a = 17",
		"SELECT id FROM R WHERE a IN (SELECT x FROM S) ORDER BY id DESC LIMIT 3",
		"SELECT COUNT(*) FROM R, S WHERE R.id = S.id AND x = 1",
		"SELECT 1 FROM R LIMIT 1",
	} {
		f.Add(s)
	}
	dbOn := openRS(f, 300)
	dbOff := openRS(f, 300)
	dbOff.Opt.SetRules(0)
	f.Fuzz(func(t *testing.T, text string) {
		stmt, err := sql.Parse(text)
		if err != nil {
			return
		}
		if _, ok := stmt.(*sql.Select); !ok {
			return
		}
		rsOn, _, errOn := dbOn.Exec(text)
		rsOff, _, errOff := dbOff.Exec(text)
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("%q: rules toggle changed errors: on=%v off=%v", text, errOn, errOff)
		}
		if errOn != nil {
			return
		}
		on, off := fmt.Sprint(rsOn.Rows), fmt.Sprint(rsOff.Rows)
		if on != off {
			t.Fatalf("%q: rules toggle changed results:\non:  %s\noff: %s", text, on, off)
		}
	})
}
