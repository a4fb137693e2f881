// Package chaostest soaks the whole stack — engine, executor, storage,
// tuner — under seeded fault schedules and checks the graceful-
// degradation contract end to end:
//
//   - every statement either succeeds or fails with an injected fault
//     (or a context error); nothing else ever surfaces;
//   - every statement that SUCCEEDED under faults returns byte-identical
//     results to a fault-free oracle run of the same statement sequence;
//   - after the soak, the storage layer passes the full consistency
//     check and the tuner's build counters and change log reconcile.
//
// Runs are deterministic per seed. To reproduce a CI failure locally:
//
//	CHAOS_SEEDS=<seed> go test -race -run TestChaosSoak ./internal/fault/chaostest
package chaostest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"onlinetuner/internal/core"
	"onlinetuner/internal/datum"
	"onlinetuner/internal/engine"
	"onlinetuner/internal/executor"
	"onlinetuner/internal/fault"
	"onlinetuner/internal/tpch"
)

const chaosScale = tpch.Scale(0.15)

// chaosSeeds returns the seed matrix: CHAOS_SEEDS (comma-separated)
// when set, else seeds 1..8; -short trims the default to two.
func chaosSeeds(t *testing.T) []uint64 {
	if env := os.Getenv("CHAOS_SEEDS"); env != "" {
		var out []uint64
		for _, part := range strings.Split(env, ",") {
			n, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				t.Fatalf("CHAOS_SEEDS: %v", err)
			}
			out = append(out, n)
		}
		return out
	}
	n := 8
	if testing.Short() {
		n = 2
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

// chaosInjector is the standard fault schedule, seeded. Probabilities
// are tuned so most statements succeed (degradation, not collapse) while
// every site fires over a ~200-statement script.
func chaosInjector(seed uint64) *fault.Injector {
	return fault.New(seed).
		Plan(fault.PageRead, fault.Rule{Prob: 0.01}).
		Plan(fault.PageWrite, fault.Rule{Prob: 0.02}).
		Plan(fault.PageAlloc, fault.Rule{Prob: 0.002}).
		Plan(fault.BTreeSplit, fault.Rule{Prob: 0.05}).
		Plan(fault.BuildStep, fault.Rule{Prob: 0.0005}).
		Plan(fault.BuildFinish, fault.Rule{Prob: 0.02}).
		Plan(fault.ExecStmt, fault.Rule{Prob: 0.05, Transient: true})
}

// chaosScript derives the statement sequence from a generator that has
// already loaded the database, so refresh keys continue from the data.
func chaosScript(g *tpch.Generator) []string {
	var out []string
	for round := 0; round < 3; round++ {
		out = append(out, g.Batch()...)
		out = append(out, g.RefreshInsert(2)...)
		out = append(out, g.DisruptiveUpdates(4)...)
		out = append(out, g.RefreshDelete(1)...)
	}
	return out
}

func isQuery(stmt string) bool {
	return strings.HasPrefix(strings.ToUpper(strings.TrimSpace(stmt)), "SELECT")
}

// fingerprint canonicalizes a result set: rendered rows, sorted, with
// float aggregates rounded to 9 significant digits so plan-dependent
// accumulation order does not read as divergence.
func fingerprint(rs *executor.ResultSet) string {
	lines := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			if d.Kind() == datum.KFloat {
				parts[j] = fmt.Sprintf("%.9g", d.Float())
			} else {
				parts[j] = d.String()
			}
		}
		lines[i] = strings.Join(parts, "|")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// execWorkers reads the EXEC_WORKERS matrix dimension (CI runs the
// chaos job at 1 and 4). Morsel execution is byte-identical at every
// setting, so the oracle comparison holds unchanged; what the parallel
// runs add is coverage of keyed fault draws and morsel scheduling under
// the same seeds.
func execWorkers(t *testing.T) int {
	env := os.Getenv("EXEC_WORKERS")
	if env == "" {
		return 1
	}
	n, err := strconv.Atoi(strings.TrimSpace(env))
	if err != nil {
		t.Fatalf("EXEC_WORKERS: %v", err)
	}
	return n
}

func loadChaosDB(t *testing.T, seed uint64) (*engine.DB, *tpch.Generator) {
	t.Helper()
	db := engine.OpenConfig(engine.Config{ExecWorkers: execWorkers(t)})
	g := tpch.NewGenerator(chaosScale, int64(seed))
	if err := g.Load(db); err != nil {
		t.Fatal(err)
	}
	return db, g
}

// writeArtifact saves a reproduction note for a failing seed when
// CHAOS_ARTIFACT_DIR is set (the CI chaos job uploads that directory).
func writeArtifact(t *testing.T, seed uint64, detail string) {
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	body := fmt.Sprintf("seed: %d\nreproduce:\n  CHAOS_SEEDS=%d go test -race -run TestChaosSoak ./internal/fault/chaostest\n\n%s\n",
		seed, seed, detail)
	path := filepath.Join(dir, fmt.Sprintf("chaos-seed-%d.txt", seed))
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Logf("artifact write: %v", err)
	}
}

// TestChaosSoak is the seed-matrix soak: a TPC-H-style workload with
// tuner-driven DDL churn under the standard fault schedule, validated
// against a fault-free oracle.
func TestChaosSoak(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer func() {
				if t.Failed() {
					writeArtifact(t, seed, "TestChaosSoak failed; see -v output for details")
				}
			}()
			runChaosSeed(t, seed)
		})
	}
}

func runChaosSeed(t *testing.T, seed uint64) {
	// ---- Faulty run: tuner attached, faults armed after the load. ----
	db, g := loadChaosDB(t, seed)
	opts := core.DefaultOptions()
	opts.Async = true
	opts.UseSuspend = seed%2 == 0 // alternate DDL style across the matrix
	opts.CooldownQueries = 2
	tn := core.Attach(db, opts)
	db.SetRetryBackoff(time.Microsecond)
	script := chaosScript(g)

	inj := chaosInjector(seed)
	db.SetFaults(inj)
	inj.Arm()

	type queryResult struct {
		idx int
		fp  string
	}
	var succeededIdx []int
	var queryResults []queryResult
	failed := 0
	for i, stmt := range script {
		rs, _, err := db.Exec(stmt)
		if err != nil {
			if !fault.Is(err) {
				t.Fatalf("seed %d stmt %d: non-fault error %v\n%s", seed, i, err, stmt)
			}
			failed++
			continue
		}
		succeededIdx = append(succeededIdx, i)
		if isQuery(stmt) {
			queryResults = append(queryResults, queryResult{idx: i, fp: fingerprint(rs)})
		}
	}
	inj.Disarm()

	if inj.FiredTotal() == 0 {
		t.Fatalf("seed %d: no faults fired; the soak tested nothing", seed)
	}
	if failed > len(script)/2 {
		t.Fatalf("seed %d: %d/%d statements failed; degradation collapsed into unavailability", seed, failed, len(script))
	}

	// Engine still serves after the faults clear.
	if _, err := db.Query("SELECT COUNT(*) FROM lineitem"); err != nil {
		t.Fatalf("seed %d: engine not serving after soak: %v", seed, err)
	}

	// ---- Storage consistency and tuner bookkeeping reconciliation. ----
	if err := db.Mgr.CheckConsistency(); err != nil {
		t.Fatalf("seed %d: post-soak consistency: %v", seed, err)
	}
	m := tn.Metrics()
	resolved := m.BuildsCompleted + m.BuildsAborted + m.BuildsFailed
	if m.BuildsStarted < resolved || m.BuildsStarted > resolved+1 {
		t.Errorf("seed %d: build counters do not reconcile: started=%d completed=%d aborted=%d failed=%d (at most one may be pending)",
			seed, m.BuildsStarted, m.BuildsCompleted, m.BuildsAborted, m.BuildsFailed)
	}
	// The change log must tell the same story as the build counters:
	// every published build is a create or restart record, every
	// cancelled one an abort, every errored one a build-failed.
	var published, aborted, buildFailed int64
	for _, ev := range tn.Events() {
		switch ev.Kind {
		case core.EvCreate, core.EvRestart:
			published++
		case core.EvAbort:
			aborted++
		case core.EvFail:
			buildFailed++
		}
	}
	if published != m.BuildsCompleted || aborted != m.BuildsAborted || buildFailed != m.BuildsFailed {
		t.Errorf("seed %d: log holds %d published / %d aborted / %d failed builds, counters say %d / %d / %d",
			seed, published, aborted, buildFailed, m.BuildsCompleted, m.BuildsAborted, m.BuildsFailed)
	}
	tn.Close()

	// ---- Oracle: identical data, no faults, no tuner; replay exactly
	// the statements that succeeded under faults. ----
	oracle, _ := loadChaosDB(t, seed)
	oracleFPs := map[int]string{}
	qi := 0
	for _, idx := range succeededIdx {
		stmt := script[idx]
		rs, _, err := oracle.Exec(stmt)
		if err != nil {
			t.Fatalf("seed %d: oracle failed on stmt %d: %v\n%s", seed, idx, err, stmt)
		}
		if isQuery(stmt) {
			oracleFPs[idx] = fingerprint(rs)
			qi++
		}
	}
	if qi == 0 {
		t.Fatalf("seed %d: no successful queries to compare", seed)
	}
	for _, qr := range queryResults {
		if qr.fp != oracleFPs[qr.idx] {
			t.Errorf("seed %d: stmt %d results diverged from oracle:\n%s", seed, qr.idx, script[qr.idx])
			writeArtifact(t, seed, fmt.Sprintf("diverged statement %d:\n%s\n\nfaulty run:\n%s\n\noracle:\n%s",
				qr.idx, script[qr.idx], qr.fp, oracleFPs[qr.idx]))
		}
	}
	// Heap row counts agree exactly: failed DML changed nothing.
	for _, table := range []string{"orders", "lineitem"} {
		if a, b := db.Mgr.Heap(table).Len(), oracle.Mgr.Heap(table).Len(); a != b {
			t.Errorf("seed %d: %s rows diverged: faulty=%d oracle=%d", seed, table, a, b)
		}
	}
}

// TestChaosConcurrentSmoke drives concurrent statements under faults
// with the tuner running; results are not compared (interleaving is
// nondeterministic) — the assertions are race-freedom (-race), error
// discipline, and post-run consistency.
func TestChaosConcurrentSmoke(t *testing.T) {
	db, g := loadChaosDB(t, 42)
	opts := core.DefaultOptions()
	opts.Async = true
	opts.CooldownQueries = 2
	tn := core.Attach(db, opts)
	db.SetRetryBackoff(time.Microsecond)
	script := chaosScript(g)

	inj := chaosInjector(42)
	db.SetFaults(inj)
	inj.Arm()

	const workers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(script); i += workers {
				if _, _, err := db.Exec(script[i]); err != nil && !fault.Is(err) {
					select {
					case errCh <- fmt.Errorf("stmt %d: %w", i, err):
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	inj.Disarm()
	tn.Close()
	if err := db.Mgr.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT COUNT(*) FROM orders"); err != nil {
		t.Fatalf("engine not serving after concurrent soak: %v", err)
	}
}
