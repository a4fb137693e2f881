package bench

import (
	"fmt"
	"strings"

	"onlinetuner/internal/core"
	"onlinetuner/internal/tuner"
	"onlinetuner/internal/workload"
)

// AblationRow is one tuner variant's outcome on a workload.
type AblationRow struct {
	Variant  string
	Total    float64
	Changes  int
	Workload string
}

// ablationVariants are the design choices DESIGN.md calls out, each
// toggled off (or re-tuned) independently against the paper-default
// configuration.
func ablationVariants() []struct {
	name string
	opts core.Options
} {
	def := core.DefaultOptions()
	noMerge := def
	noMerge.MergeEvery = 0
	noDamp := def
	noDamp.DisableDamping = true
	noCool := def
	noCool.CooldownQueries = -1
	throttled := def
	throttled.ThrottleEvery = 10
	asyncOpt := def
	asyncOpt.Async = true
	suspend := def
	suspend.UseSuspend = true
	return []struct {
		name string
		opts core.Options
	}{
		{"default", def},
		{"no-merging", noMerge},
		{"no-damping", noDamp},
		{"no-cooldown", noCool},
		{"throttle-10", throttled},
		{"async-builds", asyncOpt},
		{"suspend-mode", suspend},
	}
}

// Ablation runs every tuner variant over the given workloads and reports
// total cost and physical-change counts.
func Ablation(workloads []*workload.Workload) ([]AblationRow, error) {
	var rows []AblationRow
	for _, w := range workloads {
		for _, v := range ablationVariants() {
			r, err := Replay(w, tuner.NewOnlinePT(v.opts))
			if err != nil {
				return nil, fmt.Errorf("ablation %s on %s: %w", v.name, w.Name, err)
			}
			rows = append(rows, AblationRow{
				Variant:  v.name,
				Total:    r.Total,
				Changes:  len(r.Events),
				Workload: w.Name,
			})
		}
	}
	return rows, nil
}

// FormatAblation renders the ablation table grouped by workload.
func FormatAblation(rows []AblationRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation: OnlinePT design choices toggled independently\n")
	last := ""
	for _, r := range rows {
		if r.Workload != last {
			fmt.Fprintf(&sb, "%s\n", r.Workload)
			last = r.Workload
		}
		fmt.Fprintf(&sb, "  %-18s total=%12.2f  physical changes=%d\n", r.Variant, r.Total, r.Changes)
	}
	return sb.String()
}

// AblationWorkloads is the default ablation suite: the oscillation-prone
// interleaved W2, the update-phased W3, and a short TPC-H run.
func AblationWorkloads(o workload.TPCHOptions) []*workload.Workload {
	o.NumBatches = min(o.NumBatches, 20)
	return []*workload.Workload{
		workload.W2(workload.BudgetOne4Col, "one-index budget"),
		workload.W2(workload.BudgetMerged, "merged-index budget"),
		workload.W3(),
		workload.TPCH(o),
	}
}
