package optimizer

import "fmt"

// Rules is the bitset of cost-based rewrite rules the optimizer may
// apply. Every rule is result-preserving by construction: toggling a
// rule changes plan shape and cost, never the rows a statement returns
// (engine's TestEachRuleAloneLowersCost and FuzzRewrite and the
// differential suite enforce this).
// The bitset participates in the plan-cache key so a toggle can never
// serve a stale plan.
type Rules uint32

// Rule bits, in canonical order. RulesApplied provenance follows this
// order.
const (
	// RuleUnnest flattens IN (SELECT ...) / EXISTS (SELECT ...) into
	// hash semi-joins with an index-aware inner access path.
	RuleUnnest Rules = 1 << iota
	// RuleTopN replaces Sort+Limit with a bounded-heap TopN operator and
	// pushes bare LIMITs into the access path as a stop row count.
	RuleTopN
	// RuleMinMax answers MIN/MAX aggregates with single index-endpoint
	// seeks when a matching index exists, and surfaces an endpoint
	// access-path request the tuner can bid on even when none does.
	RuleMinMax
	// RulePrune inserts narrowing projections below joins so only
	// referenced columns are materialized through join inputs.
	RulePrune
	// RuleJoinDP runs an exhaustive bushy join-order DP over small join
	// graphs where greedy left-deep enumeration is provably safe to beat.
	RuleJoinDP

	ruleEnd
)

// DefaultRules enables every rule.
const DefaultRules = ruleEnd - 1

// ruleNames holds each rule's canonical name (EXPLAIN provenance), in
// bit order.
var ruleNames = []string{"subquery-unnest", "topn-pushdown", "minmax-endpoint", "column-prune", "join-dp"}

// Has reports whether the bit is set.
func (r Rules) Has(bit Rules) bool { return r&bit != 0 }

// appliedNames returns the canonical names present in the applied set,
// in canonical bit order.
func appliedNames(applied map[string]bool) []string {
	var out []string
	for _, name := range ruleNames {
		if applied[name] {
			out = append(out, name)
		}
	}
	return out
}

// ParseRules parses engine.Config's Rules value: "all" (also the empty
// string) or "none". Subsets are set as bits through Optimizer.SetRules.
func ParseRules(s string) (Rules, error) {
	switch s {
	case "", "all":
		return DefaultRules, nil
	case "none":
		return 0, nil
	}
	return 0, fmt.Errorf("optimizer: unknown rule set %q (want all|none)", s)
}
