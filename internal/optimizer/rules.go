package optimizer

import (
	"fmt"
	"strings"
)

// Rules is the bitset of cost-based rewrite rules the optimizer may
// apply. Every rule is result-preserving by construction: toggling a
// rule changes plan shape and cost, never the rows a statement returns
// (engine's TestEachRuleAloneLowersCost and FuzzRewrite and the
// differential suite enforce this).
// The bitset participates in the plan-cache key so a toggle can never
// serve a stale plan.
type Rules uint32

// Rule bits, in canonical order. RulesApplied provenance and ParseRules
// names follow this order.
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

// ruleNames maps each bit to its canonical name (EXPLAIN provenance,
// ParseRules spelling).
var ruleNames = []struct {
	bit  Rules
	name string
}{
	{RuleUnnest, "subquery-unnest"},
	{RuleTopN, "topn-pushdown"},
	{RuleMinMax, "minmax-endpoint"},
	{RulePrune, "column-prune"},
	{RuleJoinDP, "join-dp"},
}

// shortNames are the flag spellings accepted by ParseRules.
var shortNames = map[string]Rules{
	"unnest": RuleUnnest,
	"topn":   RuleTopN,
	"minmax": RuleMinMax,
	"prune":  RulePrune,
	"joindp": RuleJoinDP,
}

// Has reports whether the bit is set.
func (r Rules) Has(bit Rules) bool { return r&bit != 0 }

// String renders the set as a comma list of short names, or "all"/"none".
func (r Rules) String() string {
	if r == DefaultRules {
		return "all"
	}
	if r == 0 {
		return "none"
	}
	var parts []string
	for _, rn := range ruleNames {
		if r.Has(rn.bit) {
			for short, bit := range shortNames {
				if bit == rn.bit {
					parts = append(parts, short)
				}
			}
		}
	}
	return strings.Join(parts, ",")
}

// Names returns the canonical names of the enabled rules in bit order.
func (r Rules) Names() []string {
	var out []string
	for _, rn := range ruleNames {
		if r.Has(rn.bit) {
			out = append(out, rn.name)
		}
	}
	return out
}

// appliedNames returns the canonical names present in the applied set,
// in canonical bit order.
func appliedNames(applied map[string]bool) []string {
	var out []string
	for _, rn := range ruleNames {
		if applied[rn.name] {
			out = append(out, rn.name)
		}
	}
	return out
}

// ParseRules parses a -rules flag value: "all", "none", or a comma list
// of short names (unnest,topn,minmax,prune,joindp) or canonical names.
// The empty string means "all" (rules on is the default).
func ParseRules(s string) (Rules, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "all", "default":
		return DefaultRules, nil
	case "none", "off":
		return 0, nil
	}
	var r Rules
	for _, part := range strings.Split(s, ",") {
		part = strings.ToLower(strings.TrimSpace(part))
		if part == "" {
			continue
		}
		if bit, ok := shortNames[part]; ok {
			r |= bit
			continue
		}
		found := false
		for _, rn := range ruleNames {
			if rn.name == part {
				r |= rn.bit
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("optimizer: unknown rule %q (want all, none, or a comma list of unnest,topn,minmax,prune,joindp)", part)
		}
	}
	return r, nil
}
