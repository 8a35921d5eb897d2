package robust

import (
	"fmt"
	"strconv"
	"strings"
)

// The parameters a bare rule name takes: trimmed is trimmed(0.2) and clip is
// clip(10); cosine is cosine(0).
const (
	defaultTrim = 0.2
	defaultClip = 10
)

// ParseSpec parses one aggregation rule, optionally parameterized: mean |
// median | trimmed[(f)] | clip[(f)] | cosine[(f)]. It is the one grammar of
// a rule, for a topology level's agg= and for each tier of ParseTierSpecs.
func ParseSpec(rule string) (Spec, error) {
	name, rest, hasParam := strings.Cut(rule, "(")
	kind, err := ParseKind(name)
	if err != nil {
		return Spec{}, err
	}
	spec := Spec{Kind: kind}
	var param *float64
	switch kind {
	case Trimmed:
		spec.Trim, param = defaultTrim, &spec.Trim
	case Clip:
		spec.Clip, param = defaultClip, &spec.Clip
	case Cosine:
		param = &spec.CosMin
	}
	if hasParam {
		num, ok := strings.CutSuffix(rest, ")")
		switch {
		case param == nil:
			return Spec{}, fmt.Errorf("robust: rule %q takes no parameter", name)
		case !ok:
			return Spec{}, fmt.Errorf("robust: rule %q: unbalanced parameter parens", rule)
		}
		if *param, err = strconv.ParseFloat(num, 64); err != nil {
			return Spec{}, fmt.Errorf("robust: rule %q: parameter %q is not a float", rule, num)
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// ParseTierSpecs parses the -aggregator flag into per-tier specs. sel is
// either a single rule applied at both tiers ("median", "clip(0.5)") or
// per-tier assignments ("edge=trimmed(0.25),cloud=mean"), each tier named at
// most once; empty means mean everywhere. Every rule is ParseSpec's.
func ParseTierSpecs(sel string) (edge, cloud Spec, err error) {
	sel = strings.TrimSpace(sel)
	if !strings.Contains(sel, "=") {
		if sel == "" {
			return Spec{}, Spec{}, nil
		}
		spec, err := ParseSpec(sel)
		return spec, spec, err
	}
	named := map[string]bool{}
	for _, part := range strings.Split(sel, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		tier, rule, ok := strings.Cut(part, "=")
		if !ok {
			return Spec{}, Spec{}, fmt.Errorf("robust: aggregator entry %q: want tier=rule", part)
		}
		spec, err := ParseSpec(strings.TrimSpace(rule))
		if err != nil {
			return Spec{}, Spec{}, err
		}
		tier = strings.TrimSpace(tier)
		if named[tier] {
			return Spec{}, Spec{}, fmt.Errorf("robust: aggregator tier %q named twice in %q", tier, sel)
		}
		named[tier] = true
		switch tier {
		case "edge":
			edge = spec
		case "cloud":
			cloud = spec
		default:
			return Spec{}, Spec{}, fmt.Errorf("robust: unknown tier %q (want edge or cloud)", tier)
		}
	}
	return edge, cloud, nil
}
