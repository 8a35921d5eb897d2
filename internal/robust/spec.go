package robust

import (
	"fmt"
	"strings"
)

// ParseTierSpecs parses the -aggregator flag into per-tier specs. sel is
// either a single rule name applied at both tiers ("median") or
// per-tier assignments ("edge=median,cloud=mean"), each tier named at
// most once; empty means mean everywhere. trim, clip, and cosMin
// parameterize whichever tiers select the trimmed, clip, or cosine rules.
func ParseTierSpecs(sel string, trim, clip, cosMin float64) (edge, cloud Spec, err error) {
	mk := func(k Kind) Spec { return Spec{Kind: k, Trim: trim, Clip: clip, CosMin: cosMin} }
	sel = strings.TrimSpace(sel)
	if sel == "" {
		sel = "mean"
	}
	if !strings.Contains(sel, "=") {
		k, err := ParseKind(sel)
		if err != nil {
			return Spec{}, Spec{}, err
		}
		edge, cloud = mk(k), mk(k)
	} else {
		edge, cloud = mk(Mean), mk(Mean)
		named := map[string]bool{}
		for _, part := range strings.Split(sel, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			tier, name, ok := strings.Cut(part, "=")
			if !ok {
				return Spec{}, Spec{}, fmt.Errorf("robust: aggregator entry %q: want tier=rule", part)
			}
			k, err := ParseKind(strings.TrimSpace(name))
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
				edge = mk(k)
			case "cloud":
				cloud = mk(k)
			default:
				return Spec{}, Spec{}, fmt.Errorf("robust: unknown tier %q (want edge or cloud)", tier)
			}
		}
	}
	if err := edge.Validate(); err != nil {
		return Spec{}, Spec{}, err
	}
	if err := cloud.Validate(); err != nil {
		return Spec{}, Spec{}, err
	}
	return edge, cloud, nil
}
