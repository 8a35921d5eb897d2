// Package topology describes an N-tier aggregation tree for the cluster
// runtime: a chain of named levels from the root aggregator down to the
// training leaves, each with its own synchronization period τℓ, aggregation
// rule, and momentum configuration.
//
// The text form is root-first, slash-separated:
//
//	cloud:tau=20/region:tau=5,agg=median/edge:tau=1/worker*8
//
// Each level is `name[*fanout][:attr,...]`. Fanout is the number of nodes
// per parent (default 1; the root is always a single node and takes no
// fanout). Aggregating levels (all but the last) require `tau=<iterations>`;
// the last level is the training tier and always runs with an implicit τ of
// one iteration. Remaining attributes: `agg=<rule>` selects the level's
// robust aggregation rule (mean|median|trimmed(f)|clip(f)|cosine(f)),
// `gamma=<float>` sets a fixed momentum factor γℓ, `adapt=<bool>` toggles
// the adaptive-γℓ rule — the latter two only at the leaf-parent level, the
// only tier that receives the gradient and momentum accumulators the
// adaptation signals need — and `part=<f>`, f in (0, 1], samples that
// fraction of every leaf parent's children into each of its rounds (leaf
// parents only; Tree.WithParticipation draws the sample).
//
// The canonical String form feeds checkpoint fingerprints, so equal
// topologies must render equally; Parse(t.String()) round-trips exactly.
//
// A Topology is only the parsed spec. Topology.Resolve lays it over a run's
// shards into a Tree, the shape every consumer reads: both execution
// engines, the timing simulation and the divergence estimator.
package topology

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"hieradmo/internal/robust"
)

// Bounds reject pathological specs before any per-node allocation happens
// (the parser is fuzzed: every input must yield a value or a wrapped error
// without an allocation blowup).
const (
	// MaxDepth bounds the number of levels, training tier included.
	MaxDepth = 8
	// MaxFanout bounds any single level's per-parent fanout.
	MaxFanout = 4096
	// MaxNodes bounds the total node count of the whole tree.
	MaxNodes = 65536
	// maxNameLen bounds a level name.
	maxNameLen = 16
)

// Typed parse/validation errors, matched by callers with errors.Is.
var (
	// ErrSyntax is a malformed spec string.
	ErrSyntax = errors.New("topology: syntax error")
	// ErrBounds is a structurally valid spec exceeding MaxDepth, MaxFanout,
	// or MaxNodes.
	ErrBounds = errors.New("topology: bounds exceeded")
	// ErrMisaligned is a τℓ tiling violation: every child level's sync
	// period must divide its parent's, so child rounds tile parent periods
	// exactly.
	ErrMisaligned = errors.New("topology: child sync period must tile parent period")
	// ErrAttr is an attribute that is unknown, malformed, or not allowed at
	// its level.
	ErrAttr = errors.New("topology: invalid attribute")
	// ErrFlat is a tree whose flat view (Tree.Flat) would drop part of it:
	// membership epochs, a robust rule below the root, or a γ / adapt /
	// part attribute.
	ErrFlat = errors.New("topology: the tree has no flat view")
)

// Level is one tier of the tree, root first.
type Level struct {
	// Name labels the level; node IDs are "<name>-<index>" (Tree.ID). Lowercase
	// letter followed by lowercase letters or digits, unique per topology.
	Name string
	// Tau is the level's synchronization period in worker iterations: the
	// level aggregates its children every Tau iterations. The last level
	// (the training tier) always has Tau == 1.
	Tau int
	// Fanout is the number of nodes of this level per parent node; the
	// root's is fixed at 1.
	Fanout int
	// Agg is the aggregation rule applied to child reports (zero value =
	// plain weighted mean, the bit-exact undefended path).
	Agg robust.Spec
	// Gamma is the fixed momentum factor γℓ; meaningful only when HasGamma.
	Gamma float64
	// HasGamma records an explicit gamma attribute. Without one the
	// leaf-parent level uses the run config's GammaEdge and every other
	// aggregating level uses 0 (plain averaging).
	HasGamma bool
	// Adapt toggles adaptive γℓ; meaningful only when HasAdapt. Without an
	// explicit attribute the leaf-parent level follows the run options.
	Adapt    bool
	HasAdapt bool
	// Part is the fraction of each node's children sampled into every round
	// of the leaf-parent level, in (0, 1]; 0 when none is set, which is full
	// participation.
	Part float64
}

// Topology is a parsed, validated tree spec: Levels[0] is the root,
// Levels[len-1] the training tier. Where its nodes sit is the resolved
// Tree's to say.
type Topology struct {
	Levels []Level
}

// String renders the canonical text form (root first). It feeds checkpoint
// fingerprints: equal topologies render equally and Parse round-trips it.
func (t *Topology) String() string {
	var b strings.Builder
	for i, lv := range t.Levels {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(lv.Name)
		if lv.Fanout > 1 {
			b.WriteByte('*')
			b.WriteString(strconv.Itoa(lv.Fanout))
		}
		var attrs []string
		if i < len(t.Levels)-1 {
			attrs = append(attrs, "tau="+strconv.Itoa(lv.Tau))
		}
		if lv.Agg.Robust() {
			attrs = append(attrs, "agg="+lv.Agg.String())
		}
		if lv.HasGamma {
			attrs = append(attrs, "gamma="+strconv.FormatFloat(lv.Gamma, 'g', -1, 64))
		}
		if lv.HasAdapt {
			attrs = append(attrs, "adapt="+strconv.FormatBool(lv.Adapt))
		}
		if lv.Part != 0 {
			attrs = append(attrs, "part="+strconv.FormatFloat(lv.Part, 'g', -1, 64))
		}
		if len(attrs) > 0 {
			b.WriteByte(':')
			b.WriteString(strings.Join(attrs, ","))
		}
	}
	return b.String()
}

// Parse builds and validates a Topology from its text form.
func Parse(s string) (*Topology, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("%w: empty spec", ErrSyntax)
	}
	parts := strings.Split(s, "/")
	if len(parts) > MaxDepth {
		return nil, fmt.Errorf("%w: %d levels exceed MaxDepth %d", ErrBounds, len(parts), MaxDepth)
	}
	t := &Topology{Levels: make([]Level, 0, len(parts))}
	for li, part := range parts {
		lv, err := parseLevel(strings.TrimSpace(part), li)
		if err != nil {
			return nil, err
		}
		t.Levels = append(t.Levels, lv)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// parseLevel parses one `name[*fanout][:attr,...]` segment.
func parseLevel(part string, li int) (Level, error) {
	lv := Level{Fanout: 1, Tau: 1}
	head, attrs, hasAttrs := strings.Cut(part, ":")
	name, fan, hasFan := strings.Cut(head, "*")
	if err := checkName(name); err != nil {
		return Level{}, err
	}
	lv.Name = name
	if hasFan {
		if li == 0 {
			return Level{}, fmt.Errorf("%w: root level %q takes no fanout", ErrSyntax, name)
		}
		n, err := strconv.Atoi(fan)
		if err != nil || n < 1 {
			return Level{}, fmt.Errorf("%w: level %q fanout %q", ErrSyntax, name, fan)
		}
		if n > MaxFanout {
			return Level{}, fmt.Errorf("%w: level %q fanout %d exceeds MaxFanout %d",
				ErrBounds, name, n, MaxFanout)
		}
		lv.Fanout = n
	}
	if !hasAttrs {
		return lv, nil
	}
	seen := map[string]bool{}
	for _, attr := range strings.Split(attrs, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(attr), "=")
		if !ok || val == "" {
			return Level{}, fmt.Errorf("%w: level %q attribute %q: want key=value", ErrAttr, name, attr)
		}
		if seen[key] {
			return Level{}, fmt.Errorf("%w: level %q repeats attribute %q", ErrAttr, name, key)
		}
		seen[key] = true
		switch key {
		case "tau":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Level{}, fmt.Errorf("%w: level %q tau %q: want a positive integer", ErrAttr, name, val)
			}
			lv.Tau = n
		case "agg":
			spec, err := robust.ParseSpec(val)
			if err != nil {
				return Level{}, fmt.Errorf("%w: level %q agg %q: %v", ErrAttr, name, val, err)
			}
			lv.Agg = spec
		case "gamma":
			g, err := strconv.ParseFloat(val, 64)
			if err != nil || g < 0 || g >= 1 {
				return Level{}, fmt.Errorf("%w: level %q gamma %q: want a float in [0, 1)", ErrAttr, name, val)
			}
			lv.Gamma = g
			lv.HasGamma = true
		case "adapt":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return Level{}, fmt.Errorf("%w: level %q adapt %q: want a bool", ErrAttr, name, val)
			}
			lv.Adapt = b
			lv.HasAdapt = true
		case "part":
			f, err := strconv.ParseFloat(val, 64)
			if err == nil {
				err = checkPart(f)
			}
			if err != nil {
				return Level{}, fmt.Errorf("%w: level %q part %q: want a fraction in (0, 1]", ErrAttr, name, val)
			}
			lv.Part = f
		default:
			return Level{}, fmt.Errorf("%w: level %q has unknown attribute %q", ErrAttr, name, key)
		}
	}
	return lv, nil
}

// checkName vets a level name: a lowercase letter followed by lowercase
// letters or digits. No dashes: a node ID joins the name and the node's
// index with one (Tree.ID).
func checkName(name string) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("%w: level name %q: want 1..%d characters", ErrSyntax, name, maxNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' {
			continue
		}
		if i > 0 && c >= '0' && c <= '9' {
			continue
		}
		return fmt.Errorf("%w: level name %q: want a lowercase letter followed by lowercase letters or digits", ErrSyntax, name)
	}
	return nil
}

// Validate checks a topology's structure: at least two levels (one
// aggregator over the training tier), unique names, the τℓ tiling rule, the
// leaf-parent-only momentum and participation attributes, and the
// node-count bounds.
func (t *Topology) Validate() error {
	if t == nil || len(t.Levels) < 2 {
		return fmt.Errorf("%w: a topology needs at least two levels (aggregator over training tier)", ErrSyntax)
	}
	if len(t.Levels) > MaxDepth {
		return fmt.Errorf("%w: %d levels exceed MaxDepth %d", ErrBounds, len(t.Levels), MaxDepth)
	}
	names := make(map[string]bool, len(t.Levels))
	for i, lv := range t.Levels {
		if err := checkName(lv.Name); err != nil {
			return err
		}
		if names[lv.Name] {
			return fmt.Errorf("%w: duplicate level name %q", ErrSyntax, lv.Name)
		}
		names[lv.Name] = true
		if lv.Fanout < 1 || (i == 0 && lv.Fanout != 1) {
			return fmt.Errorf("%w: level %q fanout %d", ErrSyntax, lv.Name, lv.Fanout)
		}
		if lv.Fanout > MaxFanout {
			return fmt.Errorf("%w: level %q fanout %d exceeds MaxFanout %d",
				ErrBounds, lv.Name, lv.Fanout, MaxFanout)
		}
		if lv.Tau < 1 {
			return fmt.Errorf("%w: level %q tau %d: want >= 1", ErrAttr, lv.Name, lv.Tau)
		}
	}
	leaf := t.Levels[len(t.Levels)-1]
	if leaf.Tau != 1 {
		return fmt.Errorf("%w: training level %q takes no tau (it is fixed at 1)", ErrAttr, leaf.Name)
	}
	if leaf.Agg.Robust() {
		return fmt.Errorf("%w: training level %q aggregates nothing and takes no agg rule", ErrAttr, leaf.Name)
	}
	if leaf.HasGamma || leaf.HasAdapt {
		return fmt.Errorf("%w: training level %q runs the worker NAG; gamma/adapt belong to aggregating levels", ErrAttr, leaf.Name)
	}
	for i := 1; i < len(t.Levels); i++ {
		parent, child := t.Levels[i-1], t.Levels[i]
		if parent.Tau%child.Tau != 0 || parent.Tau < child.Tau {
			return fmt.Errorf("%w: level %q τ=%d does not tile parent %q τ=%d",
				ErrMisaligned, child.Name, child.Tau, parent.Name, parent.Tau)
		}
	}
	lp := len(t.Levels) - 2
	for i, lv := range t.Levels {
		if i != lp && lv.HasAdapt && lv.Adapt {
			return fmt.Errorf("%w: level %q cannot adapt γ: only the leaf-parent level %q receives the gradient and momentum accumulators",
				ErrAttr, lv.Name, t.Levels[lp].Name)
		}
		if lv.Part == 0 {
			continue
		}
		if i != lp {
			return fmt.Errorf("%w: level %q cannot sample its children: part= belongs to the leaf-parent level %q",
				ErrAttr, lv.Name, t.Levels[lp].Name)
		}
		if err := checkPart(lv.Part); err != nil {
			return fmt.Errorf("level %q: %w", lv.Name, err)
		}
	}
	// Bound the total node count without materializing anything. The width
	// product is checked level by level BEFORE multiplying so it can never
	// overflow (each factor is at most MaxFanout and the running product is
	// capped at MaxNodes).
	total, width := 0, 1
	for i := range t.Levels {
		if i > 0 {
			if width > MaxNodes/t.Levels[i].Fanout {
				return fmt.Errorf("%w: topology exceeds MaxNodes %d", ErrBounds, MaxNodes)
			}
			width *= t.Levels[i].Fanout
		}
		if total+width > MaxNodes {
			return fmt.Errorf("%w: topology exceeds MaxNodes %d", ErrBounds, MaxNodes)
		}
		total += width
	}
	return nil
}
