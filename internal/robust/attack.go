// Package robust implements the Byzantine fault layer: seeded,
// replayable adversarial attacks injected at the worker-report boundary,
// and robust aggregation rules pluggable at the edge and cloud tiers
// (DESIGN.md §7.5).
//
// The determinism contract matches the rest of the runtime: every attack
// draw is a pure function of (plan seed, node ID, edge round), so a
// worker that crashes and re-sends a boundary report reproduces the same
// attacked bytes, and a run with a fixed seed and plan replays
// bit-identically across processes, pool sizes, and transports.
package robust

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hieradmo/internal/rng"
	"hieradmo/internal/tensor"
)

// Attack kinds. SignFlip negates every component of the report
// (gradient/model poisoning); Scale multiplies it by Param
// (scale-amplification); Noise adds i.i.d. Gaussian noise with standard
// deviation Param; Replay re-sends the node's previous boundary report
// under the current round number (stale-replay).
const (
	SignFlip = "signflip"
	Scale    = "scale"
	Noise    = "noise"
	Replay   = "replay"
)

// Attack is one adversarial behaviour assigned to a node over a window
// of edge rounds (the rounds at which workers report, t/τ, 1-based).
// To == 0 leaves the window open to the end of the run. Param is the
// scale factor for Scale and the noise standard deviation for Noise;
// SignFlip and Replay ignore it.
type Attack struct {
	Node  string
	Kind  string
	From  int
	To    int
	Param float64
}

func (a Attack) active(k int) bool {
	return k >= a.From && (a.To == 0 || k <= a.To)
}

// String renders the attack in the spec syntax accepted by ParsePlan.
func (a Attack) String() string {
	s := fmt.Sprintf("%s:%s@%d", a.Kind, a.Node, a.From)
	if a.To != 0 {
		s += fmt.Sprintf("-%d", a.To)
	}
	switch a.Kind {
	case Scale, Noise:
		s += fmt.Sprintf("=%g", a.Param)
	}
	return s
}

func (a Attack) validate() error {
	switch a.Kind {
	case SignFlip, Replay:
	case Scale:
		// Any factor is a legal attack (0 sends zero updates); only the
		// identity is meaningless.
		if a.Param == 1 {
			return fmt.Errorf("robust: scale attack on %s with factor 1 is a no-op", a.Node)
		}
	case Noise:
		if !(a.Param > 0) {
			return fmt.Errorf("robust: noise attack on %s needs sigma > 0, got %g", a.Node, a.Param)
		}
	default:
		return fmt.Errorf("robust: unknown attack kind %q", a.Kind)
	}
	if a.Node == "" {
		return fmt.Errorf("robust: attack %s has empty node", a.Kind)
	}
	if a.From < 1 {
		return fmt.Errorf("robust: attack %s on %s starts at round %d, want >= 1", a.Kind, a.Node, a.From)
	}
	if a.To != 0 && a.To < a.From {
		return fmt.Errorf("robust: attack %s on %s has window %d-%d, want to >= from", a.Kind, a.Node, a.From, a.To)
	}
	return nil
}

// AttackPlan is a replayable Byzantine scenario: a seed for the noise
// draws plus per-node attack windows. The zero plan attacks nobody.
// Plans compose freely with transport.FaultPlan and membership churn
// plans — attacks mutate report contents, faults and churn decide
// whether and when reports arrive.
type AttackPlan struct {
	Seed    uint64
	Attacks []Attack
}

// Empty reports whether the plan injects no attacks.
func (p *AttackPlan) Empty() bool { return p == nil || len(p.Attacks) == 0 }

// Validate checks every attack entry.
func (p *AttackPlan) Validate() error {
	if p == nil {
		return nil
	}
	for _, a := range p.Attacks {
		if err := a.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Signature is a canonical one-line rendering of the plan, stable under
// reordering of equivalent entries, used in checkpoint fingerprints so
// resuming under a different plan is refused.
func (p *AttackPlan) Signature() string {
	if p.Empty() {
		return fmt.Sprintf("seed=%d none", p.seed())
	}
	parts := make([]string, len(p.Attacks))
	for i, a := range p.Attacks {
		parts[i] = a.String()
	}
	sort.Strings(parts)
	return fmt.Sprintf("seed=%d %s", p.seed(), strings.Join(parts, ","))
}

func (p *AttackPlan) seed() uint64 {
	if p == nil {
		return 0
	}
	return p.Seed
}

// Attacker returns the per-node attack executor for node, or nil when
// the plan never touches it. nvec and dim size the replay stash and the
// mutation scratch (the worker boundary reports nvec vectors of dim
// components each).
func (p *AttackPlan) Attacker(node string, nvec, dim int) *Attacker {
	if p.Empty() {
		return nil
	}
	var mine []Attack
	for _, a := range p.Attacks {
		if a.Node == node {
			mine = append(mine, a)
		}
	}
	if len(mine) == 0 {
		return nil
	}
	// Earliest window wins when windows overlap; ties broken by kind so
	// the choice never depends on plan-entry order.
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].From != mine[j].From {
			return mine[i].From < mine[j].From
		}
		return mine[i].Kind < mine[j].Kind
	})
	att := &Attacker{
		node:    node,
		seed:    p.Seed,
		nodeTag: fnvHash(node),
		attacks: mine,
		prev:    make([]tensor.Vector, nvec),
		out:     make([]tensor.Vector, nvec),
	}
	for c := range att.prev {
		att.prev[c] = tensor.NewVector(dim)
		att.out[c] = tensor.NewVector(dim)
	}
	return att
}

// Nodes returns the sorted set of node IDs the plan attacks.
func (p *AttackPlan) Nodes() []string {
	if p.Empty() {
		return nil
	}
	seen := make(map[string]bool, len(p.Attacks))
	var ids []string
	for _, a := range p.Attacks {
		if !seen[a.Node] {
			seen[a.Node] = true
			ids = append(ids, a.Node)
		}
	}
	sort.Strings(ids)
	return ids
}

// fnvHash is FNV-1a over the node ID, the same per-node label derivation
// transport.FaultyNetwork uses for link RNGs.
func fnvHash(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Attacker mutates one node's boundary reports according to its plan
// entries. It is owned by a single worker goroutine and is not safe for
// concurrent use. The replay stash (the previous round's honest report)
// is the only mutable state; it is exposed via PrevVectors/PrevRoundPtr
// so the worker checkpoint can register it, keeping resumed runs
// bit-identical.
type Attacker struct {
	node      string
	seed      uint64
	nodeTag   uint64
	attacks   []Attack
	prev      []tensor.Vector
	prevRound int
	out       []tensor.Vector
}

// Node returns the node ID this attacker is bound to.
func (a *Attacker) Node() string { return a.node }

// PrevVectors exposes the replay stash for checkpoint registration.
func (a *Attacker) PrevVectors() []tensor.Vector { return a.prev }

// PrevRoundPtr exposes the stash round (0 = empty) for checkpoint
// registration.
func (a *Attacker) PrevRoundPtr() *int { return &a.prevRound }

// Apply mutates the honest boundary report vecs for edge round k
// (1-based) and returns the vectors to send, the attack kind applied,
// and whether an attack was injected. The returned slice aliases either
// vecs (no attack) or the attacker's internal scratch (valid until the
// next Apply); callers must not retain it across rounds.
//
// Apply is idempotent per round given the same stash: the noise draw is
// derived from (seed, node, k) alone, and the stash is only advanced to
// round k, so a worker that re-sends round k's report after a crash
// produces identical bytes.
func (a *Attacker) Apply(k int, vecs []tensor.Vector) ([]tensor.Vector, string, bool, error) {
	var act *Attack
	for i := range a.attacks {
		if a.attacks[i].active(k) {
			act = &a.attacks[i]
			break
		}
	}
	if act == nil {
		return vecs, "", false, a.stash(k, vecs)
	}
	switch act.Kind {
	case SignFlip:
		for c, v := range vecs {
			if err := a.out[c].CopyFrom(v); err != nil {
				return nil, "", false, err
			}
			a.out[c].Scale(-1)
		}
	case Scale:
		for c, v := range vecs {
			if err := a.out[c].CopyFrom(v); err != nil {
				return nil, "", false, err
			}
			a.out[c].Scale(act.Param)
		}
	case Noise:
		// One RNG per (seed, node, round), consumed in fixed
		// component-then-index order: the draw is independent of any
		// other randomness in the run and replays exactly.
		r := rng.New(a.seed).Split(a.nodeTag).Split(uint64(k))
		for c, v := range vecs {
			out := a.out[c]
			if err := out.CopyFrom(v); err != nil {
				return nil, "", false, err
			}
			for d := range out {
				out[d] += r.NormMeanStd(0, act.Param)
			}
		}
	case Replay:
		if a.prevRound == 0 {
			// Nothing stashed yet: the first boundary has no past to
			// replay, so the report goes out honest and uncounted.
			return vecs, "", false, a.stash(k, vecs)
		}
		for c := range vecs {
			if err := a.out[c].CopyFrom(a.prev[c]); err != nil {
				return nil, "", false, err
			}
		}
	}
	if err := a.stash(k, vecs); err != nil {
		return nil, "", false, err
	}
	return a.out, act.Kind, true, nil
}

func (a *Attacker) stash(k int, vecs []tensor.Vector) error {
	for c, v := range vecs {
		if err := a.prev[c].CopyFrom(v); err != nil {
			return err
		}
	}
	a.prevRound = k
	return nil
}

// ParsePlan parses a comma-separated attack spec into a plan seeded with
// seed. Each entry is kind:node@from[-to][=param], e.g.
//
//	signflip:worker-0-1@3
//	scale:worker-1-0@2-6=10
//	noise:worker-0-0@1=0.5
//	replay:worker-1-1@4-4
//
// Windows are edge rounds (1-based); omitting -to leaves the window open.
// Omitted params default to 10 for scale and 0.1 for noise. An empty
// spec returns nil (no plan).
func ParsePlan(spec string, seed uint64) (*AttackPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	plan := &AttackPlan{Seed: seed}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		a, err := parseAttack(entry)
		if err != nil {
			return nil, err
		}
		plan.Attacks = append(plan.Attacks, a)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

func parseAttack(entry string) (Attack, error) {
	var a Attack
	kind, rest, ok := strings.Cut(entry, ":")
	if !ok {
		return a, fmt.Errorf("robust: attack entry %q: want kind:node@from[-to][=param]", entry)
	}
	a.Kind = kind
	if body, param, ok := strings.Cut(rest, "="); ok {
		p, err := strconv.ParseFloat(param, 64)
		if err != nil {
			return a, fmt.Errorf("robust: attack entry %q: bad param: %v", entry, err)
		}
		a.Param = p
		rest = body
	} else {
		switch kind {
		case Scale:
			a.Param = 10
		case Noise:
			a.Param = 0.1
		}
	}
	node, window, ok := strings.Cut(rest, "@")
	if !ok {
		return a, fmt.Errorf("robust: attack entry %q: missing @round window", entry)
	}
	a.Node = node
	from, to, ranged := strings.Cut(window, "-")
	f, err := strconv.Atoi(from)
	if err != nil {
		return a, fmt.Errorf("robust: attack entry %q: bad from round: %v", entry, err)
	}
	a.From = f
	if ranged {
		t, err := strconv.Atoi(to)
		if err != nil {
			return a, fmt.Errorf("robust: attack entry %q: bad to round: %v", entry, err)
		}
		a.To = t
	}
	return a, nil
}
