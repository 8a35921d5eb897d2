package baseline

import (
	"fmt"

	"hieradmo/internal/core"
	"hieradmo/internal/tensor"
)

// This file holds the server and worker rules that are not Algorithm 1, one
// hook constructor per rule family. Each keeps its persistent vectors in a
// state struct registered with the run's snapshots; scratch stays local to
// the constructor. Vector arithmetic in this package lives here only.

// cflEdgeMix is κ, the share of the fresh worker average CFL blends into an
// edge model.
const cflEdgeMix = 0.9

// cflState is each edge's model as of its last aggregation or cloud sync.
type cflState struct{ edgeX []tensor.Vector }

// cflHooks is CFL's partial edge aggregation
// x_edge ← (1−κ)·x_edge + κ·avg(workers): the kernel has averaged, the hook
// mixes the average into the edge's previous model.
func cflHooks(b *core.Binding) core.Hooks {
	s := cflState{edgeX: make([]tensor.Vector, b.Parents)}
	for l := range s.edgeX {
		s.edgeX[l] = b.NewVec()
		copy(s.edgeX[l], b.X0)
		b.Ck.Vector(fmt.Sprintf("cfl/edgeX/%d", l), s.edgeX[l])
	}
	return core.Hooks{After: func(k, n int, t *core.Tier, _ []float64) error {
		if k > 0 {
			// A cloud sync replaces every edge model.
			for _, x := range s.edgeX {
				if err := x.CopyFrom(t.XPlus); err != nil {
					return err
				}
			}
			return nil
		}
		if err := tensor.Lerp(s.edgeX[n], s.edgeX[n], t.XPlus, cflEdgeMix); err != nil {
			return err
		}
		return t.XPlus.CopyFrom(s.edgeX[n])
	}}
}

// serverMomState is the server model and its heavy-ball momentum, plus
// SlowMo's per-worker Polyak momentum.
type serverMomState struct {
	server, mom tensor.Vector
	v           []tensor.Vector
}

// serverMomentumHooks is the shared rule of FedMom and SlowMo: the server
// applies heavy-ball momentum to the aggregated round update,
//
//	Δ = x_server − avg_i(x_i),  m ← γℓ·m + Δ,  x_server ← x_server − m,
//
// and with polyak the workers keep a local momentum, v ← γ·v − η·g, x ← x + v.
func serverMomentumHooks(polyak bool) func(*core.Binding) core.Hooks {
	return func(b *core.Binding) core.Hooks {
		cfg := b.Cfg
		s := serverMomState{server: b.NewVec(), mom: b.NewVec()}
		copy(s.server, b.X0)
		b.Ck.Vector("servermom/server", s.server)
		b.Ck.Vector("servermom/mom", s.mom)
		h := core.Hooks{After: func(_, _ int, t *core.Tier, _ []float64) error {
			s.mom.Scale(cfg.GammaEdge)
			if err := s.mom.Add(s.server); err != nil {
				return err
			}
			if err := s.mom.Sub(t.XPlus); err != nil {
				return err
			}
			if err := s.server.Sub(s.mom); err != nil {
				return err
			}
			return t.XPlus.CopyFrom(s.server)
		}}
		if polyak {
			s.v = make([]tensor.Vector, b.Leaves)
			for j := range s.v {
				s.v[j] = b.NewVec()
				b.Ck.Vector(fmt.Sprintf("servermom/v/%d", j), s.v[j])
			}
			h.Step = func(j int, l *core.Leaf) error {
				s.v[j].Scale(cfg.Gamma)
				if err := s.v[j].AXPY(-cfg.Eta, l.Grad); err != nil {
					return err
				}
				return l.X.Add(s.v[j])
			}
		}
		return h
	}
}

// mimeState is Mime's global momentum, frozen during a round.
type mimeState struct{ mom tensor.Vector }

// mimeHooks is MimeLite: every worker steps with the frozen global momentum,
//
//	x ← x − η·((1−γ)·g + γ·m),
//
// and after each round the server refreshes m from the average of the
// workers' mean interval gradients (the kernel leaf's GradSum, which the
// round's redistribution restarts): m ← (1−γ)·ḡ + γ·m.
func mimeHooks(b *core.Binding) core.Hooks {
	cfg := b.Cfg
	s := mimeState{mom: b.NewVec()}
	b.Ck.Vector("mime/mom", s.mom)
	avgGrad := b.NewVec()
	period := cfg.Tau * cfg.Pi
	return core.Hooks{
		Step: func(_ int, l *core.Leaf) error {
			if err := l.GradSum.Add(l.Grad); err != nil {
				return err
			}
			if err := l.X.AXPY(-cfg.Eta*(1-cfg.Gamma), l.Grad); err != nil {
				return err
			}
			return l.X.AXPY(-cfg.Eta*cfg.Gamma, s.mom)
		},
		After: func(_, _ int, t *core.Tier, weights []float64) error {
			if err := tensor.WeightedSum(avgGrad, weights, t.GradSum); err != nil {
				return err
			}
			avgGrad.Scale(1 / float64(period))
			s.mom.Scale(cfg.Gamma)
			return s.mom.AXPY(1-cfg.Gamma, avgGrad)
		},
	}
}

// fedADCState is the previous server model and the pseudo-gradient momentum.
type fedADCState struct{ server, mom tensor.Vector }

// fedADCHooks is FedADC's drift control: the workers mix the server momentum
// into every local step, and the server updates it from the round's
// pseudo-gradient,
//
//	local:  x ← x − η·(g + γℓ·m)          (m frozen during the round)
//	server: ĝ = (x_server − x̄)/(η·τπ),  m ← γℓ·m + (1−γℓ)·ĝ,  x_server ← x̄.
func fedADCHooks(b *core.Binding) core.Hooks {
	cfg := b.Cfg
	s := fedADCState{server: b.NewVec(), mom: b.NewVec()}
	copy(s.server, b.X0)
	b.Ck.Vector("fedadc/server", s.server)
	b.Ck.Vector("fedadc/mom", s.mom)
	pseudo := b.NewVec()
	period := cfg.Tau * cfg.Pi
	return core.Hooks{
		Step: func(_ int, l *core.Leaf) error {
			if err := l.X.AXPY(-cfg.Eta, l.Grad); err != nil {
				return err
			}
			return l.X.AXPY(-cfg.Eta*cfg.GammaEdge, s.mom)
		},
		After: func(_, _ int, t *core.Tier, _ []float64) error {
			if err := pseudo.CopyFrom(s.server); err != nil {
				return err
			}
			if err := pseudo.Sub(t.XPlus); err != nil {
				return err
			}
			pseudo.Scale(1 / (cfg.Eta * float64(period)))
			s.mom.Scale(cfg.GammaEdge)
			if err := s.mom.AXPY(1-cfg.GammaEdge, pseudo); err != nil {
				return err
			}
			return s.server.CopyFrom(t.XPlus)
		},
	}
}
