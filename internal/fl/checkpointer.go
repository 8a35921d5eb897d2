package fl

import (
	"fmt"
	"math"
	"strings"

	"hieradmo/internal/checkpoint"
	"hieradmo/internal/rng"
	"hieradmo/internal/telemetry"
)

// Checkpointer gives a simulation algorithm crash recovery with three calls:
// register the algorithm's persistent state after allocating it, Restore
// once before the training loop (returning the iteration to resume after),
// and MaybeSnapshot at the end of every iteration. A nil *Checkpointer —
// what NewCheckpointer returns when no CheckpointDir is configured — is
// valid and makes every method a no-op, so call sites need no guards.
//
// The harness-owned state every algorithm shares (mini-batch sampler
// positions, per-worker last losses, the recorded curve) is registered
// automatically; the algorithm registers only its own models, momentum
// buffers, and auxiliary RNG streams.
type Checkpointer struct {
	reg   *checkpoint.Registry
	every int
	t     int // total iterations, to skip the redundant final snapshot
	sink  *telemetry.Sink
}

// NewCheckpointer prepares crash recovery for one Run invocation of the
// named algorithm over harness h. The variant string folds run options that
// live outside Config (participation fraction, quantization width) into the
// config fingerprint so a checkpoint never resumes under different options;
// pass "" when the algorithm has none. res is the Result whose curve is
// snapshotted and restored.
func NewCheckpointer(h *Harness, algorithm, variant string, res *Result) (*Checkpointer, error) {
	cfg := h.Cfg()
	if cfg.CheckpointDir == "" {
		return nil, nil
	}
	fingerprint := cfg.Fingerprint(algorithm)
	if variant != "" {
		fingerprint += " " + variant
	}
	mgr, err := checkpoint.NewManager(cfg.CheckpointDir, baseName(algorithm))
	if err != nil {
		return nil, err
	}
	every := cfg.CheckpointEvery
	if every == 0 {
		every = cfg.Tau
	}
	c := &Checkpointer{
		reg:   checkpoint.NewRegistry(mgr, fingerprint),
		every: every,
		t:     cfg.T,
		sink:  h.sink,
	}
	for l := range h.oracles {
		c.reg.Vector(fmt.Sprintf("harness/lastloss/%d", l), h.lastLoss[l])
		for i := range h.oracles[l] {
			c.reg.RNG(fmt.Sprintf("harness/sampler/%d/%d", l, i), h.oracles[l][i].Sampler)
		}
	}
	c.reg.Dynamic("harness/curve",
		func(flat []float64) []float64 {
			for _, p := range res.Curve {
				flat = append(flat, float64(p.Iter), p.TestAcc, p.TrainLoss)
			}
			return flat
		},
		func(flat []float64) error {
			if len(flat)%3 != 0 {
				return fmt.Errorf("curve snapshot has %d values, not a multiple of 3", len(flat))
			}
			res.Curve = res.Curve[:0]
			for j := 0; j < len(flat); j += 3 {
				iter := flat[j]
				if iter != math.Trunc(iter) {
					return fmt.Errorf("curve snapshot iteration %v is not an integer", iter)
				}
				res.Curve = append(res.Curve, Point{Iter: int(iter), TestAcc: flat[j+1], TrainLoss: flat[j+2]})
			}
			return nil
		})
	return c, nil
}

// baseName sanitizes an algorithm name into a snapshot file prefix.
func baseName(algorithm string) string {
	s := strings.ToLower(algorithm)
	s = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, s)
	return "sim-" + s
}

// Vector registers a fixed-size vector (model parameters, momentum,
// accumulators) with the snapshot.
func (c *Checkpointer) Vector(name string, v []float64) {
	if c != nil {
		c.reg.Vector(name, v)
	}
}

// RNG registers an auxiliary random stream (participation sampling,
// stochastic quantization) with the snapshot.
func (c *Checkpointer) RNG(name string, r *rng.RNG) {
	if c != nil {
		c.reg.RNG(name, r)
	}
}

// Int registers an integer counter with the snapshot.
func (c *Checkpointer) Int(name string, p *int) {
	if c != nil {
		c.reg.Int(name, p)
	}
}

// Float registers a scalar with the snapshot.
func (c *Checkpointer) Float(name string, p *float64) {
	if c != nil {
		c.reg.Float(name, p)
	}
}

// Dynamic registers variable-size state through an encode/decode pair; save
// appends the flattened value to dst.
func (c *Checkpointer) Dynamic(name string, save func(dst []float64) []float64, load func([]float64) error) {
	if c != nil {
		c.reg.Dynamic(name, save, load)
	}
}

// Restore loads the newest valid snapshot into the registered state and
// returns the last completed iteration; the training loop resumes at
// startT+1. Without a snapshot (or without checkpointing at all) it returns
// 0: start from scratch.
func (c *Checkpointer) Restore() (startT int, err error) {
	if c == nil {
		return 0, nil
	}
	seq, _, err := c.reg.Restore()
	if err != nil {
		return 0, fmt.Errorf("fl: resume: %w", err)
	}
	if seq > 0 {
		c.sink.M().CheckpointResumes.Inc()
		if c.sink.Tracing() {
			c.sink.Emit("checkpoint_resume", telemetry.Int("t", seq))
		}
	}
	return seq, nil
}

// MaybeSnapshot saves a snapshot when iteration t is on the checkpoint
// period. The final iteration is skipped: the run is about to produce its
// final artifact, and a snapshot there would only be re-restored as a
// completed run.
func (c *Checkpointer) MaybeSnapshot(t int) error {
	if c == nil || t%c.every != 0 || t == c.t {
		return nil
	}
	if err := c.reg.Save(t); err != nil {
		return err
	}
	c.sink.M().CheckpointSaves.Inc()
	if c.sink.Tracing() {
		c.sink.Emit("checkpoint_save", telemetry.Int("t", t))
	}
	return nil
}
