package fl

import (
	"fmt"
	"math"
	"strings"

	"hieradmo/internal/checkpoint"
	"hieradmo/internal/rng"
	"hieradmo/internal/telemetry"
)

// Checkpointer is the one crash-recovery front end of both engines: a
// simulation run and every node of a distributed run register their state
// with one, then Restore (or Clear) once before they start and Save the
// generations their schedule settles. A nil *Checkpointer — what the
// constructors return when no checkpoint directory is configured — is valid
// and makes every method a no-op, so call sites need no guards.
type Checkpointer struct {
	reg  *checkpoint.Registry
	sink *telemetry.Sink
	// node is the cluster node whose snapshots these are, named in the
	// events; empty for a simulation run.
	node string
}

// NewCheckpointer opens the snapshot file family base in dir under
// fingerprint, which a snapshot must match to be restored; nil, nil when dir
// is empty. node names the cluster node in the resume and save events (""
// for a simulation run), which go to sink.
func NewCheckpointer(dir, base, fingerprint, node string, sink *telemetry.Sink) (*Checkpointer, error) {
	if dir == "" {
		return nil, nil
	}
	mgr, err := checkpoint.NewManager(dir, base)
	if err != nil {
		return nil, err
	}
	return &Checkpointer{reg: checkpoint.NewRegistry(mgr, fingerprint), sink: sink, node: node}, nil
}

// Checkpointer prepares crash recovery for one simulation run of the named
// algorithm. The variant string folds run options that live outside Config
// (participation fraction, quantization width) into the config fingerprint
// so a checkpoint never resumes under different options; res is the Result
// whose curve is snapshotted and restored.
//
// The harness-owned state every algorithm shares (mini-batch sampler
// positions, per-worker last losses, the recorded curve) is registered here;
// the algorithm registers only its own models, momentum buffers, and
// auxiliary RNG streams.
func (h *Harness) Checkpointer(algorithm, variant string, res *Result) (*Checkpointer, error) {
	if h.cfg.CheckpointDir == "" {
		return nil, nil
	}
	c, err := NewCheckpointer(h.cfg.CheckpointDir, baseName(algorithm), h.cfg.Fingerprint(algorithm)+" "+variant, "", h.sink)
	if err != nil {
		return nil, err
	}
	// Leaf state is named by natal coordinates: the losses of each leaf
	// parent's children are one vector, and every sampler is keyed (parent,
	// position).
	for p, kids := range h.tree.Kids[h.tree.LeafParent()] {
		c.Vector(fmt.Sprintf("harness/lastloss/%d", p), h.lastLoss[kids[0]:kids[0]+len(kids)])
		for pos, j := range kids {
			c.RNG(fmt.Sprintf("harness/sampler/%d/%d", p, pos), h.oracles[j].Sampler)
		}
	}
	c.Curve("harness/curve", res)
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

// Curve registers res's accuracy curve under name, as (iteration, accuracy,
// loss) triples.
func (c *Checkpointer) Curve(name string, res *Result) {
	c.Dynamic(name,
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
}

// Restore loads the newest valid snapshot into the registered state and
// returns its sequence number — for a simulation the last completed
// iteration, so the training loop resumes at seq+1. Without a snapshot (or
// without checkpointing at all) it returns 0: start from scratch.
func (c *Checkpointer) Restore() (seq int, err error) {
	if c == nil {
		return 0, nil
	}
	seq, _, err = c.reg.Restore()
	if err != nil {
		return 0, fmt.Errorf("fl: resume: %w", err)
	}
	if seq > 0 {
		c.sink.M().CheckpointResumes.Inc()
		if c.sink.Tracing() {
			c.emit("checkpoint_resume", seq)
		}
	}
	return seq, nil
}

// Clear removes the snapshot generations a previous run left behind, for a
// fresh start.
func (c *Checkpointer) Clear() error {
	if c == nil {
		return nil
	}
	return c.reg.Clear()
}

// Save snapshots the registered state as generation seq. Every byte is
// fsynced before it returns.
func (c *Checkpointer) Save(seq int) error {
	if c == nil {
		return nil
	}
	if err := c.reg.Save(seq); err != nil {
		return err
	}
	c.sink.M().CheckpointSaves.Inc()
	if c.sink.Tracing() {
		c.emit("checkpoint_save", seq)
	}
	return nil
}

// emit traces a resume or save of generation seq, naming a cluster node.
func (c *Checkpointer) emit(ev string, seq int) {
	if c.node == "" {
		c.sink.Emit(ev, telemetry.Int("t", seq))
	} else {
		c.sink.Emit(ev, telemetry.String("node", c.node), telemetry.Int("t", seq))
	}
}

// Close releases the snapshot files held open between saves. Every saved
// byte was fsynced before Save returned, so a close error loses nothing and
// is not reported.
func (c *Checkpointer) Close() {
	if c != nil {
		c.reg.Close()
	}
}
