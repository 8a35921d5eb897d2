package cluster

import (
	"errors"
	"fmt"
	"math"
	"time"

	"hieradmo/internal/core"
	"hieradmo/internal/fl"
	"hieradmo/internal/transport"
)

// ErrInterrupted is returned by nodes that stopped on a shutdown request
// (Options.Interrupt). The run's state at that point is a valid checkpoint:
// restarting with Options.Resume picks up where the interrupt landed.
var ErrInterrupted = errors.New("cluster: interrupted")

// interruptSlice bounds how long a blocked receive can delay noticing a
// shutdown request: the driver slices its waits to it.
const interruptSlice = 200 * time.Millisecond

// interrupted reports whether the shutdown channel has fired (nil = no
// shutdown signal configured).
func interrupted(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// nodeCheckpointer opens the snapshots of one cluster node, keyed by its
// transport ID so every node of a deployment can share one directory; nil
// (no checkpointing) when no directory is configured.
func nodeCheckpointer(cfg *fl.Config, opts Options, ts *treeSpec, nodeID string) (*fl.Checkpointer, error) {
	if opts.CheckpointDir == "" {
		return nil, nil
	}
	// The fingerprint covers everything that shapes the distributed
	// trajectory: the full run config, the algorithm options, and the tree's
	// canonical shape — depth, fan-out, per-level periods, rules, and
	// momentum — so a snapshot can never be resumed under a different tree.
	// The layout tokens name what a report carries, which the ride-ahead
	// stash records, and how a leaf stores its interval state, so a snapshot
	// from a build that laid either out differently is refused as a mismatch
	// rather than misread. Timeouts and quorum are operational knobs a
	// restarted deployment may legitimately change, so they stay out.
	// The tree's scenario — its levels' robust rules, the attack plan and
	// the membership epochs — and its participant sample shape the
	// trajectory just like the algorithm options, so resuming under a
	// different one is refused (checkpoint.ErrMismatch). "signal=1" names
	// the eq. (6) statistic, the only one left; it stays so snapshots
	// written while a second statistic existed still resume.
	fp := cfg.Fingerprint("cluster/tier") +
		fmt.Sprintf(" adaptive=%v signal=1 ceiling=%g topology=%s report=%s leaf=%s",
			opts.Adaptive, core.DefaultClampCeiling, ts.tree, reportLayout, leafLayout) +
		ts.tree.Scenario()
	if part := ts.tree.Participation(); part != 1 {
		fp += fmt.Sprintf(" part=%g", part)
	}
	return fl.NewCheckpointer(opts.CheckpointDir, nodeID, fp, nodeID, cfg.Telemetry)
}

// encodePending appends a ride-ahead report stash to out for snapshotting:
// one record per message, laid out as [round, sender, loss, cos, y, x],
// where sender is the reporting child's index in its level as resolved by
// index and cos is NaN when the report carried no term (admission refuses a
// NaN term and a missing one alike). Messages that do not carry
// reportVectors model-sized vectors or a resolvable sender are dropped here:
// admission would reject them after the resume anyway, and a quorum round
// closes without a dropped loss-only report at its grace.
func encodePending(out []float64, msgs []transport.Message, dim int, index func(from string) (int, bool)) []float64 {
	for _, msg := range msgs {
		i, ok := index(msg.From)
		if !ok || len(msg.Vectors) != reportVectors {
			continue
		}
		for _, v := range msg.Vectors {
			if len(v) != dim {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cos, ok := msg.Scalars[ScalarCos]
		if !ok {
			cos = math.NaN()
		}
		out = append(out, float64(msg.Round), float64(i), msg.Scalars[ScalarLoss], cos)
		for _, v := range msg.Vectors {
			out = append(out, v...)
		}
	}
	return out
}

// decodePending rebuilds a stash serialized by encodePending; ids maps a
// sender index back to its node ID.
func decodePending(flat []float64, dim int, kind string, ids []string) ([]transport.Message, error) {
	const head = 4 // round, sender, loss, cos
	rec := head + reportVectors*dim
	if len(flat)%rec != 0 {
		return nil, fmt.Errorf("pending stash holds %d values, not a multiple of the %d-value record", len(flat), rec)
	}
	var msgs []transport.Message
	for off := 0; off < len(flat); off += rec {
		round, idx := int(flat[off]), int(flat[off+1])
		if float64(round) != flat[off] || float64(idx) != flat[off+1] || round < 0 || idx < 0 || idx >= len(ids) {
			return nil, fmt.Errorf("pending stash record at %d has a bad round/sender %v/%v",
				off, flat[off], flat[off+1])
		}
		vecs := make([][]float64, reportVectors)
		for v := range vecs {
			lo := off + head + v*dim
			vecs[v] = append([]float64(nil), flat[lo:lo+dim]...)
		}
		scalars := map[string]float64{ScalarLoss: flat[off+2]}
		if cos := flat[off+3]; !math.IsNaN(cos) {
			scalars[ScalarCos] = cos
		}
		msgs = append(msgs, transport.Message{
			From:    ids[idx],
			Kind:    kind,
			Round:   round,
			Vectors: vecs,
			Scalars: scalars,
		})
	}
	return msgs, nil
}

// reviver is the fault-injection surface the supervisor needs: which nodes
// are scheduled to come back after a crash, and whether a node's outage has
// ended. *transport.FaultyNetwork implements it.
type reviver interface {
	RestartPlanned(id string) bool
	Revived(id string) bool
}
