package cluster

import (
	"errors"
	"fmt"
	"time"

	"hieradmo/internal/checkpoint"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/transport"
)

// ErrInterrupted is returned by nodes that stopped on a shutdown request
// (Options.Interrupt). The run's state at that point is a valid checkpoint:
// restarting with Options.Resume picks up where the interrupt landed.
var ErrInterrupted = errors.New("cluster: interrupted")

// interruptSlice bounds how long a blocked receive can delay noticing a
// shutdown request.
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

// recvInterruptible behaves like ep.RecvTimeout(wait), but when a shutdown
// channel is configured it slices the wait so the interrupt is noticed
// within interruptSlice even while blocked on a quiet socket. Callers see
// ErrInterrupted in place of a message. Deadline arithmetic goes through
// the options' clock; the actual socket wait is real time either way.
func recvInterruptible(ep transport.Endpoint, wait time.Duration, opts Options) (transport.Message, error) {
	if opts.Interrupt == nil {
		return ep.RecvTimeout(wait)
	}
	deadline := opts.now().Add(wait)
	for {
		if interrupted(opts.Interrupt) {
			return transport.Message{}, ErrInterrupted
		}
		slice := deadline.Sub(opts.now())
		if slice <= 0 {
			return transport.Message{}, transport.ErrTimeout
		}
		if slice > interruptSlice {
			slice = interruptSlice
		}
		msg, err := ep.RecvTimeout(slice)
		if err == nil || !errors.Is(err, transport.ErrTimeout) {
			return msg, err
		}
	}
}

// nodeRegistry builds the checkpoint registry of one cluster node, keyed by
// its transport ID so every node of a deployment can share one directory.
// Returns nil (no checkpointing) when no directory is configured.
func nodeRegistry(cfg *fl.Config, opts Options, ts *treeSpec, nodeID string) (*checkpoint.Registry, error) {
	if opts.CheckpointDir == "" {
		return nil, nil
	}
	mgr, err := checkpoint.NewManager(opts.CheckpointDir, nodeID)
	if err != nil {
		return nil, err
	}
	// The fingerprint covers everything that shapes the distributed
	// trajectory: the full run config, the algorithm options, and the tree's
	// canonical shape — depth, fan-out, per-level periods, rules, and
	// momentum — so a snapshot can never be resumed under a different tree
	// (or read by a build that laid node state out differently). Timeouts
	// and quorum are operational knobs a restarted deployment may
	// legitimately change, so they stay out.
	fp := cfg.Fingerprint("cluster/tier") +
		fmt.Sprintf(" adaptive=%v signal=%d ceiling=%g topology=%s", opts.Adaptive, opts.Signal, opts.Ceiling, ts.shape)
	if opts.churnEnabled() {
		plan := membership.Plan{}
		if opts.ChurnPlan != nil {
			plan = *opts.ChurnPlan
		}
		fp += fmt.Sprintf(" churn=%s retier=%d migrate=%s",
			plan.Signature(), opts.RetierEvery, opts.Migration)
	}
	if opts.robustEnabled() {
		// Attack plan and aggregator choices shape the trajectory just
		// like the algorithm options: resuming a Byzantine run under a
		// different scenario is refused (checkpoint.ErrMismatch).
		fp += fmt.Sprintf(" attack=%s agg-edge=%s agg-cloud=%s",
			opts.AttackPlan.Signature(), opts.EdgeAggregator, opts.CloudAggregator)
	}
	return checkpoint.NewRegistry(mgr, fp), nil
}

// restoreOrClear applies the Resume option to a node's registry: resuming
// loads the newest valid generation and returns its sequence number; a
// fresh start clears leftover generations from a previous run instead. An
// actual resume (seq > 0) is mirrored onto the telemetry sink under the
// node's ID.
func restoreOrClear(reg *checkpoint.Registry, resume bool, sink *telemetry.Sink, node string) (int, error) {
	if reg == nil {
		return 0, nil
	}
	if !resume {
		return 0, reg.Clear()
	}
	seq, _, err := reg.Restore()
	if err == nil && seq > 0 {
		sink.M().CheckpointResumes.Inc()
		if sink.Tracing() {
			sink.Emit("checkpoint_resume",
				telemetry.String("node", node),
				telemetry.Int("t", seq))
		}
	}
	return seq, err
}

// saveSnapshot persists the node's registered state as generation seq; a
// nil registry (checkpointing disabled) is a no-op. Successful saves are
// mirrored onto the telemetry sink under the node's ID.
func saveSnapshot(reg *checkpoint.Registry, seq int, sink *telemetry.Sink, node string) error {
	if reg == nil {
		return nil
	}
	if err := reg.Save(seq); err != nil {
		return err
	}
	sink.M().CheckpointSaves.Inc()
	if sink.Tracing() {
		sink.Emit("checkpoint_save",
			telemetry.String("node", node),
			telemetry.Int("t", seq))
	}
	return nil
}

// encodePending appends a ride-ahead report stash to out for snapshotting:
// one record per message, laid out as [round, sender, loss, nv·dim vector
// elements], where sender is the reporting child's index in its level as
// resolved by index. Messages that do not carry exactly nv model-sized
// vectors or a resolvable sender are dropped here — admission would reject
// them after the resume anyway.
func encodePending(out []float64, msgs []transport.Message, nv, dim int, index func(from string) (int, bool)) []float64 {
	for _, msg := range msgs {
		i, ok := index(msg.From)
		if !ok || len(msg.Vectors) != nv {
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
		out = append(out, float64(msg.Round), float64(i), msg.Scalars[ScalarLoss])
		for _, v := range msg.Vectors {
			out = append(out, v...)
		}
	}
	return out
}

// decodePending rebuilds a stash serialized by encodePending; ids maps a
// sender index back to its node ID.
func decodePending(flat []float64, nv, dim int, kind string, ids []string) ([]transport.Message, error) {
	rec := 3 + nv*dim
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
		vecs := make([][]float64, nv)
		for v := range vecs {
			lo := off + 3 + v*dim
			vecs[v] = append([]float64(nil), flat[lo:lo+dim]...)
		}
		msgs = append(msgs, transport.Message{
			From:    ids[idx],
			Kind:    kind,
			Round:   round,
			Vectors: vecs,
			Scalars: map[string]float64{ScalarLoss: flat[off+2]},
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

// mergeInterrupt combines a user shutdown channel with the run-completion
// channel so a respawned node stops on whichever fires first.
func mergeInterrupt(a, b <-chan struct{}) <-chan struct{} {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := make(chan struct{})
	go func() {
		defer close(out)
		select {
		case <-a:
		case <-b:
		}
	}()
	return out
}
