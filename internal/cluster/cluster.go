package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hieradmo/internal/fl"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/topology"
	"hieradmo/internal/transport"
)

// Network is the transport factory the cluster runs over
// (transport.MemoryNetwork, transport.TCPNetwork and transport.FaultyNetwork
// all satisfy it).
type Network = transport.Network

// DefaultRecvTimeout bounds how long any node waits for a peer message
// before declaring the run failed; generous because workers legitimately
// compute for whole edge intervals between messages.
const DefaultRecvTimeout = 60 * time.Second

// Options tune the distributed run.
type Options struct {
	// Adaptive enables the γℓ adaptation of eq. (6)–(7); false runs
	// HierAdMo-R with the config's fixed GammaEdge. The γℓ clamp is
	// core.DefaultClampCeiling.
	Adaptive bool
	// RecvTimeout bounds every blocking receive (default
	// DefaultRecvTimeout).
	RecvTimeout time.Duration
	// MinQuorum is the minimum fraction of reporters an aggregation needs
	// to proceed (applied at every tier). The default 1 keeps the strict fail-stop protocol: every
	// report is required and any loss surfaces as a timeout error. Values
	// in (0, 1) enable graceful degradation: aggregations proceed with the
	// survivors once the straggler deadline passes, renormalizing weights
	// over them with the simulation's arithmetic, and nodes ride out lost
	// messages instead of aborting. Planned partial participation is the
	// tree's (part=, topology.Tree.Sample), which both modes wait for.
	MinQuorum float64
	// StragglerDeadline is the grace period an aggregation grants
	// stragglers after its quorum is reached before proceeding without them
	// (default RecvTimeout; only meaningful with MinQuorum < 1).
	StragglerDeadline time.Duration
	// CheckpointDir enables crash recovery: every node persists its state
	// into this directory (one snapshot file family per node ID) after each
	// completed protocol unit — training leaves per leaf-parent interval,
	// aggregating nodes per round. Empty disables checkpointing.
	CheckpointDir string
	// Resume restarts the run from the checkpoints in CheckpointDir: each
	// node reloads its newest valid generation and rejoins the protocol at
	// the position it had saved, replaying at most one interval of local
	// compute. Without Resume a run clears leftover generations and starts
	// fresh. Snapshots from a different config or algorithm setup are
	// refused (checkpoint.ErrMismatch).
	Resume bool
	// Interrupt, when non-nil, requests a graceful shutdown once it is
	// closed: every node stops at its next interruptible point, nodes with
	// checkpointing enabled leave their last completed snapshot behind, and
	// Run fails with an error wrapping ErrInterrupted. A later run with
	// Resume picks up from those snapshots.
	Interrupt <-chan struct{}

	// Tree is the resolved tree the run executes: its shape and node IDs,
	// every level's aggregation rule (Tree.WithAggregators), the attack plan
	// (Tree.WithAttackPlan) and the membership epochs (Tree.WithMembership).
	// Every process of a multi-process run must resolve the same tree, and a
	// simulation held to the run takes it too (core.Rule.RunTree). A tree
	// resolved for another config is refused (fl.NewHarness).
	Tree *topology.Tree
	// Topology, when Tree is nil, is the spec the run's tree is resolved
	// from, cfg.Tree(Topology): sync periods, fan-out, aggregation rules and
	// momentum per level, "<level>-<index>" node IDs, and the config's leaf
	// shards (fl.Config.Shards) regrouped under the tree's fanout. With both nil the run executes the config's own cloud /
	// edge-ℓ / worker-ℓ-i tree. Setting both is refused.
	Topology *topology.Topology
}

func (o Options) withDefaults() Options {
	if o.RecvTimeout == 0 {
		o.RecvTimeout = DefaultRecvTimeout
	}
	if o.MinQuorum == 0 {
		o.MinQuorum = 1
	}
	if o.StragglerDeadline == 0 {
		o.StragglerDeadline = o.RecvTimeout
	}
	return o
}

func (o Options) validate() error {
	if o.MinQuorum < 0 || o.MinQuorum > 1 {
		return fmt.Errorf("cluster: MinQuorum %v outside (0, 1]", o.MinQuorum)
	}
	if o.StragglerDeadline < 0 || o.RecvTimeout < 0 {
		return fmt.Errorf("cluster: negative timeout")
	}
	if o.Resume && o.CheckpointDir == "" {
		return fmt.Errorf("cluster: Resume requires CheckpointDir")
	}
	if o.Tree != nil && o.Topology != nil {
		return fmt.Errorf("cluster: Tree and Topology both set: resolve the topology into the tree")
	}
	return nil
}

// tolerant reports whether graceful degradation is enabled (quorum below
// the full cohort): nodes ride out timeouts and the run survives dropouts.
func (o Options) tolerant() bool { return o.MinQuorum < 1 }

// quorumCount converts a quorum fraction into the minimum reporter count
// out of n cohort members (always at least 1).
func quorumCount(frac float64, n int) int {
	return min(max(int(math.Ceil(frac*float64(n)-1e-9)), 1), n)
}

// prepare defaults and validates the options, takes the run's tree from
// them or resolves it from the config, and derives the run's harness and
// spec; shared by Run and RunNode so every process of a deployment resolves
// the identical spec. fl.NewHarness is the gate a tree passes, as in the
// simulation.
func prepare(cfg *fl.Config, opts Options) (Options, *fl.Harness, *treeSpec, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return opts, nil, nil, err
	}
	tree := opts.Tree
	if tree == nil {
		var err error
		if tree, err = cfg.Tree(opts.Topology); err != nil {
			return opts, nil, nil, err
		}
	}
	hn, err := fl.NewHarness(cfg, tree)
	if err != nil {
		return opts, nil, nil, err
	}
	ts, err := newTreeSpec(cfg, tree, opts)
	return opts, hn, ts, err
}

// Run executes HierAdMo over the given network: it spawns one goroutine per
// training leaf and per aggregating node of the run's tree, runs the full T
// iterations, and returns the root's result. The network is closed before
// returning.
//
// With the default strict options any lost message fails the run with every
// node error joined. With MinQuorum < 1 the run instead degrades gracefully:
// aggregations proceed with a quorum of survivors after the straggler
// deadline and every tolerated fault is recorded in the result's
// FaultReport.
//
// Metrics and trace events from every node and the transport go to
// cfg.Telemetry. Cluster trace events carry the emitting node's ID; unlike
// the single-threaded simulation's, their interleaving across nodes depends
// on scheduling, so cluster traces are ordered (per-event seq) but not
// byte-diffable between runs.
func Run(cfg *fl.Config, net Network, opts Options) (*fl.Result, error) {
	defer net.Close()
	opts, hn, ts, err := prepare(cfg, opts)
	if err != nil {
		return nil, err
	}
	// Let the transport count its own faults (drops, delays, retries) live
	// on the sink; their totals below only touch the FaultReport.
	if tset, ok := net.(transport.TelemetrySetter); ok {
		tset.SetTelemetry(cfg.Telemetry)
	}

	// Create every endpoint before any node starts (TCP needs all addresses
	// registered up front). eps[i][j] is level i, node j.
	eps := make([][]transport.Endpoint, ts.depth())
	for i := range eps {
		eps[i] = make([]transport.Endpoint, ts.tree.Width(i))
		for j := range eps[i] {
			id := ts.tree.ID(i, j)
			if eps[i][j], err = net.Endpoint(id); err != nil {
				return nil, fmt.Errorf("cluster: %s endpoint: %w", id, err)
			}
		}
	}

	x0 := hn.InitParams()
	leafLvl := ts.depth() - 1
	if sink := cfg.Telemetry; sink.Tracing() {
		sink.Emit("run_start",
			telemetry.String("alg", "HierAdMo/cluster"),
			telemetry.String("topology", ts.tree.String()),
			telemetry.Int("depth", ts.depth()),
			telemetry.Int("leaves", ts.tree.NumLeaves()),
			telemetry.Int("T", cfg.T),
			telemetry.Int64("seed", int64(cfg.Seed)))
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		errs    []error
		result  *fl.Result
		rootErr error
	)
	fail := func(err error) {
		if err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	}

	// runDone closes once the root has produced its verdict; it bounds the
	// lifetime of respawned leaves so a restarted node that has nothing left
	// to do can never outlive the run.
	runDone := make(chan struct{})
	rv, _ := net.(reviver)

	for j, ep := range eps[leafLvl] {
		id := ts.tree.ID(leafLvl, j)
		w := newTreeLeaf(cfg, ts, j, x0, opts)
		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			fail(drive(w, ep, opts))
		}()
		if rv == nil || !opts.tolerant() || !rv.RestartPlanned(id) {
			continue
		}
		// Supervisor: once the original incarnation has died AND the fault
		// plan's outage window has ended, respawn the leaf from its checkpoint
		// (Resume). It reloads its last snapshot — or starts from x⁰ when it
		// crashed before ever saving — re-sends its stale report, and rejoins
		// through the stale-rejection and fast-forward resync machinery like
		// any straggler.
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-done
			for !rv.Revived(id) {
				select {
				case <-runDone:
					return // run finished before the outage ended
				case <-time.After(5 * time.Millisecond):
				}
			}
			ropts := opts
			ropts.Resume = opts.CheckpointDir != ""
			// The root ends the run on a shutdown request too, so runDone
			// stops the respawn on either.
			ropts.Interrupt = runDone
			rw := newTreeLeaf(cfg, ts, j, x0, ropts)
			if err := drive(rw, ep, ropts); err != nil && !errors.Is(err, ErrInterrupted) {
				// An interrupt here just means the run ended while the
				// respawned leaf was still catching up — expected, not a
				// fault.
				fail(err)
			}
		}()
	}
	for i := leafLvl - 1; i >= 0; i-- {
		for j := range eps[i] {
			n := newTierNode(cfg, hn, ts, i, j, x0, opts)
			ep := eps[i][j]
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := drive(n, ep, opts)
				if n.lvl > 0 {
					fail(err)
					return
				}
				var res *fl.Result
				if err == nil {
					res, err = n.finish()
				}
				mu.Lock()
				result, rootErr = res, err
				mu.Unlock()
				close(runDone)
			}()
		}
	}

	wg.Wait()
	for _, lvl := range eps {
		for _, ep := range lvl {
			if cerr := ep.Close(); cerr != nil {
				fail(fmt.Errorf("cluster: close %s: %w", ep.ID(), cerr))
			}
		}
	}
	// Every node has ended, so the ledger and the errors are this
	// goroutine's alone. The transport's totals join the nodes' faults.
	var faults fl.FaultReport
	if sr, ok := net.(transport.StatsReporter); ok {
		s := sr.FaultStats()
		faults.Dropped, faults.Retries, faults.Crashed, faults.Restarted = s.Dropped, s.Retries, s.Crashed, s.Restarted
	}
	// Strict mode fails on any node error; tolerant mode fails only when
	// the root could not produce a result. Either way the joined error
	// carries every node's failure so the root cause is never masked by the
	// cascade of downstream timeouts.
	if rootErr != nil || result == nil || (len(errs) > 0 && !opts.tolerant()) {
		all := append([]error{rootErr}, errs...)
		return nil, fmt.Errorf("cluster: run failed: %w", errors.Join(all...))
	}
	// Tolerated dropouts become part of the fault report instead.
	for _, err := range errs {
		faults.NodeErrors = append(faults.NodeErrors, err.Error())
	}
	result.Report(ts.tree, ts.ledger.Tally(), faults)
	if sink := cfg.Telemetry; sink.Tracing() {
		sink.Emit("run_end",
			telemetry.Float("final_acc", result.FinalAcc),
			telemetry.Float("final_loss", result.FinalLoss))
	}
	return result, nil
}

// RunNode executes one node of a multi-process deployment (flcluster -node)
// against ep: every process builds the identical fl.Config deterministically
// from the shared seed (synthetic data regenerates locally, so no training
// data crosses the wire), opens its own transport endpoint, and runs exactly
// one node — the same implementation Run wires up in-process, so a
// multi-process run is bit-identical to the simulation too. The endpoint's
// ID names the node in the run's tree (cloud / edge-ℓ / worker-ℓ-i on the
// config-derived shape, the spec's IDs under Options.Topology); an ID the
// tree does not have fails at once. The root returns the run result, every
// other node nil on success.
//
// A multi-process root only sees its own tier's observations: its
// FaultReport and AttackReport cover missing or substituted child reports
// and its own rejections; lower tiers' faults and worker-side injections
// live on those processes' sinks.
func RunNode(cfg *fl.Config, ep transport.Endpoint, opts Options) (*fl.Result, error) {
	opts, hn, ts, err := prepare(cfg, opts)
	if err != nil {
		return nil, err
	}
	lvl, idx, ok := ts.tree.Lookup(ep.ID())
	if !ok {
		return nil, fmt.Errorf("cluster: %q is not a node of the tree %s", ep.ID(), ts.tree)
	}
	if lvl == ts.depth()-1 {
		return nil, drive(newTreeLeaf(cfg, ts, idx, hn.InitParams(), opts), ep, opts)
	}
	n := newTierNode(cfg, hn, ts, lvl, idx, hn.InitParams(), opts)
	if err := drive(n, ep, opts); err != nil {
		return nil, err
	}
	res, err := n.finish()
	if err != nil || res == nil {
		return nil, err
	}
	res.Report(ts.tree, ts.ledger.Tally(), fl.FaultReport{})
	return res, nil
}
