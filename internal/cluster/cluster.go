package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hieradmo/internal/core"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/robust"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/topology"
	"hieradmo/internal/transport"
)

// Network abstracts the transport factories the cluster can run over
// (transport.MemoryNetwork, transport.TCPNetwork, and transport.FaultyNetwork
// all satisfy it).
type Network interface {
	// Endpoint returns the endpoint for a node ID.
	Endpoint(id string) (transport.Endpoint, error)
	// Close tears the network down after the run.
	Close() error
}

// DefaultRecvTimeout bounds how long any node waits for a peer message
// before declaring the run failed; generous because workers legitimately
// compute for whole edge intervals between messages.
const DefaultRecvTimeout = 60 * time.Second

// Options tune the distributed run.
type Options struct {
	// Adaptive enables the γℓ adaptation of eq. (6)–(7); false runs
	// HierAdMo-R with the config's fixed GammaEdge.
	Adaptive bool
	// Signal selects the adaptation statistic (default core.SignalYSum).
	Signal core.AdaptSignal
	// Ceiling is the γℓ clamp (default core.DefaultClampCeiling).
	Ceiling float64
	// RecvTimeout bounds every blocking receive (default
	// DefaultRecvTimeout).
	RecvTimeout time.Duration
	// MinQuorum is the minimum fraction of reporters an aggregation needs
	// to proceed (applied at every tier). The default 1 keeps the strict fail-stop protocol: every
	// report is required and any loss surfaces as a timeout error. Values
	// in (0, 1) enable graceful degradation: aggregations proceed with the
	// survivors once the straggler deadline passes, renormalizing weights
	// over them exactly like the simulation's partial-participation path,
	// and nodes ride out lost messages instead of aborting.
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
	// Telemetry, when non-nil, receives metrics and trace events from every
	// node and the transport layer (defaults to the config's Telemetry
	// sink). Cluster trace events carry the emitting node's ID; unlike the
	// single-threaded simulation their interleaving across nodes depends on
	// scheduling, so cluster traces are ordered (per-event seq) but not
	// byte-diffable between runs.
	Telemetry *telemetry.Sink

	// ChurnPlan schedules deterministic worker joins (after round 1) and
	// permanent leaves (before the final round). Nil or empty means no
	// planned churn. Distinct from crash/restart fault injection: churn is
	// part of the protocol — every node knows the plan, late joiners are
	// admitted with fresh state, and leavers retire after a final
	// aggregated report.
	ChurnPlan *membership.Plan
	// RetierEvery, when positive, re-clusters workers onto leaf-parent nodes
	// (edges) every RetierEvery root syncs, by label-distribution distance
	// with ties broken by worker ID. Zero disables re-tiering.
	RetierEvery int
	// Migration selects how the leaf-parent momentum factor γℓ migrates when
	// a node's cohort changes (default membership.MigrateZero, matching
	// the paper's obtuse-angle reset semantics).
	Migration membership.MigrationPolicy
	// Clock injects the wall clock behind receive deadlines and straggler
	// grace windows (default: the system clock). Tests use a fake clock so
	// quorum-timing behavior doesn't depend on real sleep scaling.
	Clock Clock

	// AttackPlan injects deterministic Byzantine behaviour at the
	// worker-report boundary (sign-flip, scale, noise, stale-replay; see
	// internal/robust). Nil or empty attacks nobody. Attacks mutate what
	// compromised workers send, never their local training state, and
	// compose freely with transport fault plans and churn plans. Must
	// match across every node of a multi-process run.
	AttackPlan *robust.AttackPlan
	// EdgeAggregator selects the aggregation rule the leaf-parent level
	// (the edges) applies to worker reports (default: plain weighted mean,
	// the undefended HierAdMo rule). A level's explicit agg= attribute in
	// Topology wins over it.
	EdgeAggregator robust.Spec
	// CloudAggregator selects the aggregation rule the root applies to its
	// children's reports when they are aggregators themselves,
	// independently of EdgeAggregator and likewise overridden by an explicit
	// agg= on the root level.
	CloudAggregator robust.Spec

	// Topology sets the shape of the aggregation tree: per-level sync
	// periods, fan-out, aggregation rules, and momentum come from the spec
	// (see internal/topology), node IDs are "<level>-<index>", and the
	// config's leaf shards (cfg.Edges flattened in order) are regrouped
	// under the tree's fanout; its NumLeaves must equal cfg.NumWorkers().
	// Nil derives the shape from the config instead: the cloud (period τ·π)
	// over cfg.Edges (period τ, γℓ from cfg.GammaEdge, adaptation from
	// Adaptive) over their workers, under the cloud / edge-ℓ / worker-ℓ-i
	// node IDs. Either way the same node implementation runs, and every
	// other option composes with it: under dynamic membership the churn
	// plan's worker-ℓ-i names address leaves by (leaf-parent, position).
	Topology *topology.Topology
}

// churnEnabled reports whether this run has dynamic membership: a non-empty
// churn plan or periodic re-tiering.
func (o Options) churnEnabled() bool {
	return (o.ChurnPlan != nil && !o.ChurnPlan.Empty()) || o.RetierEvery > 0
}

// robustEnabled reports whether this run's options depart from the
// undefended baseline: a non-empty attack plan or a non-mean default
// aggregator.
func (o Options) robustEnabled() bool {
	return !o.AttackPlan.Empty() || o.EdgeAggregator.Robust() || o.CloudAggregator.Robust()
}

// attackerFor returns the attack executor for node, or nil when the
// run's plan never touches it (including plan-less runs).
func (o Options) attackerFor(node string, nvec, dim int) *robust.Attacker {
	if o.AttackPlan == nil {
		return nil
	}
	return o.AttackPlan.Attacker(node, nvec, dim)
}

// newAggregator builds a tier's robust aggregator, or nil for plain mean:
// the mean path keeps the WeightedSum arithmetic of the in-process
// simulation. Specs are vetted by Options.validate and the topology parser,
// so construction cannot fail here.
func newAggregator(s robust.Spec) robust.Aggregator {
	if !s.Robust() {
		return nil
	}
	agg, err := robust.New(s)
	if err != nil {
		return nil
	}
	return agg
}

func (o Options) withDefaults() Options {
	if o.Signal == 0 {
		o.Signal = core.SignalYSum
	}
	if o.Ceiling == 0 {
		o.Ceiling = core.DefaultClampCeiling
	}
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
	if o.RetierEvery < 0 {
		return fmt.Errorf("cluster: negative RetierEvery")
	}
	if o.Migration < membership.MigrateZero || o.Migration > membership.MigrateRescale {
		return fmt.Errorf("cluster: unknown migration policy %d", o.Migration)
	}
	if err := o.AttackPlan.Validate(); err != nil {
		return err
	}
	if err := o.EdgeAggregator.Validate(); err != nil {
		return fmt.Errorf("cluster: edge aggregator: %w", err)
	}
	if err := o.CloudAggregator.Validate(); err != nil {
		return fmt.Errorf("cluster: cloud aggregator: %w", err)
	}
	return nil
}

// tolerant reports whether graceful degradation is enabled (quorum below
// the full cohort): nodes ride out timeouts and the run survives dropouts.
func (o Options) tolerant() bool { return o.MinQuorum < 1 }

// quorumCount converts a quorum fraction into the minimum reporter count
// out of n cohort members (always at least 1).
func quorumCount(frac float64, n int) int {
	q := int(math.Ceil(frac*float64(n) - 1e-9))
	if q < 1 {
		q = 1
	}
	if q > n {
		q = n
	}
	return q
}

// prepare defaults and validates the options and derives the run's harness
// and tree; shared by Run and RunNode so every process of a deployment
// resolves the identical spec.
func prepare(cfg *fl.Config, opts Options) (Options, *fl.Harness, *treeSpec, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return opts, nil, nil, err
	}
	if opts.Telemetry == nil {
		opts.Telemetry = cfg.Telemetry
	}
	hn, err := fl.NewHarness(cfg)
	if err != nil {
		return opts, nil, nil, err
	}
	ts, err := newTreeSpec(cfg, opts)
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
func Run(cfg *fl.Config, net Network, opts Options) (*fl.Result, error) {
	opts, hn, ts, err := prepare(cfg, opts)
	if err != nil {
		return nil, err
	}
	defer net.Close()
	// Let the transport count its own faults (drops, delays, retries) live
	// on the sink; mergeTransport below only touches the FaultReport.
	if tset, ok := net.(transport.TelemetrySetter); ok {
		tset.SetTelemetry(opts.Telemetry)
	}

	// Create every endpoint before any node starts (TCP needs all addresses
	// registered up front). eps[i][j] is level i, node j.
	eps := make([][]transport.Endpoint, ts.depth())
	for i, ids := range ts.ids {
		eps[i] = make([]transport.Endpoint, len(ids))
		for j, id := range ids {
			if eps[i][j], err = net.Endpoint(id); err != nil {
				return nil, fmt.Errorf("cluster: %s endpoint: %w", id, err)
			}
		}
	}

	x0 := hn.InitParams()
	rec := newFaultRecorder(opts.Telemetry)
	leafLvl := ts.depth() - 1
	if sink := opts.Telemetry; sink.Tracing() {
		sink.Emit("run_start",
			telemetry.String("alg", "HierAdMo/cluster"),
			telemetry.String("topology", ts.shape),
			telemetry.Int("depth", ts.depth()),
			telemetry.Int("leaves", len(ts.ids[leafLvl])),
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
		if err == nil {
			return
		}
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}

	// runDone closes once the root has produced its verdict; it bounds the
	// lifetime of respawned leaves so a restarted node that has nothing left
	// to do can never outlive the run.
	runDone := make(chan struct{})
	rv, _ := net.(reviver)

	for j, id := range ts.ids[leafLvl] {
		ep := eps[leafLvl][j]
		w := newTreeLeaf(cfg, ts, j, x0, ep, opts)
		w.rec = rec
		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			fail(w.run())
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
			ropts.Interrupt = mergeInterrupt(opts.Interrupt, runDone)
			rw := newTreeLeaf(cfg, ts, j, x0, ep, ropts)
			rw.rec = rec
			if err := rw.run(); err != nil && !errors.Is(err, ErrInterrupted) {
				// An interrupt here just means the run ended while the
				// respawned leaf was still catching up — expected, not a
				// fault.
				fail(err)
			}
		}()
	}
	for i := leafLvl - 1; i >= 0; i-- {
		for j := range ts.ids[i] {
			n := newTierNode(cfg, hn, ts, i, j, x0, eps[i][j], opts)
			n.rec = rec
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := n.run()
				if n.lvl > 0 {
					fail(err)
					return
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
	if sr, ok := net.(transport.StatsReporter); ok {
		rec.mergeTransport(sr.FaultStats())
	}
	mu.Lock()
	defer mu.Unlock()
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
		rec.nodeError(err)
	}
	result.FaultReport = rec.report()
	result.Membership = ts.membershipReport()
	result.AttackReport = rec.attackReport(opts, ts)
	if sink := opts.Telemetry; sink.Tracing() {
		sink.Emit("run_end",
			telemetry.Float("final_acc", result.FinalAcc),
			telemetry.Float("final_loss", result.FinalLoss))
	}
	return result, nil
}

// RunNode executes one node of a multi-process deployment (cmd/flnode)
// against ep: every process builds the identical fl.Config deterministically
// from the shared seed (synthetic data regenerates locally, so no training
// data crosses the wire), opens its own transport endpoint, and runs exactly
// one node — the same implementation Run wires up in-process, so a
// multi-process run is bit-identical to the simulation too. level/idx
// address the node in the run's tree: level 0 is the root and returns the
// run result, the last level trains a leaf shard, every level but the root
// returns nil on success. On the config-derived shape the cloud is (0, 0),
// edge ℓ is (1, ℓ) and the workers are level 2 in cfg.Edges order.
//
// A multi-process root only sees its own tier's observations: its
// FaultReport and AttackReport cover missing or substituted child reports
// and its own rejections; lower tiers' faults and worker-side injections
// live on those processes' sinks.
func RunNode(cfg *fl.Config, level, idx int, ep transport.Endpoint, opts Options) (*fl.Result, error) {
	opts, hn, ts, err := prepare(cfg, opts)
	if err != nil {
		return nil, err
	}
	if level < 0 || level >= ts.depth() || idx < 0 || idx >= len(ts.ids[level]) {
		return nil, fmt.Errorf("cluster: no node at level %d index %d in topology %s", level, idx, ts.shape)
	}
	rec := newFaultRecorder(opts.Telemetry)
	if level == ts.depth()-1 {
		w := newTreeLeaf(cfg, ts, idx, hn.InitParams(), ep, opts)
		w.rec = rec
		return nil, w.run()
	}
	n := newTierNode(cfg, hn, ts, level, idx, hn.InitParams(), ep, opts)
	n.rec = rec
	res, err := n.run()
	if err != nil || res == nil {
		return nil, err
	}
	res.FaultReport = rec.report()
	res.Membership = ts.membershipReport()
	res.AttackReport = rec.attackReport(opts, ts)
	return res, nil
}
