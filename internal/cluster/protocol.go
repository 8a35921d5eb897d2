// Package cluster executes HierAdMo (Algorithm 1) as an actual distributed
// protocol over an aggregation tree: one goroutine-hosted node per training
// leaf and per aggregating node, exchanging models, momenta, and interval
// accumulators as messages over a transport (in-memory for tests and
// single-machine runs, TCP for real sockets).
//
// There is one runtime. Every run — the paper's cloud/edge/worker hierarchy
// derived from an fl.Config, or an explicit N-tier topology.Topology — is a
// treeSpec (who are my children this round, with what weights, under what
// transport IDs) executed by two node types: treeLeaf, the worker NAG step,
// and tierNode, a level-parametric aggregator. What varies by level is
// configuration: the leaf-parent level renormalizes over a quorum of
// survivors, adapts γℓ from the leaves' accumulators and hosts dynamic
// membership; every other level substitutes a missing child's last report;
// the root records the curve and returns the Result. Fault tolerance,
// checkpoint/resume, churn, Byzantine attacks and robust aggregation all
// compose on that one path.
//
// The in-process simulation in internal/core is the reference semantics:
// the cluster performs the same floating-point operations in the same
// order, so a cluster run and a simulation run with the same fl.Config
// produce bit-identical models (verified by TestClusterMatchesSimulation).
package cluster

import (
	"fmt"
	"strconv"

	"hieradmo/internal/transport"
)

// Protocol message kinds.
const (
	// KindTierReport is child → parent at the child's parent-sync boundary:
	// training leaves send [y, x, Σ∇F, Σy] and their latest mini-batch loss
	// at t = kτ; aggregating levels send [y_ℓ−, x_ℓ+] and their weighted
	// loss.
	KindTierReport = "tier-report"
	// KindTierUpdate is parent → child after an aggregation, carrying the
	// level's [y_ℓ−, x_ℓ+].
	KindTierUpdate = "tier-update"

	// Dynamic-membership control messages. ADMIT and RETIRE are leaf-parent
	// → leaf; REASSIGN is root → leaf-parent. None of them carries a
	// membership *decision* — every node derives the same schedule from the
	// churn plan, so the messages only synchronize when a transition takes
	// effect.

	// KindAdmit admits a joining or reassigned-in leaf into its new parent's
	// cohort. It carries the same [y_ℓ−, x_ℓ+] payload as KindTierUpdate,
	// giving the newcomer its starting state.
	KindAdmit = "admit"
	// KindRetire acknowledges a planned permanent leave after the leaf's
	// final report was aggregated. No payload.
	KindRetire = "retire"
	// KindReassign follows a re-tiering step, carrying the flattened
	// (parent, index, newParent) triples of moved leaves so leaf-parents can
	// cross-check their locally computed schedule.
	KindReassign = "reassign"
)

// Scalar keys used in messages.
const (
	// ScalarLoss carries a (weighted) training loss.
	ScalarLoss = "loss"
)

// Node IDs of the config-derived cloud/edge/worker shape (explicit
// topologies name nodes "<level>-<index>" instead). Fault, churn and attack
// plans, per-node noise streams and checkpoint files are keyed by them.

// CloudID is the cloud node's transport ID.
const CloudID = "cloud"

// EdgeID returns the transport ID of edge ℓ.
func EdgeID(l int) string { return "edge-" + strconv.Itoa(l) }

// WorkerID returns the transport ID of worker {i,ℓ}.
func WorkerID(l, i int) string {
	return "worker-" + strconv.Itoa(l) + "-" + strconv.Itoa(i)
}

// expectKind validates an incoming message's type.
func expectKind(msg transport.Message, kind string) error {
	if msg.Kind != kind {
		return fmt.Errorf("cluster: got %q from %q, want %q", msg.Kind, msg.From, kind)
	}
	return nil
}
