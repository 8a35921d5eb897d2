// Package cluster executes HierAdMo (Algorithm 1) as an actual distributed
// protocol over an aggregation tree: one node per training leaf and per
// aggregating node, exchanging models and momenta as messages over a
// transport (in-memory for tests and single-machine runs, TCP for real
// sockets).
//
// There is one runtime. Every run — the paper's cloud/edge/worker hierarchy
// derived from an fl.Config, or an explicit N-tier topology.Topology — is a
// treeSpec (who are my children this round, with what weights, under what
// transport IDs) executed by two node machines: treeLeaf, the worker NAG
// step, and tierNode, a level-parametric aggregator. A machine holds a
// node's protocol state and does no I/O: it takes the time and each
// delivered message and answers with the messages to send, the snapshots to
// save and when to wake it. One driver, drive, runs either over an endpoint
// in its own goroutine. What varies by level is configuration: the
// leaf-parent level renormalizes over a quorum of survivors, adapts γℓ from
// the leaves' eq. (6) terms and hosts dynamic membership; every other level
// substitutes a missing child's last report; the root records the curve and
// returns the Result. Fault tolerance, checkpoint/resume, churn, Byzantine
// attacks and robust aggregation all compose on that one path.
//
// The in-process simulation in internal/core is the reference semantics:
// the cluster performs the same floating-point operations in the same
// order, so a cluster run and a simulation run with the same fl.Config
// produce bit-identical models (verified by TestClusterMatchesSimulation).
package cluster

import (
	"errors"
	"fmt"

	"hieradmo/internal/transport"
)

// Protocol message kinds.
const (
	// KindTierReport is child → parent at the child's parent-sync boundary,
	// one shape at every level: [y, x] and a loss. Training leaves send
	// their momentum and model and their latest mini-batch loss at t = kτ —
	// plus, when the parent adapts, their own eq. (6) term as ScalarCos, so
	// the interval accumulators Σ∇F and Σy never leave the leaf; aggregating
	// levels send [y_ℓ−, x_ℓ+] and their weighted loss. A leaf its round's
	// participant sample leaves out sends none, except at a root sync: there
	// it reports its loss alone, no vectors, so the root's loss signal
	// weighs every leaf's current loss, as the simulation's does.
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
	// KindReassign follows a re-tiering step, carrying the flattened (natal
	// parent, position, new parent) triples of moved leaves so leaf-parents
	// can cross-check their locally computed schedule.
	KindReassign = "reassign"
)

// ErrMalformedReport is wrapped by the error a parent fails with when a
// child's report has the wrong shape: a vector count other than
// reportVectors, or, at an adaptive leaf-parent, a missing or non-finite
// eq. (6) term or one outside [-1, 1]. The message names the sender.
var ErrMalformedReport = errors.New("cluster: malformed report")

// ErrNotSampled is wrapped by the error a leaf parent fails with when a
// child its round's participant sample (topology.Tree.Sample) leaves out
// reports [y, x] — or, at any round but a root sync, reports at all. The
// message names the sender.
var ErrNotSampled = errors.New("cluster: report from a child the round's sample leaves out")

// reportVectors is the vector count of every KindTierReport: [y, x].
const reportVectors = 2

// reportLayout names what a report carries, for the checkpoint fingerprint:
// the ride-ahead stash snapshots reports in this layout.
const reportLayout = "y,x,loss,cos"

// leafLayout names how a leaf snapshot holds its interval state, for the
// checkpoint fingerprint: Σ∇F ‖ Σy as one entry, empty while both are +0. A
// snapshot family from a build that stored them as separate vectors is
// refused as a mismatch, not misread. The second token names a reference
// vector only the deleted velocity statistic kept; it stays, frozen, so
// snapshots written while it existed still resume.
const leafLayout = "interval,yStart=elided"

// Scalar keys used in messages.
const (
	// ScalarLoss carries a (weighted) training loss.
	ScalarLoss = "loss"
	// ScalarCos carries a training leaf's eq. (6) term (core.Level.Term) to
	// an adaptive parent, which weights and sums the terms of its reporters.
	ScalarCos = "cos"
)

// expectKind validates an incoming message's type.
func expectKind(msg transport.Message, kind string) error {
	if msg.Kind != kind {
		return fmt.Errorf("cluster: got %q from %q, want %q", msg.Kind, msg.From, kind)
	}
	return nil
}
