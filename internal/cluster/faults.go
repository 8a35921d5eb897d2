package cluster

import (
	"sync"

	"hieradmo/internal/fl"
	"hieradmo/internal/robust"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/transport"
)

// faultRecorder accumulates the fault observations of every node in a run
// into one fl.FaultReport, and mirrors each observation onto the run's
// telemetry sink as it happens — counters live, one trace event per
// tolerated fault. All methods are nil-safe so the per-role entry points
// can run without one.
//
// Transport-level faults (drops, delays, retries) are counted live by the
// transport layer itself (see transport.FaultyNetwork.SetTelemetry);
// mergeTransport only folds their end-of-run totals into the FaultReport,
// never into the sink, so nothing is double-counted.
type faultRecorder struct {
	mu   sync.Mutex
	rep  fl.FaultReport
	att  fl.AttackReport
	sink *telemetry.Sink // nil-safe, accessed without mu
}

func newFaultRecorder(sink *telemetry.Sink) *faultRecorder {
	return &faultRecorder{
		rep: fl.FaultReport{
			MissingWorkers: make(map[int]int),
			MissingEdges:   make(map[int]int),
		},
		sink: sink,
	}
}

// missingTier records an aggregation at iteration t proceeding without n of
// its children: leaf-parent quorums forfeit stragglers (counted under
// MissingWorkers), every other level substitutes last reports (counted
// under MissingEdges). The quorum trace event carries the level name and
// tier index so runs of any depth stay attributable.
func (r *faultRecorder) missingTier(level string, tier, t, n int, leaf bool) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	if leaf {
		r.rep.MissingWorkers[t] += n
	} else {
		r.rep.MissingEdges[t] += n
	}
	r.mu.Unlock()
	m := r.sink.M()
	m.QuorumMet.Inc()
	if leaf {
		m.QuorumMissingWorkers.Add(int64(n))
	} else {
		m.QuorumMissingEdges.Add(int64(n))
	}
	if r.sink.Tracing() {
		r.sink.Emit("quorum",
			telemetry.String("tier", level),
			telemetry.Int("tier_index", tier),
			telemetry.Int("t", t),
			telemetry.Int("missing", n))
	}
}

// duplicate records a rejected duplicate report observed by node.
func (r *faultRecorder) duplicate(node string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rep.DuplicateReports++
	r.mu.Unlock()
	r.sink.M().DuplicateReports.Inc()
	if r.sink.Tracing() {
		r.sink.Emit("duplicate_report", telemetry.String("node", node))
	}
}

// stale records a rejected stale-round message observed by node.
func (r *faultRecorder) stale(node string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rep.StaleMessages++
	r.mu.Unlock()
	r.sink.M().StaleMessages.Inc()
	if r.sink.Tracing() {
		r.sink.Emit("stale_message", telemetry.String("node", node))
	}
}

// timeout records a tolerated receive timeout at node.
func (r *faultRecorder) timeout(node string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rep.Timeouts++
	r.mu.Unlock()
	r.sink.M().Timeouts.Inc()
	if r.sink.Tracing() {
		r.sink.Emit("timeout", telemetry.String("node", node))
	}
}

// fastforward records a node resynchronizing past rounds the protocol
// completed without it (from its own round to the adopted one). Pure
// telemetry: fast-forwards are recovery, not faults, so they stay out of
// the FaultReport.
func (r *faultRecorder) fastforward(node string, from, to int) {
	if r == nil {
		return
	}
	r.sink.M().FastForwards.Inc()
	if r.sink.Tracing() {
		r.sink.Emit("fastforward_resync",
			telemetry.String("node", node),
			telemetry.Int("from", from),
			telemetry.Int("to", to))
	}
}

// Membership observations below are pure telemetry: planned churn is part
// of the protocol, not a fault, so none of them touches the FaultReport.
// The schedule-derived fl.MembershipReport is the durable record.

// joined records a worker admitted into an edge cohort at iteration t,
// either as a planned join or as a re-tiering reassignment.
func (r *faultRecorder) joined(node string, t int, reassigned bool) {
	if r == nil {
		return
	}
	m := r.sink.M()
	ev := "membership_join"
	if reassigned {
		m.MembershipReassigns.Inc()
		ev = "membership_reassign"
	} else {
		m.MembershipJoins.Inc()
	}
	if r.sink.Tracing() {
		r.sink.Emit(ev,
			telemetry.String("node", node),
			telemetry.Int("t", t))
	}
}

// left records a worker retired after its final report at iteration t.
func (r *faultRecorder) left(node string, t int) {
	if r == nil {
		return
	}
	r.sink.M().MembershipLeaves.Inc()
	if r.sink.Tracing() {
		r.sink.Emit("membership_leave",
			telemetry.String("node", node),
			telemetry.Int("t", t))
	}
}

// retier records a re-tiering step that changed the assignment, moving
// `moved` workers effective at iteration t.
func (r *faultRecorder) retier(t, moved int) {
	if r == nil {
		return
	}
	r.sink.M().MembershipRetiers.Inc()
	if r.sink.Tracing() {
		r.sink.Emit("membership_retier",
			telemetry.Int("t", t),
			telemetry.Int("moved", moved))
	}
}

// migrated records a γℓ migration applied by an edge whose cohort changed.
func (r *faultRecorder) migrated(node string, t int, policy string, gamma float64) {
	if r == nil {
		return
	}
	r.sink.M().GammaMigrations.Inc()
	if r.sink.Tracing() {
		r.sink.Emit("gamma_migration",
			telemetry.String("node", node),
			telemetry.Int("t", t),
			telemetry.String("policy", policy),
			telemetry.Float("gamma", gamma))
	}
}

// injected records a Byzantine worker mutating its boundary report at
// iteration t according to the run's attack plan. The injection is part
// of the scenario, not a fault, so it accumulates into the AttackReport
// rather than the FaultReport.
func (r *faultRecorder) injected(node string, t int, kind string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.att.Injected == nil {
		r.att.Injected = make(map[string]int)
	}
	r.att.Injected[kind]++
	r.mu.Unlock()
	r.sink.M().AttackInjected.Inc()
	if r.sink.Tracing() {
		r.sink.Emit("attack_inject",
			telemetry.String("node", node),
			telemetry.Int("t", t),
			telemetry.String("kind", kind))
	}
}

// robustTier records what one robust aggregation did at node for iteration
// t, attributed to the node's tier index (and level name): every rejected
// reporter and every clipped update becomes a counter bump and a trace
// event, so the telemetry totals match the AttackReport exactly. ids maps
// the aggregation's reporter slots to node IDs.
func (r *faultRecorder) robustTier(node, level string, tier, t int, st robust.Stats, ids []string) {
	if r == nil || (len(st.Rejected) == 0 && len(st.Clipped) == 0) {
		return
	}
	r.mu.Lock()
	if len(st.Rejected) > 0 {
		if r.att.RejectedByTier == nil {
			r.att.RejectedByTier = make(map[int]int)
		}
		r.att.RejectedByTier[tier] += len(st.Rejected)
	}
	if len(st.Clipped) > 0 {
		if r.att.ClippedByTier == nil {
			r.att.ClippedByTier = make(map[int]int)
		}
		r.att.ClippedByTier[tier] += len(st.Clipped)
	}
	r.mu.Unlock()
	m := r.sink.M()
	m.RobustRejected.Add(int64(len(st.Rejected)))
	m.RobustClipped.Add(int64(len(st.Clipped)))
	if len(st.Clipped) > 0 {
		m.RobustClipNorm.Set(st.MaxNorm)
	}
	if !r.sink.Tracing() {
		return
	}
	slot := func(j int) string {
		if j < len(ids) {
			return ids[j]
		}
		return ""
	}
	for _, j := range st.Rejected {
		r.sink.Emit("robust_reject",
			telemetry.String("node", node),
			telemetry.String("tier", level),
			telemetry.Int("tier_index", tier),
			telemetry.Int("t", t),
			telemetry.String("from", slot(j)))
	}
	for _, j := range st.Clipped {
		r.sink.Emit("robust_clip",
			telemetry.String("node", node),
			telemetry.String("tier", level),
			telemetry.Int("tier_index", tier),
			telemetry.Int("t", t),
			telemetry.String("from", slot(j)),
			telemetry.Float("max_norm", st.MaxNorm))
	}
}

// nodeError records the error of a node that dropped out of a run that kept
// going.
func (r *faultRecorder) nodeError(err error) {
	if r == nil || err == nil {
		return
	}
	r.mu.Lock()
	r.rep.NodeErrors = append(r.rep.NodeErrors, err.Error())
	r.mu.Unlock()
}

// mergeTransport folds transport-level counters into the report.
func (r *faultRecorder) mergeTransport(s transport.FaultStats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rep.Dropped += s.Dropped
	r.rep.Retries += s.Retries
	r.rep.Crashed = append(r.rep.Crashed, s.Crashed...)
	r.rep.Restarted = append(r.rep.Restarted, s.Restarted...)
	r.mu.Unlock()
}

// report returns the accumulated report, or nil when nothing was recorded.
func (r *faultRecorder) report() *fl.FaultReport {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.rep.Any() {
		return nil
	}
	rep := r.rep
	return &rep
}

// attackReport returns the accumulated Byzantine-scenario report, or nil
// for runs where the robust layer never engaged (no attack plan, nothing
// rejected or clipped, mean aggregation at every level). Explicit
// topologies report activity by tier index and list every level's rule; the
// config-derived shape folds its two tiers into the report's edge/cloud
// fields.
func (r *faultRecorder) attackReport(opts Options, ts *treeSpec) *fl.AttackReport {
	if r == nil {
		return nil
	}
	robustLevel := false
	aggs := make([]string, len(ts.agg))
	for i, spec := range ts.agg {
		aggs[i] = spec.String()
		robustLevel = robustLevel || spec.Robust()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.att.Any() && !robustLevel && opts.AttackPlan.Empty() {
		return nil
	}
	rep := r.att
	if opts.Topology != nil {
		rep.TierAggregators = aggs
		return &rep
	}
	rep.RejectedCloud, rep.RejectedEdge = rep.RejectedByTier[0], rep.RejectedByTier[1]
	rep.Clipped = rep.ClippedByTier[0] + rep.ClippedByTier[1]
	rep.CloudAggregator, rep.EdgeAggregator = aggs[0], aggs[1]
	rep.RejectedByTier, rep.ClippedByTier = nil, nil
	return &rep
}
