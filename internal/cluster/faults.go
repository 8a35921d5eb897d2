package cluster

import (
	"sync"

	"hieradmo/internal/fl"
	"hieradmo/internal/robust"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/topology"
)

// faultRecorder accumulates the fault observations of every node in a run
// into one fl.FaultReport, and mirrors each observation onto the run's
// telemetry sink as it happens — counters live, one trace event per
// tolerated fault. Its recording methods are nil-safe, so a node can run
// without one.
//
// Transport-level faults (drops, delays, retries) are counted live by the
// transport layer itself (see transport.FaultyNetwork.SetTelemetry); Run
// only folds their end-of-run totals into the FaultReport, never into the
// sink, so nothing is double-counted.
type faultRecorder struct {
	mu  sync.Mutex
	rep fl.FaultReport
	// inject counts the attack plan's injections by kind, and rejected and
	// clipped the robust verdicts by tier index, for the AttackReport.
	inject            map[string]int
	rejected, clipped []int
	sink              *telemetry.Sink // nil-safe, accessed without mu
}

// newFaultRecorder builds the recorder of a run over tree.
func newFaultRecorder(sink *telemetry.Sink, tree *topology.Tree) *faultRecorder {
	return &faultRecorder{
		rep: fl.FaultReport{
			MissingWorkers: make(map[int]int),
			MissingEdges:   make(map[int]int),
		},
		rejected: make([]int, tree.LeafParent()+1),
		clipped:  make([]int, tree.LeafParent()+1),
		sink:     sink,
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
	if r != nil {
		r.tally(&r.rep.DuplicateReports, r.sink.M().DuplicateReports, "duplicate_report", node)
	}
}

// stale records a rejected stale-round message observed by node.
func (r *faultRecorder) stale(node string) {
	if r != nil {
		r.tally(&r.rep.StaleMessages, r.sink.M().StaleMessages, "stale_message", node)
	}
}

// timeout records a tolerated receive timeout at node.
func (r *faultRecorder) timeout(node string) {
	if r != nil {
		r.tally(&r.rep.Timeouts, r.sink.M().Timeouts, "timeout", node)
	}
}

// tally records one fault observed by node in a report field, its counter
// and the trace; the callers have checked r for nil.
func (r *faultRecorder) tally(field *int, c *telemetry.Counter, event, node string) {
	r.mu.Lock()
	*field++
	r.mu.Unlock()
	c.Inc()
	if r.sink.Tracing() {
		r.sink.Emit(event, telemetry.String("node", node))
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

// injected records a Byzantine worker mutating its boundary report at
// iteration t according to the run's attack plan. The injection is part
// of the scenario, not a fault, so it accumulates into the AttackReport
// rather than the FaultReport.
func (r *faultRecorder) injected(node string, t int, kind string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.inject == nil {
		r.inject = make(map[string]int)
	}
	r.inject[kind]++
	r.mu.Unlock()
	r.sink.AttackInject(node, t, kind)
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
	r.rejected[tier] += len(st.Rejected)
	r.clipped[tier] += len(st.Clipped)
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
