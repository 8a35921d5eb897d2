package membership

import (
	"fmt"
	"slices"
)

// Epoch is a maximal interval of edge rounds over which the worker→edge
// assignment is constant. A new epoch opens at a join round, the round after
// a leave, or a re-tiering round that actually changed the assignment.
type Epoch struct {
	// Start is the first edge round of the epoch (1-based).
	Start int
	// Cohorts[l] lists the leaf indices of the workers assigned to edge l,
	// ascending — the canonical aggregation order for the epoch.
	Cohorts [][]int
	// Retier marks an epoch opened by a cloud re-tiering step (as opposed to
	// a join/leave boundary); the cloud broadcasts REASSIGN for exactly
	// these epochs.
	Retier bool
}

// span records a worker's lifetime in edge rounds: live on [join, last].
type span struct {
	join, last int
}

// Schedule is the precomputed membership trajectory of a run: for every
// edge round 1..K, which workers are live and which edge each reports to.
// Workers are keyed by leaf index, and every cohort and reduction runs in
// ascending leaf order. It is a pure function of (plan, stats, topology,
// cadence), so every node builds the identical Schedule locally and no
// runtime decision-making is needed — see the package comment for why this
// is the determinism anchor.
type Schedule struct {
	NumEdges int
	// K is the number of edge rounds (T/τ).
	K int
	// Pi is the cloud sync period in edge rounds.
	Pi int
	// RetierEvery re-clusters workers every RetierEvery cloud syncs
	// (0 disables re-tiering). Re-tiering takes effect at rounds
	// k = m·Pi·RetierEvery + 1, i.e. the first round after an eligible sync.
	RetierEvery int

	epochs []Epoch
	// byRound maps round k (1-based; index 0 unused) to its epoch index.
	byRound []int
	// weight and spans are indexed by leaf.
	weight []float64
	spans  []span
}

// BuildSchedule validates plan against the topology and simulates the full
// membership trajectory. leaves[e] is the leaf index plan.Events[e] names,
// parents[j] leaf j's natal edge (every edge holds a leaf) and stats[j] its
// clustering statistic; K is the number of edge rounds, pi the cloud sync
// period, retierEvery the re-tiering cadence in cloud syncs (0 disables). A
// planned state in which some edge's live cohort cannot ever meet its
// quorum — the cluster computes quorums over live membership, so that means
// an empty cohort — yields a *CohortError naming the first offending round
// and edge, letting the runtime fail fast instead of hanging until
// RecvTimeout.
func BuildSchedule(plan Plan, leaves, parents []int, stats []WorkerStat, K, pi, retierEvery int) (*Schedule, error) {
	numEdges := 0
	if n := len(parents); n > 0 {
		numEdges = parents[n-1] + 1
	}
	if numEdges < 1 || K < 1 || pi < 1 || len(stats) != len(parents) || len(leaves) != len(plan.Events) {
		return nil, fmt.Errorf("membership: bad topology: edges=%d K=%d pi=%d workers=%d stats=%d", numEdges, K, pi, len(parents), len(stats))
	}
	if retierEvery < 0 {
		return nil, fmt.Errorf("membership: retier-every must be >= 0, got %d", retierEvery)
	}
	s := &Schedule{
		NumEdges: numEdges,
		K:        K,
		Pi:       pi,

		RetierEvery: retierEvery,
		byRound:     make([]int, K+1),
		weight:      make([]float64, len(stats)),
		spans:       make([]span, len(stats)),
	}
	for j := range s.spans {
		s.spans[j] = span{join: 1, last: K}
		s.weight[j] = stats[j].Weight
	}

	// Resolve per-worker lifetimes from the plan.
	joined := make([]bool, len(stats))
	left := make([]bool, len(stats))
	for e, ev := range plan.Events {
		j := leaves[e]
		if j < 0 || j >= len(stats) {
			return nil, fmt.Errorf("membership: plan names unknown worker %s", ev.Worker)
		}
		if ev.Round < 1 || ev.Round > K {
			return nil, fmt.Errorf("membership: %s %s @%d is outside rounds 1..%d", ev.Action, ev.Worker, ev.Round, K)
		}
		seen, at := joined, &s.spans[j].join
		if ev.Action == ActionLeave {
			seen, at = left, &s.spans[j].last
		}
		if seen[j] {
			return nil, fmt.Errorf("membership: worker %s has two %s events", ev.Worker, ev.Action)
		}
		seen[j], *at = true, ev.Round
		if sp := s.spans[j]; sp.last < sp.join {
			return nil, fmt.Errorf("membership: worker %s leaves at round %d before joining at round %d", ev.Worker, sp.last, sp.join)
		}
	}

	// Simulate the trajectory round by round. assigned[j] is live worker j's
	// current edge, -1 while it is not live; every loop runs in leaf order,
	// so every float reduction happens in a fixed order.
	assigned := make([]int, len(stats))
	for j := range assigned {
		assigned[j] = -1
	}
	for k := 1; k <= K; k++ {
		changed := k == 1
		for j, sp := range s.spans {
			if sp.join == k {
				assigned[j] = parents[j] // joiners start on their natal edge
				changed = changed || k > 1
			}
			if sp.last == k-1 {
				assigned[j] = -1
				changed = true
			}
		}
		var live []int
		for j, l := range assigned {
			if l >= 0 {
				live = append(live, j)
			}
		}
		// With fewer live workers than edges some cohort is empty whatever
		// the assignment: the check below names the first one.
		retierChanged := false
		if retierEvery > 0 && k > 1 && (k-1)%(pi*retierEvery) == 0 && len(live) >= numEdges {
			liveStats := make([]WorkerStat, len(live))
			for i, j := range live {
				liveStats[i] = stats[j]
			}
			newEdges, err := Assign(liveStats, numEdges)
			if err != nil {
				return nil, err
			}
			for i, j := range live {
				if assigned[j] != newEdges[i] {
					assigned[j] = newEdges[i]
					retierChanged = true
				}
			}
			changed = changed || retierChanged
		}

		if changed {
			cohorts := make([][]int, numEdges)
			for _, j := range live {
				cohorts[assigned[j]] = append(cohorts[assigned[j]], j)
			}
			const need = 1
			for l, cohort := range cohorts {
				if len(cohort) < need {
					return nil, &CohortError{Round: k, Edge: l, Live: len(cohort), Need: need}
				}
			}
			s.epochs = append(s.epochs, Epoch{Start: k, Cohorts: cohorts, Retier: retierChanged})
		}
		s.byRound[k] = len(s.epochs) - 1
	}
	return s, nil
}

// EpochIndex returns the index of the epoch covering round k (1..K).
func (s *Schedule) EpochIndex(k int) int {
	if k < 1 {
		k = 1
	}
	if k > s.K {
		k = s.K
	}
	return s.byRound[k]
}

// Epochs returns the number of epochs in the trajectory.
func (s *Schedule) Epochs() int { return len(s.epochs) }

// EpochAt returns the epoch covering round k.
func (s *Schedule) EpochAt(k int) Epoch { return s.epochs[s.EpochIndex(k)] }

// Cohort returns edge l's cohort during round k, in leaf order. Callers
// must not mutate the returned slice.
func (s *Schedule) Cohort(k, l int) []int { return s.EpochAt(k).Cohorts[l] }

// EdgeOf returns the edge worker j reports to during round k, or false when
// j is not live at k.
func (s *Schedule) EdgeOf(k, j int) (int, bool) {
	for l, cohort := range s.EpochAt(k).Cohorts {
		if slices.Contains(cohort, j) {
			return l, true
		}
	}
	return 0, false
}

// Span returns worker j's lifetime: its first and last live edge rounds.
func (s *Schedule) Span(j int) (join, last int) { return s.spans[j].join, s.spans[j].last }

// LiveCount returns the number of live workers during round k.
func (s *Schedule) LiveCount(k int) int {
	n := 0
	for _, cohort := range s.EpochAt(k).Cohorts {
		n += len(cohort)
	}
	return n
}

// Overlap reports whether edge l's cohort changed between rounds k-1 and k,
// and if so the data-weight fraction of the round-k cohort that was already
// present at round k-1 (the MigrateRescale factor). Round 1 reports no
// change.
func (s *Schedule) Overlap(k, l int) (frac float64, changed bool) {
	if k <= 1 || s.EpochIndex(k) == s.EpochIndex(k-1) {
		return 1, false
	}
	prev := s.Cohort(k-1, l)
	cur := s.Cohort(k, l)
	same := len(prev) == len(cur)
	kept, total := 0.0, 0.0
	for _, j := range cur {
		total += s.weight[j]
		if slices.Contains(prev, j) {
			kept += s.weight[j]
		} else {
			same = false
		}
	}
	if same {
		return 1, false
	}
	if total == 0 {
		return 0, true
	}
	return kept / total, true
}

// ReassignedAt lists live workers whose edge changed between rounds k-1 and
// k (excluding fresh joiners), in leaf order.
func (s *Schedule) ReassignedAt(k int) []int {
	if k <= 1 || s.EpochIndex(k) == s.EpochIndex(k-1) {
		return nil
	}
	var out []int
	for j, sp := range s.spans {
		if sp.join >= k || sp.last < k {
			continue
		}
		prev, okPrev := s.EdgeOf(k-1, j)
		cur, okCur := s.EdgeOf(k, j)
		if okPrev && okCur && prev != cur {
			out = append(out, j)
		}
	}
	return out
}

// Retierings counts the re-tiering epochs in the trajectory.
func (s *Schedule) Retierings() int {
	n := 0
	for _, ep := range s.epochs {
		if ep.Retier {
			n++
		}
	}
	return n
}

// Summary aggregates the trajectory's totals for reporting.
type Summary struct {
	// Joins counts workers that join after round 1.
	Joins int
	// Leaves counts workers that leave before the final round.
	Leaves int
	// Reassignments counts worker moves caused by re-tiering.
	Reassignments int
	// Retierings counts re-tiering steps that changed the assignment.
	Retierings int
	// Epochs is the number of distinct assignment intervals.
	Epochs int
	// InitialWorkers and FinalWorkers are the live counts at the first and
	// last rounds.
	InitialWorkers, FinalWorkers int
}

// Summarize computes the trajectory's Summary.
func (s *Schedule) Summarize() Summary {
	sum := Summary{
		Epochs:         len(s.epochs),
		Retierings:     s.Retierings(),
		InitialWorkers: s.LiveCount(1),
		FinalWorkers:   s.LiveCount(s.K),
	}
	for _, sp := range s.spans {
		if sp.join > 1 {
			sum.Joins++
		}
		if sp.last < s.K {
			sum.Leaves++
		}
	}
	for k := 2; k <= s.K; k++ {
		sum.Reassignments += len(s.ReassignedAt(k))
	}
	return sum
}
