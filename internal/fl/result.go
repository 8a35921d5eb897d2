package fl

import (
	"fmt"
	"math"
)

// Point is one sample of the training trajectory.
type Point struct {
	// Iter is the local-iteration index t at which the point was recorded.
	Iter int
	// TestAcc is classification accuracy on the (possibly capped) test set.
	TestAcc float64
	// TrainLoss is the data-weighted average of the workers' latest
	// mini-batch losses.
	TrainLoss float64
}

// Result captures the outcome of one training run.
type Result struct {
	// Algorithm is the report name of the algorithm that produced the run.
	Algorithm string
	// FinalAcc is the full-test-set accuracy of the final global model.
	FinalAcc float64 //flvet:allow ckptstate -- written once after the final iteration, never mid-run
	// FinalLoss is the last recorded weighted training loss.
	FinalLoss float64 //flvet:allow ckptstate -- written once after the final iteration, never mid-run
	// Curve holds the recorded trajectory in iteration order, always ending
	// with a point at Iter == T.
	Curve []Point
	// Iterations is the configured T.
	Iterations int
	// FaultReport describes the faults a degraded distributed run survived;
	// nil for fault-free runs, which every simulation run is.
	FaultReport *FaultReport `json:",omitempty"`

	// Membership summarizes planned churn and re-tiering for runs with
	// dynamic membership enabled; nil for static runs.
	Membership *MembershipReport `json:",omitempty"`

	// AttackReport summarizes injected Byzantine updates and robust
	// aggregation decisions for runs with the robust layer enabled; nil
	// otherwise.
	AttackReport *AttackReport `json:",omitempty"`
}

// AccuracyAt returns the recorded accuracy of the last curve point at or
// before iteration t, or 0 if none was recorded yet.
func (r *Result) AccuracyAt(t int) float64 {
	acc := 0.0
	for _, p := range r.Curve {
		if p.Iter > t {
			break
		}
		acc = p.TestAcc
	}
	return acc
}

// String summarizes the result on one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s: acc=%.4f loss=%.4f (T=%d, %d curve points)",
		r.Algorithm, r.FinalAcc, r.FinalLoss, r.Iterations, len(r.Curve))
}

// LossesAgree reports whether two engines, summing one final loss in different
// orders, agree on it: equal, both NaN, or finite and within 1e-12·(1+|b|).
func LossesAgree(a, b float64) bool {
	return a == b || math.IsNaN(a) && math.IsNaN(b) || !math.IsInf(b, 0) && math.Abs(a-b) <= 1e-12*(1+math.Abs(b))
}
