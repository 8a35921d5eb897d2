package netsim

import "time"

// CurvePoint is one (iteration, accuracy) sample of a training run.
type CurvePoint struct {
	Iter int
	Acc  float64
}

// TimeToAccuracy replays curve onto tl and returns the simulated wall-clock
// time of the first recorded point whose accuracy reaches target.
func TimeToAccuracy(tl Timeline, curve []CurvePoint, target float64) (time.Duration, bool) {
	for _, p := range curve {
		if p.Acc >= target {
			return tl.At(p.Iter), true
		}
	}
	return 0, false
}
