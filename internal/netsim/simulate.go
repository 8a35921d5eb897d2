package netsim

import (
	"fmt"
	"time"

	"hieradmo/internal/rng"
)

// SimulateTwoTier builds the timeline of a synchronous two-tier run: every
// worker computes `period` iterations and exchanges the payload with the
// cloud over the WAN; the round ends when the slowest worker finishes.
func SimulateTwoTier(env *Env, payload Payload, tTotal, period int) (Timeline, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if period <= 0 || tTotal <= 0 || tTotal%period != 0 {
		return nil, fmt.Errorf("%w: T=%d period=%d", ErrEnv, tTotal, period)
	}
	r := rng.New(env.Seed).Split(0x2a2a)
	tl := make(Timeline, tTotal+1)
	var now time.Duration
	for p := 0; p < tTotal/period; p++ {
		var slowest time.Duration
		for _, w := range env.Workers {
			var compute time.Duration
			for it := 0; it < period; it++ {
				compute += w.Sample(r)
			}
			compute += env.WorkerCloud.Transfer(payload.WorkerUp, r)
			compute += env.WorkerCloud.Transfer(payload.WorkerDown, r)
			if compute > slowest {
				slowest = compute
			}
		}
		intervalTime := slowest + env.CloudCompute.Sample(r)
		for i := 1; i <= period; i++ {
			tl[p*period+i] = now + intervalTime*time.Duration(i)/time.Duration(period)
		}
		now += intervalTime
	}
	return tl, nil
}

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
