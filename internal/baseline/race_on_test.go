//go:build race

package baseline

// raceEnabled reports a race-detector build, under which sync.Pool drops a
// random share of what is Put (by design, to expose reuse bugs): the model's
// workspace pool then misses in steady state and the gradient step's
// zero-allocation pin does not apply.
const raceEnabled = true
