//go:build race

package experiment

// raceEnabled reports a race-detector build, whose instrumentation slows the
// bench-scale training runs of the claim tests past a test budget.
const raceEnabled = true
