//go:build race

package model

// raceEnabled reports a race-detector build, where the allocation pin is
// skipped as internal/core's and internal/baseline's are.
const raceEnabled = true
