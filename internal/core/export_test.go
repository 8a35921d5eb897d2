package core

import (
	"testing"

	"hieradmo/internal/fl"
	"hieradmo/internal/model"
)

// Hooks for the external test package, whose dispatch test reruns the golden
// scenarios of this package and of internal/baseline, which imports it.

// SetVectorBodies sets the switch that routes Step and the mean through their
// vector bodies and returns a function that restores it.
func SetVectorBodies(on bool) (restore func()) {
	was := vectorBodies
	vectorBodies = on
	return func() { vectorBodies = was }
}

// CheckGoldenSimulation holds every golden_sim.json scenario at pool size one.
func CheckGoldenSimulation(t *testing.T) { checkGoldenSimulation(t, 1) }

// BuildConfig is the toy IID config both golden files were recorded on.
func BuildConfig(t *testing.T, edges []int, seed uint64) *fl.Config {
	return buildConfig(t, edges, 0, seed)
}

// Capture wraps m to remember the parameters of its last Predict; the
// returned function is their digest, in the golden files' format.
func Capture(m model.Model) (model.Model, func() string) {
	c := &capturingModel{Model: m}
	return c, c.hash
}

// Bits is a float64 in the golden files' format.
func Bits(x float64) string { return bits(x) }
