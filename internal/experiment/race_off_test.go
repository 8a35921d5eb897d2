//go:build !race

package experiment

// raceEnabled is false in normal builds; see race_on_test.go.
const raceEnabled = false
