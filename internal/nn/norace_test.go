//go:build !race

package nn

// raceEnabled is false in ordinary test builds; see race_test.go.
const raceEnabled = false
