//go:build !race

package shard_test

// raceEnabled is false in ordinary test builds; see race_test.go.
const raceEnabled = false
